"""Reachability/contraction tube construction and the existence certificate.

The tube couples, per Euler segment, a slice-wise transverse bound, phase
rate bounds (a, b), the regularized growth rate sigma, and two radius
chains: the linearly growing reachability radius alpha and the
exponentially evolving tube radius delta.  Certification checks that

* every segment's tube radius dominates the one-step error floor,
* the final tube slice cut by the start section lands strictly inside the
  initial disk, and
* return times over the initial disk are bounded away from zero,

and issues a machine-readable certificate with every constant, per-check
margin and estimator provenance.

The (a, b) bounds and the tube radii used for the slice bounds depend on
each other, so the builder repeats one refinement pass until its radii
hold: after a coarse first pass with a = b = 1 and a flat slice radius,
each pass samples Lambda and (a, b) on the previous pass's widened tube
radii, and the build stops once the tube it chains stays within them, or
once the first segment past them no longer moves forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .config import PipelineConfig, require_positive, require_step_count
from .constants import (
    EtaEstimate,
    GlobalConstants,
    SectionDisk,
    estimate_eta,
    estimate_lipschitz,
    estimate_magnitude_bounds,
    estimate_speed_bounds,
)
from .errors import (
    CycleCertError,
    InputError,
    InvalidReparametrizationError,
)
from .euler import (
    NODE_BUDGET,
    EulerTrajectory,
    Run,
    first_loop,
    return_times,  # noqa: F401  (benchmarks/tracing.py wraps this binding)
    simulate,  # noqa: F401  (benchmarks/tracing.py wraps this binding)
)
from .measures import (
    M_FLOOR,
    PAD_FACTOR,
    _rot90,
    mu_perp_batch,
    norm_planes,
    padded_extrema,
    planar_norm,
)
from .systems import VectorField
from .verdict import (
    delta_chain, growth, inclusion, piece_rates, radius_at, radius_excess,
    step_margins, widened_radius,
)


class Tube:
    """Arrays over segments 0..N1-1 plus the radius chains of length N1+1.

    ``delta`` is the tube radius chain of the build's last pass.
    ``anchors`` are the segments the slice bounds were sampled on and
    ``anchor_grids`` their :class:`SegmentGrids`, which the certificate's
    tube samples read again.  Lambda, a and b are held per piece of the
    anchors (``lam_pieces``, ``a_pieces``, ``b_pieces``; see
    :func:`piece_counts`); ``lam``, ``a_seg``, ``b_seg``, the reach chain
    ``alpha``, its bound ``M_f`` and ``m_tilde`` are formed from them and
    from ``traj`` the first time they are read.  Only the existence
    certificate reads them, so the disk sweep's tubes never form them.
    """

    def __init__(
        self,
        traj,
        N1,
        R1,
        delta0,
        gamma,
        lam_pieces,
        sigma,
        a_pieces,
        b_pieces,
        delta,
        sampled_radius,
        y0_disk,
        pass_history,
        anchors,
        anchor_grids,
    ):
        self.traj = traj
        self.h = float(traj.h)
        self.N1 = int(N1)
        self.R1 = float(R1)
        self.delta0 = float(delta0)
        self.gamma = float(gamma)
        self.lam_pieces = lam_pieces
        self.sigma = sigma
        self.a_pieces = a_pieces
        self.b_pieces = b_pieces
        self.delta = delta
        self.sampled_radius = sampled_radius
        self.y0_disk = y0_disk
        self.pass_history = pass_history
        self.anchors = anchors
        self.anchor_grids = anchor_grids
        self._m_tilde = None
        for arr in (self.delta, self.sigma):
            arr.setflags(write=False)

    def _per_segment(self, pieces):
        v = np.repeat(pieces, piece_counts(self.anchors))
        v.setflags(write=False)
        return v

    @cached_property
    def lam(self) -> np.ndarray:
        return self._per_segment(self.lam_pieces)

    @cached_property
    def a_seg(self) -> np.ndarray:
        return self._per_segment(self.a_pieces)

    @cached_property
    def b_seg(self) -> np.ndarray:
        return self._per_segment(self.b_pieces)

    @cached_property
    def M_f(self) -> float:
        """max |x| over the loop's nodes 0..N1, the reach chain's bound."""
        return float(planar_norm(self.traj.nodes[: self.N1 + 1]).max())

    @cached_property
    def alpha(self) -> np.ndarray:
        """The reach chain: alpha_0 = delta0, alpha_{i+1} = alpha_i + b_i M_f h."""
        alpha = np.concatenate(
            [[self.delta0], self.delta0 + np.cumsum(self.b_seg * self.M_f * self.h)]
        )
        alpha.setflags(write=False)
        return alpha

    @property
    def m_tilde(self) -> np.ndarray:
        """M~_i, the s-grid maximum of |x| on segment i, over blocks of
        ``AB_BLOCK`` segments."""
        if self._m_tilde is None:
            m = np.empty(self.N1)
            for lo in range(0, self.N1, AB_BLOCK):
                seg = slice(lo, min(lo + AB_BLOCK, self.N1))
                P0, P1, _, _ = segment_points(
                    self.traj, self.N1, self.anchor_grids.s, seg
                )
                m[seg] = norm_planes(P0, P1).max(axis=0)
            m.setflags(write=False)
            self._m_tilde = m
        return self._m_tilde

    @property
    def horizon(self) -> float:
        return self.N1 * self.h

    def delta_at(self, t: float) -> float:
        return float(self.deltas_at([t])[0])

    def deltas_at(self, ts) -> np.ndarray:
        """The radius delta_i e^{sigma_i s} at each of an array of times."""
        return radius_at(self.delta, self.sigma, self.h, ts)

    def summary(self) -> dict:
        return {
            "N1": self.N1,
            "R1": self.R1,
            "delta_end": float(self.delta[self.N1]),
            "delta_min": float(self.delta.min()),
            "delta_max": float(self.delta.max()),
            "sigma_stats": {
                "min": float(self.sigma.min()),
                "max": float(self.sigma.max()),
                "mean": float(self.sigma.mean()),
                "negative_fraction": float((self.sigma < 0).mean()),
            },
            "lambda_stats": {
                "min": float(self.lam.min()),
                "max": float(self.lam.max()),
            },
            "a_min": float(self.a_seg.min()),
            "b_max": float(self.b_seg.max()),
            "final_segment": "extended",  # covers ((N1-1)h, N1*h] entirely
        }


# --------------------------------------------------------------------------
# per-segment estimators: the one kernel for Lambda_i and for [a_i, b_i]
# --------------------------------------------------------------------------

# Slice sampling densities: N_S points of [0, h] along each segment; Lambda
# on N_BALL transverse offsets in [-1, 1] plus the center (LAMBDA_OFFSETS),
# (a, b) on AB_OFFSETS of them.  N_BALL is even, so its offsets miss the
# center; np.union1d would import numpy.ma, 12 ms of every start-up.
N_S = 5
N_BALL = 8
AB_OFFSETS = 5
LAMBDA_OFFSETS = np.sort(np.append(np.linspace(-1.0, 1.0, N_BALL), 0.0))
# The factor by which each refinement pass of build_tube widens the previous
# pass's tube radii into the slice radii it samples.
RADIUS_SAFETY = 1.05
# Pass 1 only guesses those radii, which radius_excess checks each later
# pass against, so it samples Lambda on every G-th anchor (and the last),
# with G = max(1, anchors // GUESS_ANCHORS): about as many at any stride.
GUESS_ANCHORS = 600
# Transverse margin, in units of delta0, around the tube samples that back
# the constants L, m and M_C.
REGION_MARGIN = 0.05

# Segments per block of the M~ loop, and anchors per block of the (a, b)
# profile: 8192 of them by 5 s-nodes keep each plane of a block
# and each temporary at 320 KiB.
AB_BLOCK = 8192
# Slice points per block of the Lambda profile, whose anchors are column
# slices of the anchor grid: 2^16 points (1456 anchors of 9 offsets by 5
# s-nodes) keep each of mu_perp_batch's temporaries at 512 KiB.
LAMBDA_BLOCK = 2**16


def segment_points(traj, N1, s, segs):
    """The points x_i + s_k f_i of the segments ``segs`` of 0..N1-1 as (n_s,
    K) planes P0, P1, and their directions f_i as (K,) arrays FN0, FN1.
    f_i is (x_{i+1} - x_i)/h from the segments' own node rows."""
    C, D = traj.nodes[:N1][segs], traj.nodes[1 : N1 + 1][segs]
    FN0, FN1 = (D[:, 0] - C[:, 0]) / traj.h, (D[:, 1] - C[:, 1]) / traj.h
    return C[:, 0] + s[:, None] * FN0, C[:, 1] + s[:, None] * FN1, FN0, FN1


class SegmentGrids:
    """Shared s-grid data over segments ``segs`` (a slice or index array,
    default all) of 0..N1-1 of ``traj``, one plane (n_s, K) per coordinate
    for K of them, and the trajectory's field as ``field``.

    ``(P0[k, j], P1[k, j])`` is the point x_i + s_k f_i on the j-th segment
    i (s_k on ``n_s`` points of [0, h]), ``(FC0, FC1)`` and ``nFC`` the
    field and its norm there, and ``(W0, W1)`` the unit transverse
    direction along which the slices extend.  ``FN0, FN1`` (K,) are the
    segment directions f_i.  Norms are taken in planar components
    (:func:`norm_planes`), bit for bit those of ``np.linalg.norm``.
    """

    def __init__(self, traj, N1, n_s, segs=slice(None)):
        self.field = traj.field
        self.N1 = N1
        self.n_s = n_s
        self.s = np.linspace(0.0, traj.h, n_s)
        self.P0, self.P1, self.FN0, self.FN1 = segment_points(traj, N1, self.s, segs)
        FC0, FC1 = self.FC0, self.FC1 = self.field.f_planes(self.P0, self.P1)
        self.nFC = norm_planes(FC0, FC1)
        self.W0 = -FC1 / self.nFC
        self.W1 = FC0 / self.nFC


def lambda_profile(grids, radius, anchors, cols=None):
    """Transverse bounds Lambda_i via strided anchor sampling, one per piece
    of ``anchors`` (:func:`piece_counts`).

    ``grids`` and the slice radii ``radius`` share their columns: anchor j
    is read from column ``cols[j]``, by default column ``anchors[j]`` of a
    grid over every segment.  Anchor slices are sampled on the (offset, s)
    grid, ``LAMBDA_OFFSETS`` by the ``N_S`` s-nodes, padded by
    :func:`~cyclecert.measures.padded_extrema` and bridged by
    :func:`anchor_bridge`.

    The anchor slices are sampled over blocks of at most ``LAMBDA_BLOCK``
    slice points (and at least one anchor), so the working arrays stay
    cache-sized whatever N1 and the stride are.  Every value is taken per
    anchor, so the block size does not change the result.
    """
    cols = anchors if cols is None else cols
    lamA = np.empty(anchors.size)
    chunk = max(1, LAMBDA_BLOCK // (LAMBDA_OFFSETS.size * grids.n_s))
    for lo in range(0, anchors.size, chunk):
        A = slice(lo, lo + chunk)
        # np.take, unlike v[:, cols[A]], returns C-ordered planes, which
        # keep the kernel's and padded_extrema's passes contiguous
        P0, P1, W0, W1, rA = (
            np.take(v, cols[A], axis=1)
            for v in (grids.P0, grids.P1, grids.W0, grids.W1, radius)
        )
        # the slice points P + t W, formed in place: P0 + t W0, P1 + t W1
        t = LAMBDA_OFFSETS[:, None, None] * rA
        X0 = t * W0
        X0 += P0
        X1 = np.multiply(t, W1, out=t)
        X1 += P1
        vals = mu_perp_batch(grids.field, X0, X1)  # (n_off, n_s, |A|)
        lamA[A] = padded_extrema(vals)[1]
    return anchor_bridge(lamA, anchors, 1.0)


def ab_profile(grids, radius, anchors):
    """Phase-rate bounds (a_i, b_i) via strided anchor sampling, one pair per
    piece of ``anchors`` (:func:`piece_counts`).

    ``grids`` and ``radius`` have columns as for :func:`lambda_profile`.
    Anchor slices are sampled with the closed form of the phase rate (its
    scalar form is the test oracle ``tests/oracles.py`` ``theta_dot``) on
    ``AB_OFFSETS`` offsets and the s-grid, padded by
    :func:`~cyclecert.measures.padded_extrema` and bridged by
    :func:`anchor_bridge`.  The anchors run in blocks of
    ``AB_BLOCK``, each one (offsets, n_s, block) array of phase rates.  A
    vanishing denominator is reported at the first offset, and on it the
    first anchor segment, where one occurs; a_i <= 0 means the step is too
    large or the tube too fat, and is reported at the first segment of the
    first piece that takes it.
    """
    field = grids.field
    offs = np.linspace(-1.0, 1.0, AB_OFFSETS)
    aA, bA = np.empty(anchors.size), np.empty(anchors.size)
    per_segment = grids.P0.shape[1] != anchors.size
    work = np.empty((4 + offs.size, grids.n_s, min(AB_BLOCK, anchors.size)))
    vanished = np.full(offs.size, grids.N1)  # per offset, its first segment
    for lo in range(0, anchors.size, AB_BLOCK):
        A = slice(lo, lo + AB_BLOCK)
        cols = anchors[A] if per_segment else A
        P0, P1, W0, W1, FC0, FC1, nFC, r = (
            v[:, cols]
            for v in (grids.P0, grids.P1, grids.W0, grids.W1, grids.FC0,
                      grids.FC1, grids.nFC, radius)
        )
        floor, buf, den, t = work[:4, :, : r.shape[1]]
        tds = work[4:, :, : r.shape[1]]  # the block's phase rates per offset
        np.multiply(M_FLOOR, nFC, out=floor)
        low = np.empty(P0.shape, dtype=bool)
        j00, j01, j10, j11 = field.jac_planes(P0, P1)
        FN0, FN1 = grids.FN0[cols], grids.FN1[cols]
        Jf0 = j00 * FN0 + j01 * FN1
        Jf1 = j10 * FN0 + j11 * FN1
        base = FN0 * FC0 + FN1 * FC1
        for k, o in enumerate(offs):
            # each step is the IEEE operation of the expression beside it,
            # written into a plane once that plane's last value is read
            np.multiply(o, r, out=t)
            XI0 = np.multiply(t, W0, out=tds[k])
            XI0 += P0  # P0 + t W0
            XI1 = np.multiply(t, W1, out=t)
            XI1 += P1  # P1 + t W1
            FX0, FX1 = field.f_planes(XI0, XI1)
            np.multiply(FX0, FC0, out=den)
            den += np.multiply(FX1, FC1, out=buf)  # FX0 FC0 + FX1 FC1
            if np.less(np.abs(den, out=buf), floor, out=low).any():
                first = anchors[lo + low.any(axis=0).argmax()]
                vanished[k] = min(vanished[k], first)
            if vanished.min() < grids.N1:  # only the denominators matter now
                continue
            # td = (base - ((XI0 - P0) Jf0 + (XI1 - P1) Jf1)) / den
            td = np.subtract(XI0, P0, out=XI0)
            td *= Jf0
            td += np.multiply(np.subtract(XI1, P1, out=buf), Jf1, out=buf)
            np.subtract(base, td, out=td)
            td /= den
        if vanished.min() == grids.N1:
            aA[A], bA[A] = padded_extrema(tds)
    if vanished.min() < grids.N1:
        raise InvalidReparametrizationError(
            f"phase-rate denominator vanished at segment "
            f"{vanished[vanished < grids.N1][0]}; step too large or tube too fat"
        )
    a, b = anchor_bridge(aA, anchors, -1.0), anchor_bridge(bA, anchors, 1.0)
    if np.any(a <= 0.0):
        bad = int(np.nonzero(a <= 0.0)[0][0])
        segment = anchors[0] + int(piece_counts(anchors)[:bad].sum())
        raise InvalidReparametrizationError(
            f"phase-rate lower bound {a[bad]:g} <= 0 at segment {segment}"
        )
    return a, b


def piece_counts(anchors):
    """The segments of each piece of anchors[0]..anchors[-1], in segment
    order.  A piece is an anchor (one segment) or the non-empty gap of the
    segments strictly between two neighbouring anchors, on which
    :func:`anchor_bridge` gives one value; ``np.repeat(v, piece_counts(a))``
    spreads such values over the segments."""
    count = np.ones(2 * anchors.size - 1, dtype=np.int64)
    count[1::2] = np.diff(anchors) - 1
    return count[count > 0]


def anchor_bridge(vA, anchors, side):
    """One value per piece of ``anchors`` (:func:`piece_counts`) from a
    lower (``side`` -1) or upper (+1) bound ``vA`` on the anchors: vA_j on
    anchor j, and on the segments strictly between anchors j and j+1 the
    worse of vA_j and vA_{j+1}, widened by the curvature pad PAD_FACTOR
    max(c_j, c_{j+1}) / 8, where c_k is the |second difference| of vA at
    anchor k and an end anchor takes its neighbor's (c = 0 below three
    anchors)."""
    c = np.abs(np.diff(vA, 2))
    c = np.pad(c, 1, mode="edge") if c.size else np.zeros(vA.size)
    pad = PAD_FACTOR * np.maximum(c[:-1], c[1:]) / 8
    worse = np.minimum(vA[:-1], vA[1:]) if side < 0 else np.maximum(vA[:-1], vA[1:])
    out = np.empty(2 * vA.size - 1)  # anchor 0, gap 0, anchor 1, ...
    out[0::2] = vA
    out[1::2] = worse + side * pad
    kept = np.ones(out.size, dtype=bool)
    kept[1::2] = np.diff(anchors) > 1
    return out[kept]


def stride_indices(n, stride):
    """0, stride, 2 stride, ... below n, and n - 1."""
    idx = np.arange(0, n, stride)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


def build_tube(
    traj: EulerTrajectory,
    R1: float,
    N1: int,
    delta0: float,
    gamma: float,
    config: PipelineConfig = PipelineConfig(),
) -> Tube:
    """Build the tube over one return loop of ``traj``, on its field,
    repeating one pass until its radii hold.

    Lambda and (a, b) are sampled on the anchor segments' grid.  The anchors
    are every ``config.lambda_stride``-th segment and the last one.  Lambda,
    (a, b), the rates sigma and their exponentials are taken once per piece
    of the sampled anchors (:func:`piece_counts`), and spread over the
    segments only where a per-segment array is read: sigma, and the delta
    chain's factors e^{sigma h}.  The sampled radius of a segment is its
    widened radius times its piece's s-grid growth.  The arithmetic from
    the sampled bounds on is :mod:`~cyclecert.verdict`'s.
    The last pass's delta chain is both its history entry and the tube's
    radii.

    Pass 1 (a = b = 1, flat slice radius delta0) is a coarse guess: it
    samples Lambda on about ``GUESS_ANCHORS`` of the anchors, every G-th and
    the last, and bridges them by :func:`anchor_bridge`.  Every later pass
    samples Lambda and (a, b) on every anchor, on one radius: the previous
    pass's RADIUS_SAFETY delta_i e^{sigma_i s}.  It chains delta and takes
    :func:`radius_excess` against that radius, which its history entry
    records (pass 1, which sampled no (a, b), records segment 0).  The build
    stops at the first pass with no excess, or whose excess lies at or
    before the previous pass's; the certificate then blocks on that
    segment.  The excess rises strictly from pass to pass, so the build
    ends.  An error raised inside a pass carries the history of the passes
    before it as ``pass_history``.
    """
    for name, value in (("h", traj.h), ("delta0", delta0), ("gamma", gamma)):
        require_positive(name, value)
    config.validate()

    f0 = (traj.nodes[1] - traj.nodes[0]) / traj.h
    y0_disk = SectionDisk(traj.nodes[0], delta0, f0)
    anchors = stride_indices(N1, config.lambda_stride)
    grids = SegmentGrids(traj, N1, N_S, anchors)

    a = b = None
    radius = np.full((grids.n_s, anchors.size), delta0)
    # the anchor grid's columns that each pass samples Lambda on
    cols = stride_indices(anchors.size, max(1, anchors.size // GUESS_ANCHORS))
    history, excess = [], 0
    try:
        while True:
            # the segments of each piece of this pass's Lambda anchors
            count = piece_counts(anchors[cols])
            lam = lambda_profile(grids, radius, anchors[cols], cols)
            if a is None:
                a = b = np.ones(lam.size)
            rate = piece_rates(lam, a, b, gamma, count)
            sigma = np.repeat(rate, count)
            delta_nodes = delta_chain(rate, count, delta0, traj.h)
            # pass 1 sampled no (a, b), so its bounds back no segment
            last = excess
            excess = radius_excess(delta_nodes, sampled_radius) if history else 0
            history.append(
                {
                    "pass": len(history) + 1,
                    "K": float(traj.h * sigma.sum()),
                    "delta_end": float(delta_nodes[-1]),
                    "a_min": float(a.min()),
                    "b_max": float(b.max()),
                    "radius_excess": excess,
                }
            )
            if len(history) > 1 and (excess is None or excess <= last):
                break
            # the next pass's slice radii, the widened tube radii
            # RADIUS_SAFETY delta_i e^{sigma_i s}, and their s-grid maxima
            s = grids.s
            sampled_radius = widened_radius(
                RADIUS_SAFETY * delta_nodes[:N1], rate, count, s
            )
            plane = growth(sigma[None, anchors], s[:, None])
            radius = RADIUS_SAFETY * delta_nodes[None, anchors] * plane
            a, b = ab_profile(grids, radius, anchors)
            cols = np.arange(anchors.size)
    except CycleCertError as exc:
        exc.pass_history = history  # the passes that ran before it
        raise

    return Tube(
        traj, N1, R1, delta0, gamma, lam, sigma, a, b,
        delta_nodes, sampled_radius, y0_disk, history, anchors, grids,
    )


# --------------------------------------------------------------------------
# certificate conditions
# --------------------------------------------------------------------------


@dataclass
class StepConditionReport:
    """Per-segment margins of the tube-radius-vs-error-floor condition."""

    margins: np.ndarray
    rhs: np.ndarray
    holds: bool
    min_margin: float
    argmin: int
    rhs_max: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "min_margin": self.min_margin,
            "argmin_i": self.argmin,
            "rhs_max": self.rhs_max,
        }


def check_step_condition(
    tube: Tube, constants: GlobalConstants
) -> StepConditionReport:
    """Check delta_{i-1}(s) >= h (M_i (2L/(gamma a_i) + 1) + b_i M_f) per
    segment, by :func:`~cyclecert.verdict.step_margins`."""
    margins, rhs = step_margins(
        tube.delta, tube.m_tilde, tube.a_seg, tube.b_seg, constants.L,
        constants.M_f, tube.gamma, tube.h,
    )
    k = int(np.argmin(margins))
    return StepConditionReport(
        margins=margins,
        rhs=rhs,
        holds=bool(np.all(margins >= 0.0)),
        min_margin=float(margins[k]),
        argmin=k + 1,  # condition indexes segments from 1
        rhs_max=float(rhs.max()),
    )


@dataclass
class InclusionReport:
    """Return-slice inclusion: numeric sufficient test plus geometric sampling."""

    lhs: float
    rhs: float
    sufficient_holds: bool
    geometric_holds: Optional[bool]
    geometric_max_dist: Optional[float]
    geometric_points: int
    return_gap: float

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.sufficient_holds,
            "geometric_check": {
                "holds": self.geometric_holds,
                "max_dist": self.geometric_max_dist,
                "points": self.geometric_points,
            },
            "return_gap": self.return_gap,
        }


# Points of the final segment at which check_return_inclusion cuts the
# tube slice with the start section.
INCLUSION_SAMPLES = 64


def check_return_inclusion(tube: Tube) -> InclusionReport:
    """Check that the final tube slice cut by the start section fits in Y0.

    Sufficient numeric test: |x(R1) - x0| + delta(R1) < delta0 (strict).
    Geometric test: walk the final segment at ``INCLUSION_SAMPLES`` points,
    intersect each transverse tube segment with the start section and
    verify every intersection point lies inside the initial disk.
    """
    traj = tube.traj
    x0 = traj.nodes[0]
    n0 = tube.y0_disk.normal  # f_0 = (x_1 - x_0)/h
    xr = traj.dense_point(tube.R1)
    gap = float(np.linalg.norm(xr - x0))
    lhs, sufficient = inclusion(gap, tube.delta_at(tube.R1), tube.delta0)

    i = tube.N1 - 1
    h = tube.h
    s = np.linspace(0.0, h, INCLUSION_SAMPLES)
    f_i = (traj.nodes[i + 1] - traj.nodes[i]) / h
    c = traj.nodes[i][None, :] + s[:, None] * f_i[None, :]
    fc = traj.field.f_raw(c)
    w = _rot90(fc) / np.linalg.norm(fc, axis=-1, keepdims=True)
    r = tube.delta[i] * growth(tube.sigma[i], s)
    wn = w @ n0
    gc = (c - x0) @ n0
    dists = []
    scale = np.linalg.norm(n0)
    for k in range(INCLUSION_SAMPLES):
        if abs(wn[k]) > 1e-12 * scale:
            u = -gc[k] / wn[k]
            if abs(u) <= r[k]:
                q = c[k] + u * w[k]
                dists.append(np.linalg.norm(q - x0))
        elif abs(gc[k]) <= 1e-9 * scale:
            # slice parallel to and inside the section: check endpoints
            for sgn in (-1.0, 1.0):
                dists.append(np.linalg.norm(c[k] + sgn * r[k] * w[k] - x0))
    pts_checked = len(dists)
    geo_holds = geo_max = None
    if pts_checked:
        geo_max = float(max(dists))
        geo_holds = geo_max <= tube.delta0
    return InclusionReport(
        lhs=float(lhs),
        rhs=float(tube.delta0),
        sufficient_holds=bool(sufficient),
        geometric_holds=geo_holds,
        geometric_max_dist=geo_max,
        geometric_points=pts_checked,
        return_gap=gap,
    )


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


@dataclass
class ExistenceCertificate:
    """Verdict plus every constant and per-condition result of the run."""

    verdict: str
    system: str
    params: dict
    x0: list
    h: float
    delta0: float
    gamma: float
    R1: Optional[float] = None
    N1: Optional[int] = None
    step_condition: Optional[StepConditionReport] = None
    inclusion: Optional[InclusionReport] = None
    eta: Optional[EtaEstimate] = None
    constants: Optional[GlobalConstants] = None
    tube_summary: Optional[dict] = None
    pass_history: list = dc_field(default_factory=list)
    failure: Optional[dict] = None
    flags: dict = dc_field(default_factory=dict)
    # live objects for downstream consumers; not serialized
    tube: Optional[Tube] = dc_field(default=None, repr=False)
    trajectory: Optional[EulerTrajectory] = dc_field(default=None, repr=False)
    config: Optional[PipelineConfig] = dc_field(default=None, repr=False)
    horizon: Optional[float] = dc_field(default=None, repr=False)
    # the Euler run from x0 that ``trajectory`` views, and the R' sweep's
    # runs at step h, in ``tube.y0_disk.sweep_points`` order: the basin
    # sweep continues them, and the error curve continues ``run``
    run: Optional[Run] = dc_field(default=None, repr=False)
    start_runs: list = dc_field(default_factory=list, repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        doc = {
            "kind": "existence-certificate",
            "verdict": self.verdict,
            "system": self.system,
            "params": self.params,
            "x0": self.x0,
            "h": self.h,
            "delta0": self.delta0,
            "gamma": self.gamma,
            "conditions": {
                "eq_h": self.step_condition.to_dict() if self.step_condition else None,
                "eq_new": self.inclusion.to_dict() if self.inclusion else None,
                "eta": {
                    "eta": self.eta.eta,
                    "T_lo": self.eta.T_lo,
                    "T_hi": self.eta.T_hi,
                    "R_prime": self.eta.R_prime,
                    "holds": self.eta.eta > 0.0,
                }
                if self.eta
                else None,
            },
            "constants": self.constants.to_dict() if self.constants else None,
            "tube_summary": self.tube_summary,
            "pass_history": self.pass_history,
            "failure": self.failure,
            "flags": self.flags,
        }
        return doc


def _collect_tube_samples(tube, extra_radius, use_delta=True):
    """Sample points covering the final tube: slices on the anchor grid
    the tube was built on.

    With ``use_delta=False`` only the segment grid inflated by
    ``extra_radius`` is sampled; the one-step error bound needs the growth
    constant between segment points only, so that narrower set backs the
    Lipschitz estimate while the magnitude bounds cover the full tube.
    """
    g, anchors = tube.anchor_grids, tube.anchors
    rad = np.full(g.P0.shape, extra_radius)
    if use_delta:
        rad = rad + tube.delta[anchors] * growth(tube.sigma[anchors], g.s[:, None])
    t = np.linspace(-1.0, 1.0, N_BALL)[:, None, None] * rad
    X0 = g.P0 + t * g.W0
    X1 = np.add(g.P1, np.multiply(t, g.W1, out=t), out=t)  # P1 + t W1
    return np.stack([X0, X1], axis=-1).reshape(-1, 2)


def certify_existence(
    field: VectorField,
    x0,
    h: float,
    delta0: float,
    gamma: float,
    config: PipelineConfig = PipelineConfig(),
    horizon: float = 10.0,
) -> ExistenceCertificate:
    """Full existence pipeline: first return, tube, conditions, verdict.

    The certificate's ``trajectory`` views the :func:`~cyclecert.euler.first_loop`
    of its ``run`` from x0: it ends at the chunk that holds R1, not at
    ``horizon``, and the R' sweep and the error curve's coarse run continue
    the run.

    Sub-computation failures (divergence, lost transversality, blocked
    return-time sweeps) are recorded as a failed certificate with blocking
    diagnostics rather than raised, except for plain input errors.
    """
    config.validate()
    values = {"h": h, "delta0": delta0, "gamma": gamma, "horizon": horizon}
    for name, value in values.items():
        require_positive(name, value)
    require_step_count("h", h, horizon)
    nodes = max(config.sweep_samples, 3) * (math.ceil(horizon / h) + 1)
    if nodes > NODE_BUDGET:  # R' keeps its runs (start_runs) of up to this many
        raise InputError(f"sweep_samples (--samples) = {config.sweep_samples} asks "
                         f"for {nodes} sweep nodes, over the budget of {NODE_BUDGET}")
    cert = ExistenceCertificate(
        verdict="failed",
        system=field.name,
        params=dict(field.params),
        x0=list(np.asarray(x0, dtype=float)),
        h=float(h),
        delta0=float(delta0),
        gamma=float(gamma),
        config=config,
        horizon=horizon,
    )
    try:
        run = Run(field, x0, h)
        loop = first_loop(run, horizon, delta0)
        if loop is None:
            cert.failure = {
                "reason": "no-return",
                "kind": "negative",
                "detail": f"no section return within horizon {horizon:g}",
            }
            return cert
        traj, R1, N1 = loop
        cert.R1, cert.N1 = float(R1), int(N1)
        cert.trajectory, cert.run = traj, run

        tube = build_tube(traj, R1, N1, delta0, gamma, config)
        cert.tube = tube
        cert.pass_history = tube.pass_history

        # final constants: growth constant along the (inflated) segments,
        # magnitude bounds over the built tube plus the margin
        margin = REGION_MARGIN * delta0
        seg_samples = _collect_tube_samples(tube, margin, use_delta=False)
        L = estimate_lipschitz(field, seg_samples)
        samples = _collect_tube_samples(tube, margin)
        m, _ = estimate_speed_bounds(field, samples)
        _, M_C = estimate_magnitude_bounds(samples)
        M_f = max(M_C, float(tube.m_tilde.max()))

        incl = check_return_inclusion(tube)
        # R' samples the basin sweep's start points, at least the center
        # and both endpoints; its sweep continues this run from x0 at the
        # center, and the basin sweep continues its runs
        runs = [
            run if z.tobytes() == run.x0.tobytes() else Run(field, z, h)
            for z in tube.y0_disk.sweep_points(max(config.sweep_samples, 3))
        ]
        eta = estimate_eta(tube, incl.lhs, min(horizon, 2.5 * R1), runs)
        cert.start_runs = runs
        constants = GlobalConstants(
            L=L,
            M_f=M_f,
            M_C=M_C,
            m=m,
            a=float(tube.a_seg.min()),
            b=float(tube.b_seg.max()),
            eta=eta.eta,
            T_lo=eta.T_lo,
            T_hi=eta.T_hi,
            R_prime=eta.R_prime,
            provenance={
                "lipschitz_mode": "spectral_radius",
                "magnitude_mode": "state",
                "region_margin": REGION_MARGIN,
                "n_s": N_S,
                "n_ball": N_BALL,
                "pad_factor": PAD_FACTOR,
                "lambda_stride": config.lambda_stride,
                "guess_anchors": GUESS_ANCHORS,
                "tube_samples": int(samples.shape[0]),
                "eta": eta.provenance(),
            },
        )
        constants.validate()
        cert.constants = constants

        step = check_step_condition(tube, constants)
        cert.step_condition = step
        cert.inclusion = incl
        cert.eta = eta
        cert.tube_summary = tube.summary()
        # the last pass took radius_excess of the radii the tube reports
        excess = tube.pass_history[-1]["radius_excess"]
        cert.flags["radius_consistent"] = excess is None

        if excess is not None:
            cert.failure = {
                "reason": "slice-radius-inconsistent",
                "kind": "blocking",
                "detail": "tube radii exceeded the slice radii the transverse "
                f"bounds were sampled on, first at segment {excess}: the "
                "refinement passes did not settle",
            }
            return cert
        if not step.holds:
            cert.failure = {
                "reason": "eq_h-violated",
                "kind": "negative",
                "detail": f"step condition fails first at segment {step.argmin} "
                f"with margin {step.min_margin:g}",
            }
            return cert
        if not incl.sufficient_holds:
            cert.failure = {
                "reason": "eq_new-violated",
                "kind": "negative",
                "detail": f"return slice not inside the initial disk: "
                f"{incl.lhs:g} >= {incl.rhs:g}",
            }
            return cert
        if not eta.eta > 0.0:
            cert.failure = {
                "reason": "eta-nonpositive",
                "kind": "negative",
                "detail": f"return-time lower bound T_lo = {eta.T_lo:g} <= 0"
                if eta.established
                else f"return-time interval not established: v = {eta.v:g}, "
                f"ball radius {eta.ball_radius:g} for rho = {eta.rho:g}",
            }
            return cert
        cert.verdict = "certified"
        return cert
    except InputError:
        raise
    except CycleCertError as e:
        cert.pass_history = getattr(e, "pass_history", cert.pass_history)
        cert.failure = {
            "reason": type(e).__name__,
            "kind": "blocking",
            "detail": str(e),
        }
        return cert
