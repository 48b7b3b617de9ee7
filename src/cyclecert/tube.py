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
each other, so the builder runs a short fixed-point iteration: a coarse
first pass with a = b = 1 and a flat slice radius, then refinement passes
that reuse the previous pass's radius profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
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
    NumericError,
)
from .euler import (
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
    sigma_rate,
)
from .systems import VectorField


class Tube:
    """Arrays over segments 0..N1-1 plus the radius chains of length N1+1.

    ``delta`` is the tube radius chain of the build's last pass.
    ``anchors`` are the segments the slice bounds were sampled on and
    ``anchor_grids`` their :class:`SegmentGrids`, which the certificate's
    tube samples read again.  ``m_tilde`` is formed from ``traj`` the first
    time it is read; only the existence certificate reads it, so the disk
    sweep's tubes never form it.
    """

    def __init__(
        self,
        traj,
        N1,
        R1,
        delta0,
        gamma,
        M_f,
        lam,
        sigma,
        a_seg,
        b_seg,
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
        self.M_f = float(M_f)
        self.lam = lam
        self.sigma = sigma
        self.a_seg = a_seg
        self.b_seg = b_seg
        self.delta = delta
        self.sampled_radius = sampled_radius
        self.y0_disk = y0_disk
        self.pass_history = pass_history
        self.anchors = anchors
        self.anchor_grids = anchor_grids
        self.step_floor = None  # populated by check_step_condition
        self._m_tilde = None

        # alpha accumulates the reach increments
        self.alpha = np.concatenate(
            [[delta0], delta0 + np.cumsum(b_seg * M_f * self.h)]
        )
        for arr in (self.delta, self.alpha, self.lam, self.sigma):
            arr.setflags(write=False)

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
        """The radius delta_i e^{sigma_i s} at each of an array of times.

        A time on a node (s == 0) takes delta_i itself, which is what
        delta_i * e^{sigma_i * 0} rounds to.
        """
        ts = np.asarray(ts, dtype=float)
        outside = (ts < 0.0) | (ts > self.horizon * (1 + 1e-12))
        if outside.any():
            t = ts[outside][0]
            raise InputError(f"time {t} outside tube horizon [0, {self.horizon}]")
        i = np.minimum((ts / self.h).astype(np.int64), self.N1 - 1)
        s = ts - i * self.h
        out = self.delta[i]
        off = np.nonzero(s != 0.0)[0]
        i = i[off]
        # math.exp: np.exp differs from it in the last ulp on some arguments
        exp = math.exp
        out[off] = [
            d * exp(g * x)
            for d, g, x in zip(
                self.delta[i].tolist(), self.sigma[i].tolist(), s[off].tolist()
            )
        ]
        return out

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
# Fixed-point passes of build_tube, and the factor by which each refinement
# pass widens the previous pass's tube radii into the slice radii it samples.
PASSES = 2
RADIUS_SAFETY = 1.05
# Pass 1 only guesses those radii, which radius_excess checks the final tube
# against, so it samples Lambda on every G-th anchor (and the last), with G
# = max(1, anchors // GUESS_ANCHORS): about as many anchors at any stride.
GUESS_ANCHORS = 600
# Transverse margin, in units of delta0, around the tube samples that back
# the constants L, m and M_C.
REGION_MARGIN = 0.05

# Segments per block of build_tube's segment loop, and anchors per block of
# the (a, b) profile: 8192 of them by 5 s-nodes keep each plane of a block
# and each temporary at 320 KiB.
AB_BLOCK = 8192
# Slice points per block of the Lambda profile, whose anchors are column
# slices of the anchor grid: 2^16 points (1456 anchors of 9 offsets by 5
# s-nodes) keep each of mu_perp_batch's temporaries at 512 KiB.
LAMBDA_BLOCK = 2**16


def segment_points(traj, N1, s, segs):
    """The points x_i + s_k f_i of the segments ``segs`` of 0..N1-1 as (n_s,
    K) planes P0, P1, and their directions f_i as (K,) arrays FN0, FN1."""
    C, FN = traj.nodes[:N1][segs], traj.seg_dirs[:N1][segs]
    FN0, FN1 = FN[:, 0].copy(), FN[:, 1].copy()
    return C[:, 0] + s[:, None] * FN0, C[:, 1] + s[:, None] * FN1, FN0, FN1


class SegmentGrids:
    """Shared s-grid data over segments ``segs`` (a slice or index array,
    default all) of 0..N1-1, one plane (n_s, K) per coordinate for K of them.

    ``(P0[k, j], P1[k, j])`` is the point x_i + s_k f_i on the j-th segment
    i (s_k on ``n_s`` points of [0, h]), ``(FC0, FC1)`` and ``nFC`` the
    field and its norm there, and ``(W0, W1)`` the unit transverse
    direction along which the slices extend.  ``FN0, FN1`` (K,) are the
    segment directions f_i.  Norms are taken in planar components
    (:func:`norm_planes`), bit for bit those of ``np.linalg.norm``.
    """

    def __init__(self, field, traj, N1, n_s, segs=slice(None)):
        self.N1 = N1
        self.n_s = n_s
        self.s = np.linspace(0.0, traj.h, n_s)
        self.P0, self.P1, self.FN0, self.FN1 = segment_points(traj, N1, self.s, segs)
        FC0, FC1 = self.FC0, self.FC1 = field.f_planes(self.P0, self.P1)
        self.nFC = norm_planes(FC0, FC1)
        self.W0 = -FC1 / self.nFC
        self.W1 = FC0 / self.nFC


def lambda_profile(field, grids, radius, anchors, cols=None):
    """Per-segment transverse bounds Lambda_i via strided anchor sampling.

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
        t = LAMBDA_OFFSETS[:, None, None] * rA
        vals = mu_perp_batch(field, P0 + t * W0, P1 + t * W1)  # (n_off, n_s, |A|)
        lamA[A] = padded_extrema(vals)[1]
    return anchor_bridge(lamA, anchors, grids.N1, 1.0)


def ab_profile(field, grids, radius, anchors):
    """Per-segment phase-rate bounds (a_i, b_i) via strided anchor sampling.

    ``grids`` and ``radius`` have columns as for :func:`lambda_profile`.
    Anchor slices are sampled with the closed form of
    :func:`~cyclecert.constants.theta_dot` on ``AB_OFFSETS`` offsets and
    the s-grid, padded by :func:`~cyclecert.measures.padded_extrema` and
    bridged by :func:`anchor_bridge`.  The anchors run in blocks of
    ``AB_BLOCK``, each one (offsets, n_s, block) array of phase rates.  A
    vanishing denominator is reported at the first offset, and on it the
    first anchor segment, where one occurs; a_i <= 0 means the step is too
    large or the tube too fat.
    """
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
    a_seg = anchor_bridge(aA, anchors, grids.N1, -1.0)
    b_seg = anchor_bridge(bA, anchors, grids.N1, 1.0)
    if np.any(a_seg <= 0.0):
        bad = int(np.nonzero(a_seg <= 0.0)[0][0])
        raise InvalidReparametrizationError(
            f"phase-rate lower bound {a_seg[bad]:g} <= 0 at segment {bad}"
        )
    return a_seg, b_seg


def anchor_bridge(vA, anchors, N1, side):
    """Per-segment values over anchors[0]..anchors[-1] of 0..N1-1 from a
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
    out = np.empty(N1)
    out[anchors[0] : anchors[-1]] = np.repeat(worse + side * pad, np.diff(anchors))
    out[anchors] = vA
    return out


def stride_indices(n, stride):
    """0, stride, 2 stride, ... below n, and n - 1."""
    idx = np.arange(0, n, stride)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


def build_tube(
    field: VectorField,
    traj: EulerTrajectory,
    R1: float,
    N1: int,
    delta0: float,
    gamma: float,
    M_f: float,
    config: PipelineConfig = PipelineConfig(),
) -> Tube:
    """Build the tube over one return loop with a short fixed-point iteration.

    Lambda and (a, b) are sampled on the anchor segments' grid, the sampled
    radius per block of ``AB_BLOCK`` segments.  The anchors are every
    ``config.lambda_stride``-th segment and the last one.  The last pass's
    delta chain is both its history entry and the tube's radii.

    Pass 1 (a = b = 1, flat slice radius delta0) is a coarse guess: it
    samples Lambda on about ``GUESS_ANCHORS`` of the anchors, every G-th and
    the last, and bridges them by :func:`anchor_bridge`.  Its delta chain
    only sets the radii that (a, b) and the final Lambda are sampled on, and
    :func:`radius_excess` checks the final tube against those radii.
    """
    for name, value in (("h", traj.h), ("delta0", delta0), ("gamma", gamma)):
        require_positive(name, value)
    config.validate()

    y0_disk = SectionDisk(traj.nodes[0], delta0, traj.seg_dirs[0])
    anchors = stride_indices(N1, config.lambda_stride)
    grids = SegmentGrids(field, traj, N1, N_S, anchors)
    sampled_radius = np.empty(N1)

    a_seg = np.ones(N1)
    b_seg = np.ones(N1)
    radius = np.full((grids.n_s, anchors.size), delta0)
    # the anchor grid's columns that each pass samples Lambda on
    cols = stride_indices(anchors.size, max(1, anchors.size // GUESS_ANCHORS))
    history = []
    for pass_no in range(1, PASSES + 1):
        lam = lambda_profile(field, grids, radius, anchors[cols], cols)
        sigma = sigma_rate(lam, a_seg, b_seg, gamma)
        delta_nodes = np.concatenate(
            [[delta0], delta0 * np.cumprod(np.exp(sigma * traj.h))]
        )
        history.append(
            {
                "pass": pass_no,
                "K": float(traj.h * sigma.sum()),
                "delta_end": float(delta_nodes[-1]),
                "a_min": float(a_seg.min()),
                "b_max": float(b_seg.max()),
            }
        )
        if pass_no == PASSES:
            break
        # the sampled (next pass's slice) radii: the s-grid maxima of the
        # widened tube radii delta_i e^{sigma_i s}
        for lo in range(0, N1, AB_BLOCK):
            seg = slice(lo, min(lo + AB_BLOCK, N1))
            growth = np.exp(sigma[seg] * grids.s[:, None])
            wide = RADIUS_SAFETY * delta_nodes[None, seg] * growth
            sampled_radius[seg] = wide.max(axis=0)
        # (a, b) on this pass's tube at the anchors; the next pass samples
        # Lambda on it widened by the safety factor
        growth = np.exp(sigma[None, anchors] * grids.s[:, None])
        a_seg, b_seg = ab_profile(
            field, grids, delta_nodes[None, anchors] * growth, anchors
        )
        radius = RADIUS_SAFETY * delta_nodes[None, anchors] * growth
        cols = np.arange(anchors.size)

    return Tube(
        traj, N1, R1, delta0, gamma, M_f, lam, sigma, a_seg, b_seg,
        delta_nodes, sampled_radius, y0_disk, history, anchors, grids,
    )


# Relative slack of radius_excess.
RADIUS_RTOL = 1e-3


def radius_excess(tube: Tube) -> Optional[int]:
    """The first segment whose final tube radius exceeds the radius its
    bounds were sampled on (a NaN radius counts), or None."""
    span = np.maximum(tube.delta[:-1], tube.delta[1:])
    ok = span <= tube.sampled_radius * (1.0 + RADIUS_RTOL) + 1e-300
    return None if ok.all() else int(ok.argmin())


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
    """Check delta_{i-1}(s) >= h (M_i (2L/(gamma a_i) + 1) + b_i M_f) per segment.

    The s-minimum of the tube radius sits at an endpoint of the segment
    (monotone exponential), so min(delta_{i-1}, delta_i) suffices.  A floor
    that is not finite (a gamma so small that 2L/(gamma a_i) overflows)
    raises NumericError: there is no condition to report.
    """
    h = tube.h
    with np.errstate(over="ignore"):  # an overflow is refused below
        rhs = h * (
            tube.m_tilde * (2.0 * constants.L / (tube.gamma * tube.a_seg) + 1.0)
            + tube.b_seg * constants.M_f
        )
    if not np.isfinite(rhs).all():
        i = int(np.argmin(np.isfinite(rhs)))
        raise NumericError(
            f"the step condition's floor is not finite at segment {i + 1}: "
            f"2L/(gamma a) = 2 * {constants.L!r} / ({tube.gamma!r} * "
            f"{float(tube.a_seg[i])!r})"
        )
    dmin = np.minimum(tube.delta[:-1], tube.delta[1:])
    margins = dmin - rhs
    k = int(np.argmin(margins))
    report = StepConditionReport(
        margins=margins,
        rhs=rhs,
        holds=bool(np.all(margins >= 0.0)),
        min_margin=float(margins[k]),
        argmin=k + 1,  # condition indexes segments from 1
        rhs_max=float(rhs.max()),
    )
    tube.step_floor = rhs
    return report


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


def check_return_inclusion(tube: Tube, traj: EulerTrajectory) -> InclusionReport:
    """Check that the final tube slice cut by the start section fits in Y0.

    Sufficient numeric test: |x(R1) - x0| + delta(R1) < delta0 (strict).
    Geometric test: walk the final segment at ``INCLUSION_SAMPLES`` points,
    intersect each transverse tube segment with the start section and
    verify every intersection point lies inside the initial disk.
    """
    x0 = traj.nodes[0]
    n0 = traj.seg_dirs[0]
    xr = traj.dense_point(tube.R1)
    gap = float(np.linalg.norm(xr - x0))
    d_r1 = tube.delta_at(tube.R1)
    lhs = gap + d_r1
    sufficient = lhs < tube.delta0

    i = tube.N1 - 1
    h = tube.h
    s = np.linspace(0.0, h, INCLUSION_SAMPLES)
    c = traj.nodes[i][None, :] + s[:, None] * traj.seg_dirs[i][None, :]
    fc = traj.field.f_raw(c)
    w = _rot90(fc) / np.linalg.norm(fc, axis=-1, keepdims=True)
    r = tube.delta[i] * np.exp(tube.sigma[i] * s)
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
        rad = rad + tube.delta[anchors] * np.exp(tube.sigma[anchors] * g.s[:, None])
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

        # provisional magnitude bound over flat-radius slices, for the
        # alpha bookkeeping inside the builder
        grids_pts = traj.nodes[: N1 + 1]
        _, M_f0 = estimate_magnitude_bounds(field, grids_pts)
        tube = build_tube(field, traj, R1, N1, delta0, gamma, M_f0, config)
        cert.tube = tube
        cert.pass_history = tube.pass_history

        # final constants: growth constant along the (inflated) segments,
        # magnitude bounds over the built tube plus the margin
        margin = REGION_MARGIN * delta0
        seg_samples = _collect_tube_samples(tube, margin, use_delta=False)
        L = estimate_lipschitz(field, seg_samples)
        samples = _collect_tube_samples(tube, margin)
        m, _ = estimate_speed_bounds(field, samples)
        _, M_C = estimate_magnitude_bounds(field, samples)
        M_f = max(M_C, float(tube.m_tilde.max()))

        incl = check_return_inclusion(tube, traj)
        # R' samples the basin sweep's start points, at least the center
        # and both endpoints; its sweep continues this run from x0 at the
        # center, and the basin sweep continues its runs
        n_samples = max(config.sweep_samples, 3)
        runs = [
            run if z.tobytes() == run.x0.tobytes() else Run(field, z, h)
            for z in tube.y0_disk.sweep_points(n_samples)
        ]
        eta = estimate_eta(
            field, tube, incl.lhs, horizon=min(horizon, 2.5 * R1),
            n_samples=n_samples, runs=runs,
        )
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
                "passes": PASSES,
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
        excess = radius_excess(tube)
        cert.flags["radius_consistent"] = excess is None

        if excess is not None:
            cert.failure = {
                "reason": "slice-radius-inconsistent",
                "kind": "blocking",
                "detail": "tube radii exceeded the slice radii the transverse "
                f"bounds were sampled on, first at segment {excess}: the "
                "fixed-point passes did not settle",
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
        cert.failure = {
            "reason": type(e).__name__,
            "kind": "blocking",
            "detail": str(e),
        }
        return cert
