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
each other, so the builder runs a short fixed-point iteration: a first pass
with a = b = 1 and a flat slice radius, then refinement passes that reuse
the previous pass's radius profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .config import PipelineConfig
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
    EulerTrajectory,
    Section,
    default_exclusion,
    return_times,
    simulate,
)
from .measures import (
    M_FLOOR,
    _rot90,
    mu_perp_batch,
    planar_norm,
    sigma_rate,
)
from .systems import VectorField


class Tube:
    """Arrays over segments 0..N1-1 plus the radius chains of length N1+1."""

    def __init__(
        self,
        h,
        N1,
        R1,
        delta0,
        gamma,
        M_f,
        lam,
        sigma,
        a_seg,
        b_seg,
        m_tilde,
        sampled_radius,
        y0_disk,
        pass_history,
        slice_mode,
    ):
        self.h = float(h)
        self.N1 = int(N1)
        self.R1 = float(R1)
        self.delta0 = float(delta0)
        self.gamma = float(gamma)
        self.M_f = float(M_f)
        self.lam = lam
        self.sigma = sigma
        self.a_seg = a_seg
        self.b_seg = b_seg
        self.m_tilde = m_tilde
        self.sampled_radius = sampled_radius
        self.y0_disk = y0_disk
        self.pass_history = pass_history
        self.slice_mode = slice_mode
        self.step_floor = None  # populated by check_step_condition

        # delta chained step by step; alpha accumulates the reach increments
        self.delta = np.concatenate(
            [[delta0], delta0 * np.cumprod(np.exp(sigma * h))]
        )
        self.alpha = np.concatenate(
            [[delta0], delta0 + np.cumsum(b_seg * M_f * h)]
        )
        for arr in (self.delta, self.alpha, self.lam, self.sigma):
            arr.setflags(write=False)

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
            "slice_mode": self.slice_mode,
            "final_segment": "extended",  # covers ((N1-1)h, N1*h] entirely
        }


# --------------------------------------------------------------------------
# per-segment estimators: the one kernel for Lambda_i and for [a_i, b_i]
# --------------------------------------------------------------------------

# Each sampled extremum (Lambda_i, a_i, b_i) is widened by this factor
# times its neighbor-jump pad.
PAD_FACTOR = 1.0
# Fixed-point passes of build_tube, and the factor by which each refinement
# pass widens the previous pass's tube radii into the slice radii it samples.
PASSES = 2
RADIUS_SAFETY = 1.05
# Transverse margin, in units of delta0, around the tube samples that back
# the constants L, m and M_C.
REGION_MARGIN = 0.05

# Segments per block of the (a, b) profile.
AB_BLOCK = 8192
# Slice points per block of the Lambda profile: 2^16 points (1456 anchors of
# 9 offsets by 5 s-nodes) keep each of mu_perp_batch's temporaries at 512 KiB.
LAMBDA_BLOCK = 2**16


class SegmentGrids:
    """Shared s-grid data over segments 0..N1-1 of one loop.

    ``P[k, i]`` is the point x_i + s_k f_i on segment i (s_k on ``n_s``
    points of [0, h]), ``FC`` and ``nFC`` the field and its norm there, and
    ``W`` the unit transverse direction along which the slices extend.
    Norms are taken in planar components (:func:`planar_norm`), bit for bit
    those of ``np.linalg.norm``.
    """

    def __init__(self, field, traj, N1, n_s):
        self.field = field
        self.h = traj.h
        self.N1 = N1
        self.n_s = n_s
        self.C = traj.nodes[:N1]
        self.FN = traj.seg_dirs[:N1]
        self.s = np.linspace(0.0, traj.h, n_s)
        # centers (n_s, N1, n) and their field values / transverse directions
        self.P = self.C + self.s[:, None, None] * self.FN
        self.FC = field.f_raw(self.P)
        self.nFC = planar_norm(self.FC)
        self.W = _rot90(self.FC) / self.nFC[..., None]

    def m_tilde(self) -> np.ndarray:
        """The per-segment magnitude bound M~_i: the largest |x| on the s-grid."""
        return planar_norm(self.P).max(axis=0)


def lambda_profile(field, grids, radius, anchors, cfg):
    """Per-segment transverse bounds Lambda_i via strided anchor sampling.

    ``radius``: (n_s, N1) slice radii.  Anchor slices are sampled on the
    (offset, s) grid, ``cfg.n_ball`` offsets in [-1, 1] plus the center,
    and padded by ``PAD_FACTOR`` times half the largest neighbor jump at
    the maximizer; segments between anchors take the larger neighboring
    anchor bound plus the full drift between them, scaled by PAD_FACTOR.
    Returns (lam, pad) arrays of shape (N1,).

    The anchor slices are sampled over blocks of at most ``LAMBDA_BLOCK``
    slice points (and at least one anchor), so the working arrays stay
    cache-sized whatever N1 and the stride are.  Every value is taken per
    anchor, so the block size does not change the result.
    """
    offs = np.linspace(-1.0, 1.0, cfg.n_ball)
    if not np.any(offs == 0.0):
        offs = np.sort(np.append(offs, 0.0))
    lamA = np.empty(anchors.size)
    padA = np.empty(anchors.size)
    chunk = max(1, LAMBDA_BLOCK // (offs.size * grids.n_s))
    for lo in range(0, anchors.size, chunk):
        A = anchors[lo : lo + chunk]
        rA = radius[:, A]
        pts = grids.P[:, A] + (offs[:, None, None] * rA)[..., None] * grids.W[:, A]
        vals = mu_perp_batch(field, pts)  # (n_off, n_s, |A|)
        mx = vals.max(axis=(0, 1))
        # half the largest neighbor jump at the per-anchor maximizer
        n_off, n_s, nA = vals.shape
        flat = vals.reshape(n_off * n_s, nA)
        arg = flat.argmax(axis=0)
        oi, si = np.unravel_index(arg, (n_off, n_s))
        cols = np.arange(nA)
        jump = np.zeros(nA)
        for d in (-1, 1):
            ok = (oi + d >= 0) & (oi + d < n_off)
            jump[ok] = np.maximum(
                jump[ok],
                np.abs(vals[oi[ok] + d, si[ok], cols[ok]] - mx[ok]),
            )
            ok = (si + d >= 0) & (si + d < n_s)
            jump[ok] = np.maximum(
                jump[ok],
                np.abs(vals[oi[ok], si[ok] + d, cols[ok]] - mx[ok]),
            )
        lamA[lo : lo + chunk] = mx
        padA[lo : lo + chunk] = PAD_FACTOR * 0.5 * jump
    lamA = lamA + padA

    # the segments strictly between anchors j and j+1, in order, take the
    # bridge of gap j
    lam = np.empty(grids.N1)
    pad = np.zeros(grids.N1)
    drift = PAD_FACTOR * np.abs(np.diff(lamA))
    gaps = np.diff(anchors) - 1
    inner = np.zeros(grids.N1, dtype=bool)
    inner[anchors[0] : anchors[-1] + 1] = True
    inner[anchors] = False
    lam[inner] = np.repeat(np.maximum(lamA[:-1], lamA[1:]) + drift, gaps)
    pad[inner] = np.repeat(drift, gaps)
    lam[anchors] = lamA
    pad[anchors] = padA
    return lam, pad


def ab_profile(field, grids, radius, cfg):
    """Per-segment phase-rate bounds (a_i, b_i) from the theta-dot grid.

    Evaluates the closed form of :func:`~cyclecert.constants.theta_dot` on
    ``cfg.ab_offsets`` transverse offsets up to the slice radius ``radius``
    (n_s, N1) and on the s-grid, then widens the observed range by
    ``PAD_FACTOR`` times the largest neighbor jump.  a_i must come out
    positive, otherwise the step is too large or the tube too fat.

    Runs over blocks of at most ``AB_BLOCK`` segments in planar components,
    keeping the minimum, the maximum and both neighbor jumps as running
    values over the offsets, so memory stays at a few (n_s, AB_BLOCK)
    arrays whatever N1 is.  A vanishing denominator is reported at the
    first offset, and on it the first segment, where one occurs.
    """
    offs = np.linspace(-1.0, 1.0, cfg.ab_offsets)
    a_seg = np.empty(grids.N1)
    b_seg = np.empty(grids.N1)
    vanished = None  # (offset, segment) of the first vanishing denominator
    for lo in range(0, grids.N1, AB_BLOCK):
        seg = slice(lo, lo + AB_BLOCK)
        P, W, r = grids.P[:, seg], grids.W[:, seg], radius[:, seg]
        FC, nFC = grids.FC[:, seg], grids.nFC[:, seg]
        FC0, FC1 = FC[..., 0], FC[..., 1]
        if vanished is None:
            J = field.jac_raw(P)
            FN0, FN1 = grids.FN[seg, 0], grids.FN[seg, 1]
            Jf0 = J[..., 0, 0] * FN0 + J[..., 0, 1] * FN1
            Jf1 = J[..., 1, 0] * FN0 + J[..., 1, 1] * FN1
            del J
            base = FN0 * FC0 + FN1 * FC1
            amin = np.full(nFC.shape[1], np.inf)
            bmax = np.full(nFC.shape[1], -np.inf)
            jump = np.zeros(nFC.shape[1])
        # past a vanishing denominator only the earlier offsets are checked
        for k, o in enumerate(offs if vanished is None else offs[: vanished[0]]):
            XI = P + (o * r)[..., None] * W
            FX = field.f_raw(XI)
            den = FX[..., 0] * FC0 + FX[..., 1] * FC1
            low = np.abs(den) < M_FLOOR * nFC
            if low.any():
                vanished = (k, lo + int(np.nonzero(low.any(axis=0))[0][0]))
                break
            if vanished is not None:
                continue
            D0, D1 = XI[..., 0] - P[..., 0], XI[..., 1] - P[..., 1]
            td = (base - (D0 * Jf0 + D1 * Jf1)) / den
            amin = np.minimum(amin, td.min(axis=0))
            bmax = np.maximum(bmax, td.max(axis=0))
            if k:
                jump = np.maximum(jump, np.abs(td - prev).max(axis=0))
            jump = np.maximum(jump, np.abs(np.diff(td, axis=0)).max(axis=0))
            prev = td
        if vanished is None:
            margin = PAD_FACTOR * jump
            a_seg[seg] = amin - margin
            b_seg[seg] = bmax + margin
    if vanished is not None:
        raise InvalidReparametrizationError(
            f"phase-rate denominator vanished at segment {vanished[1]}; step too "
            "large or tube too fat"
        )
    if np.any(a_seg <= 0.0):
        bad = int(np.nonzero(a_seg <= 0.0)[0][0])
        raise InvalidReparametrizationError(
            f"phase-rate lower bound {a_seg[bad]:g} <= 0 at segment {bad}"
        )
    return a_seg, b_seg


def build_tube(
    field: VectorField,
    traj: EulerTrajectory,
    R1: float,
    N1: int,
    delta0: float,
    gamma: float,
    M_f: float,
    config: PipelineConfig = PipelineConfig(),
    sigma_override=None,
) -> Tube:
    """Build the tube over one return loop with a short fixed-point iteration.

    ``sigma_override`` (test hook) replaces every per-step rate by a constant
    or an array, bypassing the slice bounds.
    """
    if delta0 <= 0.0:
        raise InputError("delta0 must be positive")
    if gamma <= 0.0:
        raise InputError("gamma must be positive")
    config.validate()

    grids = SegmentGrids(field, traj, N1, config.n_s)
    m_tilde = grids.m_tilde()
    y0_disk = SectionDisk(traj.nodes[0], delta0, traj.seg_dirs[0])

    if sigma_override is not None:
        sigma = np.broadcast_to(
            np.asarray(sigma_override, dtype=float), (N1,)
        ).astype(float)
        lam = np.full(N1, np.nan)
        a_seg = np.ones(N1)
        b_seg = np.ones(N1)
        return Tube(
            traj.h, N1, R1, delta0, gamma, M_f, lam, sigma, a_seg, b_seg,
            m_tilde, np.zeros(N1), y0_disk, [], "override",
        )

    anchors = np.arange(0, N1, config.lambda_stride)
    if anchors[-1] != N1 - 1:
        anchors = np.append(anchors, N1 - 1)

    a_seg = np.ones(N1)
    b_seg = np.ones(N1)
    radius = np.full((config.n_s, N1), delta0)
    history = []
    for pass_no in range(1, PASSES + 1):
        lam, _ = lambda_profile(field, grids, radius, anchors, config)
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
        growth = np.exp(sigma[None, :] * grids.s[:, None])
        a_seg, b_seg = ab_profile(
            field, grids, delta_nodes[None, :N1] * growth, config
        )
        # the next pass samples Lambda on this pass's tube, widened by the
        # safety factor
        radius = RADIUS_SAFETY * delta_nodes[None, :N1] * growth

    tube = Tube(
        traj.h, N1, R1, delta0, gamma, M_f, lam, sigma, a_seg, b_seg,
        m_tilde, radius.max(axis=0), y0_disk, history, "tube",
    )
    return tube


def radius_consistent(tube: Tube, rtol: float = 1e-3) -> bool:
    """Final tube radii must not exceed the radii the bounds were sampled on."""
    if tube.slice_mode != "tube":
        return True
    span = np.maximum(tube.delta[:-1], tube.delta[1:])
    return bool(np.all(span <= tube.sampled_radius * (1.0 + rtol) + 1e-300))


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
    (monotone exponential), so min(delta_{i-1}, delta_i) suffices.
    """
    h = tube.h
    rhs = h * (
        tube.m_tilde * (2.0 * constants.L / (tube.gamma * tube.a_seg) + 1.0)
        + tube.b_seg * constants.M_f
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


def check_return_inclusion(
    tube: Tube, traj: EulerTrajectory, n_samples: int = 64
) -> InclusionReport:
    """Check that the final tube slice cut by the start section fits in Y0.

    Sufficient numeric test: |x(R1) - x0| + delta(R1) < delta0 (strict).
    Geometric test: walk the final segment, intersect each
    transverse tube segment with the start section and verify every
    intersection point lies inside the initial disk.
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
    s = np.linspace(0.0, h, n_samples)
    c = traj.nodes[i][None, :] + s[:, None] * traj.seg_dirs[i][None, :]
    fc = traj.field.f_raw(c)
    w = _rot90(fc) / np.linalg.norm(fc, axis=-1, keepdims=True)
    r = tube.delta[i] * np.exp(tube.sigma[i] * s)
    wn = w @ n0
    gc = (c - x0) @ n0
    dists = []
    scale = np.linalg.norm(n0)
    for k in range(n_samples):
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
    seed: int
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
            "seed": self.seed,
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


def _collect_tube_samples(field, traj, tube, config, extra_radius, use_delta=True):
    """Sample points covering the final tube (slices at stride anchors).

    With ``use_delta=False`` only the segment grid inflated by
    ``extra_radius`` is sampled; the one-step error bound needs the growth
    constant between segment points only, so that narrower set backs the
    Lipschitz estimate while the magnitude bounds cover the full tube.
    """
    N1 = tube.N1
    anchors = np.arange(0, N1, max(1, config.lambda_stride))
    if anchors[-1] != N1 - 1:
        anchors = np.append(anchors, N1 - 1)
    s = np.linspace(0.0, tube.h, config.n_s)
    P = traj.nodes[anchors] + s[:, None, None] * traj.seg_dirs[anchors]
    FC = field.f_raw(P)
    W = _rot90(FC) / planar_norm(FC)[..., None]
    rad = np.full((s.size, anchors.size), extra_radius)
    if use_delta:
        rad = rad + tube.delta[anchors][None, :] * np.exp(
            tube.sigma[anchors][None, :] * s[:, None]
        )
    offs = np.linspace(-1.0, 1.0, max(3, config.n_ball))
    pts = P + (offs[:, None, None] * rad)[..., None] * W
    return pts.reshape(-1, field.dim)


def certify_existence(
    field: VectorField,
    x0,
    h: float,
    delta0: float,
    gamma: float,
    config: PipelineConfig = PipelineConfig(),
    horizon: float = 10.0,
    sigma_override=None,
) -> ExistenceCertificate:
    """Full existence pipeline: simulate, return, tube, conditions, verdict.

    Sub-computation failures (divergence, lost transversality, blocked
    return-time sweeps) are recorded as a failed certificate with blocking
    diagnostics rather than raised, except for plain input errors.
    """
    config.validate()
    if gamma <= 0.0:
        raise InputError("gamma must be positive")
    if delta0 <= 0.0:
        raise InputError("delta0 must be positive")
    cert = ExistenceCertificate(
        verdict="failed",
        system=field.name,
        params=dict(field.params),
        x0=list(np.asarray(x0, dtype=float)),
        h=float(h),
        delta0=float(delta0),
        gamma=float(gamma),
        seed=config.seed,
        config=config,
        horizon=horizon,
    )
    try:
        traj = simulate(field, x0, h, int(math.ceil(horizon / h)))
        section = Section.through(field, traj.nodes[0])
        excl = default_exclusion(h, delta0)
        rt = return_times(traj, section, 1, excl)
        if not rt.complete:
            cert.failure = {
                "reason": "no-return",
                "kind": "negative",
                "detail": f"no section return within horizon {horizon:g}",
            }
            return cert
        R1, N1, crossing = rt.first()
        cert.R1, cert.N1 = float(R1), int(N1)
        cert.trajectory = traj

        # provisional magnitude bound over flat-radius slices, for the
        # alpha bookkeeping inside the builder
        grids_pts = traj.nodes[: N1 + 1]
        _, M_f0 = estimate_magnitude_bounds(field, grids_pts, magnitude="state")
        tube = build_tube(
            field, traj, R1, N1, delta0, gamma, M_f0, config,
            sigma_override=sigma_override,
        )
        cert.tube = tube
        cert.pass_history = tube.pass_history

        # final constants: growth constant along the (inflated) segments,
        # magnitude bounds over the built tube plus the margin
        margin = REGION_MARGIN * delta0
        seg_samples = _collect_tube_samples(
            field, traj, tube, config, extra_radius=margin, use_delta=False
        )
        L = estimate_lipschitz(field, seg_samples)
        samples = _collect_tube_samples(
            field, traj, tube, config, extra_radius=margin, use_delta=True
        )
        m, _ = estimate_speed_bounds(field, samples)
        _, M_C = estimate_magnitude_bounds(field, samples, magnitude="state")
        M_f = max(M_C, float(tube.m_tilde.max()))

        incl = check_return_inclusion(tube, traj)
        eta = estimate_eta(
            field, tube, incl.lhs, horizon=min(horizon, 2.5 * R1), seed=config.seed
        )
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
                "n_s": config.n_s,
                "n_ball": config.n_ball,
                "pad_factor": PAD_FACTOR,
                "lambda_stride": config.lambda_stride,
                "passes": PASSES,
                "tube_samples": int(samples.shape[0]),
                "eta": eta.provenance(),
                "seed": config.seed,
            },
        )
        constants.validate()
        cert.constants = constants

        step = check_step_condition(tube, constants)
        cert.step_condition = step
        cert.inclusion = incl
        cert.eta = eta
        cert.tube_summary = tube.summary()
        cert.flags["radius_consistent"] = radius_consistent(tube)

        if not cert.flags["radius_consistent"]:
            cert.failure = {
                "reason": "slice-radius-inconsistent",
                "kind": "blocking",
                "detail": "tube radii exceeded the slice radii the transverse "
                "bounds were sampled on: the fixed-point passes did not settle",
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
