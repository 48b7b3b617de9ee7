"""Scalar bounds consumed by the certificates.

Everything here is a sampled estimate, not a rigorous enclosure; each
estimator therefore records its sampling resolution so certificates can
carry the provenance of every constant.

The growth constant L is the largest |eigenvalue| of the sampled Jacobians,
and the magnitude bounds M~_i, M_C and M_f bound |x| over the working set;
the reference tolerances of the planar test problems are calibrated to
these conventions.  The speed bounds (m, M) bound |f(x)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import require_point, require_positive
from .errors import (
    CertificateBlockedError,
    EquilibriumProximityError,
    InputError,
)
from .euler import Section, batch_first_return, default_exclusion
from .measures import M_FLOOR, _rot90, padded_extrema, planar_norm
from .systems import VectorField
from .verdict import eta_interval


def _point_array(points) -> np.ndarray:
    """The sample points as an (m, 2) float array; any other shape raises."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError(f"expected an (m, 2) array of points, got shape {pts.shape}")
    return pts


def estimate_lipschitz(field: VectorField, points) -> float:
    """Growth constant of f: the largest eigenvalue magnitude of the
    Jacobian over an (m, 2) point array.

    ``np.linalg.eigvals`` runs only on the matrices
    :func:`_spectral_radius_candidates` keeps of each block of
    ``LIPSCHITZ_BLOCK`` points, which hold the maximum, so the value is
    the one of the call on every matrix.
    """
    pts = _point_array(points)
    J = [np.empty((0, 2, 2))] + [
        _spectral_radius_candidates(field.jac_raw(pts[lo : lo + LIPSCHITZ_BLOCK]))
        for lo in range(0, len(pts), LIPSCHITZ_BLOCK)
    ]
    return float(np.abs(np.linalg.eigvals(np.concatenate(J))).max())


# Points per block of estimate_lipschitz: Jacobian blocks of 1 MiB.
LIPSCHITZ_BLOCK = 2**15
# Closed-form spectral radii this close to the largest, relative to
# 1 + max|J|, may hold the largest LAPACK value.
SPECTRAL_MARGIN = 1e-6


def _spectral_radius_candidates(J: np.ndarray) -> np.ndarray:
    """The 2x2 matrices of a batch (m, 2, 2) whose spectral radius can be
    the largest.

    With t the half trace and det the determinant, the closed form is
    |t| + sqrt(t^2 - det) for a real pair and sqrt(det) for a complex one.
    It and LAPACK each move a 2x2 eigenvalue by at most about
    sqrt(eps) |J| (1.5e-8 |J|, at a defective matrix), so a matrix more
    than ``SPECTRAL_MARGIN`` (1 + max|J|) below the largest closed-form
    value cannot hold the largest LAPACK one.  An empty batch, or one with
    a non-finite entry or closed-form value, is returned whole, so
    ``np.linalg.eigvals`` fails on it as it would without the filter.
    """
    a, b, c, d = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    with np.errstate(invalid="ignore", over="ignore"):
        t = 0.5 * (a + d)
        det = a * d - b * c
        disc = t * t - det
        rho = np.where(
            disc >= 0.0,
            np.abs(t) + np.sqrt(np.maximum(disc, 0.0)),
            np.sqrt(np.abs(det)),
        )
    if rho.size == 0 or not np.all(np.isfinite(rho)):
        return J
    floor = rho.max() - SPECTRAL_MARGIN * (1.0 + np.abs(J).max())
    return J[rho >= floor]


def estimate_magnitude_bounds(points):
    """(min, max) of |x| over an (m, 2) point array."""
    vals = planar_norm(_point_array(points))
    return float(vals.min()), float(vals.max())


def estimate_speed_bounds(field: VectorField, points):
    """(m, M): sampled min and max of |f| over an (m, 2) point array.

    Raises if the minimum falls below the equilibrium floor, since every
    transverse construction downstream divides by |f|.
    """
    speeds = planar_norm(field.f_raw(_point_array(points)))
    m, M = float(speeds.min()), float(speeds.max())
    if m <= M_FLOOR:
        raise EquilibriumProximityError(
            f"sampled min |f| = {m:g} is at the floor; an equilibrium may "
            "lie inside the region"
        )
    return m, M


# --------------------------------------------------------------------------
# return times
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionDisk:
    """B(center, radius) intersected with the section through center."""

    center: np.ndarray
    radius: float
    normal: np.ndarray

    def __post_init__(self):
        if self.radius:  # a disk of radius 0 is its center
            require_positive("radius", self.radius)
        for name in ("center", "normal"):
            object.__setattr__(self, name, require_point(name, getattr(self, name)))
        require_positive("|normal|", float(np.linalg.norm(self.normal)))

    def sweep_points(self, n: int) -> np.ndarray:
        """n evenly spaced points of the disk: both endpoints, and the
        center when n is odd; the center alone for n = 1, and none for
        n < 1.  The basin sweep starts from them, and so does R'."""
        if n < 1:
            return np.empty((0, self.center.size))
        if n == 1:
            return self.center[None, :]
        w = _rot90(self.normal / np.linalg.norm(self.normal))
        u = np.linspace(-1.0, 1.0, n)
        return self.center[None, :] + (u * self.radius)[:, None] * w[None, :]


# Polar grid of the ball around x0 on which the speed across the start
# section is sampled, and the ball's radius as a multiple of rho.
BALL_RADII = 9
BALL_ANGLES = 32
BALL_SCALE = 3.0


@dataclass
class EtaEstimate:
    """Return-time interval of the tube and the discrete return bound R'.

    ``sum_lo`` and ``sum_hi`` are the tube's time sums, ``rho`` the distance
    bound at theta = R1, ``v`` and ``f_max`` the padded bounds of f.n0 and
    |f| on the ball of radius ``ball_radius`` around x0, and ``e`` the
    widening; e is infinite when the interval is not established.
    """

    eta: float
    T_lo: float
    T_hi: float
    R_prime: float
    sum_lo: float
    sum_hi: float
    rho: float
    v: float
    f_max: float
    ball_radius: float
    e: float
    n_samples: int

    @property
    def established(self) -> bool:
        return math.isfinite(self.e)

    def provenance(self) -> dict:
        return {
            "method": "tube",
            "sum_lo": self.sum_lo,
            "sum_hi": self.sum_hi,
            "rho": self.rho,
            "v": self.v,
            "f_max": self.f_max,
            "ball_radius": self.ball_radius,
            "ball_grid": [BALL_RADII, BALL_ANGLES],
            "e": self.e,
            "n_samples": self.n_samples,
        }


def return_time_sweep(runs, disk: SectionDisk, horizon: float) -> np.ndarray:
    """Discrete first-return times to ``disk``'s section of ``runs``, one
    :class:`~cyclecert.euler.Run` per start point, at their step h.

    Uses the crossing rule of :func:`~cyclecert.euler.return_times`; the
    samples are one :func:`~cyclecert.euler.batch_first_return` sweep of
    ``runs``, which it continues in place, with the exclusion of step h
    and the disk's radius.  A sample that diverges, or that does not return
    within the horizon, blocks certification; the error says which, with
    the step its run failed at.
    """
    require_positive("len(runs)", len(runs))
    h = runs[0].h
    times = batch_first_return(
        runs, horizon, Section(disk.center, disk.normal),
        default_exclusion(h, disk.radius),
    )
    if np.isnan(times).any():
        bad = int(np.nonzero(np.isnan(times))[0][0])
        why = f"did not return within horizon {horizon:g}"
        if runs[bad].diverged is not None:  # its run kept the error
            why = f"diverged at step {runs[bad].diverged.first_bad_index}"
        raise CertificateBlockedError(
            f"return-time sweep at step {h:g}: sample {bad} at "
            f"{runs[bad].x0.tolist()} {why}"
        )
    return times


def estimate_eta(tube, rho: float, horizon: float, runs) -> EtaEstimate:
    """Return-time interval [T_lo, T_hi] from the tube's phase rates, the
    floor eta = T_lo/2, and R' from a step-h sweep of the initial disk.

    Derivation.  Once the step condition holds, a true solution started on
    the initial disk stays in the tube, synchronized with the Euler loop:
    its synchronized time theta moves at a rate in [a_i, b_i] while theta
    is on segment i.  Segment i therefore takes true time in
    [h/b_i, h/a_i], the last one only for R1 - (N1-1)h, so theta reaches
    R1 at a true time t* in [sum_lo, sum_hi], the sums of those bounds.
    At t* the solution lies on the moving section at x(R1), within delta(R1)
    of it, so within ``rho`` = |x(R1) - x0| + delta(R1) of x0 (the lhs of
    the inclusion check).  Its offset g = <y - x0, n0> from the start
    section (n0 the unit normal there) is then at most rho in magnitude.
    While y stays in the ball B(x0, r), r = BALL_SCALE * rho, g' = f.n0 is
    at least v, the minimum of f.n0 sampled on a polar grid of the ball and
    padded by :func:`~cyclecert.measures.padded_extrema`; so g reaches
    zero within e = rho/v of t*, forward or backward, crossing from g < 0
    to g > 0 as the crossing rule counts.  Meanwhile y moves at most
    e * f_max (f_max the padded maximum of |f| on the ball), so it stays in
    the ball if rho + e * f_max <= r, which is checked.  The first return
    the tube follows therefore lies in [sum_lo - e, sum_hi + e].

    If v <= 0 or the ball does not cover rho + e * f_max, the interval is
    not established: e is infinite, T_lo = eta = -inf and T_hi = inf.  A
    lower end at or below zero is reported as it is; either way eta <= 0,
    which the certificate records as a failed condition.  Neither the step
    condition nor the inclusion check uses eta.

    R' bounds the discrete first return at step h: the largest return of
    :func:`return_time_sweep` of ``runs``, which it continues; the
    certificate starts them from ``disk.sweep_points``.
    """
    disk = tube.y0_disk
    n0 = disk.normal / np.linalg.norm(disk.normal)
    radius = BALL_SCALE * rho
    r = radius * np.linspace(0.0, 1.0, BALL_RADII)
    phi = np.linspace(0.0, 2.0 * np.pi, BALL_ANGLES, endpoint=False)
    ring = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    F = tube.traj.field.f_raw(disk.center + r[:, None, None] * ring[None, :, :])
    # f.n0 and |f| on the (radii, angles) grid, whose angles wrap around
    lo, hi = padded_extrema(
        np.stack([F @ n0, np.linalg.norm(F, axis=-1)], axis=-1), wrap=(1,)
    )
    v, f_max = float(lo[0]), float(hi[1])
    interval = eta_interval(
        tube.a_seg, tube.b_seg, tube.h, tube.R1, rho, v, f_max, radius
    )

    times = return_time_sweep(runs, disk, horizon)
    return EtaEstimate(
        **interval, R_prime=float(times.max()), rho=float(rho), v=v, f_max=f_max,
        ball_radius=float(radius), n_samples=len(runs),
    )


# --------------------------------------------------------------------------
# aggregated constants
# --------------------------------------------------------------------------


@dataclass
class GlobalConstants:
    """Every scalar the certificates consume, with provenance."""

    L: float
    M_f: float
    M_C: float
    m: float
    a: float
    b: float
    eta: float
    T_lo: float
    T_hi: float
    R_prime: float
    provenance: dict = dc_field(default_factory=dict)

    def validate(self):
        if not (0.0 < self.m <= self.M_C <= self.M_f * (1 + 1e-12)):
            raise InputError(
                f"magnitude bounds violate 0 < m <= M_C <= M_f: "
                f"{self.m}, {self.M_C}, {self.M_f}"
            )
        if not (0.0 < self.a <= self.b):
            raise InputError(f"phase-rate bounds violate 0 < a <= b: {self.a}, {self.b}")
        # eta > 0 is a certificate condition, not an input check: a tube
        # whose return-time interval is not established still has constants
        if not self.T_lo <= self.T_hi:
            raise InputError(
                f"return-time bounds violate T_lo <= T_hi: {self.T_lo}, {self.T_hi}"
            )

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "M_f": self.M_f,
            "M_C": self.M_C,
            "m": self.m,
            "a": self.a,
            "b": self.b,
            "eta": self.eta,
            "T_lo": self.T_lo,
            "T_hi": self.T_hi,
            "R_prime": self.R_prime,
            "provenance": self.provenance,
        }
