"""Scalar bounds consumed by the certificates.

Everything here is a sampled estimate, not a rigorous enclosure; each
estimator therefore records its sampling resolution so certificates can
carry the provenance of every constant.

Two conventions are supported for the Jacobian-derived growth constant and
for the magnitude bounds, selected per pipeline profile:

* ``spectral_radius`` / ``state``: largest |eigenvalue| of J, and bounds on
  |x| over the working set.  These are the conventions the certification
  pipeline defaults to; they reproduce the reference tolerances of the
  planar test problems.
* ``spectral_norm`` / ``field``: largest singular value of J (a true
  Euclidean Lipschitz bound on a convex region), and bounds on |f(x)|.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    CertificateBlockedError,
    EquilibriumProximityError,
    InputError,
    TransversalityLossError,
)
from .euler import Exclusion, Section, batch_first_return
from .measures import M_FLOOR, _rot90
from .systems import VectorField


def _point_array(field: VectorField, points) -> np.ndarray:
    """The sample points as an (m, n) float array; any other shape raises."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != field.dim:
        raise InputError(
            f"expected an (m, {field.dim}) array of points, got shape {pts.shape}"
        )
    return pts


def estimate_lipschitz(
    field: VectorField, points, mode: str = "spectral_radius"
) -> float:
    """Growth constant of f from Jacobian samples at an (m, n) point array.

    ``spectral_norm`` gives the Euclidean operator norm (a Lipschitz bound
    when the points cover a convex region); ``spectral_radius`` the largest
    eigenvalue magnitude.
    """
    J = field.jac_raw(_point_array(field, points))
    if mode == "spectral_norm":
        JTJ = np.swapaxes(J, -1, -2) @ J
        return float(np.sqrt(np.linalg.eigvalsh(JTJ)[..., -1].max()))
    if mode == "spectral_radius":
        return float(np.abs(np.linalg.eigvals(J)).max())
    raise InputError(f"unknown Lipschitz mode {mode!r}")


def estimate_magnitude_bounds(field: VectorField, points, magnitude: str = "field"):
    """(min, max) of |f(x)| (``field``) or |x| (``state``) over an (m, n)
    point array."""
    pts = _point_array(field, points)
    if magnitude == "field":
        vals = np.linalg.norm(field.f_raw(pts), axis=-1)
    elif magnitude == "state":
        vals = np.linalg.norm(pts, axis=-1)
    else:
        raise InputError(f"unknown magnitude kind {magnitude!r}")
    return float(vals.min()), float(vals.max())


def estimate_speed_bounds(field: VectorField, points):
    """(m, M): sampled min and max of |f| over an (m, n) point array.

    Raises if the minimum falls below the equilibrium floor, since every
    transverse construction downstream divides by |f|.
    """
    m, M = estimate_magnitude_bounds(field, points, magnitude="field")
    if m <= M_FLOOR:
        raise EquilibriumProximityError(
            f"sampled min |f| = {m:g} is at the floor; an equilibrium may "
            "lie inside the region"
        )
    return m, M


# --------------------------------------------------------------------------
# phase rate of the moving-section reparametrization (the per-segment
# bounds [a_i, b_i] are sampled by cyclecert.tube.ab_profile)
# --------------------------------------------------------------------------


def theta_dot(field: VectorField, x_i, s: float, xi_theta):
    """Derivative of the synchronized time at offset s along one segment.

    ``xi_theta`` must lie on the moving section at x_i(s) (orthogonal to
    f(x_i(s)) through it).  Closed form from implicit differentiation of the
    synchronization identity; validated against finite differences of a
    numerically continued synchronization in the test suite.
    """
    x_i = np.asarray(x_i, dtype=float)
    xi = np.asarray(xi_theta, dtype=float)
    f_i = field.f_raw(x_i)
    c = x_i + s * f_i
    f_c = field.f_raw(c)
    num = float(f_i @ f_c - (xi - c) @ (field.jac_raw(c) @ f_i))
    den = float(field.f_raw(xi) @ f_c)
    nfc = float(np.linalg.norm(f_c))
    if abs(den) < M_FLOOR * nfc:
        raise TransversalityLossError(
            f"synchronization denominator {den:g} below floor at s={s:g}"
        )
    return num / den


# --------------------------------------------------------------------------
# return-time sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionDisk:
    """B(center, radius) intersected with the section through center."""

    center: np.ndarray
    radius: float
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))

    def sample_points(self, n: int, seed: int = 0) -> np.ndarray:
        """n points of the disk; planar case: center, both endpoints, then
        seeded uniform draws on the segment."""
        if self.center.size != 2:
            raise InputError("sampling is implemented for planar sections")
        w = _rot90(self.normal / np.linalg.norm(self.normal))
        base = [0.0]
        if n >= 3:
            base += [-1.0, 1.0]
        if n > len(base):
            rng = np.random.default_rng(seed)
            base += list(rng.uniform(-1.0, 1.0, n - len(base)))
        u = np.asarray(base[:n])
        return self.center[None, :] + (u * self.radius)[:, None] * w[None, :]

    def linspace_points(self, n: int) -> np.ndarray:
        """n evenly spaced points including both endpoints (and the center
        when n is odd)."""
        w = _rot90(self.normal / np.linalg.norm(self.normal))
        u = np.linspace(-1.0, 1.0, n)
        return self.center[None, :] + (u * self.radius)[:, None] * w[None, :]


@dataclass
class EtaEstimate:
    """Return-time sweep results over a section disk."""

    eta: float
    T_lo: float
    T_hi: float
    R_prime: float
    n_samples: int
    refine: int
    seed: int
    flow_times: np.ndarray = dc_field(repr=False, default=None)

    def provenance(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "refine": self.refine,
            "seed": self.seed,
        }


def estimate_eta(
    field: VectorField,
    disk: SectionDisk,
    n_samples: int,
    h: float,
    horizon: float,
    refine: int = 10,
    seed: int = 0,
) -> EtaEstimate:
    """Sweep first return times over the disk.

    Fine-step surrogates of the exact flow (step h/refine) give T_lo, T_hi
    and the floor eta = T_lo/2; the plain step h gives R', the bound on the
    discrete first-return time.  Both sweeps use the crossing rule of
    :func:`~cyclecert.euler.return_times`.  A sample that never returns
    within the horizon, or whose run diverges, blocks certification.
    """
    pts = disk.sample_points(n_samples, seed=seed)
    section = Section(disk.center, disk.normal)

    def sweep(step):
        excl = Exclusion(t_min=10.0 * step, r_excl=0.5 * disk.radius)
        times = batch_first_return(field, pts, step, horizon, section, excl)
        if np.isnan(times).any():
            bad = int(np.nonzero(np.isnan(times))[0][0])
            raise CertificateBlockedError(
                f"return-time sweep at step {step:g}: sample {bad} at "
                f"{pts[bad].tolist()} diverged or did not return within "
                f"horizon {horizon:g}"
            )
        return times

    t_flow = sweep(h / refine)
    t_euler = sweep(h)
    T_lo, T_hi = float(t_flow.min()), float(t_flow.max())
    return EtaEstimate(
        eta=0.5 * T_lo,
        T_lo=T_lo,
        T_hi=T_hi,
        R_prime=float(t_euler.max()),
        n_samples=n_samples,
        refine=refine,
        seed=seed,
        flow_times=t_flow,
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
        if not (0.0 < self.eta <= self.T_lo <= self.T_hi):
            raise InputError("return-time bounds violate 0 < eta <= T_lo <= T_hi")

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
