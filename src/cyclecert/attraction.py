"""Averaged-contraction sweep over the initial disk and the basin certificate.

The accumulated exponent of one loop, K(z, s) = h * sum of the first
N1(z) - 1 rates plus s times the last one, is linear in s, so checking the
endpoints s = 0 and s = h suffices.  If K stays below a negative constant d
for every start point z of the initial disk, tube radii contract loop over
loop, the discretization error floor D*h takes over, and the disk is a
basin of attraction of the certified cycle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .config import PipelineConfig, threads_from_env
from .constants import SectionDisk, estimate_magnitude_bounds
from .errors import CertificateBlockedError, CycleCertError, InputError
from .euler import (
    EulerTrajectory,
    first_loop,
    return_times,  # noqa: F401  (benchmarks/tracing.py wraps this binding)
    simulate,
)
from .measures import mu_perp_batch
from .systems import VectorField
from .tube import ExistenceCertificate, build_tube, radius_excess


@dataclass(frozen=True)
class ContractionExponent:
    """One-loop accumulated exponent from a single start point."""

    z: np.ndarray
    K0: float  # exponent at s = 0
    Kh: float  # exponent at s = h
    N1: int
    R1: float
    sigma_last: float
    h: float
    # the first segment whose final tube radius exceeds the radius its
    # bounds were sampled on; None when every segment's is within it
    radius_excess: Optional[int] = None

    @property
    def K_max(self) -> float:
        return max(self.K0, self.Kh)

    def exponent_at(self, s: float) -> float:
        if s < 0.0 or s > self.h * (1 + 1e-12):
            raise InputError(f"s={s} outside [0, h]")
        return self.K0 + s * self.sigma_last


def contraction_exponent(
    field: VectorField,
    z,
    h: float,
    gamma: float,
    delta0: float,
    config: PipelineConfig = PipelineConfig(),
    horizon: float = 10.0,
    prefix=None,
) -> ContractionExponent:
    """Run the tube pipeline from z and accumulate its growth exponent.

    The run is one :func:`~cyclecert.euler.first_loop` run through this
    module's ``simulate``: chunks of ``RETURN_CHUNK`` steps up to the end of
    the chunk that holds its first counted return, since the tube reads no
    node after it.  R1 and N1 come from that crossing.  ``prefix``, nodes of
    a run already stepped from z at step h (z itself first), is read where
    it holds a chunk, and only the steps past it are taken.

    The exponent records the tube's :func:`~cyclecert.tube.radius_excess`,
    on which :func:`certify_attraction` blocks.

    Raises :class:`CertificateBlockedError` when z does not return within
    the horizon.
    """
    z = np.asarray(z, dtype=float)
    loop = first_loop(field, z, h, horizon, delta0, prefix, simulate)
    if loop is None:
        raise CertificateBlockedError(
            f"start point {z.tolist()} did not return within horizon {horizon:g}"
        )
    traj, R1, N1 = loop
    _, M_f = estimate_magnitude_bounds(field, traj.nodes[: N1 + 1])
    return _tube_exponent(
        z, build_tube(field, traj, R1, N1, delta0, gamma, M_f, config)
    )


def _tube_exponent(z: np.ndarray, tube) -> ContractionExponent:
    """The loop exponent from z accumulated over the rates of z's tube."""
    N1, h = tube.N1, tube.h
    K0 = float(h * tube.sigma[: N1 - 1].sum())
    sigma_last = float(tube.sigma[N1 - 1])
    return ContractionExponent(
        z=z,
        K0=K0,
        Kh=K0 + h * sigma_last,
        N1=N1,
        R1=tube.R1,
        sigma_last=sigma_last,
        h=h,
        radius_excess=radius_excess(tube),
    )


def _existence_run_from(
    existence: Optional[ExistenceCertificate],
    field: VectorField,
    z: np.ndarray,
    delta0: float,
    h: float,
    gamma: float,
    config: PipelineConfig,
    horizon: float,
) -> bool:
    """Whether :func:`contraction_exponent` from z would repeat the run of
    ``existence``, so that the tube it builds is ``existence.tube``.

    The existence run simulates, finds the first return and bounds |x| or
    |f| exactly as the exponent's run does; the two agree when the start
    point is bit for bit x0 and the field, h, gamma, delta0, the pipeline
    configuration and the number of steps are the same.
    """
    if existence is None or existence.tube is None or existence.trajectory is None:
        return False
    return (
        existence.trajectory.field is field
        and z.tobytes() == existence.trajectory.nodes[0].tobytes()
        and (h, gamma, delta0) == (existence.h, existence.gamma, existence.delta0)
        and config == existence.config
        and math.ceil(horizon / h) == math.ceil(existence.horizon / existence.h)
    )


@dataclass
class SweepResult:
    """Max exponent over the sampled disk; certifiable iff d < 0."""

    d: float
    exponents: List[ContractionExponent]

    @property
    def certifiable(self) -> bool:
        return self.d < 0.0


def sweep_Y0(
    field: VectorField,
    disk: SectionDisk,
    n_samples: int,
    h: float,
    gamma: float,
    config: PipelineConfig = PipelineConfig(),
    horizon: float = 10.0,
    existence: Optional[ExistenceCertificate] = None,
) -> SweepResult:
    """Exponents from evenly spaced start points of the disk; d is their
    maximum K.

    The points are ``disk.sweep_points(n_samples)``: both endpoints, and
    the center only when n_samples is odd; one sample is the center.  When
    the center sample's run would repeat the run of ``existence`` (see
    :func:`_existence_run_from`), its exponent is read from
    ``existence.tube`` in place of building that tube again.  With the
    field and h of ``existence``, a sample whose start point has a run in
    ``existence.start_runs`` continues that run.  The tube builds run in
    a pool of ``CYCLECERT_THREADS`` workers when that is above 1
    (:func:`threads_from_env`).
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    pts = disk.sweep_points(n_samples)
    runs = {}
    if existence is not None and existence.trajectory is not None:
        if existence.trajectory.field is field and existence.h == h:
            runs = existence.start_runs

    def run(k):
        return contraction_exponent(
            field, pts[k], h, gamma, disk.radius, config, horizon,
            prefix=runs.get(pts[k].tobytes()),
        )

    exps = [None] * pts.shape[0]
    mid = pts.shape[0] // 2
    if _existence_run_from(
        existence, field, pts[mid], disk.radius, h, gamma, config, horizon
    ):
        exps[mid] = _tube_exponent(pts[mid], existence.tube)
    todo = [k for k, e in enumerate(exps) if e is None]
    threads = threads_from_env()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, todo))
    else:
        done = [run(k) for k in todo]
    for k, e in zip(todo, done):
        exps[k] = e
    d = max(e.K_max for e in exps)
    return SweepResult(d=float(d), exponents=exps)


def compute_D(M_C: float, L: float, gamma: float, a: float, b: float) -> float:
    """Error-floor factor D = M_C (2L/(gamma a) + b + 1).

    The asymptotic synchronized-error floor is D*h; D itself carries no
    factor of h.
    """
    if gamma <= 0.0:
        raise InputError("gamma must be positive")
    if a <= 0.0:
        raise InputError("phase-rate lower bound a must be positive")
    return M_C * (2.0 * L / (gamma * a) + b + 1.0)


@dataclass(frozen=True)
class IntegralCheck:
    """Weighted loop integral of the transverse measure (informational).

    Weight 1/2 where the transverse measure is below gamma, 3/2 otherwise;
    reported alongside 4d but never gating the verdict.
    """

    value: float
    period: float
    n_samples: int


def integral_criterion(
    field: VectorField,
    cycle_traj: EulerTrajectory,
    gamma: float,
    period: Optional[float] = None,
) -> IntegralCheck:
    """Composite-trapezoid weighted integral of mu_perp along a near-cycle
    trajectory over one period."""
    T = float(period) if period is not None else cycle_traj.horizon
    n = min(int(T / cycle_traj.h), cycle_traj.n_steps)
    pts = cycle_traj.nodes[: n + 1]
    mp = mu_perp_batch(field, pts)
    rho = np.where(mp < gamma, 0.5, 1.5)
    val = float(np.trapezoid(rho * mp, dx=cycle_traj.h))
    return IntegralCheck(value=val, period=T, n_samples=n + 1)


@dataclass
class AttractionCertificate:
    """Basin-of-attraction verdict bundled with the sweep evidence."""

    verdict: str
    d: Optional[float] = None
    sample_count: int = 0
    D: Optional[float] = None
    integral: Optional[IntegralCheck] = None
    exponents: List[ContractionExponent] = dc_field(default_factory=list)
    T_lo: Optional[float] = None
    T_hi: Optional[float] = None
    R_prime: Optional[float] = None
    eta: Optional[float] = None
    reference_d: Optional[float] = None
    failure: Optional[dict] = None
    existence: Optional[ExistenceCertificate] = dc_field(default=None, repr=False)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        return {
            "kind": "attraction-certificate",
            "verdict": self.verdict,
            "d": self.d,
            "sample_count": self.sample_count,
            "samples": [
                {
                    "z": list(e.z),
                    "K0": e.K0,
                    "Kh": e.Kh,
                    "N1": e.N1,
                    "R1": e.R1,
                }
                for e in self.exponents
            ],
            "D": self.D,
            "integral": {
                "value": self.integral.value,
                "four_d": 4.0 * self.d if self.d is not None else None,
                "period": self.integral.period,
            }
            if self.integral
            else None,
            "return_time_bounds": {
                "T_lo": self.T_lo,
                "T_hi": self.T_hi,
                "R_prime": self.R_prime,
                "eta": self.eta,
            },
            "reference_d": self.reference_d,
            "reference_gap": (self.d - self.reference_d)
            if (self.d is not None and self.reference_d is not None)
            else None,
            "existence_verdict": self.existence.verdict if self.existence else None,
            "failure": self.failure,
        }


def certify_attraction(
    existence: ExistenceCertificate, reference_d: Optional[float] = None
) -> AttractionCertificate:
    """Sweep the initial disk and issue the basin certificate.

    Requires a certified existence certificate.  The sweep runs with its
    field, settings and horizon; its constants provide D and the
    return-time bounds, and its tube the exponent of the disk center.
    """
    if not existence.certified:
        raise InputError(
            "attraction certification requires a certified existence "
            f"certificate, got verdict {existence.verdict!r}"
        )
    cert = AttractionCertificate(verdict="failed", existence=existence)
    cert.reference_d = reference_d
    c = existence.constants
    cert.T_lo, cert.T_hi = c.T_lo, c.T_hi
    cert.R_prime, cert.eta = c.R_prime, c.eta
    cert.D = compute_D(c.M_C, c.L, existence.gamma, c.a, c.b)
    field, config = existence.trajectory.field, existence.config
    try:
        sweep = sweep_Y0(
            field,
            existence.tube.y0_disk,
            config.sweep_samples,
            existence.h,
            existence.gamma,
            config,
            existence.horizon,
            existence=existence,
        )
        cert.d = sweep.d
        cert.exponents = sweep.exponents
        cert.sample_count = len(sweep.exponents)

        cert.integral = integral_criterion(
            field, existence.trajectory, existence.gamma, existence.R1
        )

        for k, e in enumerate(sweep.exponents):
            if e.radius_excess is not None:
                cert.failure = {
                    "reason": "slice-radius-inconsistent",
                    "kind": "blocking",
                    "detail": f"sweep sample {k} at {e.z.tolist()}: tube radii "
                    "exceeded the slice radii the transverse bounds were "
                    f"sampled on, first at segment {e.radius_excess}",
                }
                return cert

        bounds_ok = all(
            v is not None and np.isfinite(v)
            for v in (cert.T_lo, cert.T_hi, cert.R_prime)
        )
        if not sweep.certifiable:
            cert.failure = {
                "reason": "exponent-nonnegative",
                "kind": "negative",
                "detail": f"max loop exponent d = {sweep.d:g} is not negative",
            }
            return cert
        if not bounds_ok:
            cert.failure = {
                "reason": "return-bounds-missing",
                "kind": "blocking",
                "detail": "return-time bounds were not established",
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
