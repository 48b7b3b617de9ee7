"""Averaged-contraction sweep over the initial disk and the basin certificate.

The accumulated exponent of one loop, K(z, s) = h * sum of the first
N1(z) - 1 rates plus s times the last one, is linear in s, so checking the
endpoints s = 0 and s = h suffices.  If K stays below a negative constant d
for every start point z of the initial disk, tube radii contract loop over
loop, the discretization error floor D*h takes over, and the disk is a
basin of attraction of the certified cycle.

The sweep extends one existence certificate and steps none of its runs
again.  Its start points are those of the certificate's R' sweep, whose
:class:`~cyclecert.euler.Run` objects ``ExistenceCertificate.start_runs``
holds, the existence run from x0 at the center among them; each sample
continues its point's run.  The center sample is x0 bit for bit, so its
exponent is read from the existence tube: the default 11 samples take 10
tube builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .config import PipelineConfig, require_positive
from .constants import (
    estimate_magnitude_bounds,  # noqa: F401  (benchmarks/tracing.py wraps this binding)
)
from .errors import CertificateBlockedError, CycleCertError, InputError
from .euler import (
    EulerTrajectory,
    Run,
    first_loop,
    return_times,  # noqa: F401  (benchmarks/tracing.py wraps this binding)
    simulate,  # noqa: F401  (benchmarks/tracing.py wraps this binding)
)
from .measures import mu_perp_batch
from .tube import ExistenceCertificate, build_tube
from .verdict import basin_exponent, loop_exponents


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


def contraction_exponent(
    run: Run,
    gamma: float,
    delta0: float,
    config: PipelineConfig = PipelineConfig(),
    horizon: float = 10.0,
) -> ContractionExponent:
    """The growth exponent of the tube pipeline from ``run``'s start point z.

    The loop is the :func:`~cyclecert.euler.first_loop` of ``run``, which
    it continues: chunks of ``RETURN_CHUNK`` steps up to the end of the
    chunk that holds its first counted return, since the tube reads no node
    after it; a chunk the run already holds is read, not stepped.  R1 and
    N1 come from that crossing.

    The exponent records the tube's :func:`~cyclecert.verdict.radius_excess`,
    as the build's last pass recorded it, on which
    :func:`certify_attraction` blocks.

    Raises :class:`CertificateBlockedError` when z does not return within
    the horizon.
    """
    z = run.x0
    loop = first_loop(run, horizon, delta0)
    if loop is None:
        raise CertificateBlockedError(
            f"start point {z.tolist()} did not return within horizon {horizon:g}"
        )
    traj, R1, N1 = loop
    return _tube_exponent(z, build_tube(traj, R1, N1, delta0, gamma, config))


def _tube_exponent(z: np.ndarray, tube) -> ContractionExponent:
    """The loop exponent from z accumulated over the rates of z's tube."""
    K0, Kh, sigma_last = loop_exponents(tube.sigma, tube.h)
    return ContractionExponent(
        z=z, K0=K0, Kh=Kh, N1=tube.N1, R1=tube.R1, sigma_last=sigma_last,
        h=tube.h, radius_excess=tube.pass_history[-1]["radius_excess"],
    )


@dataclass
class SweepResult:
    """Max exponent over the sampled disk; certifiable iff d < 0."""

    d: float
    exponents: List[ContractionExponent]

    @property
    def certifiable(self) -> bool:
        return self.d < 0.0


def sweep_Y0(existence: ExistenceCertificate) -> SweepResult:
    """Exponents from the ``sweep_samples`` evenly spaced points of
    ``existence.tube.y0_disk`` (both endpoints, and the center only when
    the count is odd); d is their maximum K.

    Every sample runs with the field, h, gamma, configuration and horizon
    of ``existence``, and reuses its runs as the module docstring says.
    The tube builds run one after another, in the order of the points.
    """
    field, config = existence.trajectory.field, existence.config
    disk = existence.tube.y0_disk
    pts = disk.sweep_points(config.sweep_samples)
    runs = existence.start_runs or [Run(field, z, existence.h) for z in pts]
    if len(runs) > len(pts):  # R' took 3 points: the center, or the endpoints
        runs = runs[1:2] if len(pts) == 1 else runs[::2]
    x0 = existence.trajectory.nodes[0].tobytes()
    exps = [
        _tube_exponent(z, existence.tube)
        if k == len(pts) // 2 and z.tobytes() == x0
        else contraction_exponent(
            runs[k], existence.gamma, disk.radius, config, existence.horizon
        )
        for k, z in enumerate(pts)
    ]
    d = basin_exponent([e.K0 for e in exps], [e.Kh for e in exps])
    return SweepResult(d=d, exponents=exps)


def compute_D(M_C: float, L: float, gamma: float, a: float, b: float) -> float:
    """Error-floor factor D = M_C (2L/(gamma a) + b + 1).

    The asymptotic synchronized-error floor is D*h; D itself carries no
    factor of h.
    """
    require_positive("gamma", gamma)
    require_positive("phase-rate lower bound a", a)
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
    cycle_traj: EulerTrajectory, gamma: float, period: float
) -> IntegralCheck:
    """Composite-trapezoid weighted integral of mu_perp, on the trajectory's
    field, along a near-cycle trajectory over one period."""
    T = float(period)
    n = min(int(T / cycle_traj.h), cycle_traj.n_steps)
    pts = cycle_traj.nodes[: n + 1]
    mp = mu_perp_batch(cycle_traj.field, pts)
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

    Requires a certified existence certificate, which :func:`sweep_Y0`
    extends; its constants provide D and the return-time bounds.
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
    try:
        sweep = sweep_Y0(existence)
        cert.d = sweep.d
        cert.exponents = sweep.exponents
        cert.sample_count = len(sweep.exponents)

        cert.integral = integral_criterion(
            existence.trajectory, existence.gamma, existence.R1
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
