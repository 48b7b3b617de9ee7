"""Run and sampling configuration, presets, environment knobs."""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .errors import InputError

THREADS_ENV = "CYCLECERT_THREADS"


def threads_from_env(default: int = 1) -> int:
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return default
    try:
        val = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    return max(1, val)


@dataclass(frozen=True)
class PipelineConfig:
    """Sampling densities, padding and estimator conventions.

    ``lambda_stride`` trades cost for tightness: slice bounds are sampled
    every that many segments and bridged with drift padding in between;
    stride 1 samples every segment.  The slices the transverse bound is
    sampled on have the contraction-tube radius of the previous fixed-point
    pass widened by ``radius_safety`` (sound once the per-step condition
    holds, since synchronized states then stay inside that tube); the first
    pass uses the flat radius delta0.  The equilibrium floor on |f| is the
    fixed :data:`cyclecert.measures.M_FLOOR`.

    The return-time interval [T_lo, T_hi] comes from the tube's phase-rate
    bounds (see :func:`cyclecert.constants.estimate_eta`); no fine-step
    sweep or refinement factor is involved.  ``eta_samples`` disk points,
    drawn with ``seed``, are stepped at h for the discrete return bound R'.
    """

    n_s: int = 5
    n_ball: int = 8
    pad_factor: float = 1.0
    lambda_stride: int = 10
    passes: int = 2
    radius_safety: float = 1.05
    ab_offsets: int = 5
    lipschitz_mode: str = "spectral_radius"
    magnitude_mode: str = "state"
    region_margin: float = 0.05
    eta_samples: int = 16
    sweep_samples: int = 11
    inclusion_samples: int = 64
    seed: int = 0
    threads: int = dc_field(default_factory=threads_from_env)

    def validate(self):
        if self.n_s < 2 or self.n_ball < 2 or self.ab_offsets < 2:
            raise InputError("sampling densities must be at least 2")
        if self.lambda_stride < 1 or self.passes < 1:
            raise InputError("lambda_stride and passes must be >= 1")
        if self.pad_factor < 0.0 or self.radius_safety < 1.0:
            raise InputError("pad_factor >= 0 and radius_safety >= 1 required")
        if self.lipschitz_mode not in ("spectral_radius", "spectral_norm"):
            raise InputError(f"unknown lipschitz_mode {self.lipschitz_mode!r}")
        if self.magnitude_mode not in ("state", "field"):
            raise InputError(f"unknown magnitude_mode {self.magnitude_mode!r}")


@dataclass(frozen=True)
class RunConfig:
    """One certification run: system, start point, step, tube and rate knobs."""

    system: dict
    x0: tuple
    h: float
    delta0: float
    gamma: float
    horizon: float
    y0: Optional[tuple] = None
    h_list: Optional[Sequence[float]] = None
    periods: float = 5.0
    reference_d: Optional[float] = None
    pipeline: PipelineConfig = dc_field(default_factory=PipelineConfig)

    def validate(self):
        for name in ("h", "delta0", "gamma", "horizon"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")
        self.pipeline.validate()


PRESETS = {
    "vdp-example1": RunConfig(
        system={"id": "vanderpol", "params": {"p": 0.3}},
        x0=(1.8929, -0.5383),
        h=1e-4,
        delta0=0.1,
        gamma=0.015,
        horizon=10.0,
        reference_d=-0.34,
    ),
    "vdp-example2": RunConfig(
        system={"id": "vanderpol", "params": {"p": 0.3}},
        x0=(1.8929, -0.5383),
        h=1e-4,
        delta0=0.1,
        gamma=0.015,
        horizon=10.0,
        y0=(1.8037, -0.5057),
        h_list=(5e-4, 2.5e-4, 1.25e-4),
        periods=5.0,
        reference_d=-0.34,
    ),
}


def get_preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise InputError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
