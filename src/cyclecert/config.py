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
    if val < 1:
        raise InputError(f"{THREADS_ENV} must be >= 1, got {raw!r}")
    return val


@dataclass(frozen=True)
class PipelineConfig:
    """Sampling densities, the slice-bound stride and the threads.

    ``n_s`` points along each segment and ``n_ball`` transverse offsets
    (plus the center) sample the slice bounds Lambda_i; ``ab_offsets``
    offsets on the same s-grid sample the phase rates (a_i, b_i).
    ``lambda_stride`` trades cost for tightness: Lambda_i and (a_i, b_i) are
    sampled every that many segments (the anchors) and bridged in between
    by ``tube.anchor_bridge``; stride 1 samples every segment.
    ``sweep_samples`` evenly spaced disk points are the start points of the
    attraction sweep and of the return bound R', which takes at least 3
    (the center and both endpoints).
    ``threads`` runs the sweep's tube builds in a pool; None reads
    ``CYCLECERT_THREADS`` when the sweep runs.  The fixed settings
    (fixed-point passes, slice radius safety, region margin) are constants
    of :mod:`cyclecert.tube`; the padding is ``measures.PAD_FACTOR``.
    """

    n_s: int = 5
    n_ball: int = 8
    lambda_stride: int = 10
    ab_offsets: int = 5
    sweep_samples: int = 11
    threads: Optional[int] = None

    def validate(self):
        if self.n_s < 2 or self.n_ball < 2 or self.ab_offsets < 2:
            raise InputError("sampling densities must be at least 2")
        if self.lambda_stride < 1:
            raise InputError("lambda_stride must be >= 1")
        if self.sweep_samples < 1:
            raise InputError("sweep_samples must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise InputError("threads must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """One certification run: system, start point, step, tube and rate knobs.

    ``system`` is anything :func:`cyclecert.systems.load_system` takes: a
    spec dict or the path of a system JSON file.
    """

    system: dict | str
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
        if not self.periods > 0.0:
            raise InputError("periods must be positive")
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
