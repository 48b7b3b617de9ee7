"""Run and sampling configuration, presets, environment knobs."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .errors import InputError

THREADS_ENV = "CYCLECERT_THREADS"


def threads_from_env() -> int:
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return 1
    try:
        val = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if val < 1:
        raise InputError(f"{THREADS_ENV} must be >= 1, got {raw!r}")
    return val


def require_positive(name: str, value: float) -> None:
    """Raise InputError, naming ``name``, unless ``value`` is finite and
    > 0 (NaN, an infinity, 0 and negatives are refused)."""
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{name} must be finite and positive, got {value!r}")


def require_step_count(name: str, h: float, horizon: float, value=None) -> None:
    """Raise InputError, naming ``name`` and ``value`` (default h), unless
    numpy can index the ceil(horizon / h) + 1 planar nodes of a run, two
    float64 each, by a signed machine word.  A step count that is not
    finite (``h = 5e-324`` overflows it) is refused too."""
    steps = horizon / h
    if not 16 * (steps + 2) <= sys.maxsize:
        why = f"asks for {steps:g} steps, more nodes than an array can hold"
        if not math.isfinite(steps):
            why = "leaves no finite step count"
        value = h if value is None else value
        raise InputError(f"{name} = {value!r} {why}: horizon / h = {horizon!r} / {h!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """The two settings a run chooses (``--stride`` and ``--samples``).

    ``lambda_stride`` trades cost for tightness: Lambda_i and (a_i, b_i) are
    sampled every that many segments (the anchors) and bridged in between
    by ``tube.anchor_bridge``; stride 1 samples every segment.
    ``sweep_samples`` evenly spaced disk points are the start points of the
    attraction sweep and of the return bound R', which takes at least 3
    (the center and both endpoints).  The slice densities, passes, radius
    safety and region margin are constants of :mod:`cyclecert.tube`, the
    padding is ``measures.PAD_FACTOR``, and the sweep's worker count is
    ``CYCLECERT_THREADS`` (:func:`threads_from_env`).
    """

    lambda_stride: int = 10
    sweep_samples: int = 11

    def validate(self):
        if self.lambda_stride < 1:
            raise InputError("lambda_stride must be >= 1")
        if self.sweep_samples < 1:
            raise InputError("sweep_samples must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """One certification run: system, start point, step, tube and rate
    values, and the :class:`PipelineConfig` settings.

    ``system`` is anything :func:`cyclecert.systems.load_system` takes: a
    spec dict or the path of a system JSON file.  Every step, radius, rate,
    horizon and period count must be finite and positive, a run of
    ``horizon / h`` steps one that numpy can index
    (:func:`require_step_count`) for ``h`` and every ``h_list`` entry, and
    every point finite.
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
        for name in ("delta0", "gamma", "horizon", "periods"):
            require_positive(name, getattr(self, name))
        for name, h in [("h", self.h)] + [("h_list", v) for v in self.h_list or ()]:
            require_positive(name, h)
            require_step_count(name, h, self.horizon)
        for name in ("x0", "y0"):
            if not all(map(math.isfinite, getattr(self, name) or ())):
                raise InputError(f"{name} must be finite, got {getattr(self, name)!r}")
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
