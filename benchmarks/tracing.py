"""Spans and counts for the traced benchmark run, recorded from outside the
program.

``Tracer.install`` replaces public cyclecert functions at the module (or
class) attributes their callers look them up through, for example
``cyclecert.tube.estimate_eta`` for ``certify_existence``'s call to
``estimate_eta``.  Each replacement records a span (name, start, end,
parent) and, where useful, a count read from the call's arguments or
result.  f and J evaluations are counted on a ``dataclasses.replace`` copy
of the ``VectorField`` whose ``rhs``, ``jacobian`` and ``rhs_scalar2``
callables count the points they are handed.  ``Tracer.close`` puts every
replaced attribute back and checks that it did.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

CALIBRATION_CALLS = 100_000


def _noop():
    return None


def _identity(x):
    return x


def _swap(u1, u2):
    return u2, u1


def _extra_per_call(bare, wrapped, args, repeat=5):
    """Seconds one call through ``wrapped`` costs over one call of ``bare``."""

    def best(fn):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(*args)
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, (best(wrapped) - best(bare)) / CALIBRATION_CALLS)


def _path_bytes(tracer, args, kwargs, out):
    tracer.counts["output.files"] += 1
    tracer.counts["output.bytes"] += os.path.getsize(args[0])
    return out


def _counted_field(tracer, args, kwargs, field):
    return tracer.count_field(field)


def _simulate(tracer, args, kwargs, traj):
    tracer.counts["euler.simulate_calls"] += 1
    tracer.counts["euler.simulate_steps"] += traj.n_steps
    tracer.counts["euler.nodes_bytes"] += traj.nodes.nbytes
    return traj


def _batch_return(tracer, args, kwargs, times):
    tracer.counts["euler.batch_return_calls"] += 1
    tracer.counts["euler.batch_return_points"] += len(times)
    return times


def _mu_perp(tracer, args, kwargs, vals):
    tracer.counts["measures.mu_perp_points"] += vals.size
    return vals


def _lipschitz(tracer, args, kwargs, value):
    tracer.counts["constants.lipschitz_points"] += len(args[1])
    return value


def _build(tracer, args, kwargs, tube):
    tracer.counts["tube.build_calls"] += 1
    tracer.counts["tube.segments"] += tube.N1
    return tube


def _existence(tracer, args, kwargs, cert):
    # result values of the last existence certificate built in the unit
    if cert.tube_summary is not None:
        tracer.values["tube.delta_end"] = cert.tube_summary["delta_end"]
    if cert.step_condition is not None:
        tracer.values["tube.step_margin_min"] = cert.step_condition.min_margin
    return cert


def _sweep(tracer, args, kwargs, sweep):
    tracer.counts["attraction.sweep_points"] += len(sweep.exponents)
    return sweep


def _integral(tracer, args, kwargs, check):
    tracer.counts["attraction.integral_points"] += check.n_samples
    return check


def _reference(tracer, args, kwargs, ref):
    tracer.counts["syncerr.reference_steps"] += ref.traj.n_steps
    return ref


def _sync(tracer, args, kwargs, series):
    tracer.counts["syncerr.sync_samples"] += series.times.size
    return series


# (module or class, attribute, span name, hook) for every call the two
# workloads reach.  The attribute is the name the caller looks the function
# up through, so a function appears once per module that imports it.
WRAPS = [
    ("cyclecert.cli", "load_system", "systems.load", _counted_field),
    ("cyclecert.constants", "batch_first_return", "euler.batch_return", _batch_return),
    ("cyclecert.tube", "simulate", "euler.simulate", _simulate),
    ("cyclecert.attraction", "simulate", "euler.simulate", _simulate),
    ("cyclecert.syncerr", "simulate", "euler.simulate", _simulate),
    ("cyclecert.cli", "simulate", "euler.simulate", _simulate),
    ("cyclecert.tube", "return_times", "euler.return_times", None),
    ("cyclecert.attraction", "return_times", "euler.return_times", None),
    ("cyclecert.cli", "return_times", "euler.return_times", None),
    ("cyclecert.tube", "mu_perp_batch", "measures.mu_perp", _mu_perp),
    ("cyclecert.attraction", "mu_perp_batch", "measures.mu_perp", _mu_perp),
    ("cyclecert.tube", "estimate_eta", "constants.eta", None),
    ("cyclecert.tube", "estimate_lipschitz", "constants.lipschitz", _lipschitz),
    ("cyclecert.tube", "estimate_magnitude_bounds", "constants.bounds", None),
    ("cyclecert.tube", "estimate_speed_bounds", "constants.bounds", None),
    ("cyclecert.attraction", "estimate_magnitude_bounds", "constants.bounds", None),
    ("cyclecert.cli", "certify_existence", "tube.certify", _existence),
    ("cyclecert.syncerr", "certify_existence", "tube.certify", _existence),
    ("cyclecert.tube", "build_tube", "tube.build", _build),
    ("cyclecert.attraction", "build_tube", "tube.build", _build),
    ("cyclecert.tube", "check_step_condition", "tube.checks", None),
    ("cyclecert.tube", "check_return_inclusion", "tube.checks", None),
    ("cyclecert.cli", "certify_attraction", "attraction.certify", None),
    ("cyclecert.attraction", "sweep_Y0", "attraction.sweep", _sweep),
    ("cyclecert.attraction", "integral_criterion", "attraction.integral", _integral),
    ("cyclecert.cli", "error_curve_experiment", "syncerr.experiment", None),
    ("cyclecert.syncerr.ReferenceSolution", "compute", "syncerr.reference", _reference),
    ("cyclecert.syncerr", "synchronize", "syncerr.sync", _sync),
    ("cyclecert.cli", "write_json", "output.write", _path_bytes),
    ("cyclecert.cli", "write_error_curve_csv", "output.write", _path_bytes),
]


def _resolve(dotted):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(parent), attr)


class Tracer:
    """In-memory spans and counts for one traced unit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.values = {}
        self._stack = []
        self._batched_calls = [0]
        self._scalar_calls = [0]
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                out = hook(self, args, kwargs, out)
            return out

        return traced

    def install(self):
        for owner_name, attr, name, hook in WRAPS:
            owner = _resolve(owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                new = self._wrap(raw, name, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def close(self):
        """Restore every wrapped attribute, newest first, and check it."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def _count(self, fn, key, dim):
        counts, calls = self.counts, self._batched_calls

        @functools.wraps(fn)
        def counted(x):
            calls[0] += 1
            counts[key] += x.size // dim
            return fn(x)

        return counted

    def _count_scalar(self, fn):
        calls = self._scalar_calls

        def counted(u1, u2):
            calls[0] += 1
            return fn(u1, u2)

        return counted

    def count_field(self, field):
        """Copy of ``field`` whose callables count the points they get."""
        jac, scalar, dim = field.jacobian, field.rhs_scalar2, field.dim
        return dataclasses.replace(
            field,
            rhs=self._count(field.rhs, "systems.f_points", dim),
            jacobian=jac and self._count(jac, "systems.jac_points", dim),
            rhs_scalar2=scalar and self._count_scalar(scalar),
        )

    def overhead_s(self):
        """Seconds the wrappers added to what was recorded.

        The extra cost of one call through each kind of wrapper (span,
        batched counter, scalar counter) is timed here on a loop of calls
        against the same loop on the bare callable, and multiplied by the
        number of calls of that kind recorded.
        """
        scratch = Tracer()
        one = np.zeros((1, 2))
        per_span = _extra_per_call(_noop, scratch._wrap(_noop, "calibrate", None), ())
        per_batched = _extra_per_call(
            _identity, scratch._count(_identity, "calibrate", 2), (one,)
        )
        per_scalar = _extra_per_call(_swap, scratch._count_scalar(_swap), (1.0, 2.0))
        return (
            len(self.spans) * per_span
            + self._batched_calls[0] * per_batched
            + self._scalar_calls[0] * per_scalar
        )

    # -- reduction ----------------------------------------------------------

    def _times(self):
        """Inclusive and self seconds per span name.

        Inclusive time counts only the outermost span of a name, so a name
        nested in itself is not counted twice.
        """
        inclusive, self_time = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child[k]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return inclusive, self_time

    def metrics(self, wall):
        """Per-layer metric values of the traced unit that took ``wall`` s."""
        inc, own = self._times()
        c = self.counts
        top = sum(e - s for _, s, e, p in self.spans if p < 0)
        sync_samples = c["syncerr.sync_samples"]
        return {
            "systems.f_points": c["systems.f_points"],
            "systems.f_scalar_calls": self._scalar_calls[0],
            "systems.jac_points": c["systems.jac_points"],
            "systems.load_s": inc["systems.load"],
            "euler.batch_return_s": inc["euler.batch_return"],
            "euler.batch_return_calls": c["euler.batch_return_calls"],
            "euler.batch_return_points": c["euler.batch_return_points"],
            "euler.simulate_s": inc["euler.simulate"],
            "euler.simulate_calls": c["euler.simulate_calls"],
            "euler.simulate_steps": c["euler.simulate_steps"],
            "euler.nodes_mb": c["euler.nodes_bytes"] / 2**20,
            "euler.return_times_s": inc["euler.return_times"],
            "measures.mu_perp_s": inc["measures.mu_perp"],
            "measures.mu_perp_points": c["measures.mu_perp_points"],
            "constants.eta_s": inc["constants.eta"],
            "constants.lipschitz_s": inc["constants.lipschitz"],
            "constants.lipschitz_points": c["constants.lipschitz_points"],
            "constants.bounds_s": inc["constants.bounds"],
            "tube.build_s": inc["tube.build"],
            "tube.build_calls": c["tube.build_calls"],
            "tube.segments": c["tube.segments"],
            "tube.checks_s": inc["tube.checks"],
            "tube.self_s": sum(v for k, v in own.items() if k.startswith("tube.")),
            "attraction.sweep_s": inc["attraction.sweep"],
            "attraction.sweep_points": c["attraction.sweep_points"],
            "attraction.integral_s": inc["attraction.integral"],
            "attraction.integral_points": c["attraction.integral_points"],
            "attraction.self_s": sum(
                v for k, v in own.items() if k.startswith("attraction.")
            ),
            "syncerr.reference_s": inc["syncerr.reference"],
            "syncerr.reference_steps": c["syncerr.reference_steps"],
            "syncerr.sync_s": inc["syncerr.sync"],
            "syncerr.sync_samples": sync_samples,
            "syncerr.sync_us_per_sample": (
                1e6 * inc["syncerr.sync"] / sync_samples if sync_samples else 0.0
            ),
            "output.write_s": inc["output.write"],
            "output.bytes": c["output.bytes"],
            "output.files": c["output.files"],
            "trace.coverage_frac": top / wall,
        }

    def span_names(self):
        return sorted({s[0] for s in self.spans})
