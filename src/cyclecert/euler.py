"""Explicit-Euler integration with dense piecewise-linear output.

The integrator stores the node sequence x_{i+1} = x_i + h f(x_i) and exposes
the dense interpolant x_i(s) = x_i + s f(x_i) for s in [0, h].  Because the
recurrence makes node differences equal h f(x_i) exactly, segment directions
are recovered from the stored nodes without re-evaluating f.

Hyperplane sections, crossing detection and return times live here as well:
each segment is linear, so in-segment crossing offsets are exact roots of a
linear equation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import DivergedError, InputError, NumericError
from .systems import VectorField


class EulerTrajectory:
    """Euler nodes plus the piecewise-linear dense interpolant.

    Immutable after construction: node arrays are write-protected and all
    queries are read-only.
    """

    def __init__(self, field: VectorField, x0, h: float, nodes: np.ndarray):
        self.field = field
        self.x0 = np.asarray(x0, dtype=float)
        self.h = float(h)
        self.nodes = nodes
        self.nodes.setflags(write=False)
        self.n_steps = nodes.shape[0] - 1
        self._seg_dirs = None
        self._f_nodes = None

    @property
    def horizon(self) -> float:
        return self.n_steps * self.h

    @property
    def seg_dirs(self) -> np.ndarray:
        """f at nodes 0..N-1, recovered exactly as (x_{i+1} - x_i)/h."""
        if self._seg_dirs is None:
            self._seg_dirs = (self.nodes[1:] - self.nodes[:-1]) / self.h
            self._seg_dirs.setflags(write=False)
        return self._seg_dirs

    @property
    def f_nodes(self) -> np.ndarray:
        """Cached f(x_i) for i = 0..N (one extra evaluation for the last node)."""
        if self._f_nodes is None:
            f_last = self.field.f_raw(self.nodes[-1])
            self._f_nodes = np.concatenate(
                [self.seg_dirs, f_last[None, :]], axis=0
            )
            self._f_nodes.setflags(write=False)
        return self._f_nodes

    def segment_of(self, t: float):
        """Return (i, s) with t = i*h + s, s in [0, h); final node maps to (N-1, h)."""
        if t < 0.0 or t > self.horizon * (1.0 + 1e-12):
            raise InputError(f"time {t} outside [0, {self.horizon}]")
        i = min(int(t / self.h), self.n_steps - 1)
        return i, max(t - i * self.h, 0.0)

    def dense_point(self, t: float) -> np.ndarray:
        """Evaluate the dense output x_i + s f(x_i) at time t."""
        i, s = self.segment_of(t)
        if s == 0.0:
            return self.nodes[i].copy()
        return self.nodes[i] + (s / self.h) * (self.nodes[i + 1] - self.nodes[i])

    def dense_points(self, ts) -> np.ndarray:
        """Vectorized dense output for an array of times."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0.0 or ts.max() > self.horizon * (1.0 + 1e-12)):
            raise InputError("times outside trajectory horizon")
        idx = np.minimum((ts / self.h).astype(int), self.n_steps - 1)
        s = ts - idx * self.h
        return self.nodes[idx] + (s / self.h)[..., None] * (
            self.nodes[idx + 1] - self.nodes[idx]
        )


def _has_scalar_path(field: VectorField) -> bool:
    """Whether Euler steps can run on plain floats through ``rhs_scalar2``."""
    return field.rhs_scalar2 is not None and field.dim == 2


def _euler_nodes(field: VectorField, x0: np.ndarray, h: float, n_steps: int):
    """Euler nodes stepped with numpy from one point or a batch of points.

    Returns an array of shape ``(n_steps + 1,) + x0.shape``; non-finite
    states propagate instead of raising.
    """
    nodes = np.empty((n_steps + 1,) + x0.shape)
    nodes[0] = x0
    for i in range(n_steps):
        nodes[i + 1] = nodes[i] + h * field.f_raw(nodes[i])
    return nodes


def simulate(field: VectorField, x0, h: float, n_steps: int) -> EulerTrajectory:
    """Integrate dx/dt = f(x) with the explicit Euler scheme.

    Raises
    ------
    DivergedError
        If any node is non-finite; carries the first bad index.
    """
    if h <= 0.0:
        raise InputError("step size h must be positive")
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise InputError(f"x0 must have shape ({field.dim},), got {x0.shape}")

    if _has_scalar_path(field):
        # appending floats to an array('d') costs less than two numpy
        # element writes per step; the buffer becomes the node array as is
        rhs2 = field.rhs_scalar2
        u1, u2 = float(x0[0]), float(x0[1])
        buf = array("d", (u1, u2))
        append = buf.append
        try:
            for i in range(1, n_steps + 1):
                d1, d2 = rhs2(u1, u2)
                u1 += h * d1
                u2 += h * d2
                append(u1)
                append(u2)
        except OverflowError:
            raise DivergedError(f"state overflowed at step {i}", i) from None
        nodes = np.frombuffer(buf).reshape(-1, 2)
    else:
        nodes = _euler_nodes(field, x0, h, n_steps)

    if not np.all(np.isfinite(nodes)):
        bad = int(np.nonzero(~np.isfinite(nodes).all(axis=1))[0][0])
        raise DivergedError(f"non-finite state at node {bad}", bad)
    return EulerTrajectory(field, x0, h, nodes)


# --------------------------------------------------------------------------
# sections and crossings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """Hyperplane through ``anchor`` orthogonal to ``normal``."""

    anchor: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        if not np.linalg.norm(self.normal) > 0.0:
            raise InputError("section normal must be nonzero")

    @classmethod
    def through(cls, field: VectorField, anchor) -> "Section":
        anchor = np.asarray(anchor, dtype=float)
        return cls(anchor, field.f_raw(anchor))

    def offset(self, z) -> float:
        """Signed offset <z - anchor, normal>; zero on the section."""
        return float(np.dot(np.asarray(z, dtype=float) - self.anchor, self.normal))

    def contains(self, z, tol: float = 1e-9) -> bool:
        return abs(self.offset(z)) <= tol * np.linalg.norm(self.normal) * (
            1.0 + np.linalg.norm(z)
        )


@dataclass(frozen=True)
class Crossing:
    """One transversal crossing of a section in the positive direction."""

    step_index: int
    s_star: float
    time: float
    point: np.ndarray
    direction_dot: float


@dataclass(frozen=True)
class Exclusion:
    """Masks crossings near the start of the trajectory.

    Crossings before ``t_min`` are dropped, as are crossings that occur
    before the trajectory has first left the ball B(anchor, r_excl): the
    initial point usually sits on the section itself.
    """

    t_min: float
    r_excl: float


def default_exclusion(h: float, delta0: float) -> Exclusion:
    return Exclusion(t_min=10.0 * h, r_excl=0.5 * delta0)


def _crossing_scan(
    field: VectorField,
    nodes: np.ndarray,
    h: float,
    offset: int,
    section: Section,
    exclusion: Exclusion,
    t_left: float = math.inf,
):
    """The crossing rule of :func:`detect_crossings` on a run of nodes.

    ``nodes[0]`` is node ``offset`` of an Euler run, so a crossing on local
    segment i gets the time (offset + i)*h + s* it has on the whole run.
    ``t_left`` is the time the run first left B(anchor, r_excl) as found on
    its earlier nodes (inf while it has not); the returned value includes
    these nodes, so a run can be scanned chunk by chunk.

    Returns ``(i, s_star, times, points, ddots, t_left)`` for the counted
    crossings, in order, with ``i`` indexing ``nodes``.
    """
    if exclusion.r_excl <= 0.0:
        t_left = 0.0
    elif t_left == math.inf:
        dist = np.linalg.norm(nodes - section.anchor, axis=1)
        outside = np.nonzero(dist > exclusion.r_excl)[0]
        if outside.size:
            t_left = (offset + int(outside[0])) * h

    g = (nodes - section.anchor) @ section.normal
    gi, gj = g[:-1], g[1:]
    idx = np.nonzero((gi < 0.0) & (gj >= 0.0))[0]
    if idx.size == 0:
        empty = np.empty(0)
        return idx, empty, empty, np.empty((0, nodes.shape[1])), empty, t_left

    s_star = -gi[idx] / (gj[idx] - gi[idx]) * h
    times = (offset + idx) * h + s_star
    points = nodes[idx] + (s_star / h)[:, None] * (nodes[idx + 1] - nodes[idx])
    ddots = field.f_raw(points) @ field.f_raw(section.anchor)
    keep = (times >= max(exclusion.t_min, t_left)) & (ddots > 0.0)
    return idx[keep], s_star[keep], times[keep], points[keep], ddots[keep], t_left


def detect_crossings(
    traj: EulerTrajectory, section: Section, exclusion: Exclusion
) -> List[Crossing]:
    """All sign transitions g<0 -> g>=0 of g(t) = <x(t) - anchor, normal>.

    Only transitions with ``<f(anchor), f(point)> > 0`` count; the one-sided
    sign rule prevents double-counting tangential grazes.  Each in-segment
    offset is the exact root of the linear equation on its segment.
    Transitions before ``exclusion.t_min``, or before the trajectory has
    first left B(anchor, r_excl), are dropped.
    """
    idx, s_star, times, points, ddots, _ = _crossing_scan(
        traj.field, traj.nodes, traj.h, 0, section, exclusion
    )
    return [
        Crossing(
            step_index=int(idx[k]),
            s_star=float(s_star[k]),
            time=float(times[k]),
            point=points[k],
            direction_dot=float(ddots[k]),
        )
        for k in range(idx.size)
    ]


@dataclass
class ReturnTimes:
    """Return times R_p with N_p = ceil(R_p/h), plus a completeness flag."""

    returns: List[tuple]  # (R_p, N_p, Crossing)
    complete: bool

    def first(self):
        if not self.returns:
            return None
        return self.returns[0]


def return_times(
    traj: EulerTrajectory,
    section: Section,
    p_max: int,
    exclusion: Exclusion,
) -> ReturnTimes:
    """First ``p_max`` section returns.

    N_p is derived from the crossing's segment index (s_star in (0, h]
    places R_p in ((N_p - 1)h, N_p h] by construction), avoiding floating
    ceil hazards at segment boundaries.

    Raises
    ------
    NumericError
        If a return time falls outside its segment's bracket.
    """
    crossings = detect_crossings(traj, section, exclusion)[:p_max]
    out = []
    for c in crossings:
        n_p = c.step_index + 1
        if not (n_p - 1) * traj.h < c.time <= n_p * traj.h * (1 + 1e-12):
            raise NumericError(
                f"return time {c.time!r} at segment {c.step_index} lies outside "
                f"({(n_p - 1) * traj.h!r}, {n_p * traj.h!r}]"
            )
        out.append((c.time, n_p, c))
    return ReturnTimes(returns=out, complete=len(out) >= p_max)


# --------------------------------------------------------------------------
# first-return sweep over many start points
# --------------------------------------------------------------------------

# Euler steps per chunk of the first-return sweep: a sample stops at the end
# of the chunk that holds its first counted crossing.
RETURN_CHUNK = 4096


def batch_first_return(
    field: VectorField,
    points: np.ndarray,
    h: float,
    horizon: float,
    section: Section,
    exclusion: Exclusion,
) -> np.ndarray:
    """First return times for a batch of initial points, NaN where none found.

    Each run is stepped in chunks of ``RETURN_CHUNK`` steps, every chunk
    starting from the last node of the one before, so the nodes are those
    of one long run.  Each chunk goes through the crossing rule of
    :func:`detect_crossings`, and a sample stops at its first counted
    crossing.  Planar fields with ``rhs_scalar2`` step one sample at a time
    on :func:`simulate`'s scalar path, where a sample whose run diverges
    gives NaN.  Other fields step the whole batch at once with numpy.
    """
    X = np.array(points, dtype=float)
    n_steps = int(math.ceil(horizon / h))
    if _has_scalar_path(field):
        return np.array(
            [_first_return(field, x, h, n_steps, section, exclusion) for x in X]
        )

    times = np.full(X.shape[0], np.nan)
    t_left = np.full(X.shape[0], math.inf)
    for offset in range(0, n_steps, RETURN_CHUNK):
        pending = np.nonzero(np.isnan(times))[0]
        if pending.size == 0:
            break
        nodes = _euler_nodes(field, X, h, min(RETURN_CHUNK, n_steps - offset))
        for j in pending:
            _, _, t, _, _, t_left[j] = _crossing_scan(
                field, nodes[:, j], h, offset, section, exclusion, t_left[j]
            )
            if t.size:
                times[j] = t[0]
        X = nodes[-1]
    return times


def _first_return(field, x, h, n_steps, section, exclusion) -> float:
    """First counted crossing time of one scalar-path run, NaN if none."""
    t_left = math.inf
    for offset in range(0, n_steps, RETURN_CHUNK):
        try:
            nodes = simulate(field, x, h, min(RETURN_CHUNK, n_steps - offset)).nodes
        except DivergedError:
            return math.nan
        _, _, t, _, _, t_left = _crossing_scan(
            field, nodes, h, offset, section, exclusion, t_left
        )
        if t.size:
            return float(t[0])
        x = nodes[-1]
    return math.nan
