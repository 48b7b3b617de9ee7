"""Explicit-Euler integration with dense piecewise-linear output.

The integrator stores the node sequence x_{i+1} = x_i + h f(x_i) and exposes
the dense interpolant x_i(s) = x_i + s f(x_i) for s in [0, h].  Because the
recurrence makes node differences equal h f(x_i) exactly, segment directions
are recovered from the stored nodes without re-evaluating f.

There is one integrator: the recurrence u += h*rhs2(u) on a field's
``rhs_scalar2``, run in blocks of verified Picard sweeps over numpy arrays
(:func:`_planar_nodes`).  README "Bit-identity contract" says why its nodes
are those of a loop of single steps on plain floats, bit for bit.

Hyperplane sections, crossing detection and return times live here as well:
each segment is linear, so in-segment crossing offsets are exact roots of a
linear equation.  A loop from a start point is found only by
:func:`first_loop`, and a run is continued from one of its nodes only by
:func:`step_on`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .errors import DivergedError, InputError, NumericError
from .measures import planar_norm
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


# Steps in the first block of verified Picard sweeps; a block whose sweeps
# stop short makes the next one half as long, down to SWEEP_MIN steps, and
# runs or tails shorter than SWEEP_MIN steps take the scalar loop.
SWEEP_STEPS = 8192
SWEEP_MIN = 512
# Sweep cost in units of one node of one sweep: a sweep over L nodes costs
# about L + SWEEP_OVERHEAD, one scalar Euler step about SCALAR_COST.  A block
# stops sweeping once its sweeps cost what the scalar loop would.  Measured
# on Van der Pol with numpy 2.4 on a shared 2-core x86-64 VM: 17-22 us a
# sweep plus 11-13 ns a node, against 230-400 ns a scalar step.
SWEEP_OVERHEAD = 2000
SCALAR_COST = 30
# A block after a full block of at most SWEEP_SMOOTH sweeps starts from the
# extrapolation of that block.  On the registry systems, full 8192-step
# blocks take 3-8 sweeps at h = 1.25e-6 and 5e-6, where the extrapolation
# cuts rhs evaluations per node on Van der Pol from 4.1 to 3.2 and from 5.2
# to 4.5, and 12-25 at h >= 1e-4, where it would add 5%: those keep the
# quadratic guess.
SWEEP_SMOOTH = 8


def _scalar_nodes(rhs2, u1, u2, h, n_steps, first_step=0):
    """Euler nodes of a planar run stepped on plain floats, shape (n+1, 2).

    The fallback of :func:`_planar_nodes`, and the recurrence its sweeps
    verify against: each step is one ``rhs2`` call and u += h*d.  An
    ArithmeticError or ValueError of ``rhs2`` (an overflow, a division by
    zero, a math domain error) is raised as a DivergedError naming its
    step, counted from ``first_step``, the step number of (u1, u2).
    """
    buf = [u1, u2]
    append = buf.append
    i = 0
    try:
        for i in range(1, n_steps + 1):
            d1, d2 = rhs2(u1, u2)
            u1 += h * d1
            u2 += h * d2
            append(u1)
            append(u2)
    except (ArithmeticError, ValueError) as e:
        step = first_step + i
        reason = "state overflowed" if isinstance(e, OverflowError) else repr(e)
        raise DivergedError(f"{reason} at step {step}", step, reason) from None
    return np.fromiter(buf, np.float64, len(buf)).reshape(-1, 2)


def _sweep_guess(rhs2, a1, a2, h, n_steps):
    """Guessed Euler nodes (2, n+1) from the node (a1, a2): the quadratic in
    the step number through the node and its two Euler successors."""
    d1, d2 = rhs2(a1, a2)
    e1, e2 = rhs2(a1 + h * d1, a2 + h * d2)
    k = np.arange(n_steps + 1.0)
    q = 0.5 * h * k * (k - 1.0)
    return np.stack(
        [a1 + (h * d1) * k + (e1 - d1) * q, a2 + (h * d2) * k + (e2 - d2) * q]
    )


@lru_cache(maxsize=None)
def _lagrange_weights(width):
    """Weights (5, width+1) of the degree-4 Lagrange extrapolation through
    nodes k-width, k-3*width/4, ..., k of a run to its nodes k..k+width.

    Built on first use, one read-only matrix per block width (a multiple
    of 4).
    """
    u = np.arange(width + 1.0) * (4.0 / width)  # steps after k, in width/4
    W = np.ones((5, width + 1))
    for i in range(5):
        for m in range(5):
            if m != i:
                W[i] *= (u + 4.0 - m) / (i - m)
    W.setflags(write=False)
    return W


def _extrapolated_guess(nodes, k, width, n_steps):
    """Guessed Euler nodes (2, n+1) from run nodes k-width, k-3*width/4, ...,
    k of ``nodes`` (N, 2): their degree-4 Lagrange extrapolation, for
    n_steps <= width."""
    prior = nodes[k - width : k + 1 : width // 4]
    return prior.T @ _lagrange_weights(width)[:, : n_steps + 1]


def _sweep_block(rhs2, Z, h, work):
    """Verify Euler nodes Z[1:] from the exact node Z[0] by Picard sweeps.

    ``Z`` is the complex128 view of n+1 rows of a node array (README
    "Bit-identity contract", interleaved arithmetic): the exact first node
    and a guess of the rest, which the sweeps overwrite in place.  Each
    sweep evaluates ``rhs2`` on the unverified suffix as float64 arrays and
    accepts node j+1 only where its bits equal Z[j] + h*rhs2(Z[j]), the
    scalar loop's own operations on the verified node j.  The first
    mismatch is replaced by that successor, which is therefore exact, and
    the nodes after it are guessed again by a running sum of the sweep's
    increments.  The sum, like the first guess, is only a guess: a wrong
    node never passes the check, so each sweep verifies at least one node
    and the guesses decide only how many.

    Returns the number of verified steps, n unless the sweeps stopped
    because they cost more than the scalar loop would (see SCALAR_COST),
    and the number of sweeps run.  ``work`` holds the increments and
    successors, complex, and the components ``rhs2`` reads, (2, ...) float.
    """
    H, Y, U = work
    n = Z.size - 1
    s = cost = sweeps = 0
    while s < n and cost < SCALAR_COST * n:
        L = n - s
        sweeps += 1
        # rhs2 reads each component several times: from contiguous copies
        np.copyto(U[:, :L], Z[s:n, None].view(np.float64).T)
        D1, D2 = rhs2(U[0, :L], U[1, :L])
        np.multiply(D1, h, out=H.real[:L])
        np.multiply(D2, h, out=H.imag[:L])
        np.add(Z[s:n], H[:L], out=Y[:L])
        # a node holds where both int64 halves match: a uint16 of two Trues
        same = Y[:L, None].view(np.int64) == Z[s + 1 :, None].view(np.int64)
        same = same.view(np.uint16)[:, 0] == 0x0101
        m = int(same.argmin())
        if same[m]:
            return n, sweeps
        # nodes s+1..s+m hold; Y[m] is the successor of node s+m
        s += m + 1
        H[m] = Y[m]
        np.cumsum(H[m:L], out=Z[s:])
        cost += L + SWEEP_OVERHEAD
    return s, sweeps


def _planar_nodes(rhs2, u1, u2, h, n_steps, out=None):
    """Euler nodes of a planar run, shape (n+1, 2), bit for bit those of
    :func:`_scalar_nodes`; written into ``out`` when given.

    The run is stepped in blocks of verified Picard sweeps
    (:func:`_sweep_block`), each block starting from the last node of the
    one before.  A block's first guess is the degree-4 extrapolation of
    nodes k-w, k-3w/4, ..., k of the run (:func:`_extrapolated_guess`) when
    the block before it, of width w, verified all its steps in at most
    ``SWEEP_SMOOTH`` sweeps, and otherwise the quadratic of
    :func:`_sweep_guess`, which needs no nodes before k.  A block whose
    sweeps stop short continues from its last verified node with half the
    block length.  The scalar loop steps the rest of the run once blocks
    would be shorter than ``SWEEP_MIN`` steps, or from the first node of a
    block that holds a non-finite value, so a run that diverges fails at the
    step, and with the message, of the scalar loop.  It also steps the rest
    of the run from a block where ``rhs2`` raises TypeError or ValueError on
    arrays, as one that calls math or branches on its arguments does.

    Each guess is written into ``nodes`` one component at a time, and the
    sweeps verify it there, on the complex128 view of the rows.  Swept
    blocks are checked finite, so a DivergedError at the first non-finite
    node can only come from the nodes the scalar loop stepped.
    """
    nodes = np.empty((n_steps + 1, 2)) if out is None else out
    nodes[0] = u1, u2
    Z = nodes.view(np.complex128)[:, 0]
    # once per run: fresh block-size arrays cost the allocator page faults
    w = min(SWEEP_STEPS, n_steps)
    work = np.empty(w, np.complex128), np.empty(w, np.complex128), np.empty((2, w))
    width, k = SWEEP_STEPS, 0
    smooth = False  # the block before was full and took few sweeps
    with np.errstate(all="ignore"):
        while width >= SWEEP_MIN and n_steps - k >= SWEEP_MIN:
            n = min(width, n_steps - k)
            try:
                if smooth:
                    X = _extrapolated_guess(nodes, k, width, n)
                else:
                    X = _sweep_guess(rhs2, nodes[k, 0], nodes[k, 1], h, n)
                nodes[k + 1 : k + n + 1, 0] = X[0, 1:]
                nodes[k + 1 : k + n + 1, 1] = X[1, 1:]
                done, sweeps = _sweep_block(rhs2, Z[k : k + n + 1], h, work)
            except (TypeError, ValueError):
                break  # rhs2 takes plain floats only, e.g. it calls math
            if not np.isfinite(nodes[k + 1 : k + done + 1]).all():
                break
            k += done
            smooth = done == width and sweeps <= SWEEP_SMOOTH
            if done < n:
                width //= 2
    if k < n_steps:
        u1, u2 = float(nodes[k, 0]), float(nodes[k, 1])
        nodes[k:] = _scalar_nodes(rhs2, u1, u2, h, n_steps - k, k)
    finite = np.isfinite(nodes[k:]).all(axis=1)
    if not finite.all():
        bad = k + int(finite.argmin())
        reason = "non-finite state"
        raise DivergedError(f"{reason} at node {bad}", bad, reason)
    return nodes


def simulate(
    field: VectorField, x0, h: float, n_steps: int, out=None
) -> EulerTrajectory:
    """Integrate dx/dt = f(x) with the explicit Euler scheme.

    The run steps in blocks of verified Picard sweeps over numpy arrays,
    with the scalar loop as fallback (see :func:`_planar_nodes`); its nodes
    are those of the scalar recurrence u += h*rhs2(u) on the field's
    ``rhs_scalar2``, bit for bit.

    ``out``, a float64 array of shape (n_steps + 1, dim) with contiguous
    rows (a Fortran-ordered or column-strided one raises InputError),
    receives the nodes, and the returned trajectory's ``nodes`` is a
    read-only view of it: the trajectory changes when ``out`` is written afterwards.  ``x0``
    may be a row of ``out`` (it is copied before any node is written).

    Raises
    ------
    DivergedError
        If any node is non-finite; carries the first bad index.  The
        contents of ``out`` are then unspecified.
    """
    if h <= 0.0:
        raise InputError("step size h must be positive")
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    x0 = np.array(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise InputError(f"x0 must have shape ({field.dim},), got {x0.shape}")
    if out is not None and (
        out.shape != (n_steps + 1, field.dim)
        or out.dtype != np.float64
        or out.strides[1] != out.itemsize
    ):
        raise InputError(
            f"out must be a float64 array of shape ({n_steps + 1}, {field.dim})"
            " with contiguous rows"
        )

    u1, u2 = float(x0[0]), float(x0[1])
    nodes = _planar_nodes(field.rhs_scalar2, u1, u2, h, n_steps, out)
    # a view, so that making the trajectory read-only leaves out writable
    return EulerTrajectory(field, x0, h, nodes if out is None else nodes[:])


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
        dist = planar_norm(nodes - section.anchor)
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

    N_p is derived from the crossing's segment index (see
    :func:`return_index`), avoiding floating ceil hazards at segment
    boundaries.

    Raises
    ------
    NumericError
        If a return time falls outside its segment's bracket.
    """
    crossings = detect_crossings(traj, section, exclusion)[:p_max]
    out = [(c.time, return_index(c.time, c.step_index, traj.h), c) for c in crossings]
    return ReturnTimes(returns=out, complete=len(out) >= p_max)


def return_index(time: float, segment: int, h: float) -> int:
    """N = segment + 1 for a return at ``time`` on ``segment``: s_star in
    (0, h] places it in ((N - 1)h, N h] by construction.

    Raises
    ------
    NumericError
        If ``time`` falls outside that bracket.
    """
    n_p = segment + 1
    if not (n_p - 1) * h < time <= n_p * h * (1 + 1e-12):
        raise NumericError(
            f"return time {time!r} at segment {segment} lies outside "
            f"({(n_p - 1) * h!r}, {n_p * h!r}]"
        )
    return n_p


# --------------------------------------------------------------------------
# first-return sweep over many start points
# --------------------------------------------------------------------------

# Euler steps per chunk of the first-return sweep: a sample stops at the end
# of the chunk that holds its first counted crossing.
RETURN_CHUNK = 4096


def step_on(field: VectorField, run: np.ndarray, h: float, start: int, step=None):
    """Step ``run[1:]`` from ``run[0]``, node ``start`` of a longer run, in
    place through ``step`` (default :func:`simulate`); a DivergedError keeps
    its reason and names the non-finite node by its index on that run."""
    step = simulate if step is None else step
    try:
        step(field, run[0], h, run.shape[0] - 1, out=run)
    except DivergedError as exc:
        bad, reason = start + exc.first_bad_index, exc.reason
        raise DivergedError(f"{reason} at node {bad}", bad, reason) from None


def first_return(
    field: VectorField,
    x,
    h: float,
    n_steps: int,
    section: Section,
    exclusion: Exclusion,
    prefix=None,
    step=None,
):
    """The first counted return of the Euler run of ``n_steps`` steps from x.

    The run is taken in chunks of ``RETURN_CHUNK`` steps, every chunk
    starting from the last node of the one before, so the nodes are those
    of one long run.  Each chunk goes through the crossing rule of
    :func:`detect_crossings`, and the run stops at the end of the chunk
    that holds its first counted crossing.  ``prefix``, the first nodes of
    the run (x itself first, of any length), is read where it holds a
    chunk, and only the steps past it are taken, by :func:`step_on` through
    ``step``.

    Returns ``(nodes, segment, time)``: the run's nodes up to where it
    stopped (a view of ``prefix`` when that holds them all), and the
    segment and time of the first counted crossing, or -1 and NaN when the
    run does not return within ``n_steps``.

    Raises
    ------
    DivergedError
        Naming the run's first non-finite node.
    """
    known = np.asarray(x, dtype=float)[None, :] if prefix is None else prefix
    k = known.shape[0] - 1  # steps the known nodes hold
    stepped, t_left = [], math.inf
    segment, time, stop = -1, math.nan, n_steps
    for offset in range(0, n_steps, RETURN_CHUNK):
        end = min(offset + RETURN_CHUNK, n_steps)
        if end <= k:
            nodes = known[offset : end + 1]
        else:
            start = max(offset, k)
            run = np.empty((end - start + 1, known.shape[1]))
            run[0] = stepped[-1][-1] if stepped else known[k]
            step_on(field, run, h, start, step)
            stepped.append(run[1:])
            nodes = run if start == offset else np.concatenate([known[offset:k], run])
        i, _, t, _, _, t_left = _crossing_scan(
            field, nodes, h, offset, section, exclusion, t_left
        )
        if t.size:
            segment, time, stop = offset + int(i[0]), float(t[0]), end
            break
    if stop <= k:
        return known[: stop + 1], segment, time
    return np.concatenate([known, *stepped]), segment, time


def first_loop(field, z, h, horizon, delta0, prefix=None, step=None):
    """The Euler run from z up to its first return to the section through z.

    One :func:`first_return` run of ceil(horizon/h) steps, continuing
    ``prefix`` through ``step``, with the exclusion of
    :func:`default_exclusion`.  Returns ``(traj, R1, N1)``, ``traj`` ending
    at the end of the chunk that holds the return, not at the horizon; or
    None when the run does not return within the horizon.  A DivergedError
    names the run's first non-finite node.
    """
    z = np.asarray(z, dtype=float)
    nodes, segment, R1 = first_return(
        field, z, h, int(math.ceil(horizon / h)), Section.through(field, z),
        default_exclusion(h, delta0), prefix, step,
    )
    if segment < 0:
        return None
    return EulerTrajectory(field, z, h, nodes), R1, return_index(R1, segment, h)


def batch_first_return(
    field: VectorField,
    points: np.ndarray,
    h: float,
    horizon: float,
    section: Section,
    exclusion: Exclusion,
    runs=None,
) -> np.ndarray:
    """First return times for a batch of initial points, NaN where none found.

    Each sample is one :func:`first_return` run, stepped through
    :func:`simulate` and stopped at its first counted crossing; a sample
    whose run diverges gives NaN.

    ``runs`` maps the bytes of start points to the nodes of runs already
    stepped from them (the point itself first).  A sample whose point is a
    key reads its chunks there and steps only past them, and its entry
    ends up holding the longer of that run and the one the sample took.
    """
    n_steps = int(math.ceil(horizon / h))
    times = np.full(len(points), np.nan)
    for j, x in enumerate(np.array(points, dtype=float)):
        key = x.tobytes()
        prefix = None if runs is None else runs.get(key)
        try:
            nodes, _, times[j] = first_return(
                field, x, h, n_steps, section, exclusion, prefix
            )
        except DivergedError:
            continue
        if prefix is not None and nodes.shape[0] > prefix.shape[0]:
            runs[key] = nodes
    return times
