"""Explicit-Euler integration with dense piecewise-linear output.

The integrator stores the node sequence x_{i+1} = x_i + h f(x_i) and exposes
the dense interpolant x_i(s) = x_i + s f(x_i) for s in [0, h].  Because the
recurrence makes node differences equal h f(x_i) exactly, segment directions
are recovered from the stored nodes without re-evaluating f.

There is one integrator: the recurrence u += h*rhs2(u) on a field's
``rhs_scalar2``, run in blocks of verified Picard sweeps over numpy arrays
(:func:`_planar_nodes`).  README "Bit-identity contract" says why its nodes
are those of a loop of single steps on plain floats, bit for bit.

Every run is a :class:`Run`, whose :meth:`Run.extend` steps each node into
one growable buffer: the certificate's loop, the R' and basin sweeps, the
error curve's coarse run and its streamed reference extend runs in place.

Hyperplane sections, crossing detection and return times live here as well:
each segment is linear, so in-segment crossing offsets are exact roots of a
linear equation.  A loop from a start point is found only by
:func:`first_loop`, a run's first return only by :meth:`Run.first_return`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .config import require_positive
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
# Euler sums of the field extrapolated from that block, by degree
# GUESS_DEGREE over its width (:func:`_extrapolated_guess`).  On the
# registry systems, full 8192-step blocks take 3-8 sweeps at h = 1.25e-6
# and 5e-6, where the extrapolation cuts rhs evaluations per step on Van
# der Pol over 16 blocks from 4.07 (the quadratic guess on every block) to
# 1.86 and from 5.17 to 2.69, and 12-25 at h >= 1e-4, where it did not pay:
# those keep the quadratic guess.  Of degrees 4 to 8, 5 and 6 cost least.
SWEEP_SMOOTH = 8
GUESS_DEGREE = 6


def _scalar_nodes(rhs2, u1, u2, h, n_steps, first_step=0):
    """Euler nodes of a planar run stepped on plain floats, shape (n+1, 2).

    The fallback of :func:`_planar_nodes`, and the recurrence its sweeps
    verify against: each step is one ``rhs2`` call and u += h*d.  An
    ArithmeticError or ValueError of ``rhs2`` (an overflow, a division by
    zero, a math domain error) is raised as a DivergedError naming the node
    it left unstepped, counted from ``first_step``, the index of (u1, u2).
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
        raise DivergedError(f"{reason} at node {step}", step, reason) from None
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
    """Weights (GUESS_DEGREE+1, width) of the degree-GUESS_DEGREE Lagrange
    extrapolation through nodes k-D*q, k-(D-1)*q, ..., k of a run, with
    D = GUESS_DEGREE and q = width // D, to its nodes k..k+width-1.

    Built on first use, one read-only matrix per block width.
    """
    D = GUESS_DEGREE
    u = np.arange(float(width)) / (width // D)  # steps after k, in q
    W = np.ones((D + 1, width))
    for i in range(D + 1):
        for m in range(D + 1):
            if m != i:
                W[i] *= (u + D - m) / (i - m)
    W.setflags(write=False)
    return W


def _extrapolated_guess(rhs2, Z, k, width, n, h, H):
    """Write guessed Euler nodes into Z[k+1..k+n], n <= width, from the
    run's nodes up to k in ``Z`` (complex128 rows, as in
    :func:`_sweep_block`): the Euler sums, from node k, of the field that
    the degree-GUESS_DEGREE Lagrange weights extrapolate from ``rhs2`` at
    nodes k-D*q, ..., k (q = width // D, D = GUESS_DEGREE).

    The increments, h times the extrapolated field, go into the complex
    work array ``H`` with one matmul, and one running sum from node k
    writes the rows: the guess is summed the way the recurrence sums and
    carries its rounding, and node k+1 is exact.
    """
    q = width // GUESS_DEGREE
    P = Z[k - GUESS_DEGREE * q : k + 1 : q]
    d1, d2 = rhs2(P.real, P.imag)
    hd = np.empty((GUESS_DEGREE + 1, 2))
    # out= broadcasts a constant component, which rhs2 gives as a number
    np.multiply(d1, h, out=hd[:, 0])
    np.multiply(d2, h, out=hd[:, 1])
    HD = H[:n].view(np.float64).reshape(n, 2)
    np.matmul(_lagrange_weights(width)[:, :n].T, hd, out=HD)
    H[0] += Z[k]
    np.cumsum(H[:n], out=Z[k + 1 : k + n + 1])


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


def _planar_nodes(rhs2, nodes, h, first):
    """Step ``nodes[1:]`` of a planar run from ``nodes[0]``, its node
    ``first``, bit for bit as :func:`_scalar_nodes` does.

    The run is stepped in blocks of verified Picard sweeps
    (:func:`_sweep_block`), each block starting from the last node of the
    one before.  A block's first guess is the running sum, from node k, of
    h times the field extrapolated from ``rhs2`` at GUESS_DEGREE+1 nodes
    spread over the block before (:func:`_extrapolated_guess`) when that
    block, of width w, verified all its steps in at most ``SWEEP_SMOOTH``
    sweeps, and otherwise the quadratic of :func:`_sweep_guess`, which
    needs no nodes before k.  A block whose sweeps stop short continues
    from its last verified node with half the block length.  The scalar
    loop steps the rest of the run once blocks would be shorter than
    ``SWEEP_MIN`` steps, or from the first node of a block that holds a
    non-finite value, so a run that diverges fails at the step, and with
    the message, of the scalar loop.  It also steps the rest of the run
    from a block where ``rhs2`` raises TypeError or ValueError on arrays,
    as one that calls math or branches on its arguments does.

    Each guess is written into ``nodes``, and the sweeps verify it there,
    on the complex128 view of the rows.  Swept blocks are checked finite,
    so a DivergedError at the first non-finite node, which it names by its
    index on the run, can only come from the nodes the scalar loop stepped.
    """
    n_steps = nodes.shape[0] - 1
    Z = nodes.view(np.complex128)[:, 0]
    # once per extend: fresh block-size arrays cost the allocator page faults
    w = min(SWEEP_STEPS, n_steps)
    work = np.empty(w, np.complex128), np.empty(w, np.complex128), np.empty((2, w))
    width, k = SWEEP_STEPS, 0
    smooth = False  # the block before was full and took few sweeps
    with np.errstate(all="ignore"):
        while width >= SWEEP_MIN and n_steps - k >= SWEEP_MIN:
            n = min(width, n_steps - k)
            try:
                if smooth:
                    _extrapolated_guess(rhs2, Z, k, width, n, h, work[0])
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
        nodes[k:] = _scalar_nodes(rhs2, u1, u2, h, n_steps - k, first + k)
    finite = np.isfinite(nodes[k:]).all(axis=1)
    if not finite.all():
        bad = first + k + int(finite.argmin())
        reason = "non-finite state"
        raise DivergedError(f"{reason} at node {bad}", bad, reason)


# Nodes one Run may hold at once (2**25, 512 MiB): a run that would hold
# more, such as one at a tiny h or one that never returns within a huge
# horizon, is refused before its buffer grows.  The largest run of the
# tests, demos and benchmarks holds 7,576,801 nodes, under a quarter of it.
NODE_BUDGET = 1 << 25


class Run:
    """The explicit-Euler run from x0 at step h, grown in place.

    Its nodes live in one float64 buffer: ``nodes`` holds the resident ones,
    ``nodes[0]`` being node ``base`` of the run.  :meth:`extend` steps every
    node (see :func:`_planar_nodes`), so the nodes are those of the scalar
    recurrence u += h*rhs2(u), bit for bit, however the run is cut into
    extends.  ``diverged`` keeps the DivergedError of an extend that
    failed, which leaves the resident nodes as they were.
    """

    def __init__(self, field: VectorField, x0, h: float, rows: int = 1):
        require_positive("h", h)
        x0 = np.array(x0, dtype=float)
        if x0.shape != (field.dim,):
            raise InputError(f"x0 must have shape ({field.dim},), got {x0.shape}")
        x0.setflags(write=False)
        self.field, self.x0, self.h = field, x0, float(h)
        self.base, self.diverged = 0, None
        self._buffer = np.empty((rows, field.dim))
        self._buffer[0] = x0
        self._size = 1  # resident nodes

    @property
    def nodes(self) -> np.ndarray:
        return self._buffer[: self._size]

    @property
    def end(self) -> int:
        """Index of the last resident node."""
        return self.base + self._size - 1

    def extend(self, n: int, double: bool = False) -> "Run":
        """Step n more nodes from the last resident one; returns the run.

        A buffer without room is replaced by one of exactly the rows needed
        or, with ``double``, of at least twice its rows.  InputError past
        ``NODE_BUDGET``; a DivergedError names the first non-finite node by
        its index on the run.
        """
        size = self._size + n
        if size > self._buffer.shape[0]:
            if size > NODE_BUDGET:
                raise InputError(
                    f"the Euler run at h = {self.h!r} would hold {size} nodes, "
                    f"more than the node budget of {NODE_BUDGET}: raise h or "
                    "shorten the horizon"
                )
            rows = 2 * self._buffer.shape[0] if double else 0
            buffer = np.empty((min(max(rows, size), NODE_BUDGET), self.field.dim))
            buffer[: self._size] = self.nodes
            self._buffer = buffer
        tail = self._buffer[self._size - 1 : size]  # from the last node on
        try:
            _planar_nodes(self.field.rhs_scalar2, tail, self.h, self.end)
        except DivergedError as exc:
            self.diverged = exc
            raise
        self._size = size
        return self

    def drop_before(self, k: int):
        """Drop the nodes before node k, moving the rest to the front of
        the buffer."""
        if not self.base <= k <= self.end:
            raise InputError(f"node {k} to keep is not resident")
        kept = self.nodes[k - self.base :]
        # numpy copies through a temporary on overlap
        self._buffer[: kept.shape[0]] = kept
        self.base, self._size = k, kept.shape[0]

    def trajectory(self, n_steps: int = None) -> EulerTrajectory:
        """Nodes 0..n_steps (default: all resident) as a read-only view."""
        n_steps = self.end if n_steps is None else n_steps
        if self.base != 0 or n_steps > self.end:
            raise InputError(f"nodes 0..{n_steps} of the run are not resident")
        return EulerTrajectory(self.field, self.x0, self.h, self._buffer[: n_steps + 1])

    def first_return(self, n_steps: int, section: Section, exclusion: Exclusion):
        """The first counted return within ``n_steps`` steps of node 0.

        The run is scanned in chunks of ``RETURN_CHUNK`` steps by the
        crossing rule of :func:`detect_crossings`; a resident chunk is read,
        any other stepped by a doubling :meth:`extend`.  Returns the
        :meth:`trajectory` up to the end of the chunk that holds the first
        counted crossing, and its segment and time; or the trajectory up to
        ``n_steps``, -1 and NaN when there is none.
        """
        t_left = math.inf
        for offset in range(0, n_steps, RETURN_CHUNK):
            stop = min(offset + RETURN_CHUNK, n_steps)
            if stop > self.end:
                self.extend(stop - self.end, double=True)
            i, _, t, _, _, t_left = _crossing_scan(
                self.field, self.nodes[offset : stop + 1], self.h, offset,
                section, exclusion, t_left,
            )
            if t.size:
                return self.trajectory(stop), offset + int(i[0]), float(t[0])
        return self.trajectory(n_steps), -1, math.nan


def simulate(field: VectorField, x0, h: float, n_steps: int) -> EulerTrajectory:
    """The explicit-Euler run of ``n_steps`` steps from x0: a :class:`Run`
    extended once.  A DivergedError carries the first non-finite node."""
    run = Run(field, x0, h)
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    return run.extend(n_steps).trajectory()


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
        with np.errstate(over="ignore", invalid="ignore"):
            f = field.f_raw(anchor)
        if not np.isfinite(f).all():
            raise InputError(
                f"the field is not finite at the start point {anchor.tolist()}: "
                f"f = {f.tolist()}"
            )
        if not np.linalg.norm(f) > 0.0:
            raise InputError(
                f"the field vanishes at the start point {anchor.tolist()}: "
                f"f = {f.tolist()}"
            )
        return cls(anchor, f)

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

# Euler steps per chunk of a first-return scan: a run stops at the end of
# the chunk that holds its first counted crossing.
RETURN_CHUNK = 4096


def first_loop(run: Run, horizon: float, delta0: float):
    """The run up to its first return to the section through its start
    point z: a :meth:`Run.first_return` of ceil(horizon/h) steps with the
    exclusion of :func:`default_exclusion`.  Returns ``(traj, R1, N1)``, or
    None when the run does not return within the horizon.
    """
    h = run.h
    traj, segment, R1 = run.first_return(
        int(math.ceil(horizon / h)), Section.through(run.field, run.x0),
        default_exclusion(h, delta0),
    )
    if segment < 0:
        return None
    return traj, R1, return_index(R1, segment, h)


def batch_first_return(
    field: VectorField, points, h: float, horizon: float, section: Section,
    exclusion: Exclusion, runs=None,
) -> np.ndarray:
    """First return times for a batch of initial points, NaN where none found.

    Sample j is the :meth:`Run.first_return` of ``runs[j]``, a :class:`Run`
    from point j at step h continued in place (default: a fresh one); a
    sample whose run diverges gives NaN, and the run keeps its error.
    """
    n_steps = int(math.ceil(horizon / h))
    if runs is None:
        runs = [Run(field, x, h) for x in np.array(points, dtype=float)]
    times = np.full(len(runs), np.nan)
    for j, run in enumerate(runs):
        try:
            _, _, times[j] = run.first_return(n_steps, section, exclusion)
        except DivergedError:
            continue
    return times
