"""Explicit-Euler integration with dense piecewise-linear output.

The integrator stores the node sequence x_{i+1} = x_i + h f(x_i) and exposes
the dense interpolant x_i(s) = x_i + s f(x_i) for s in [0, h].  Because the
recurrence makes node differences equal h f(x_i) exactly, segment directions
are recovered from the stored nodes without re-evaluating f.

There is one integrator: the recurrence u += h*rhs2(u) on a field's
``rhs_scalar2``, run in blocks of verified Picard sweeps over numpy arrays
(:func:`_planar_nodes`).  Its nodes are those of a loop of single steps on
plain floats, bit for bit: a sweep evaluates rhs2 on a guessed block and
keeps a node only where its bits equal x + h*rhs2(x) of the kept node
before it, so a guess sets only how many sweeps a block takes.  That needs
rhs2 to round on arrays as on floats (README "Bit-identity contract").

Every run is a :class:`Run`, which holds its nodes in one growable buffer,
and every node is stepped by :func:`_step_runs`, the one caller of
:func:`_planar_nodes`: :meth:`Run.extend` calls it with its own run (the
certificate's loop, the basin sweep, the error curve's coarse run and its
streamed reference), and the R' sweep with the runs that share a field, h
and last node index, which step together.

One rule steps every run, a run alone being a group of one: a step-major
(n+1, R) array holds one node of each of R runs per row, and blocks of
min(width, rest) steps take it, the width starting at max(SWEEP_MIN,
SWEEP_STEPS // R), about SWEEP_STEPS nodes.  A block whose sweeps stop
short halves the width, and a full one doubles it back.  Every block is
guessed one way: the running sum, from its first node k, of h times the
field extrapolated from a few sample nodes (:func:`_extrapolated_guess`).
Each node is checked against the successor of its own run's node; the
first mismatch over all runs sets a frontier shared by all, and one running
sum re-guesses every run after it.  A run that had verified further gets
the same bits back, each node being the sum of the node before it and its
increment, so the shared frontier changes no bit.  Whatever steps the
blocks leave, each run steps by the scalar loop, so divergence and its
node stay each run's own.

Hyperplane sections, crossing detection and return times live here as well:
each segment is linear, so in-segment crossing offsets are exact roots of a
linear equation.  A loop from a start point is found only by
:func:`first_loop`, first returns only by :func:`_first_returns`, which
scans runs chunk by chunk: :meth:`Run.first_return` is its run of one,
:func:`batch_first_return` the R' sweep.
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

    @property
    def horizon(self) -> float:
        return self.n_steps * self.h

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


# Steps in a block of verified Picard sweeps: at most max(SWEEP_MIN,
# SWEEP_STEPS // R) for R runs stepped together, about SWEEP_STEPS nodes
# whatever R, a run alone being a group of one.  A block whose sweeps stop
# short makes the next one half as long, a full one twice as long, back up
# to that top; the steps of blocks or rests of fewer than SWEEP_MIN nodes
# each run steps by the scalar loop (:func:`_planar_nodes`,
# :func:`_step_runs`).
SWEEP_STEPS = 8192
SWEEP_MIN = 512
# Sweep cost in units of one node of one sweep: a sweep over L nodes costs
# about L + SWEEP_OVERHEAD, one scalar Euler step about SCALAR_COST.  A block
# stops sweeping once its sweeps cost what the scalar loop would.  Measured
# on Van der Pol with numpy 2.4 on a shared 2-core x86-64 VM: 17-22 us a
# sweep plus 11-13 ns a node, against 230-400 ns a scalar step.
SWEEP_OVERHEAD = 2000
SCALAR_COST = 30
# Every block starts from the Euler sums of the field extrapolated from
# sample nodes (:func:`_extrapolated_guess`): by degree GUESS_DEGREE from
# GUESS_DEGREE+1 nodes spread over the block before, where that was a full
# one of the top width, and by degree 1 from its first node and that node's
# Euler successor otherwise.  On Van der Pol at the h/100 reference steps,
# where 8192-step blocks take 3-8 sweeps, degree 6 cuts rhs evaluations per
# step over 16 blocks from 4.07 (degree 1 on every block) to 1.86 at
# h = 1.25e-6 and from 5.17 to 2.69 at 5e-6.  Of degrees 4 to 8, 5 and 6
# cost least.  At h = 5e-4, where a block takes 25 to 30 sweeps whatever
# its guess, it costs a run alone 25.6 evaluations a step against 22.1 with
# degree 1 on every block.  A run alone that looks for its first return
# steps RETURN_CHUNK steps an extend, one block, so it always takes degree 1.
GUESS_DEGREE = 6


def _scalar_nodes(rhs2, u1, u2, h, n_steps, first_step=0):
    """Euler nodes of a planar run stepped on plain floats, shape (n+1, 2).

    The last steps of every run (:func:`_step_runs`), and the recurrence
    the sweeps of :func:`_planar_nodes` verify against: each step is one
    ``rhs2`` call and u += h*d.  An ArithmeticError or ValueError of
    ``rhs2`` (an overflow, a division by zero, a math domain error) is
    raised as a DivergedError naming the node it left unstepped, counted
    from ``first_step``, the index of (u1, u2).
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


@lru_cache(maxsize=None)
def _lagrange_weights(steps, width):
    """Weights (len(steps), width) of the Lagrange extrapolation through a
    run's nodes k+s, s in ``steps``, to its nodes k..k+width-1.

    Built on first use, one read-only matrix per sample steps and width.
    """
    u = np.arange(float(width))  # steps after k
    W = np.ones((len(steps), width))
    for i, s in enumerate(steps):
        for t in steps:
            if t != s:
                W[i] *= (u - t) / (s - t)
    W.setflags(write=False)
    return W


def _extrapolated_guess(rhs2, Z, k, n, h, H, before):
    """Write guessed Euler nodes into Z[k+1..k+n] from the runs' nodes up to
    k in ``Z`` (complex128 rows, as in :func:`_sweep_block`): the Euler
    sums, from node k, of the field that :func:`_lagrange_weights`
    extrapolates from ``rhs2`` at a few sample nodes.

    After a full block of ``before`` steps, the samples are node k and D
    nodes q apart before it, spread over that block (D = GUESS_DEGREE,
    q = before // D).  Otherwise (``before`` = 0) they are node k and its
    Euler successor, whose straight line sums to the quadratic in the step
    number through node k and its two Euler successors.

    The increments, h times the extrapolated field, go into the complex
    work array ``H`` with one matmul, and one running sum from node k
    writes the rows: the guess is summed the way the recurrence sums and
    carries its rounding, and node k+1 is exact.
    """
    z, runs = Z[k], Z.shape[1]
    if before:
        q = before // GUESS_DEGREE
        steps, width = range(-GUESS_DEGREE * q, 1, q), before
        # one flat row of nodes, sample-major: rhs2 costs less on 1-d arrays
        P = Z[k - GUESS_DEGREE * q : k + 1 : q].ravel()
        fields = [rhs2(P.real, P.imag)]
    else:
        steps, width = range(2), SWEEP_STEPS
        d1, d2 = rhs2(z.real, z.imag)
        fields = [(d1, d2), rhs2(z.real + h * d1, z.imag + h * d2)]
    # h times the field at the samples, one row per rhs2 call
    hd = np.empty((len(fields), len(steps) * runs // len(fields), 2))
    for row, (f1, f2) in zip(hd, fields):
        # out= broadcasts a constant component, which rhs2 gives as a number
        np.multiply(f1, h, out=row[:, 0])
        np.multiply(f2, h, out=row[:, 1])
    W = _lagrange_weights(steps, width)[:, :n]
    rows = H[: n * runs].reshape(n, runs)
    np.matmul(W.T, hd.reshape(W.shape[0], -1), out=rows.view(np.float64))
    rows[0] += z
    np.cumsum(rows, axis=0, out=Z[k + 1 : k + n + 1])


def _sweep_block(into, Z, h, work):
    """Verify Euler nodes Z[1:] from the exact nodes Z[0] by Picard sweeps.

    ``Z`` holds complex128 rows of n+1 steps (README "Bit-identity
    contract", interleaved arithmetic), step-major with one column per run
    (see :func:`_planar_nodes`).  Row 0 is exact, the rest a guess, which
    the sweeps overwrite in place.  Each sweep evaluates rhs2 on the
    unverified rows as float64 arrays, through its in-place kernel
    ``into(x1, x2, tmp)`` (see :func:`_planar_nodes`), and accepts node j+1
    of a run only where its bits equal Z[j] + h*rhs2(Z[j]), the scalar
    loop's own operations on the run's verified node j.  The first mismatch
    over all runs, at step m, sets the frontier: row m+1 is replaced by the
    successors of row m, which are therefore exact, and the rows after it
    are guessed again by a running sum of the sweep's increments.  A run
    that had verified further gets its nodes back bit for bit, as each is
    the sum of the one before and its increment.  The sum, like the first
    guess, is only a guess: a wrong node never passes the check, so each
    sweep verifies at least one row and the guesses decide only how many.

    Returns the number of verified steps, n unless the sweeps stopped
    because they cost more than the scalar loop would (see SCALAR_COST).
    ``work`` holds the increments and successors, complex, and float rows:
    the components ``into`` reads, then its scratch rows.
    """
    H, Y, U = work
    n, runs = Z.shape[0] - 1, Z[0].size
    s = cost = 0
    while s < n and cost < SCALAR_COST * n * runs:
        size = (n - s) * runs
        # into reads each component several times: from contiguous copies
        np.copyto(U[:2, :size], Z[s:n].reshape(size, 1).view(np.float64).T)
        D1, D2 = into(U[0, :size], U[1, :size], U[2:, :size])
        np.multiply(D1, h, out=H.real[:size])
        np.multiply(D2, h, out=H.imag[:size])
        rows = H[:size].reshape(Z[s + 1 :].shape)
        succ = Y[:size].reshape(Z[s + 1 :].shape)
        np.add(Z[s:n], rows, out=succ)
        # a node holds where both its int64 halves match
        differ = succ.view(np.int64) != Z[s + 1 :].view(np.int64)
        half = int(differ.argmax())
        if not differ.flat[half]:
            return n
        m = half // (2 * runs)
        # rows s+1..s+m hold; succ[m] holds the successors of row s+m
        s += m + 1
        rows[m] = succ[m]
        np.cumsum(rows[m:], axis=0, out=Z[s:])
        cost += size + SWEEP_OVERHEAD
    return s


def _planar_nodes(rhs2, Z, h):
    """Step ``Z[1:]`` of planar runs from ``Z[0]`` in blocks of verified
    Picard sweeps (:func:`_sweep_block`), bit for bit as
    :func:`_scalar_nodes` does, as far as the blocks go; returns the number
    of steps every run holds.

    ``Z`` is a step-major complex128 (n+1, R) array, each node x1 + i x2
    and column r holding run r: a group's own array, or for a run alone, a
    group of one, the (n+1, 1) view of its node rows.  Every R takes the
    same rule.  A block is min(width, rest) steps, the width starting at
    max(SWEEP_MIN, SWEEP_STEPS // R), and starts from the last nodes of the
    block before.  A block whose sweeps stop short halves the width; a full
    block doubles it back, up to that top.  Every block starts from one
    guess, :func:`_extrapolated_guess`: it samples the block before where
    that was a full one of the top width, and node k's Euler successor
    otherwise.

    The blocks stop once a block or the rest would hold fewer than
    ``SWEEP_MIN`` nodes, at a block that holds a non-finite value, and at
    one where ``rhs2`` raises TypeError or ValueError on arrays, as one
    that calls math or branches on its arguments does.  Swept blocks are
    checked finite; :func:`_step_runs` steps the rest of each run by the
    scalar loop.

    The sweeps call ``rhs2.in_place()``'s kernel (``systems._in_place``) on
    scratch rows allocated with the other work arrays, or rhs2 itself where
    it has none (a user callable, a wrapper that counts calls).  Each guess
    is written into ``Z``, and the sweeps verify it there.
    """
    n_steps, runs = Z.shape[0] - 1, Z.shape[1]
    if n_steps * runs < SWEEP_MIN:
        return 0  # no block: no work arrays
    top = max(SWEEP_MIN, SWEEP_STEPS // runs)
    # once per call: fresh block-size arrays cost the allocator page faults
    w = min(top, n_steps) * runs
    if hasattr(rhs2, "in_place"):
        into, rows = rhs2.in_place()
    else:
        into, rows = (lambda x1, x2, tmp: rhs2(x1, x2)), 0
    U = np.empty((2 + rows, w))
    work = np.empty(w, np.complex128), np.empty(w, np.complex128), U
    width, k = top, 0
    before = 0  # the block before, when it was a full one of ``top`` steps
    with np.errstate(all="ignore"):
        while width * runs >= SWEEP_MIN and (n_steps - k) * runs >= SWEEP_MIN:
            n = min(width, n_steps - k)
            try:
                _extrapolated_guess(rhs2, Z, k, n, h, work[0], before)
                done = _sweep_block(into, Z[k : k + n + 1], h, work)
            except (TypeError, ValueError):
                break  # rhs2 takes plain floats only, e.g. it calls math
            if not np.isfinite(Z[k + 1 : k + done + 1]).all():
                break
            k += done
            before = top if done == n == top else 0
            if done < n:
                width //= 2
            elif done == width < top:
                width *= 2
    return k


def _step_runs(runs, n: int) -> list:
    """Step n more nodes of each of ``runs``, which share a field, h and
    last node index; returns each run's DivergedError, or None.

    One :func:`_planar_nodes` sweeps them all: a run alone its own node
    rows, several a step-major array that takes their last nodes and whose
    columns are copied into the runs' buffers.  Whatever steps its blocks
    leave, each run steps by the scalar loop.  So a run that diverges does
    so at the step, and with the message, of the scalar loop, whatever it
    was stepped with, and the others are stepped all the same.  It keeps
    its error in ``diverged`` and its resident nodes as they were.
    """
    field, h, first = runs[0].field, runs[0].h, runs[0].end
    rhs2 = field.rhs_scalar2
    tails = [run._room(n)[:, None] for run in runs]
    group = tails[0]
    if len(runs) > 1:
        group = np.empty((n + 1, len(runs)), np.complex128)
        group[0] = [tail[0, 0] for tail in tails]
    k = _planar_nodes(rhs2, group, h)
    errors = [None] * len(runs)
    for r, (run, tail) in enumerate(zip(runs, tails)):
        if tail is not group:
            tail[1 : k + 1, 0] = group[1 : k + 1, r]
        try:
            if k < n:
                u1, u2 = float(tail[k, 0].real), float(tail[k, 0].imag)
                nodes = _scalar_nodes(rhs2, u1, u2, h, n - k, first + k)
                tail[k:] = nodes.view(np.complex128)
            # the swept blocks were checked finite
            finite = np.isfinite(tail[k:, 0])
            if not finite.all():
                bad = first + k + int(finite.argmin())
                reason = "non-finite state"
                raise DivergedError(f"{reason} at node {bad}", bad, reason)
        except DivergedError as exc:
            errors[r] = run.diverged = exc
        else:
            run._size += n
    return errors


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
    extends, and whether it is stepped alone or with other runs.
    ``diverged`` keeps the DivergedError of an extend that failed, which
    leaves the resident nodes as they were.
    """

    def __init__(self, field: VectorField, x0, h: float, rows: int = 1):
        require_positive("h", h)
        x0 = np.array(x0, dtype=float)
        if x0.shape != (2,):
            raise InputError(f"x0 must have shape (2,), got {x0.shape}")
        x0.setflags(write=False)
        self.field, self.x0, self.h = field, x0, float(h)
        self.base, self.diverged = 0, None
        self._buffer = np.empty((rows, 2))
        self._buffer[0] = x0
        self._size = 1  # resident nodes

    @property
    def nodes(self) -> np.ndarray:
        return self._buffer[: self._size]

    @property
    def end(self) -> int:
        """Index of the last resident node."""
        return self.base + self._size - 1

    def extend(self, n: int) -> "Run":
        """Step n more nodes from the last resident one; returns the run.

        A buffer without room is replaced by one of twice its rows or the
        rows needed, whichever is more, capped at ``NODE_BUDGET``; more
        nodes than that are an InputError.  A DivergedError names the first
        non-finite node by its index on the run.
        """
        if n:  # extend(0) steps nothing
            require_positive("n", n)
        exc = _step_runs([self], n)[0]
        if exc is not None:
            raise exc
        return self

    def _room(self, n: int) -> np.ndarray:
        """The complex128 view of the buffer rows from the last resident
        node through n more, growing the buffer as :meth:`extend` says."""
        size = self._size + n
        if size > self._buffer.shape[0]:
            if size > NODE_BUDGET:
                raise InputError(
                    f"the Euler run at h = {self.h!r} would hold {size} nodes, "
                    f"more than the node budget of {NODE_BUDGET}: raise h or "
                    "shorten the horizon"
                )
            rows = min(max(2 * self._buffer.shape[0], size), NODE_BUDGET)
            buffer = np.empty((rows, 2))
            buffer[: self._size] = self.nodes
            self._buffer = buffer
        return self._buffer[self._size - 1 : size].view(np.complex128)[:, 0]

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

        The run of one of :func:`_first_returns`: returns the
        :meth:`trajectory` up to the end of the chunk that holds the first
        counted crossing, and its segment and time; or the trajectory up to
        ``n_steps``, -1 and NaN when there is none.  A DivergedError names
        the node the run failed at.
        """
        found = _first_returns([self], n_steps, section, exclusion)[0]
        if isinstance(found, DivergedError):
            raise found
        stop, segment, time = found
        return self.trajectory(stop), segment, time


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


def _first_returns(runs, n_steps: int, section: Section, exclusion: Exclusion) -> list:
    """Each run's first counted return within ``n_steps`` steps of node 0,
    the runs sharing a field and h.

    The runs are scanned together in chunks of ``RETURN_CHUNK`` steps by
    the crossing rule of :func:`detect_crossings`.  A resident chunk is
    read; the runs that need a chunk stepped and share their last node step
    it together, by one :func:`_step_runs`.  A run leaves the scan
    at its first counted crossing, or when it diverges.

    Returns per run ``(stop, segment, time)``: the end of the chunk that
    holds the crossing, its segment and time, or ``(n_steps, -1, NaN)`` when
    there is none; or the DivergedError of a run that diverged.
    """
    found = [(n_steps, -1, math.nan)] * len(runs)
    t_left = [math.inf] * len(runs)
    scanning = list(range(len(runs)))
    for offset in range(0, n_steps, RETURN_CHUNK):
        stop = min(offset + RETURN_CHUNK, n_steps)
        groups = {}  # by last node
        for j in scanning:
            if stop > runs[j].end:
                groups.setdefault(runs[j].end, []).append(j)
        for group in groups.values():
            ran = [runs[j] for j in group]
            errors = _step_runs(ran, stop - ran[0].end)
            for j, exc in zip(group, errors):
                if exc is not None:
                    found[j] = exc
        kept = []
        for j in scanning:
            if isinstance(found[j], DivergedError):
                continue
            run = runs[j]
            i, _, t, _, _, t_left[j] = _crossing_scan(
                run.field, run.nodes[offset : stop + 1], run.h, offset,
                section, exclusion, t_left[j],
            )
            if t.size:
                found[j] = stop, offset + int(i[0]), float(t[0])
            else:
                kept.append(j)
        scanning = kept
        if not scanning:
            break
    return found


def batch_first_return(
    runs, horizon: float, section: Section, exclusion: Exclusion
) -> np.ndarray:
    """First return times of ``runs``, which share a field and h, within
    ``horizon``; NaN where none is found.

    Sample j is the first return of ``runs[j]``, continued in place, and all
    are found by one :func:`_first_returns`, which steps the runs that share
    an end together; a sample whose run diverges gives NaN, and the run
    keeps its error.  Runs of another field or h than the first are refused
    (InputError): their group would step them on the first one's.
    """
    require_positive("len(runs)", len(runs))
    field, h = runs[0].field, runs[0].h
    if any(run.field is not field or run.h != h for run in runs):
        raise InputError("the runs of a first-return sweep must share a field and h")
    n_steps = int(math.ceil(horizon / h))
    times = np.full(len(runs), np.nan)
    for j, found in enumerate(_first_returns(runs, n_steps, section, exclusion)):
        if not isinstance(found, DivergedError):
            times[j] = found[2]
    return times
