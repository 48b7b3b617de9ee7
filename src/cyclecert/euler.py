"""Explicit-Euler integration with dense piecewise-linear output.

The integrator stores the node sequence x_{i+1} = x_i + h f(x_i) and exposes
the dense interpolant x_i(s) = x_i + s f(x_i) for s in [0, h].  Because the
recurrence makes node differences equal h f(x_i) exactly, segment directions
are recovered from the stored nodes without re-evaluating f.

There is one integrator: the recurrence u += h*rhs2(u) on a field's
``rhs_scalar2``, run by one sliding window of verified Picard sweeps over
numpy arrays (:func:`_planar_nodes`).  Its nodes are those of a loop of
single steps on plain floats, bit for bit: a sweep evaluates rhs2 on the
guessed nodes of its window and keeps a node only where its bits equal
x + h*rhs2(x) of the kept node before it, so a guess sets only how many
sweeps a step takes.  That needs rhs2 to round on arrays as on floats
(README "Bit-identity contract").

Every run is a :class:`Run`, which holds its nodes in one growable buffer,
and every node is stepped by :func:`_step_runs`, the one caller of
:func:`_planar_nodes`: :meth:`Run.extend` calls it with its own run (the
certificate's loop, the basin sweep, the error curve's coarse run and its
streamed reference), and the R' sweep with the runs that share a field, h
and last node index, which step together.

One rule steps every run, a run alone being a group of one: a step-major
(n+1, R) array holds one node of each of R runs per row, and each sweep
takes the window of max(SWEEP_MIN, SWEEP_STEPS // R) steps past the
frontier k, the last node that every run holds exact, about SWEEP_STEPS
nodes.  Each node is checked against the successor of its own run's node;
the first mismatch over all runs sets the next frontier, shared by all, and
the window slides with it.  One running sum re-guesses every run past it
(:func:`_extrapolated_guess`): from node k, the sweep's own increments,
then, for the rows that slid into the window, increments extrapolated from
a few of the sweep's.  So the sweep that verifies a window's tail is also
the first sweep of the steps after it.  A run that had verified further
gets the same bits back, each node being the sum of the node before it and
its increment, so the shared frontier changes no bit.  Whatever steps the
sweeps leave, each run steps by the scalar loop, so divergence and its node
stay each run's own.

Hyperplane sections, crossing detection and return times live here as well:
each segment is linear, so in-segment crossing offsets are exact roots of a
linear equation.  A loop from a start point is found only by
:func:`first_loop`, first returns only by :func:`_first_returns`, which
scans runs chunk by chunk: :meth:`Run.first_return` is its run of one,
:func:`batch_first_return` the R' sweep.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .config import require_count, require_point, require_positive, require_step_count
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


# Steps in the window of verified Picard sweeps: max(SWEEP_MIN, SWEEP_STEPS
# // R) for R runs stepped together, about SWEEP_STEPS nodes whatever R, a
# run alone being a group of one.  The window slides with the verified
# frontier up to the extend's last step; an extend of fewer than SWEEP_MIN
# nodes each run steps by the scalar loop (:func:`_planar_nodes`,
# :func:`_step_runs`).
SWEEP_STEPS = 8192
SWEEP_MIN = 512
# Sweep cost in units of one node of one sweep: a sweep over L nodes costs
# about L + SWEEP_OVERHEAD, one scalar Euler step about SCALAR_COST.  The
# sweeps of an extend stop once they cost what the scalar loop would on the
# steps they verified and one window more.  Measured on Van der Pol with
# numpy 2.4 on a shared 2-core x86-64 VM: about 18 us a sweep plus 11-14 ns
# a node, against 230-400 ns a scalar step.
SWEEP_OVERHEAD = 2000
SCALAR_COST = 30
# The rows that slide into the window are guessed from the increments that
# :func:`_lagrange_weights` extrapolates by degree GUESS_DEGREE from
# GUESS_DEGREE+1 of the sweep's increments spread over the window
# (:func:`_extrapolated_guess`); the first window of an extend, with no
# sweep before it, by degree 1 from its first node and that node's Euler
# successor.  On Van der Pol's h/100 references of vdp-example2, streamed
# over 2^20 steps, degrees 5 / 6 / 7 / 8 take 1.65 / 1.71 / 1.81 / 1.90 rhs
# evaluations a step at h = 1.25e-6 and 2.98 / 2.52 / 2.20 / 2.35 at 5e-6;
# 6 costs least over the two.  A window of 4096 steps takes 1.56 and 1.84,
# but twice the sweeps, and steps them in the same time.
GUESS_DEGREE = 6


def _scalar_nodes(rhs2, u1, u2, h, n_steps, first_step=0):
    """Euler nodes of a planar run stepped on plain floats, shape (n+1, 2).

    The steps of every run that the sweeps leave (:func:`_step_runs`), and
    the recurrence the sweeps of :func:`_planar_nodes` verify against: each
    step is one ``rhs2`` call and u += h*d.  An ArithmeticError or
    ValueError of ``rhs2`` (an overflow, a division by zero, a math domain
    error) is raised as a DivergedError naming the node it left unstepped,
    counted from ``first_step``, the index of (u1, u2).
    """
    buf = array("d", (u1, u2))  # raw doubles: no float object outlives its step
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
    return np.frombuffer(buf, np.float64).reshape(-1, 2)


@lru_cache(maxsize=None)
def _lagrange_weights(steps, width):
    """Weights (len(steps), width) of the Lagrange extrapolation through a
    run's increments j+s, s in ``steps``, to its increments j..j+width-1.

    Built on first use, one read-only matrix per sample steps and width.
    """
    u = np.arange(float(width))  # steps after j
    W = np.ones((len(steps), width))
    for i, s in enumerate(steps):
        for t in steps:
            if t != s:
                W[i] *= (u - t) / (s - t)
    W.setflags(write=False)
    return W


def _extrapolated_guess(rhs2, Z, k, n, h, H, first, w):
    """Write guessed Euler nodes into Z[k+1..k+n] from the exact node k:
    one running sum from node k of increments in the rows of ``H``, the
    work array of :func:`_planar_nodes` (one complex128 row of R runs a
    step, as ``Z``).

    Rows first+1..w of ``H`` hold increments of nodes k, k+1, ... that the
    sweep before computed; the rows after them, up to first+n, are
    extrapolated by :func:`_lagrange_weights` from GUESS_DEGREE+1 of that
    sweep's increments, rows w, w-q, ..., spread over its window of w rows
    (q = (w-1) // GUESS_DEGREE).  The first window (w = 0) has no sweep
    before it: its increments are those of the straight line through the
    field at node k and at node k's Euler successor, whose Euler sums are
    the quadratic in the step number through node k and its two Euler
    successors.

    The extrapolated increments go into ``H`` with one matmul, and one
    running sum from node k writes the rows: the guess is summed the way
    the recurrence sums and carries its rounding.
    """
    extra = first + n - w  # rows w+1..first+n to extrapolate
    if extra > 0:
        if w:
            q = (w - 1) // GUESS_DEGREE
            steps, width = range(-1 - GUESS_DEGREE * q, 0, q), w  # from row w+1
            hd = H[w - GUESS_DEGREE * q : w + 1 : q].view(np.float64)
        else:
            steps, width, z = range(2), SWEEP_STEPS, Z[k]
            d1, d2 = rhs2(z.real, z.imag)
            fields = [(d1, d2), rhs2(z.real + h * d1, z.imag + h * d2)]
            hd = np.empty((2, 2 * Z.shape[1]))
            for row, (f1, f2) in zip(hd, fields):
                # out= broadcasts a constant component, which rhs2 gives as a number
                np.multiply(f1, h, out=row[0::2])
                np.multiply(f2, h, out=row[1::2])
        W = _lagrange_weights(steps, width)[:, :extra]
        np.matmul(W.T, hd, out=H[w + 1 : first + n + 1].view(np.float64))
    H[first] = Z[k]
    H[first : first + n + 1].cumsum(0, out=Z[k : k + n + 1])


def _planar_nodes(rhs2, Z, h):
    """Step ``Z[1:]`` of planar runs from ``Z[0]`` by one sliding window of
    verified Picard sweeps, bit for bit as :func:`_scalar_nodes` does, as
    far as the sweeps go; returns the number of steps every run holds.

    ``Z`` is a step-major complex128 (n+1, R) array, each node x1 + i x2
    and column r holding run r: a group's own array, or for a run alone, a
    group of one, the (n+1, 1) view of its node rows.  Every R takes the
    same rule.  Each sweep takes the window of w = min(top, rest) rows past
    the frontier k, all runs' nodes up to which are exact, top being
    max(SWEEP_MIN, SWEEP_STEPS // R).  It evaluates rhs2 on rows k..k+w-1,
    through its in-place kernel ``into(x1, x2, tmp)``, and keeps node j+1
    of a run only where its bits equal Z[j] + h*rhs2(Z[j]), the scalar
    loop's own operations on the run's verified node j.  The first mismatch
    over all runs, at row j, sets the new frontier k' = j+1, whose row
    becomes the successors of row j and so is exact.  :func:`_extrapolated_guess`
    then guesses rows k'+1.. again, by one running sum of the sweep's
    increments and of those it extrapolates for the rows that slid into the
    window.  A run that had verified further gets its nodes back bit for
    bit, as each is the sum of the one before and its increment.  The guess
    is only a guess: a wrong node never passes the check, so each sweep
    verifies at least one row and the guesses decide only how many.

    The sweeps stop at the extend's end, or once they cost more than the
    scalar loop would (see SCALAR_COST), or where ``rhs2`` raises TypeError
    or ValueError on arrays, as one that calls math or branches on its
    arguments does.  An extend of fewer than ``SWEEP_MIN`` nodes is not
    swept.  The frontier then goes back to the last node of every run that
    is finite, as a component once infinite or NaN stays so;
    :func:`_step_runs` steps the rest of each run by the scalar loop.

    The sweeps call ``rhs2.in_place()``'s kernel (``systems._in_place``) on
    scratch rows allocated with the other work arrays, or rhs2 itself where
    it has none (a user callable, a wrapper that counts calls).  Each guess
    is written into ``Z``, and the sweeps verify it there.
    """
    n_steps, runs = Z.shape[0] - 1, Z.shape[1]
    if n_steps * runs < SWEEP_MIN:
        return 0  # no window: no work arrays
    top = min(max(SWEEP_MIN, SWEEP_STEPS // runs), n_steps)
    if hasattr(rhs2, "in_place"):
        into, rows = rhs2.in_place()
    else:
        into, rows = (lambda x1, x2, tmp: rhs2(x1, x2)), 0
    # once per call: fresh window-size arrays cost the allocator page faults.
    # H holds a window's increments and the rows that slide in after it,
    # Y the successors, U the components into reads and its scratch rows
    H = np.empty((2 * top + 1, runs), np.complex128)
    Y = np.empty((top, runs), np.complex128)
    U = np.empty((2 + rows, top * runs))
    inc = H.reshape(-1)[runs:]  # the sweep's increments, from row 1 of H
    k = first = w = cost = 0
    with np.errstate(all="ignore"):
        while k < n_steps and cost < SCALAR_COST * runs * (k + top):
            n = min(top, n_steps - k)
            size = n * runs
            try:
                _extrapolated_guess(rhs2, Z, k, n, h, H, first, w)
                # into reads each component several times: from contiguous copies
                np.copyto(U[:2, :size], Z[k : k + n].reshape(size, 1).view(np.float64).T)
                D1, D2 = into(U[0, :size], U[1, :size], U[2:, :size])
            except (TypeError, ValueError):
                break  # rhs2 takes plain floats only, e.g. it calls math
            np.multiply(D1, h, out=inc.real[:size])
            np.multiply(D2, h, out=inc.imag[:size])
            succ = Y[:n]
            np.add(Z[k : k + n], H[1 : n + 1], out=succ)
            # a node holds where both its int64 halves match
            differ = succ.view(np.int64) != Z[k + 1 : k + n + 1].view(np.int64)
            half = int(differ.argmax())
            m = half // (2 * runs) if differ.flat[half] else n - 1
            # rows k+1..k+m hold; succ[m] holds the successors of row k+m
            Z[k + m + 1] = succ[m]
            k, first, w = k + m + 1, m + 1, n
            cost += size + SWEEP_OVERHEAD
    if k and not np.isfinite(Z[k]).all():
        k = int(np.isfinite(Z[1 : k + 1]).all(axis=1).argmin())
    return k


def _step_runs(runs, n: int) -> list:
    """Step n more nodes of each of ``runs``, which share a field, h and
    last node index; returns each run's DivergedError, or None.

    One :func:`_planar_nodes` sweeps them all: a run alone its own node
    rows, several a step-major array that takes their last nodes and whose
    columns are copied into the runs' buffers.  Whatever steps its sweeps
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
            # the swept nodes were checked finite
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
        x0 = require_point("x0", x0)
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
            require_count("n", n)
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
    require_count("n_steps", n_steps)
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
    require_step_count("horizon", h, horizon, horizon)
    n_steps = int(math.ceil(horizon / h))
    times = np.full(len(runs), np.nan)
    for j, found in enumerate(_first_returns(runs, n_steps, section, exclusion)):
        if not isinstance(found, DivergedError):
            times[j] = found[2]
    return times
