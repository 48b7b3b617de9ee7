"""Synchronized error between an Euler trajectory and a fine-step reference.

The reference stands in for the exact flow (default step h/100).  For each
sample time t of the coarse trajectory, the synchronized time theta solves
<ref(theta) - x(t), f(x(t))> = 0: the reference point is pulled onto the
moving section carried along the Euler trajectory.  Since the reference is
itself piecewise linear, each solve reduces to a sign-change scan over a
short window followed by an exact linear root, warm-started at the previous
theta; theta is nondecreasing by construction.

The scan runs over blocks of samples at once, in windowed passes whose
boundaries Newton predictions of theta place, and writes each pass's kept
samples straight into the series.  A :class:`ReferenceSolution` holds a
whole reference in memory; a :class:`ReferenceStream`, an
:class:`~cyclecert.euler.Run` with a step cap, holds only the nodes from
the current window on, and when the next window is not resident
:func:`synchronize` advances it by a chunk and scans on, to the last
sample.  Both expose their resident nodes the same way, and one scan reads
both.  README "Bit-identity contract" says why the passes and the stream
give, bit for bit, the series of the sample-by-sample rule on one long
reference.

:func:`error_curve_experiment` extends one existence certificate per step
size and steps no node of a run from x0 twice.  The certificate's run ends
at the chunk that holds its first return; the coarse run is that run,
extended.  The horizon, in loop periods, is read from the R1 of the
largest step's certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import PipelineConfig, require_positive, require_step_count
from .errors import InputError, SynchronizationLostError
from .euler import EulerTrajectory, Run, simulate
from .systems import VectorField
from .tube import ExistenceCertificate, Tube, certify_existence
from .attraction import compute_D

TAU_SYNC = 1e-10
# A sample's search window spans this many coarse steps of reference time
# from the previous theta.
WINDOW_STEPS = 3.0
# The error curve's tail: the final fifth of the samples.
TAIL_FRACTION = 0.2

# Reference steps a ReferenceStream adds per advance (4 MiB of nodes).
STREAM_CHUNK = 1 << 18
# Rows a ReferenceStream's buffer holds past one chunk for the kept nodes,
# which are fewer than one synchronization window: 3*refine + 4 nodes at
# WINDOW_STEPS = 3, so this fits refine up to 1364.
STREAM_SLACK = 1 << 12
# Window nodes one pass of the batched scan may gather; a block holds this
# many divided by the window length samples.  Only the speed depends on it.
# Passes scan a prefix of about a third of each window, so a pass of 2^19
# window nodes gathers about 3 MiB; on the error curve of vdp-example2 that
# is 242 passes for 315,706 samples (842 at 2^17).
SYNC_BLOCK_NODES = 1 << 19
# Newton steps of the prediction of window starts and roots.  The
# predictions only place the pass boundaries: two steps keep the passes as
# long as four did on vdp-example2 at half the cost.
PREDICT_STEPS = 2
# A pass predicts the samples whose guessed theta lies within this factor
# of the resident reference time past the last theta.  The theta rate of the
# guess drifts within a pass; a pass cut short costs a pass more than a few
# spare predictions do.  On vdp-example2 this keeps the 242 passes and
# makes 1.02 predictions per sample (1.31 unbounded).
FIT_SLACK = 1.05
# Nodes a pass scans past the segment of the latest predicted root.
WINDOW_MARGIN = 4
# A predicted root this many ulps from a reference node counts as on it.
SNAP_ULPS = 4

# outcome of one sample in a windowed pass
_OK, _PASSED, _NO_ROOT, _RESIDUAL = range(4)


@dataclass(frozen=True)
class ReferenceSolution:
    """Fine-step Euler surrogate of the exact flow, densely evaluable."""

    traj: EulerTrajectory
    refine: int

    base = 0  # index of nodes[0]: the whole run is resident

    @property
    def h(self) -> float:
        return self.traj.h

    @property
    def nodes(self) -> np.ndarray:
        return self.traj.nodes

    @property
    def n_steps(self) -> int:
        return self.traj.n_steps

    @classmethod
    def compute(
        cls, field: VectorField, y0, h: float, horizon: float, refine: int = 100
    ) -> "ReferenceSolution":
        h_ref = h / refine
        traj = simulate(field, y0, h_ref, int(math.ceil(horizon / h_ref)))
        return cls(traj=traj, refine=refine)


class ReferenceStream(Run):
    """The reference of :meth:`ReferenceSolution.compute`, stepped as one
    synchronization reads it: a :class:`~cyclecert.euler.Run` from y0 at
    step h/refine, with the same step cap, ``n_steps``.

    :meth:`advance` drops the nodes before the first one a later sample
    reads and extends the run by up to ``STREAM_CHUNK`` steps;
    :func:`synchronize` calls it whenever the next sample's window is not
    resident.  The buffer starts at a chunk plus ``STREAM_SLACK`` rows, so
    ``nodes`` is a view that the next advance overwrites; it doubles only
    when the kept nodes and a chunk do not fit in it.
    """

    def __init__(
        self, field: VectorField, y0, h: float, horizon: float, refine: int = 100
    ):
        self.refine = refine
        self.n_steps = int(math.ceil(horizon / (h / refine)))
        rows = min(STREAM_CHUNK, self.n_steps) + 1 + STREAM_SLACK
        super().__init__(field, y0, h / refine, rows)

    def advance(self, keep: int):
        """Drop the nodes before node ``keep``, the first one a later sample
        reads (``base`` keeps every node), then step the next chunk."""
        if self.end >= self.n_steps:
            raise InputError("reference stream is already at its step cap")
        self.drop_before(keep)
        self.extend(min(STREAM_CHUNK, self.n_steps - self.end))


@dataclass
class SyncErrorSeries:
    """Errors |x(t_j) - ref(theta_j)| with the synchronized times theta_j."""

    times: np.ndarray
    thetas: np.ndarray
    errors: np.ndarray
    residuals: np.ndarray
    h: float
    bounds: Optional[np.ndarray] = None  # max(delta(t_j), D*h) when available

    def tail_max(self) -> float:
        """The largest error over the final ``TAIL_FRACTION`` of the samples."""
        k = int((1.0 - TAIL_FRACTION) * self.times.size)
        return float(self.errors[k:].max())


def synchronize(
    reference,
    traj: EulerTrajectory,
    tau_sync: float = TAU_SYNC,
    tube: Optional[Tube] = None,
    D: Optional[float] = None,
) -> SyncErrorSeries:
    """Synchronized error series at every node time of the coarse trajectory.

    ``reference`` is a :class:`ReferenceSolution`, or a
    :class:`ReferenceStream`, which is advanced whenever the next sample's
    window is not.  Either starts at y0, its first node, which must be
    resident, and its node rows must be contiguous (InputError otherwise).
    Raises :class:`SynchronizationLostError` (with the sample index) when no
    sign change lies within [theta_prev, theta_prev + WINDOW_STEPS*h].
    """
    if reference.base != 0:
        raise InputError("reference must hold its first node")
    if reference.nodes.strides[1] != reference.nodes.itemsize:
        raise InputError("reference nodes must have contiguous rows")
    h = traj.h
    win = int(WINDOW_STEPS * h / reference.h) + 4

    n_samples = traj.n_steps + 1

    def sample_times(a, b):  # np.arange(n_samples) * h, a slice
        return np.arange(a, b) * h

    def samples(a, b):
        """Centers and section normals of samples a..b-1."""
        # the nodes' f: the block's EulerTrajectory.seg_dirs, by the same
        # operations, without caching the whole run's, and f_raw of the
        # run's final node
        nodes = traj.nodes
        m = min(b, traj.n_steps)
        normals = (nodes[a + 1 : m + 1] - nodes[a:m]) / h
        if b > m:  # the run's final node
            f_last = traj.field.f_raw(nodes[-1])
            normals = np.concatenate([normals, f_last[None, :]])
        return nodes[a:b], normals

    out = np.empty((3, n_samples))  # thetas, errors, residuals
    j, theta = 0, 0.0
    while True:
        j, theta = _scan(reference, win, tau_sync, sample_times, samples, j, theta, out)
        if j == n_samples:
            break
        # only a stream stops short: its next window is not resident yet
        reference.advance(int(theta / reference.h))
    times = sample_times(0, n_samples)

    bounds = None
    if tube is not None and D is not None:
        # the times increase; those past the horizon all take its radius
        inside = int(np.searchsorted(times, tube.horizon, side="right"))
        deltas = np.empty(times.size)
        deltas[:inside] = tube.deltas_at(times[:inside])
        if inside < times.size:
            deltas[inside:] = tube.deltas_at([tube.horizon])[0]
        bounds = np.maximum(deltas, D * h)
    return SyncErrorSeries(
        times=times,
        thetas=out[0],
        errors=out[1],
        residuals=out[2],
        h=h,
        bounds=bounds,
    )


def _scan(reference, win, tau_sync, sample_times, samples, j, theta_prev, out):
    """Synchronize samples j, j+1, ... while their windows are resident,
    writing the theta, error and residual of sample i to ``out[:, i]``.

    The rule for one sample with center c and normal n, whose window starts
    at k0 = int(theta_prev / h_ref): g_k = <R[k] - c, n> for k in
    k0..min(k0 + win, n_ref).  If g_k0 >= 0, the sample sits on the section
    (within atol) at k0; otherwise theta is the exact root on the first
    segment where g goes from < 0 to >= 0.  theta never falls below
    theta_prev, and the residual <ref(theta) - c, n> must be within
    tolerance.

    A pass predicts every sample's window start k0 and root segment (see
    :func:`_predict`), leaves out the samples whose predicted window is not
    resident yet, and scans the windows only up to ``WINDOW_MARGIN`` nodes
    past the latest predicted root segment.  It keeps its samples up to the
    first one whose k0 was wrong or whose narrowed window holds no
    up-crossing; after the latter, the next pass scans full windows.

    Returns the next sample and the last theta.
    """
    h_ref, n_ref = reference.h, reference.n_steps
    n_samples = out.shape[1]
    end = reference.base + reference.nodes.shape[0] - 1
    block = max(1, SYNC_BLOCK_NODES // (win + 1))
    size = block
    k_prev = int(theta_prev / h_ref)
    t_prev = sample_times(j - 1, j)[0] if j else 0.0
    rate = 1.0  # d(theta)/dt over the last pass, for the first guess
    full = False  # the last pass found no root in a narrowed window
    while j < n_samples:
        if k_prev >= n_ref:
            raise SynchronizationLostError(
                f"reference horizon exhausted at sample {j}", j
            )
        span = min(win, n_ref - k_prev)
        if k_prev + span > end:
            break  # the window needs nodes not stepped yet
        # near the step cap the windows shorten: one sample at a time there
        b = min(j + (size if span == win else 1), n_samples)
        t = sample_times(j, b)
        guess = theta_prev + (t - t_prev) * rate
        # predict only the samples whose guessed theta the resident nodes
        # reach, give or take the drift of the rate within the pass
        reach = theta_prev + FIT_SLACK * (end * h_ref - theta_prev)
        fit = max(1, int(np.searchsorted(guess, reach, side="right")))
        b, t, guess = j + min(fit, b - j), t[:fit], guess[:fit]
        c, n = samples(j, b)
        k0, k_root = _predict(reference, c, n, guess, theta_prev)
        # samples predicted to start past the resident nodes wait for the
        # next chunk; k0 is nondecreasing and k0[0] = k_prev fits
        fits = int(np.searchsorted(k0, end - span, side="right"))
        if fits < b - j:
            b = j + fits
            c, n, k0, k_root = c[:fits], n[:fits], k0[:fits], k_root[:fits]
        # scan the windows' prefix up to the latest predicted root segment
        width = span + 1
        if not full:
            width = min(int((k_root - k0).max()) + 2 + WINDOW_MARGIN, width)
        theta, err, res, code, g0 = _window_pass(
            reference, width, k0, c, n, tau_sync, theta_prev
        )
        # keep the samples up to the first whose k0 is not int(theta_prev/h_ref)
        k_next = (theta / h_ref).astype(np.int64)
        miss = np.nonzero(k0[1:] != k_next[:-1])[0]
        m = int(miss[0]) + 1 if miss.size else b - j
        # and before the first without a root in a narrowed window
        short = np.nonzero(code[:m] == _NO_ROOT)[0]
        full = width <= span and short.size > 0
        if full:
            m = int(short[0])
        size = min(2 * size, block) if m == b - j else max(m, 1)
        if m == 0:
            continue
        failed = np.nonzero(code[:m])[0]
        if failed.size:
            f = int(failed[0])
            raise _lost(code[f], j + f, g0[f], res[f])
        out[:, j : j + m] = theta[:m], err[:m], res[:m]
        j += m
        if t[m - 1] > t_prev:
            rate = (theta[m - 1] - theta_prev) / (t[m - 1] - t_prev)
        theta_prev, k_prev, t_prev = theta[m - 1], int(k_next[m - 1]), t[m - 1]
    return j, theta_prev


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u . v, equal bit for bit to ``u[j] @ v[j]``."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Row-wise norms, equal bit for bit to ``np.linalg.norm(v[j])``."""
    return np.sqrt(_dot(v, v))


def _predict(reference, c, n, guess, theta_prev):
    """Window starts and root segments for a block of samples, from Newton
    steps on g(theta) = <ref(theta) - c, n> started at ``guess``.

    With the predicted thetas made nondecreasing from ``theta_prev``, the
    root segment of sample j is int(theta_j/h_ref) and its window start
    int(theta_{j-1}/h_ref); the first sample's start is exact.
    """
    R, base, h_ref = reference.nodes, reference.base, reference.h
    lo, hi = int(theta_prev / h_ref), base + R.shape[0] - 2
    th = guess
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(PREDICT_STEPS):
            th = np.clip(th, lo * h_ref, (hi + 1) * h_ref)
            k = (th / h_ref).astype(np.int64).clip(lo, hi)
            p = R[k - base]
            gk = _dot(p - c, n)
            gd = _dot(R[k + 1 - base] - p, n)
            th = np.where(gd > 0.0, (k - gk / gd) * h_ref, th)
    # a root within a few ulps of node k takes the time a pass gives a root
    # at the end of segment k - 1, so that int(theta/h_ref) agrees with the
    # pass's check (a run synchronized against itself has every root there)
    k = np.rint(th / h_ref)
    node = np.abs(th - k * h_ref) <= SNAP_ULPS * np.spacing(th)
    th = np.where(node, (k - 1.0) * h_ref + h_ref, th)
    th = np.maximum.accumulate(np.concatenate(([theta_prev], th)))
    k = (th / h_ref).astype(np.int64)
    return k[:-1], k[1:]


def _window_pass(reference, width, k0, c, n, tau_sync, theta_prev):
    """The rule of :func:`_scan` for a block whose windows start at ``k0``.

    Returns theta, error, residual, outcome (``_OK`` or why it failed) and
    g at the window start, per sample.
    """
    R, base, h_ref = reference.nodes, reference.base, reference.h
    rows = np.arange(k0.size)
    k = k0 - base
    # the windows as rows of complex nodes (README "Bit-identity contract",
    # interleaved arithmetic): one contiguous gather, one subtraction
    Rc = R.view(np.complex128)[:, 0]
    d = sliding_window_view(Rc, width)[k]  # a copy, (B, width)
    d -= np.ascontiguousarray(c).view(np.complex128)
    g = np.matmul(d[..., None].view(np.float64), n[:, :, None])[..., 0]
    del d
    up = (g[:, :-1] < 0.0) & (g[:, 1:] >= 0.0)
    i = up.argmax(axis=1)
    g0 = g[:, 0]
    on = g0 >= 0.0
    scale = _norm(n)
    atol = tau_sync * scale * (1.0 + _norm(c))
    code = np.where(
        on,
        np.where(g0 <= atol, _OK, _PASSED),
        np.where(up[rows, i], _OK, _NO_ROOT),
    )
    gi, gj = g[rows, i], g[rows, i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -gi / (gj - gi) * h_ref
    ki = k + i
    theta = np.where(on, (base + k) * h_ref, (base + ki) * h_ref + s)
    theta = np.where(code == _OK, theta, (base + k) * h_ref)
    pt = np.where(
        on[:, None], R[k], R[ki] + (s / h_ref)[:, None] * (R[ki + 1] - R[ki])
    )
    # theta never decreases; a clamped theta takes the dense point there
    run = np.maximum.accumulate(np.concatenate(([theta_prev], theta)))
    low = theta < run[:-1]
    theta = run[1:]
    if low.any():
        pt[low] = _dense_points(reference, theta[low])
    d = pt - c
    res = np.abs(_dot(d, n))
    code = np.where(
        (code == _OK) & (res > tau_sync * scale * (1.0 + _norm(pt))), _RESIDUAL, code
    )
    return theta, _norm(d), res, code, g0


def _dense_points(reference, t):
    """``EulerTrajectory.dense_point`` of the reference at each time in t."""
    R, base, h_ref = reference.nodes, reference.base, reference.h
    i = np.minimum((t / h_ref).astype(np.int64), reference.n_steps - 1)
    s = np.maximum(t - i * h_ref, 0.0)
    i = (i - base).clip(0, R.shape[0] - 2)
    pt = R[i] + (s / h_ref)[:, None] * (R[i + 1] - R[i])
    return np.where((s == 0.0)[:, None], R[i], pt)


def _lost(code, j, g0, res) -> SynchronizationLostError:
    if code == _PASSED:
        msg = f"section already passed at sample {j} (offset {g0:g})"
    elif code == _NO_ROOT:
        msg = f"no bracketing root within window at sample {j}"
    else:
        msg = f"synchronization residual {res:g} above tolerance at sample {j}"
    return SynchronizationLostError(msg, j)


@dataclass
class ErrorCurveRun:
    """One step size: its certificate, series and tail summary."""

    h: float
    D: float
    tail_max: float
    passes: bool
    verdict: str = "certified"
    series: SyncErrorSeries = dc_field(repr=False, default=None)
    certificate: ExistenceCertificate = dc_field(repr=False, default=None)

    def summary(self) -> dict:
        return {
            "h": self.h,
            "tail_max": self.tail_max,
            "Dh": self.D * self.h,
            "pass": self.passes,
            "verdict": self.verdict,
        }


@dataclass
class ErrorCurveReport:
    """Per-step-size error curves plus the tail/floor comparison."""

    runs: List[ErrorCurveRun]

    def to_dict(self) -> dict:
        return {
            "kind": "error-curve-report",
            "tail_fraction": TAIL_FRACTION,
            "runs": [r.summary() for r in self.runs],
        }


def error_curve_experiment(
    field: VectorField,
    x0,
    y0,
    h_list: Sequence[float],
    periods: float,
    delta0: float,
    gamma: float,
    config: PipelineConfig = PipelineConfig(),
    horizon: float = 10.0,
    refine: int = 100,
) -> ErrorCurveReport:
    """Error curves for several step sizes against h/refine references.

    Every h is certified over ``horizon`` for its constants and D, and then
    synchronized over ``periods`` loops: ``periods * R1`` time units, R1
    from the largest h's certificate.  The reported tail is the maximum
    error over the final ``TAIL_FRACTION`` of the samples, compared against
    the floor D*h.  Coarse steps routinely fail the per-step tube condition
    while their error floor remains valid in practice, so a failed verdict
    is recorded per run rather than fatal.  InputError when that
    certificate found no return, when the coarse run at the smallest h has
    more nodes than an array can hold or ``euler.NODE_BUDGET`` allows, or
    when a certificate has no D.
    """
    require_positive("periods", periods)
    require_positive("len(h_list)", len(h_list))
    certs = []
    for h in h_list:
        cert = certify_existence(field, x0, h, delta0, gamma, config, horizon)
        cert.start_runs = []  # the R' runs, which only a basin sweep reads
        certs.append(cert)
    largest = dict(zip(h_list, certs))[max(h_list)]
    if largest.R1 is None:
        raise InputError(
            "no section return found; cannot size the horizon: "
            + largest.failure["detail"]
        )
    sync_horizon = periods * largest.R1
    require_step_count("periods", min(h_list), sync_horizon, periods)
    runs = []
    for h, cert in zip(h_list, certs):
        if cert.constants is None:
            raise InputError(
                f"step size {h:g} is not certifiable: {cert.failure}"
            )
        c = cert.constants
        D = compute_D(c.M_C, c.L, gamma, c.a, c.b)
        n_steps = int(math.ceil(sync_horizon / h))
        run = cert.run  # the coarse run continues the certificate's
        if n_steps > run.end:
            run.extend(n_steps - run.end)
        traj = run.trajectory(n_steps)
        ref = ReferenceStream(field, y0, h, sync_horizon * (c.b + 0.1), refine)
        series = synchronize(ref, traj, tube=cert.tube, D=D)
        tail = series.tail_max()
        runs.append(
            ErrorCurveRun(
                h=float(h),
                D=float(D),
                tail_max=tail,
                passes=bool(tail <= D * h),
                verdict=cert.verdict,
                series=series,
                certificate=cert,
            )
        )
    return ErrorCurveReport(runs=runs)
