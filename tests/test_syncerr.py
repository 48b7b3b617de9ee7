import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.config import PipelineConfig
from cyclecert.errors import DivergedError, InputError, SynchronizationLostError
from cyclecert import syncerr
from cyclecert.cli import main
from cyclecert.euler import EulerTrajectory
from cyclecert.syncerr import (
    TAU_SYNC,
    ReferenceSolution,
    ReferenceStream,
    SyncErrorSeries,
)

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_H, VDP_X0, up_to
from oracles import f_nodes, tube_membership_check


def synchronize_oracle(
    reference,
    traj,
    window_steps=3.0,
    tau_sync=TAU_SYNC,
    tube=None,
    D=None,
):
    """The sample-by-sample synchronization loop the batched scan replaced,
    kept as the reference its results must equal bit for bit."""
    R = reference.traj.nodes
    h_ref = reference.traj.h
    n_ref = reference.traj.n_steps
    h = traj.h
    win = int(window_steps * h / h_ref) + 4

    n_samples = traj.n_steps + 1
    times = np.arange(n_samples) * h
    centers = traj.nodes
    normals = f_nodes(traj)
    thetas = np.empty(n_samples)
    errors = np.empty(n_samples)
    residuals = np.empty(n_samples)

    k_prev = 0
    theta_prev = 0.0
    for j in range(n_samples):
        c = centers[j]
        n_vec = normals[j]
        scale = np.linalg.norm(n_vec)
        k0 = k_prev
        k1 = min(k0 + win, n_ref)
        if k0 >= n_ref:
            raise SynchronizationLostError(
                f"reference horizon exhausted at sample {j}", j
            )
        g = (R[k0 : k1 + 1] - c) @ n_vec
        atol = tau_sync * scale * (1.0 + float(np.linalg.norm(c)))
        if g[0] >= 0.0:
            if g[0] <= atol:
                theta = k0 * h_ref
                pt = R[k0]
            else:
                raise SynchronizationLostError(
                    f"section already passed at sample {j} (offset {g[0]:g})", j
                )
        else:
            up = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
            if up.size == 0:
                raise SynchronizationLostError(
                    f"no bracketing root within window at sample {j}", j
                )
            i = int(up[0])
            s = -g[i] / (g[i + 1] - g[i]) * h_ref
            theta = (k0 + i) * h_ref + s
            pt = R[k0 + i] + (s / h_ref) * (R[k0 + i + 1] - R[k0 + i])
        if theta < theta_prev:
            theta = theta_prev
            pt = reference.traj.dense_point(theta)
        res = abs(float((pt - c) @ n_vec))
        if res > tau_sync * scale * (1.0 + float(np.linalg.norm(pt))):
            raise SynchronizationLostError(
                f"synchronization residual {res:g} above tolerance at sample {j}",
                j,
            )
        thetas[j] = theta
        errors[j] = float(np.linalg.norm(pt - c))
        residuals[j] = res
        theta_prev = theta
        k_prev = int(theta / h_ref)

    bounds = None
    if tube is not None and D is not None:
        bounds = np.empty(n_samples)
        floor = D * h
        for j in range(n_samples):
            t = times[j]
            bounds[j] = max(_delta_oracle(tube, min(t, tube.horizon)), floor)
    return SyncErrorSeries(
        times=times,
        thetas=thetas,
        errors=errors,
        residuals=residuals,
        h=h,
        bounds=bounds,
    )


def _delta_oracle(tube, t):
    """The tube radius at one time, computed as ``Tube.delta_at`` did."""
    i = min(int(t / tube.h), tube.N1 - 1)
    return float(tube.delta[i] * math.exp(tube.sigma[i] * (t - i * tube.h)))


def tube_membership_oracle(series, tube, floor):
    """The sample-by-sample membership loop the vectorized check replaced."""
    out = []
    for j, t in enumerate(series.times):
        if t > tube.horizon:
            break
        i = min(int(t / tube.h), tube.N1 - 1)
        bound = max(_delta_oracle(tube, t), float(floor[i]))
        if series.errors[j] > bound:
            out.append(j)
    return out


def assert_same_series(got, want):
    for name in ("times", "thetas", "errors", "residuals"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.bounds is None) == (want.bounds is None)
    if want.bounds is not None:
        assert np.array_equal(got.bounds, want.bounds)


def lost(fn, *args, **kwargs):
    """Message and sample index of the SynchronizationLostError fn raises."""
    with pytest.raises(SynchronizationLostError) as exc:
        fn(*args, **kwargs)
    return str(exc.value), exc.value.sample_index


def streamed(field, y0, h, horizon, refine, traj, **kwargs):
    """synchronize over a ReferenceStream, as the error curve runs it."""
    ref = ReferenceStream(field, y0, h, horizon, refine=refine)
    return cc.synchronize(ref, traj, **kwargs), ref


def backward_jump(field, h):
    """A coarse run whose node 700 is moved back two steps: in-segment
    samples after it regress along the reference."""
    nodes = cc.simulate(field, VDP_X0, h, 2000).nodes.copy()
    nodes[700] = nodes[698]
    return EulerTrajectory(field, VDP_X0, h, nodes)


def test_self_synchronization_exact(vdp):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 3000)
    ref = ReferenceSolution(traj=traj, refine=1)
    series = cc.synchronize(ref, traj)
    assert np.abs(series.errors).max() <= 1e-12
    assert np.abs(series.thetas - series.times).max() <= 1e-12


@pytest.mark.parametrize(
    "h,horizon,refine,name",
    [
        (1e-3, 4.0, 0, "refine"),  # h / refine divides by zero
        (1e-3, 4.0, 1.5, "refine"),
        (math.nan, 4.0, 50, "h"),
        (1e-3, math.nan, 50, "horizon"),  # ceil(horizon / h) has no int
        (1e-3, 1e-7, 50, "horizon"),
    ],
)
def test_reference_solution_refuses_bad_input_by_name(vdp, h, horizon, refine, name):
    # the checks of ReferenceStream, which steps the same reference
    with pytest.raises(InputError, match=f"^{name} "):
        ReferenceSolution.compute(vdp, np.asarray(VDP_X0), h, horizon, refine=refine)


def test_residual_bound_holds(vdp):
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 4.0, refine=50)
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 3000)
    series = cc.synchronize(ref, traj)
    scale = np.linalg.norm(f_nodes(traj)[: series.times.size], axis=1)
    assert np.all(series.residuals <= TAU_SYNC * scale * 2.0 + 1e-30)


def test_theta_nondecreasing(vdp):
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 4.0, refine=50)
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 3000)
    series = cc.synchronize(ref, traj)
    assert np.all(np.diff(series.thetas) >= 0)


def test_linear_flow_matches_analytic(linear):
    # radial field: the synchronized error is eps * x(t), which tracks
    # eps * exp(-t) up to O(h + h_ref) uniformly
    eps = 0.05
    h = 1e-3
    x0 = np.array([1.0, 0.0])
    y0 = np.array([1.0, eps])  # on the section through x0 (normal = -x0)
    traj = cc.simulate(linear, x0, h, int(5.0 / h))
    ref = ReferenceSolution.compute(linear, y0, h, 6.0, refine=100)
    series = cc.synchronize(ref, traj)
    analytic = eps * np.exp(-series.times)
    dev = np.abs(series.errors - analytic).max()
    assert dev <= 3.0 * eps * (h + h / 100)
    assert series.errors[0] == pytest.approx(eps)
    assert np.all(np.diff(series.errors) <= 1e-12)


def test_synchronization_lost_reports_index(vdp):
    # reference far too short: the window runs off its horizon
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 2000)
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 0.05, refine=10)
    with pytest.raises(SynchronizationLostError) as exc:
        cc.synchronize(ref, traj)
    assert exc.value.sample_index > 0


def test_tube_membership_inside_disk(vdp, vdp_cert):
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    disk = tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    y0 = disk.center + 0.6 * disk.radius * w
    ref = ReferenceSolution.compute(vdp, y0, VDP_H, 1.1 * tube.horizon, refine=100)
    series = cc.synchronize(ref, up_to(traj, tube.N1))
    floor = vdp_cert.step_condition.rhs
    assert tube_membership_check(series, tube, floor) == []
    assert tube_membership_oracle(series, tube, floor) == []


def test_tube_membership_outside_disk_violates(vdp, vdp_cert):
    # starting at twice the disk radius breaks the precondition, so early
    # violations are expected
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    disk = tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    y0 = disk.center + 2.0 * disk.radius * w
    ref = ReferenceSolution.compute(vdp, y0, VDP_H, 1.1 * tube.horizon, refine=100)
    series = cc.synchronize(ref, up_to(traj, tube.N1))
    floor = vdp_cert.step_condition.rhs
    violations = tube_membership_check(series, tube, floor)
    assert violations and violations[0] == 0
    assert violations == tube_membership_oracle(series, tube, floor)


def test_tube_membership_self_sync_clean(vdp, vdp_cert, monkeypatch):
    # every root of a run synchronized against itself lies on a node: the
    # predictions must place them where a pass does, or each pass keeps
    # about one sample (16,657 passes for these 63,141 samples)
    passes = []
    window_pass = syncerr._window_pass

    def counted(*args):
        passes.append(args[1])
        return window_pass(*args)

    monkeypatch.setattr(syncerr, "_window_pass", counted)
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    ref = ReferenceSolution(traj=traj, refine=1)
    series = cc.synchronize(ref, up_to(traj, tube.N1))
    assert series.times.size > 60_000 and len(passes) <= SELF_SYNC_PASSES
    floor = vdp_cert.step_condition.rhs
    assert tube_membership_check(series, tube, floor) == []
    assert tube_membership_oracle(series, tube, floor) == []


def test_error_curves_deterministic(vdp):
    report = cc.error_curve_experiment(
        vdp,
        VDP_X0,
        (1.8037, -0.5057),
        [1e-3, 1e-3],
        periods=1.0,
        delta0=VDP_DELTA0,
        gamma=VDP_GAMMA,
        config=PipelineConfig(lambda_stride=50),
        horizon=10.0,
        refine=20,
    )
    r1, r2 = report.runs
    assert np.array_equal(r1.series.errors, r2.series.errors)
    assert np.array_equal(r1.series.thetas, r2.series.thetas)
    assert r1.D == r2.D


def test_error_curve_holds_its_series_once(vdp, monkeypatch):
    # the certificate is built before tracing: what is traced is the coarse
    # run, the reference stream and the synchronization.  With small chunks
    # and passes, the peak is the series, each pass written in place, plus
    # the coarse run's nodes (1.8 times the series); a list of parts, or
    # the coarse run's whole seg_dirs cached, would raise it.
    monkeypatch.setattr(syncerr, "STREAM_CHUNK", 1 << 12)
    monkeypatch.setattr(syncerr, "SYNC_BLOCK_NODES", 1 << 12)
    config = PipelineConfig(lambda_stride=50)
    cert = cc.certify_existence(
        vdp, VDP_X0, 1e-3, VDP_DELTA0, VDP_GAMMA, config, horizon=10.0
    )
    monkeypatch.setattr(syncerr, "certify_existence", lambda *a, **k: cert)
    coarse, advances = [], []
    synchronize, advance = syncerr.synchronize, ReferenceStream.advance

    def recorded(reference, traj, *args, **kwargs):
        coarse.append(traj)
        return synchronize(reference, traj, *args, **kwargs)

    def counted(stream, keep):
        advances.append(keep)
        advance(stream, keep)

    monkeypatch.setattr(syncerr, "synchronize", recorded)
    monkeypatch.setattr(ReferenceStream, "advance", counted)
    tracemalloc.start()
    try:
        report = cc.error_curve_experiment(
            vdp,
            VDP_X0,
            (1.8037, -0.5057),
            [1e-3],
            periods=3.0,
            delta0=VDP_DELTA0,
            gamma=VDP_GAMMA,
            config=config,
            refine=20,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    series = report.runs[0].series
    assert series.times.size == math.ceil(3.0 * cert.R1 / 1e-3) + 1 > 18000
    columns = ("times", "thetas", "errors", "residuals", "bounds")
    series_bytes = sum(getattr(series, k).nbytes for k in columns)
    assert peak < 2.0 * series_bytes, (peak, series_bytes)
    assert len(coarse) == 1 and len(advances) > 10
    assert getattr(coarse[0], "_seg_dirs", None) is None


@pytest.mark.parametrize("n_steps", [4000, 10000, 25000])
def test_coarse_run_continues_the_certificate_run(vdp, monkeypatch, n_steps):
    # the error curve's coarse run of about n_steps steps is the
    # certificate's run of 8192, extended: only the steps past the
    # certificate's nodes are taken, counted through Run.extend, to the
    # nodes of one run from x0, and the buffer grows to the coarse run or
    # to twice its rows, whichever is more
    h = 1e-3
    cert = cc.certify_existence(
        vdp, VDP_X0, h, VDP_DELTA0, VDP_GAMMA, PipelineConfig(lambda_stride=50),
        horizon=10.0,
    )
    known = cert.run.end
    assert known == 2 * cc.euler.RETURN_CHUNK
    periods = n_steps * h / cert.R1
    monkeypatch.setattr(syncerr, "certify_existence", lambda *a, **k: cert)
    steps, coarse = [], []
    extend, synchronize = cc.Run.extend, syncerr.synchronize

    def counted(run, n):
        if run.h == h:
            steps.append(n)
        return extend(run, n)

    def recorded(reference, traj, *args, **kwargs):
        coarse.append(traj)
        return synchronize(reference, traj, *args, **kwargs)

    monkeypatch.setattr(cc.Run, "extend", counted)
    monkeypatch.setattr(syncerr, "synchronize", recorded)
    rows = cert.run._buffer.shape[0]
    cc.error_curve_experiment(
        vdp, VDP_X0, (1.8037, -0.5057), [h], periods, VDP_DELTA0, VDP_GAMMA,
        refine=10,
    )
    n_steps = math.ceil(periods * cert.R1 / h)
    assert steps == ([n_steps - known] if n_steps > known else [])
    (traj,) = coarse
    assert np.array_equal(traj.nodes, cc.simulate(vdp, VDP_X0, h, n_steps).nodes)
    assert traj.h == h and np.array_equal(traj.x0, VDP_X0)
    if n_steps > known:
        assert cert.run._buffer.shape[0] == max(2 * rows, n_steps + 1)


@pytest.mark.parametrize("periods", [math.nan, math.inf, 0.0, -1.0])
def test_error_curve_refuses_bad_periods(vdp, monkeypatch, periods):
    # refused before any certificate is made
    monkeypatch.setattr(syncerr, "certify_existence", None)
    with pytest.raises(InputError, match="^periods must be finite and positive"):
        cc.error_curve_experiment(
            vdp, VDP_X0, (1.8037, -0.5057), [1e-3], periods, VDP_DELTA0, VDP_GAMMA
        )


def test_error_curve_needs_a_return_at_the_largest_h(linear):
    # the loop period sizes the horizon: without a return there is none
    with pytest.raises(InputError, match="^no section return found"):
        cc.error_curve_experiment(
            linear, (1.0, 0.0), (1.0, 0.0), [1e-2], 1.0, 0.1, 0.015, horizon=5.0
        )


def test_error_curve_bounds_filled(vdp):
    report = cc.error_curve_experiment(
        vdp,
        VDP_X0,
        (1.8037, -0.5057),
        [1e-3],
        periods=1.0,
        delta0=VDP_DELTA0,
        gamma=VDP_GAMMA,
        config=PipelineConfig(lambda_stride=50),
        refine=20,
    )
    run = report.runs[0]
    assert run.series.bounds is not None
    assert run.series.bounds.min() >= run.D * run.h - 1e-12
    summary = run.summary()
    assert set(summary) >= {"h", "tail_max", "Dh", "pass"}


# --------------------------------------------------------------------------
# the batched scan and the streamed reference against the per-sample loop
# --------------------------------------------------------------------------


@pytest.mark.parametrize("predict_steps", sorted({0, 4, syncerr.PREDICT_STEPS}))
def test_synchronize_matches_oracle(vdp, linear, vdp_cert, monkeypatch, predict_steps):
    # predict_steps=0 leaves only the first guess theta ~ t, which is wrong
    # for most samples: every kept sample must still be the loop's
    monkeypatch.setattr(syncerr, "PREDICT_STEPS", predict_steps)
    h = 1e-3
    x0 = np.asarray(VDP_X0)
    traj = cc.simulate(vdp, x0, h, 3000)
    ref50 = ReferenceSolution.compute(vdp, x0, h, 4.0, refine=50)
    self_ref = ReferenceSolution(traj=traj, refine=1)
    drift_field = cc.load_system({"id": "vanderpol", "params": {"p": 1.0}})
    drift_traj = cc.simulate(vdp, x0, h, 8000)
    drift_ref = ReferenceSolution.compute(drift_field, x0, h, 16.0, refine=20)
    lin_x0, lin_y0 = np.array([1.0, 0.0]), np.array([1.0, 0.05])
    lin_traj = cc.simulate(linear, lin_x0, h, 5000)
    lin_ref = ReferenceSolution.compute(linear, lin_y0, h, 6.0, refine=100)
    jump_ref = ReferenceSolution.compute(vdp, x0, h, 2.5, refine=10)
    bounds = {"tube": vdp_cert.tube, "D": 70.0}
    cases = [
        (ref50, traj, bounds),
        # ends on a node inside the run, which takes f there as its normal
        (ref50, up_to(traj, 1234), {}),
        (self_ref, traj, bounds),
        (lin_ref, lin_traj, {}),
        (drift_ref, drift_traj, {}),
        # theta clamped to theta_prev on 2 samples, inside a loose tolerance
        (jump_ref, backward_jump(vdp, h), {"tau_sync": 1e-2}),
    ]
    for ref, coarse, kwargs in cases:
        assert_same_series(
            cc.synchronize(ref, coarse, **kwargs),
            synchronize_oracle(ref, coarse, **kwargs),
        )
    clamped = cc.synchronize(*cases[-1][:2], **cases[-1][2])
    assert np.count_nonzero(np.diff(clamped.thetas) == 0.0) == 2
    drift = cc.synchronize(drift_ref, drift_traj)
    assert np.abs(drift.thetas - drift.times).max() > 0.5

    # the streamed reference gives the same series
    for field, y0, coarse, horizon, refine, kwargs in [
        (vdp, x0, traj, 4.0, 50, bounds),
        (drift_field, x0, drift_traj, 16.0, 20, {}),
        (linear, lin_y0, lin_traj, 6.0, 100, {}),
    ]:
        ref = ReferenceSolution.compute(field, y0, h, horizon, refine=refine)
        got, _ = streamed(field, y0, h, horizon, refine, coarse, **kwargs)
        assert_same_series(got, synchronize_oracle(ref, coarse, **kwargs))


def test_synchronize_lost_matches_oracle(vdp):
    h = 1e-3
    x0 = np.asarray(VDP_X0)
    traj = cc.simulate(vdp, x0, h, 3000)
    self_ref = ReferenceSolution(traj=traj, refine=1)
    skip = np.concatenate([traj.nodes[:1000], traj.nodes[1010:]])
    nodes = traj.nodes.copy()
    nodes[1500] = nodes[1497]
    cases = {
        "reference horizon exhausted": (
            ReferenceSolution(traj=cc.simulate(vdp, x0, h, 1000), refine=1),
            traj,
            {},
        ),
        "no bracketing root": (
            ReferenceSolution.compute(vdp, x0, h, 0.05, refine=10),
            traj,
            {},
        ),
        "section already passed": (
            self_ref,
            EulerTrajectory(vdp, x0, h, nodes),
            {},
        ),
        "synchronization residual": (
            ReferenceSolution.compute(vdp, x0, h, 4.0, refine=50),
            traj,
            {"tau_sync": 1e-17},
        ),
    }
    for kind, (ref, coarse, kwargs) in cases.items():
        got = lost(cc.synchronize, ref, coarse, **kwargs)
        assert got == lost(synchronize_oracle, ref, coarse, **kwargs)
        assert got[0].startswith(kind) and got[1] > 0, got
    # a skip forward past the window
    skipped = EulerTrajectory(vdp, x0, h, skip)
    assert lost(cc.synchronize, self_ref, skipped) == lost(
        synchronize_oracle, self_ref, skipped
    )
    # a streamed reference loses synchronization at the same sample
    got = lost(streamed, vdp, x0, h, 0.05, 10, traj)
    assert got == lost(synchronize_oracle, cases["no bracketing root"][0], traj)


def test_stream_nodes_match_one_run(vdp):
    # four chunks from a stream that keeps every node against one simulate
    # call over the same steps
    stream = ReferenceStream(vdp, VDP_X0, 1e-3, 4.0, refine=1000)
    assert stream.n_steps > 3 * syncerr.STREAM_CHUNK
    for _ in range(4):
        stream.advance(stream.base)
    assert stream.base == 0 and stream.end == 4 * syncerr.STREAM_CHUNK
    with pytest.raises(InputError, match="not resident"):
        stream.advance(stream.end + 1)
    one = cc.simulate(vdp, VDP_X0, 1e-6, stream.end)
    assert np.array_equal(stream.nodes, one.nodes)


def test_stream_stops_after_last_window(vdp):
    # the step cap is more than twice what the synchronization reads
    h, refine = 1e-3, 100
    traj = cc.simulate(vdp, VDP_X0, h, 6000)
    series, stream = streamed(vdp, VDP_X0, h, 16.0, refine, traj)
    assert series.times.size == 6001
    win = int(3.0 * h / stream.h) + 4
    k_last = int(series.thetas[-1] / stream.h)
    assert stream.end <= k_last + win + syncerr.STREAM_CHUNK < stream.n_steps
    assert stream.base <= k_last
    assert stream.nodes.shape[0] <= win + syncerr.STREAM_CHUNK + 1


def test_stream_memory_below_quarter_of_reference(vdp):
    h, refine = 1e-3, 1000
    traj = cc.simulate(vdp, VDP_X0, h, 2500)
    tracemalloc.start()
    try:
        series, stream = streamed(vdp, VDP_X0, h, 3.0, refine, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.end >= 2_000_000
    node_bytes = 16 * (stream.end + 1)
    assert peak < node_bytes / 4, (peak, node_bytes)


def cubic(handwritten):
    """x' = x^3, which blows up in finite time (its products overflow to
    inf), written by hand or compiled from an inline spec."""
    if not handwritten:
        return cc.load_system({"name": "cubic", "rhs": ["x1**3", "0"]})
    return cc.VectorField(
        "cubic",
        {},
        lambda x: np.stack([x[..., 0] ** 3, 0.0 * x[..., 1]], axis=-1),
        None,
        rhs_scalar2=lambda u1, u2: (u1 * u1 * u1, 0.0),
    )


@pytest.mark.parametrize("keep_all", [True, False])
@pytest.mark.parametrize("handwritten", [True, False])
def test_stream_divergence_names_the_global_node(monkeypatch, handwritten, keep_all):
    # the run diverges in the 13th chunk of 1024 steps; the stream names
    # the node one simulate over the same steps names, whether it keeps
    # every node (its buffer grows) or only the last (it reuses its buffer)
    monkeypatch.setattr(syncerr, "STREAM_CHUNK", 1024)
    field = cubic(handwritten)
    stream = ReferenceStream(field, (2.0, 0.0), 1e-3, 1.0, refine=100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedError) as one:
            cc.simulate(field, (2.0, 0.0), stream.h, stream.n_steps)
        bad = one.value.first_bad_index
        assert 12 * 1024 < bad < 13 * 1024
        named = f"non-finite state at node {bad}$"
        with pytest.raises(DivergedError, match=named) as got:
            while True:
                stream.advance(stream.base if keep_all else stream.end)
    assert got.value.first_bad_index == bad
    assert stream.end < bad < stream.end + 1024


@pytest.fixture(scope="module")
def chunked_case(vdp, vdp_cert):
    """A coarse run, its h/50 reference and the oracle series with bounds;
    the reference spans about 12 chunks of 2^14 steps."""
    h = 1e-3
    traj = cc.simulate(vdp, VDP_X0, h, 3000)
    ref = ReferenceSolution.compute(vdp, VDP_X0, h, 4.0, refine=50)
    kwargs = {"tube": vdp_cert.tube, "D": 70.0}
    return traj, kwargs, synchronize_oracle(ref, traj, **kwargs)


@pytest.mark.parametrize("predict_steps", [0, 2, 4])
@pytest.mark.parametrize("block_nodes", [1 << 10, 1 << 17, 1 << 19])
def test_pass_constants_change_only_the_speed(
    vdp, chunked_case, monkeypatch, block_nodes, predict_steps
):
    monkeypatch.setattr(syncerr, "STREAM_CHUNK", 1 << 14)
    monkeypatch.setattr(syncerr, "SYNC_BLOCK_NODES", block_nodes)
    monkeypatch.setattr(syncerr, "PREDICT_STEPS", predict_steps)
    traj, kwargs, want = chunked_case
    got, stream = streamed(vdp, VDP_X0, traj.h, 4.0, 50, traj, **kwargs)
    assert stream.end > 8 * (1 << 14)
    assert_same_series(got, want)


def test_synchronize_runs_a_stream_to_the_end(vdp, chunked_case, monkeypatch):
    # one call on a fresh stream, which holds only its first node, advances
    # it chunk by chunk to the last sample: the series is the oracle's on
    # the whole reference
    monkeypatch.setattr(syncerr, "STREAM_CHUNK", 1 << 14)
    traj, kwargs, want = chunked_case
    stream = ReferenceStream(vdp, VDP_X0, traj.h, 4.0, refine=50)
    assert stream.end == 0
    got = cc.synchronize(stream, traj, **kwargs)
    assert stream.end > 8 * (1 << 14)
    assert_same_series(got, want)


def test_stream_reuses_its_buffer(vdp, monkeypatch):
    # while the kept nodes and a chunk fit, every advance the
    # synchronization makes steps into the buffer of the one before; a
    # stream that keeps every node doubles it
    monkeypatch.setattr(syncerr, "STREAM_CHUNK", 1 << 14)
    h = 1e-3
    traj = cc.simulate(vdp, VDP_X0, h, 3000)
    stream = ReferenceStream(vdp, VDP_X0, h, 4.0, refine=50)
    rows = stream._buffer.shape[0]
    assert rows == (1 << 14) + 1 + syncerr.STREAM_SLACK
    shared = []
    advance = ReferenceStream.advance

    def recorded(self, keep):
        before = self.nodes
        advance(self, keep)
        shared.append(np.shares_memory(self.nodes, before))

    monkeypatch.setattr(ReferenceStream, "advance", recorded)
    cc.synchronize(stream, traj)
    assert len(shared) > 8 and all(shared) and stream._buffer.shape[0] == rows

    stream = ReferenceStream(vdp, VDP_X0, h, 4.0, refine=50)
    sizes = [rows]
    for _ in range(4):
        before = stream.nodes
        stream.advance(stream.base)
        sizes.append(stream._buffer.shape[0])
        assert np.shares_memory(stream.nodes, before) == (sizes[-1] == sizes[-2])
    assert sizes == [rows, rows, 2 * rows, 4 * rows, 4 * rows]
    one = cc.simulate(vdp, VDP_X0, stream.h, stream.end)
    assert np.array_equal(stream.nodes, one.nodes)


def test_bounds_past_the_horizon_match_the_exp_loop(vdp, vdp_cert):
    # 37% of the samples lie past the tube's horizon; with D = 0 the bound
    # column is the tube radius, which must be the per-sample math.exp
    # loop's at every sample, on a node (s == 0) or inside a segment: the
    # run's step h/3 puts most samples inside the tube's segments
    tube = vdp_cert.tube
    h = 1e-3
    traj = cc.simulate(vdp, VDP_X0, h / 3, 30000)
    ref = ReferenceSolution.compute(vdp, VDP_X0, h, 11.0, refine=10)
    series = cc.synchronize(ref, traj, tube=tube, D=0.0)
    past = series.times > tube.horizon
    assert 0.3 < past.mean() < 0.4
    want = [_delta_oracle(tube, min(t, tube.horizon)) for t in series.times]
    assert np.array_equal(series.bounds, want)
    s = series.times[~past] - np.minimum(
        (series.times[~past] / tube.h).astype(np.int64), tube.N1 - 1
    ) * tube.h
    assert (s == 0.0).any() and (s != 0.0).any()
    assert np.array_equal(tube.deltas_at(series.times[~past]), want[: (~past).sum()])


def test_synchronize_narrow_window_misses_match_oracle(
    vdp, linear, vdp_cert, monkeypatch
):
    # with no Newton steps and no margin, many narrowed windows end before
    # their sample's root; such a sample is scanned again at the full width,
    # and the series and the lost synchronizations stay the loop's
    monkeypatch.setattr(syncerr, "PREDICT_STEPS", 0)
    monkeypatch.setattr(syncerr, "WINDOW_MARGIN", 0)
    passes = []
    window_pass = syncerr._window_pass

    def recorded(reference, width, *args):
        out = window_pass(reference, width, *args)
        passes.append((width, bool((out[3] == syncerr._NO_ROOT).any())))
        return out

    monkeypatch.setattr(syncerr, "_window_pass", recorded)
    h = 1e-3
    x0 = np.asarray(VDP_X0)
    traj = cc.simulate(vdp, x0, h, 3000)
    ref50 = ReferenceSolution.compute(vdp, x0, h, 4.0, refine=50)
    drift_field = cc.load_system({"id": "vanderpol", "params": {"p": 1.0}})
    drift_traj = cc.simulate(vdp, x0, h, 8000)
    drift_ref = ReferenceSolution.compute(drift_field, x0, h, 16.0, refine=20)
    lin_x0, lin_y0 = np.array([1.0, 0.0]), np.array([1.0, 0.05])
    lin_traj = cc.simulate(linear, lin_x0, h, 5000)
    lin_ref = ReferenceSolution.compute(linear, lin_y0, h, 6.0, refine=100)
    jump_ref = ReferenceSolution.compute(vdp, x0, h, 2.5, refine=10)
    cases = [
        (ref50, traj, {"tube": vdp_cert.tube, "D": 70.0}),
        (ReferenceSolution(traj=traj, refine=1), traj, {}),
        (lin_ref, lin_traj, {}),
        (drift_ref, drift_traj, {}),
        (jump_ref, backward_jump(vdp, h), {"tau_sync": 1e-2}),
    ]
    rescans = 0
    for ref, coarse, kwargs in cases:
        passes.clear()
        assert_same_series(
            cc.synchronize(ref, coarse, **kwargs),
            synchronize_oracle(ref, coarse, **kwargs),
        )
        full = int(3.0 * h / ref.h) + 5
        assert min(width for width, _ in passes) < full
        rescans += sum(
            width < full and short and after == full
            for (width, short), (after, _) in zip(passes, passes[1:])
        )
    assert rescans > 0

    # every lost synchronization is still decided on the full window
    nodes = traj.nodes.copy()
    nodes[1500] = nodes[1497]
    passed = EulerTrajectory(vdp, x0, h, nodes)
    lost_cases = [
        (ReferenceSolution(traj=cc.simulate(vdp, x0, h, 1000), refine=1), traj, {}),
        (ReferenceSolution.compute(vdp, x0, h, 0.05, refine=10), traj, {}),
        (ReferenceSolution(traj=traj, refine=1), passed, {}),
        (ref50, traj, {"tau_sync": 1e-17}),
    ]
    for ref, coarse, kwargs in lost_cases:
        got = lost(cc.synchronize, ref, coarse, **kwargs)
        assert got == lost(synchronize_oracle, ref, coarse, **kwargs)


def test_reference_rows_must_be_contiguous(vdp):
    # the windows are gathered as rows of complex nodes: a reference whose
    # rows are spaced apart synchronizes as the loop does, one whose rows
    # are not contiguous (Fortran order, strided columns) raises InputError
    h = 1e-3
    traj = cc.simulate(vdp, VDP_X0, h, 1000)
    ref = ReferenceSolution.compute(vdp, VDP_X0, h, 1.2, refine=10)
    want = synchronize_oracle(ref, traj)
    spaced = np.empty((2 * ref.nodes.shape[0], 2))
    spaced[::2] = ref.nodes
    layouts = {
        "row-strided": spaced[::2],
        "fortran": np.asfortranarray(ref.nodes),
        "column-strided": np.repeat(ref.nodes, 2, axis=1)[:, ::2],
    }
    for name, nodes in layouts.items():
        assert np.array_equal(nodes, ref.nodes)
        other = ReferenceSolution(EulerTrajectory(vdp, VDP_X0, ref.h, nodes), 10)
        if name == "row-strided":
            assert_same_series(cc.synchronize(other, traj), want)
        else:
            with pytest.raises(InputError, match="contiguous rows"):
                cc.synchronize(other, traj)


# Perf guards: counts of the parent implementation that a change of the
# guesses or the windows must not raise (the outputs would not show it).
# Array evaluations of rhs_scalar2 per node over the first 2^20 steps of the
# h = 1.25e-6 reference of vdp-example2, stepped as the error curve steps
# it (1.7077 measured with the sliding window, 1.8470 with fixed blocks).
SWEEP_EVALS_PER_NODE = 1.8
# _window_pass calls of the vdp-example2 error curve at h = 5e-4.
WINDOW_PASSES = 49
# _window_pass calls of the vdp-example1 certificate run synchronized
# against itself over the tube horizon (1 measured).
SELF_SYNC_PASSES = 4
# _predict samples per synchronized sample on the vdp-example2 error curve
# at h = 5e-4 (1.019 measured; 1.30 when each pass predicted a whole block).
PREDICTIONS_PER_SAMPLE = 1.1


def test_reference_sweeps_per_node_stay_pinned(vdp):
    run = cc.get_preset("vdp-example2")
    points = []
    rhs2 = vdp.rhs_scalar2

    def counted(u1, u2):
        if isinstance(u1, np.ndarray):
            points.append(u1.size)
        return rhs2(u1, u2)

    field = dataclasses.replace(vdp, rhs_scalar2=counted)
    stream = ReferenceStream(field, run.y0, 1.25e-4, 40.0, refine=100)
    while stream.end < 1 << 20:
        stream.advance(stream.base)
    assert stream.h == 1.25e-6 and stream.end == 1 << 20
    assert sum(points) / stream.end <= SWEEP_EVALS_PER_NODE


def test_error_curve_window_passes_stay_pinned(tmp_path, monkeypatch):
    calls = []
    window_pass = syncerr._window_pass

    def counted(*args):
        calls.append(args[1])
        return window_pass(*args)

    monkeypatch.setattr(syncerr, "_window_pass", counted)
    argv = ["error-curve", "--preset", "vdp-example2", "--h-list", "0.0005"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert 0 < len(calls) <= WINDOW_PASSES


def test_error_curve_predicts_each_sample_about_once(tmp_path, monkeypatch):
    # a pass predicts only the samples whose windows the resident reference
    # nodes can hold, not a whole block past them
    predicted, samples = [], []
    predict, sync = syncerr._predict, syncerr.synchronize

    def counted_predict(reference, c, *args):
        predicted.append(c.shape[0])
        return predict(reference, c, *args)

    def counted_sync(*args, **kwargs):
        series = sync(*args, **kwargs)
        samples.append(series.times.size)
        return series

    monkeypatch.setattr(syncerr, "_predict", counted_predict)
    monkeypatch.setattr(syncerr, "synchronize", counted_sync)
    argv = ["error-curve", "--preset", "vdp-example2", "--h-list", "0.0005"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sum(samples) > 60_000
    assert sum(predicted) <= PREDICTIONS_PER_SAMPLE * sum(samples)
