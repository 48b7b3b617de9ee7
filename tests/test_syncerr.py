import math
import tracemalloc

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.config import PipelineConfig
from cyclecert.errors import InputError, SynchronizationLostError
from cyclecert import syncerr
from cyclecert.euler import EulerTrajectory
from cyclecert.syncerr import (
    TAU_SYNC,
    ReferenceSolution,
    ReferenceStream,
    SyncErrorSeries,
)

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_H, VDP_X0


def synchronize_oracle(
    reference,
    traj,
    y0,
    window_steps=3.0,
    tau_sync=TAU_SYNC,
    tube=None,
    D=None,
    t_max=None,
    substeps=1,
):
    """The sample-by-sample synchronization loop the batched scan replaced,
    kept as the reference its results must equal bit for bit."""
    y0 = np.asarray(y0, dtype=float)
    if not np.allclose(reference.traj.nodes[0], y0):
        raise InputError("reference must start at y0")
    R = reference.traj.nodes
    h_ref = reference.traj.h
    n_ref = reference.traj.n_steps
    h = traj.h
    win = int(window_steps * h / h_ref) + 4

    n_nodes = traj.n_steps + 1
    if t_max is not None:
        n_nodes = min(n_nodes, int(t_max / h) + 1)
    n_samples = (n_nodes - 1) * substeps + 1
    times = np.arange(n_samples) * (h / substeps)
    if substeps == 1:
        centers = traj.nodes[:n_nodes]
        normals = np.concatenate(
            [traj.seg_dirs[: n_nodes - 1], [traj.f_nodes[n_nodes - 1]]]
        )
    else:
        centers = traj.dense_points(times)
        normals = traj.field.f_raw(centers)
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


def tube_membership_oracle(series, tube):
    """The sample-by-sample membership loop the vectorized check replaced."""
    out = []
    for j, t in enumerate(series.times):
        if t > tube.horizon:
            break
        i = min(int(t / tube.h), tube.N1 - 1)
        bound = max(_delta_oracle(tube, t), float(tube.step_floor[i]))
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
    parts = []
    while not ref.finished:
        ref.advance()
        parts.append(cc.synchronize(ref, traj, y0, **kwargs))
    return SyncErrorSeries.concatenate(parts), ref


def backward_jump(field, h):
    """A coarse run whose node 700 is moved back two steps: in-segment
    samples after it regress along the reference."""
    nodes = cc.simulate(field, VDP_X0, h, 2000).nodes.copy()
    nodes[700] = nodes[698]
    return EulerTrajectory(field, VDP_X0, h, nodes)


def test_self_synchronization_exact(vdp):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 3000)
    ref = ReferenceSolution(traj=traj, refine=1)
    series = cc.synchronize(ref, traj, traj.nodes[0])
    assert np.abs(series.errors).max() <= 1e-12
    assert np.abs(series.thetas - series.times).max() <= 1e-12


def test_self_synchronization_with_substeps(vdp):
    # in-segment samples ride the same polyline, so errors stay zero there too
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 1000)
    ref = ReferenceSolution(traj=traj, refine=1)
    series = cc.synchronize(ref, traj, traj.nodes[0], substeps=4)
    assert series.times.size == 4 * 1000 + 1
    assert np.abs(series.errors).max() <= 1e-12
    assert np.abs(series.thetas - series.times).max() <= 1e-12


def test_residual_bound_holds(vdp):
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 4.0, refine=50)
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 3000)
    series = cc.synchronize(ref, traj, np.asarray(VDP_X0))
    f_nodes = traj.f_nodes
    scale = np.linalg.norm(f_nodes[: series.times.size], axis=1)
    assert np.all(series.residuals <= TAU_SYNC * scale * 2.0 + 1e-30)


def test_theta_nondecreasing(vdp):
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 4.0, refine=50)
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 3000)
    series = cc.synchronize(ref, traj, np.asarray(VDP_X0))
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
    series = cc.synchronize(ref, traj, y0)
    analytic = eps * np.exp(-series.times)
    dev = np.abs(series.errors - analytic).max()
    assert dev <= 3.0 * eps * (h + h / 100)
    assert series.errors[0] == pytest.approx(eps)
    assert np.all(np.diff(series.errors) <= 1e-12)


def test_reference_must_start_at_y0(vdp):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 100)
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 1.0, refine=10)
    with pytest.raises(InputError):
        cc.synchronize(ref, traj, np.array([9.9, 9.9]))


def test_synchronization_lost_reports_index(vdp):
    # reference far too short: the window runs off its horizon
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 2000)
    ref = ReferenceSolution.compute(vdp, np.asarray(VDP_X0), 1e-3, 0.05, refine=10)
    with pytest.raises(SynchronizationLostError) as exc:
        cc.synchronize(ref, traj, np.asarray(VDP_X0))
    assert exc.value.sample_index > 0


def test_tube_membership_inside_disk(vdp, vdp_cert):
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    disk = tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    y0 = disk.center + 0.6 * disk.radius * w
    ref = ReferenceSolution.compute(vdp, y0, VDP_H, 1.1 * tube.horizon, refine=100)
    series = cc.synchronize(ref, traj, y0, t_max=tube.horizon)
    assert cc.tube_membership_check(series, tube) == []
    assert tube_membership_oracle(series, tube) == []


def test_tube_membership_outside_disk_violates(vdp, vdp_cert):
    # starting at twice the disk radius breaks the precondition, so early
    # violations are expected
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    disk = tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    y0 = disk.center + 2.0 * disk.radius * w
    ref = ReferenceSolution.compute(vdp, y0, VDP_H, 1.1 * tube.horizon, refine=100)
    series = cc.synchronize(ref, traj, y0, t_max=tube.horizon)
    violations = cc.tube_membership_check(series, tube)
    assert violations and violations[0] == 0
    assert violations == tube_membership_oracle(series, tube)


def test_tube_membership_self_sync_clean(vdp, vdp_cert):
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    ref = ReferenceSolution(traj=traj, refine=1)
    series = cc.synchronize(ref, traj, traj.nodes[0], t_max=tube.horizon)
    assert cc.tube_membership_check(series, tube) == []
    assert tube_membership_oracle(series, tube) == []


def test_tube_membership_requires_step_floor(vdp):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 7000)
    section = cc.Section.through(vdp, traj.nodes[0])
    R1, N1, _ = cc.return_times(
        traj, section, 1, cc.default_exclusion(1e-3, 0.1)
    ).first()
    tube = cc.build_tube(vdp, traj, R1, N1, 0.1, 0.015, 2.3, sigma_override=0.0)
    ref = ReferenceSolution(traj=traj, refine=1)
    series = cc.synchronize(ref, traj, traj.nodes[0], t_max=tube.horizon)
    with pytest.raises(InputError, match="step floor"):
        cc.tube_membership_check(series, tube)


def test_error_curves_deterministic(vdp):
    report = cc.error_curve_experiment(
        vdp,
        VDP_X0,
        (1.8037, -0.5057),
        [1e-3, 1e-3],
        horizon=6.5,
        delta0=VDP_DELTA0,
        gamma=VDP_GAMMA,
        config=PipelineConfig(lambda_stride=50),
        cert_horizon=10.0,
        refine=20,
    )
    r1, r2 = report.runs
    assert np.array_equal(r1.series.errors, r2.series.errors)
    assert np.array_equal(r1.series.thetas, r2.series.thetas)
    assert r1.D == r2.D


def test_error_curve_bounds_filled(vdp):
    report = cc.error_curve_experiment(
        vdp,
        VDP_X0,
        (1.8037, -0.5057),
        [1e-3],
        horizon=6.5,
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


@pytest.mark.parametrize("predict_steps", [syncerr.PREDICT_STEPS, 0])
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
        (ref50, traj, x0, bounds),
        (ref50, traj, x0, {"t_max": 1.2345}),
        (ref50, traj, x0, {"substeps": 4}),
        (self_ref, traj, x0, bounds),
        (self_ref, traj, x0, {"substeps": 4}),
        (lin_ref, lin_traj, lin_y0, {}),
        (drift_ref, drift_traj, x0, {}),
        # theta clamped to theta_prev on 5 samples, inside a loose tolerance
        (jump_ref, backward_jump(vdp, h), x0, {"substeps": 4, "tau_sync": 1e-2}),
    ]
    for ref, coarse, y0, kwargs in cases:
        assert_same_series(
            cc.synchronize(ref, coarse, y0, **kwargs),
            synchronize_oracle(ref, coarse, y0, **kwargs),
        )
    clamped = cc.synchronize(*cases[-1][:3], **cases[-1][3])
    assert np.count_nonzero(np.diff(clamped.thetas) == 0.0) == 5
    drift = cc.synchronize(drift_ref, drift_traj, x0)
    assert np.abs(drift.thetas - drift.times).max() > 0.5

    # the streamed reference gives the same series
    for field, y0, coarse, horizon, refine, kwargs in [
        (vdp, x0, traj, 4.0, 50, bounds),
        (drift_field, x0, drift_traj, 16.0, 20, {}),
        (linear, lin_y0, lin_traj, 6.0, 100, {}),
    ]:
        ref = ReferenceSolution.compute(field, y0, h, horizon, refine=refine)
        got, _ = streamed(field, y0, h, horizon, refine, coarse, **kwargs)
        assert_same_series(got, synchronize_oracle(ref, coarse, y0, **kwargs))


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
        got = lost(cc.synchronize, ref, coarse, x0, **kwargs)
        assert got == lost(synchronize_oracle, ref, coarse, x0, **kwargs)
        assert got[0].startswith(kind) and got[1] > 0, got
    # a skip forward past the window, and the clamped backward jump
    skipped = EulerTrajectory(vdp, x0, h, skip)
    assert lost(cc.synchronize, self_ref, skipped, x0) == lost(
        synchronize_oracle, self_ref, skipped, x0
    )
    jump_ref = ReferenceSolution.compute(vdp, x0, h, 2.5, refine=10)
    jump = backward_jump(vdp, h)
    assert lost(cc.synchronize, jump_ref, jump, x0, substeps=4) == lost(
        synchronize_oracle, jump_ref, jump, x0, substeps=4
    )
    # a streamed reference loses synchronization at the same sample
    got = lost(streamed, vdp, x0, h, 0.05, 10, traj)
    assert got == lost(synchronize_oracle, cases["no bracketing root"][0], traj, x0)


def test_stream_nodes_match_one_run(vdp):
    # four chunks from a stream nobody synchronizes (theta stays 0, so every
    # node stays resident) against one simulate call over the same steps
    stream = ReferenceStream(vdp, VDP_X0, 1e-3, 4.0, refine=1000)
    assert stream.n_steps > 3 * syncerr.STREAM_CHUNK
    for _ in range(4):
        stream.advance()
    assert stream.base == 0 and stream.end == 4 * syncerr.STREAM_CHUNK
    one = cc.simulate(vdp, VDP_X0, 1e-6, stream.end)
    assert np.array_equal(stream.nodes, one.nodes)


def test_stream_stops_after_last_window(vdp):
    # the step cap is more than twice what the synchronization reads
    h, refine = 1e-3, 100
    traj = cc.simulate(vdp, VDP_X0, h, 6000)
    series, stream = streamed(vdp, VDP_X0, h, 16.0, refine, traj)
    assert series.times.size == 6001
    win = int(3.0 * h / stream.h) + 4
    k_last = int(stream.theta / stream.h)
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
