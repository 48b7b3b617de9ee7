import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclecert as cc
from cyclecert.errors import DivergedError, InputError, NumericError

from conftest import escape_field
from oracles import f_nodes


def test_recurrence_exact(vdp):
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 500)
    x = np.array([1.8929, -0.5383])
    for i in range(500):
        x = x + 1e-4 * vdp.f_raw(x)
        assert np.array_equal(x, traj.nodes[i + 1])


def test_one_step_vanderpol(vdp):
    # x1 = x0 + h f(x0), f evaluated by the independent oracle formula
    h = 1e-4
    u1, u2, p = 1.8929, -0.5383, 0.3
    f0 = np.array([u2, p * u2 - p * u1 * u1 * u2 - u1])
    traj = cc.simulate(vdp, [u1, u2], h, 1)
    assert np.allclose(traj.nodes[1], np.array([u1, u2]) + h * f0, atol=1e-16)
    assert traj.nodes[1] == pytest.approx([1.892846, -0.538448], abs=1e-6)


def test_one_step_linear(linear):
    traj = cc.simulate(linear, [1.0, 0.0], 0.1, 1)
    assert np.allclose(traj.nodes[1], [0.9, 0.0])


def test_two_steps_harmonic(harmonic):
    # recurrence applied by hand: (1,0) -> (1, -0.01) -> (0.9999, -0.02)
    traj = cc.simulate(harmonic, [1.0, 0.0], 0.01, 2)
    assert np.allclose(traj.nodes[1], [1.0, -0.01])
    assert np.allclose(traj.nodes[2], [0.9999, -0.02])


def test_dense_point(linear):
    traj = cc.simulate(linear, [1.0, 0.0], 0.1, 5)
    assert np.array_equal(traj.dense_point(0.2), traj.nodes[2])
    assert np.allclose(traj.dense_point(0.05), [0.95, 0.0])
    with pytest.raises(InputError):
        traj.dense_point(1.0)
    with pytest.raises(InputError):
        traj.dense_point(-0.1)


def test_dense_midpoint_vdp(vdp):
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 1)
    mid = traj.dense_point(0.5e-4)
    assert np.allclose(mid, 0.5 * (traj.nodes[0] + traj.nodes[1]), atol=1e-18)


def test_simulate_validation(vdp):
    with pytest.raises(InputError):
        cc.simulate(vdp, [1.0, 0.0], -1e-4, 10)
    with pytest.raises(InputError):
        cc.simulate(vdp, [1.0, 0.0], 1e-4, 0)
    with pytest.raises(InputError):
        cc.simulate(vdp, [1.0, 0.0, 0.0], 1e-4, 10)


def test_diverged_reports_first_bad_index():
    # x' = x^3 blows up in finite time
    field = cc.load_system({"rhs": ["x1**3", "0"], "params": {}, "name": "blowup"})
    with pytest.raises(DivergedError) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            cc.simulate(field, [2.0, 0.0], 0.5, 2000)
    assert exc.value.first_bad_index > 0


def one_step_nodes(rhs2, x0, h, n_steps):
    """Scalar Euler nodes one step at a time, and the step an
    ArithmeticError or ValueError stops at (None if none does)."""
    u1, u2 = x0
    nodes = [(u1, u2)]
    for i in range(1, n_steps + 1):
        try:
            d1, d2 = rhs2(u1, u2)
        except (ArithmeticError, ValueError):
            return np.array(nodes), i
        u1 += h * d1
        u2 += h * d2
        nodes.append((u1, u2))
    return np.array(nodes), None


@pytest.mark.parametrize("n_steps", list(range(1, 10)) + [4097, 4100])
def test_scalar_path_matches_one_step_loop(vdp, n_steps):
    x0 = (1.8929, -0.5383)
    ref, _ = one_step_nodes(vdp.rhs_scalar2, x0, 1e-3, n_steps)
    assert np.array_equal(cc.simulate(vdp, x0, 1e-3, n_steps).nodes, ref)


def cubic_field(rhs2):
    """x' = x^3 (blows up in finite time) with the given scalar rhs."""
    return cc.VectorField(
        "cubic",
        {},
        lambda x: np.stack([x[..., 0] ** 3, 0.0 * x[..., 1]], axis=-1),
        None,
        rhs_scalar2=rhs2,
    )


@pytest.mark.parametrize("n_steps", [7, 10, 41])
@pytest.mark.parametrize("x0", [2.0, 2.3, 2.6, 3.7])
def test_scalar_overflow_names_the_step(x0, n_steps):
    # float ** raises OverflowError instead of returning inf.  Over 41
    # steps it stops at steps 11, 10, 9 and 8: every position of a
    # four-step block; over 10 steps at 10 and 9, in the one-step tail
    field = cubic_field(lambda u1, u2: (u1**3, 0.0))
    _, step = one_step_nodes(field.rhs_scalar2, (x0, 0.0), 0.05, n_steps)
    if step is None:
        assert np.all(np.isfinite(cc.simulate(field, (x0, 0.0), 0.05, n_steps).nodes))
        return
    with pytest.raises(DivergedError, match=f"overflowed at node {step}$") as exc:
        cc.simulate(field, (x0, 0.0), 0.05, n_steps)
    assert exc.value.first_bad_index == step


def cube(u):
    return u * u * u


@pytest.mark.parametrize(
    "rhs2",
    [
        lambda u1, u2: (cube(u1), 0.0),
        lambda u1, u2: (cube(u1), cube(u1) * cube(u1) - cube(u1) * cube(u1)),
    ],
    ids=["inf", "nan"],
)
@pytest.mark.parametrize("x0", [2.0, 2.6, 3.7])
def test_scalar_nonfinite_names_first_bad_node(x0, rhs2):
    # products overflow to inf without raising; in the second field the
    # sixth power overflows first and inf - inf makes x2 NaN
    field = cubic_field(rhs2)
    ref, step = one_step_nodes(rhs2, (x0, 0.0), 0.05, 60)
    assert step is None
    bad = int(np.nonzero(~np.isfinite(ref).all(axis=1))[0][0])
    with pytest.raises(DivergedError, match=f"non-finite state at node {bad}$") as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            cc.simulate(field, (x0, 0.0), 0.05, 60)
    assert exc.value.first_bad_index == bad


SWEEP_W = cc.euler.SWEEP_STEPS
VDP_INLINE = {"rhs": ["x2", "p*x2 - p*x1**2*x2 - x1"], "params": {"p": 0.3}}


def recording(field):
    """Copy of ``field`` whose rhs_scalar2 notes whether it got arrays."""
    seen = []
    rhs2 = field.rhs_scalar2

    def rhs2_recorded(u1, u2):
        seen.append(isinstance(u1, np.ndarray))
        return rhs2(u1, u2)

    return dataclasses.replace(field, rhs_scalar2=rhs2_recorded), seen


@pytest.mark.parametrize(
    "n_steps", [1, 3, SWEEP_W - 1, SWEEP_W, SWEEP_W + 1, 3 * SWEEP_W + 5]
)
@pytest.mark.parametrize("h", [1.25e-6, 5e-6, 1e-4, 5e-4])
@pytest.mark.parametrize("system", sorted(cc.systems.REGISTRY))
def test_block_path_matches_one_step_loop(system, h, n_steps):
    # the sweeps' nodes are the scalar recurrence's, bit for bit, on every
    # registry system; runs shorter than SWEEP_MIN steps never sweep
    field, seen = recording(cc.load_system({"id": system}))
    x0 = (1.8929, -0.5383)
    ref, _ = one_step_nodes(field.rhs_scalar2, x0, h, n_steps)
    seen.clear()
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert any(seen) == (n_steps >= cc.euler.SWEEP_MIN)
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


def test_math_rhs2_takes_the_scalar_loop():
    # an inline spec with a math function compiles to an rhs_scalar2 that
    # raises TypeError on arrays; its runs step on plain floats
    field = cc.load_system({"rhs": ["x2", "-sin(x1) - p*x2"], "params": {"p": 0.1}})
    u = np.linspace(0.0, 1.0, 2 * cc.euler.SWEEP_MIN)
    with pytest.raises(TypeError):
        field.rhs_scalar2(u, u)
    x0, h, n_steps = (1.0, 0.0), 1e-3, 2 * SWEEP_W + 3
    ref, _ = one_step_nodes(field.rhs_scalar2, x0, h, n_steps)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize(
    "rhs,x0",
    [(["1/x1", "1"], (0.0, 0.0)), (["-1", "sqrt(x1)"], (0.035, 0.0))],
    ids=["zero-division", "math-domain"],
)
def test_float_errors_name_the_step(rhs, x0):
    # where the plain-float rhs raises (1/0, sqrt of a negative) the run
    # diverges at the step the one-step loop stops at
    field = cc.load_system({"rhs": rhs})
    _, step = one_step_nodes(field.rhs_scalar2, x0, 0.01, 10)
    assert step is not None
    with pytest.raises(DivergedError, match=f"at node {step}$") as exc:
        cc.simulate(field, x0, 0.01, 10)
    assert exc.value.first_bad_index == step


def test_float_only_rhs2_takes_the_scalar_loop():
    # an rhs2 that branches on its arguments raises ValueError on arrays;
    # its runs step on plain floats
    def rhs2(u1, u2):
        return (u2, -u1) if u1 < 0.5 else (u2, -2.0 * u1)

    field = cc.VectorField("kinked", {}, lambda x: x, None, rhs_scalar2=rhs2)
    x0, h, n_steps = (1.0, 0.0), 1e-3, 2 * SWEEP_W
    ref, _ = one_step_nodes(rhs2, x0, h, n_steps)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


# guesses written, as euler._extrapolated_guess writes its own, into the
# rows Z[1:] of the block from its first nodes Z[0], one column per run


def guessing(monkeypatch, guess):
    """Route every block's guess through ``guess(rhs2, Z, h)``, which
    writes the rows Z[1:] of the block Z."""

    def guess_block(rhs2, Z, k, n, h, H, before):
        guess(rhs2, Z[k : k + n + 1], h)

    monkeypatch.setattr(cc.euler, "_extrapolated_guess", guess_block)


def zeros_guess(rhs2, Z, h):
    Z[1:] = 0.0


def noise_guess(rhs2, Z, h):
    n_steps = Z.shape[0] - 1
    rng = np.random.default_rng(n_steps)
    noise = rng.normal(scale=1e-3, size=(2,) + Z.shape)
    Z.real[1:] = Z[0].real + noise[0, 1:]
    Z.imag[1:] = Z[0].imag + noise[1, 1:]


def one_ulp_guess(rhs2, Z, h):
    # the exact nodes, but one of each run's a single ulp off
    n_steps = Z.shape[0] - 1
    for z in Z.T:
        nodes, _ = one_step_nodes(rhs2, (float(z[0].real), float(z[0].imag)), h, n_steps)
        nodes[n_steps // 2, 1] = np.nextafter(nodes[n_steps // 2, 1], np.inf)
        z[1:] = nodes[1:].view(np.complex128)[:, 0]


@pytest.mark.parametrize("guess", [zeros_guess, noise_guess, one_ulp_guess])
@pytest.mark.parametrize("h", [1.25e-6, 1e-4])
def test_block_path_ignores_the_guess(vdp, monkeypatch, guess, h):
    # a guess only decides how many nodes a sweep verifies, never their bits
    x0 = (1.8929, -0.5383)
    n_steps = 2 * SWEEP_W + 7
    ref, _ = one_step_nodes(vdp.rhs_scalar2, x0, h, n_steps)
    guessing(monkeypatch, guess)
    field, seen = recording(vdp)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert any(seen)
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


def counting_extrapolation(monkeypatch, wrong=None):
    """Route every guess through ``wrong`` (applied in place to the block's
    rows Z[k..k+n] once the true guess has written them), recording the
    node k of each guess that samples the full block before it."""
    calls = []
    extrapolate = cc.euler._extrapolated_guess

    def guess(rhs2, Z, k, n, h, H, before):
        if before:
            calls.append(k)
        extrapolate(rhs2, Z, k, n, h, H, before)
        if wrong is not None:
            wrong(Z[k : k + n + 1])

    monkeypatch.setattr(cc.euler, "_extrapolated_guess", guess)
    return calls


@pytest.mark.parametrize("gate", ["open", "shut"])
@pytest.mark.parametrize("h", [1.25e-6, 1e-4])
@pytest.mark.parametrize("guess", ["zero_weights", "noise", "one_ulp"])
def test_block_path_ignores_the_extrapolated_guess(vdp, monkeypatch, guess, h, gate):
    # the extrapolation from the block before decides, like the straight
    # line from node k, only how many nodes a sweep verifies; every block
    # after a full one samples it, at the h/100 reference steps and at 1e-4
    # alike (gate open), and none does when every block stops one step
    # short of full (gate shut), which leaves the nodes it verified to the
    # next block
    x0 = (1.8929, -0.5383)
    n_steps = 4 * SWEEP_W + 7
    ref, _ = one_step_nodes(vdp.rhs_scalar2, x0, h, n_steps)

    def wrong(rows):
        n = rows.shape[0] - 1
        if guess == "noise":
            rng = np.random.default_rng(n)
            noise = rng.normal(scale=1e-3, size=(n, 2 * rows.shape[1]))
            rows[1:] += noise.view(np.complex128)
        elif guess == "one_ulp":
            one_ulp_guess(vdp.rhs_scalar2, rows, h)

    if guess == "zero_weights":
        monkeypatch.setattr(
            cc.euler, "_lagrange_weights",
            lambda steps, width: np.zeros((len(steps), width)),
        )
    calls = counting_extrapolation(monkeypatch, wrong)
    if gate == "shut":
        sweep = cc.euler._sweep_block

        def sweep_short(into, Z, h, work):
            return min(sweep(into, Z, h, work), Z.shape[0] - 2)

        monkeypatch.setattr(cc.euler, "_sweep_block", sweep_short)
    nodes = cc.simulate(vdp, x0, h, n_steps).nodes
    assert bool(calls) == (gate == "open")
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


def counting_points(field):
    """Copy of ``field`` whose rhs_scalar2 counts the points of its array
    calls and the number of its scalar calls, in the returned dict."""
    count = {"points": 0, "scalar": 0}
    rhs2 = field.rhs_scalar2

    def rhs2_counted(u1, u2):
        if isinstance(u1, np.ndarray):
            count["points"] += u1.size
        else:
            count["scalar"] += 1
        return rhs2(u1, u2)

    return dataclasses.replace(field, rhs_scalar2=rhs2_counted), count


@pytest.mark.parametrize("h,most", [(1.25e-6, 2.2), (5e-6, 3.2)])
def test_extrapolated_guess_saves_rhs_points(vdp, h, most):
    # the Euler sums of the extrapolated field carry the recurrence's
    # rounding, so the first sweep of a smooth block verifies most of it:
    # 1.86 and 2.69 array points a step measured over 16 blocks
    field, count = counting_points(vdp)
    n_steps = 16 * SWEEP_W
    cc.simulate(field, (1.8929, -0.5383), h, n_steps)
    assert count["points"] <= most * n_steps


def test_straight_line_guess_is_the_quadratic(vdp):
    # a block that samples no block before it is guessed from node k and
    # its Euler successor: the Euler sums of the straight line through the
    # field there are the quadratic in the step number through node k and
    # its two Euler successors, to the few ulps by which a running sum of
    # 64 increments and the closed form round apart
    x0 = np.array([[1.8929, -0.5383], [0.3, 2.1], [-1.5, 0.2]])
    h, n = 1.25e-6, 64
    Z = np.empty((n + 1, len(x0)), np.complex128)
    Z[0] = x0[:, 0] + 1j * x0[:, 1]
    H = np.empty(n * len(x0), np.complex128)
    cc.euler._extrapolated_guess(vdp.rhs_scalar2, Z, 0, n, h, H, 0)
    d1, d2 = vdp.rhs_scalar2(x0[:, 0], x0[:, 1])
    e1, e2 = vdp.rhs_scalar2(x0[:, 0] + h * d1, x0[:, 1] + h * d2)
    j = np.arange(1.0, n + 1)[:, None]
    q = 0.5 * h * j * (j - 1)
    quad1 = x0[:, 0] + j * (h * d1) + q * (e1 - d1)
    quad2 = x0[:, 1] + j * (h * d2) + q * (e2 - d2)
    assert np.array_equal(Z[1], quad1[0] + 1j * quad2[0])  # node k+1 is exact
    ulp = np.spacing(np.maximum(np.abs(quad1), np.abs(quad2)).max(axis=0))
    assert np.all(np.abs(Z.real[1:] - quad1) <= 4 * ulp)
    assert np.all(np.abs(Z.imag[1:] - quad2) <= 4 * ulp)


def test_constant_component_keeps_the_block_path(monkeypatch):
    # rhs2 returns a constant component as a plain number; the guess
    # broadcasts it, so every block after the first samples the block
    # before it and only the 5-step tail calls rhs2 on plain floats
    field, count = counting_points(cc.load_system({"rhs": ["-0.5", "x1 - x2"]}))
    calls = counting_extrapolation(monkeypatch)
    x0, h, n_steps = (1.0, 0.5), 1.25e-6, 4 * SWEEP_W + 5
    ref, _ = one_step_nodes(field.rhs_scalar2, x0, h, n_steps)
    count["scalar"] = 0
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))
    assert calls == [SWEEP_W, 2 * SWEEP_W, 3 * SWEEP_W]
    assert count["scalar"] <= 16


@pytest.mark.parametrize("h", [1.25e-6, 1e-4])
@pytest.mark.parametrize("system", sorted(cc.systems.REGISTRY))
def test_extrapolated_blocks_match_one_step_loop(system, h):
    # four full blocks and a scalar tail, whichever guess the gate picks
    field = cc.load_system({"id": system})
    x0, n_steps = (1.8929, -0.5383), 4 * SWEEP_W + 5
    ref, _ = one_step_nodes(field.rhs_scalar2, x0, h, n_steps)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


def scalar_steps(monkeypatch):
    """Count the steps euler._scalar_nodes takes, in the returned list."""
    steps = [0]
    scalar = cc.euler._scalar_nodes

    def counted(rhs2, u1, u2, h, n_steps, first_step=0):
        steps[0] += n_steps
        return scalar(rhs2, u1, u2, h, n_steps, first_step)

    monkeypatch.setattr(cc.euler, "_scalar_nodes", counted)
    return steps


def test_short_blocks_grow_back(vdp, monkeypatch):
    # at h = 5e-4 from vdp-example2's x0 the second extend's blocks stop
    # short and halve; full blocks double them back, so the scalar loop
    # steps only the tail, and the nodes are those of one extend
    x0, h = (1.8929, -0.5383), 5e-4
    steps = scalar_steps(monkeypatch)
    run = cc.Run(vdp, x0, h).extend(20000)
    steps[0] = 0
    run.extend(43140)
    assert steps[0] < cc.euler.SWEEP_MIN
    one = cc.Run(vdp, x0, h).extend(63140)
    assert np.array_equal(run.nodes.view(np.int64), one.nodes.view(np.int64))


def test_sweeps_run_in_place(vdp):
    # after a warm-up chunk, a reference chunk (2^18 steps at h = 1.25e-6)
    # allocates, beyond the work arrays of its extend, less than one
    # block-sized float64 array: the guesses, the in-place kernel and the
    # running sums write into the node buffer and the work arrays
    stream = cc.syncerr.ReferenceStream(vdp, (1.8929, -0.5383), 1.25e-4, 1.0)
    stream.advance(0)
    assert stream.h == 1.25e-6 and stream.end == cc.syncerr.STREAM_CHUNK
    w = cc.euler.SWEEP_STEPS
    _, rows = vdp.rhs_scalar2.in_place()
    work = 2 * 16 * w + (2 + rows) * 8 * w  # H, Y and U of _planar_nodes
    tracemalloc.start()
    try:
        stream.advance(stream.end)  # keeps one node: no new buffer
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.end == 2 * cc.syncerr.STREAM_CHUNK
    assert peak - work < 8 * w, (peak, work)


def test_block_path_checks_the_sign_of_zero(linear, monkeypatch):
    # x2 stays +0.0 from (1, 0); a guess of -0.0 compares equal to it as a
    # float, so only a check of the bits keeps the zeros the scalar loop has
    def negative_zero_guess(rhs2, Z, h):
        start = (float(Z[0, 0].real), float(Z[0, 0].imag))
        nodes, _ = one_step_nodes(rhs2, start, h, Z.shape[0] - 1)
        Z.real[1:, 0] = nodes[1:, 0]
        Z.imag[1:] = -0.0

    x0, h, n_steps = (1.0, 0.0), 1e-5, SWEEP_W + 1
    ref, _ = one_step_nodes(linear.rhs_scalar2, x0, h, n_steps)
    guessing(monkeypatch, negative_zero_guess)
    field, seen = recording(linear)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert any(seen)
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("x0", [1.2, 2.0, 2.6, 3.7])
def test_block_overflow_names_the_step(x0):
    # x' = x^3 at a step small enough for the block path: the run overflows
    # in the first block (2.6, 3.7), in a later one (2.0) or not at all
    # (1.2).  Float ** raises OverflowError where numpy's gives inf, so the
    # block holding it is re-stepped by the scalar loop.
    field, seen = recording(cubic_field(lambda u1, u2: (u1**3, 0.0)))
    h, n_steps = 1e-5, 3 * SWEEP_W + 5
    _, step = one_step_nodes(field.rhs_scalar2, (x0, 0.0), h, n_steps)
    seen.clear()
    if step is None:
        assert np.all(np.isfinite(cc.simulate(field, (x0, 0.0), h, n_steps).nodes))
    else:
        with pytest.raises(DivergedError, match=f"overflowed at node {step}$") as exc:
            cc.simulate(field, (x0, 0.0), h, n_steps)
        assert exc.value.first_bad_index == step
    assert any(seen)
    assert (step is None) == (x0 == 1.2)


@pytest.mark.parametrize(
    "rhs2",
    [
        lambda u1, u2: (cube(u1), 0.0),
        lambda u1, u2: (cube(u1), cube(u1) * cube(u1) - cube(u1) * cube(u1)),
    ],
    ids=["inf", "nan"],
)
@pytest.mark.parametrize("x0", [2.0, 2.6, 3.7])
def test_block_nonfinite_names_first_bad_node(x0, rhs2):
    field, seen = recording(cubic_field(rhs2))
    h, n_steps = 1e-5, 3 * SWEEP_W + 5
    ref, step = one_step_nodes(rhs2, (x0, 0.0), h, n_steps)
    assert step is None
    bad = int(np.nonzero(~np.isfinite(ref).all(axis=1))[0][0])
    with pytest.raises(DivergedError, match=f"non-finite state at node {bad}$") as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            cc.simulate(field, (x0, 0.0), h, n_steps)
    assert exc.value.first_bad_index == bad
    assert any(seen)


@pytest.mark.parametrize(
    "x0,h,n_steps",
    [
        ((2.0, 0.0), 0.05, cc.euler.SWEEP_MIN - 1),  # the scalar loop only
        ((2.0, 0.0), 1e-5, 3 * SWEEP_W + 5),  # a later swept block
        ((3.7, 0.0), 1e-5, 3 * SWEEP_W + 5),  # the first swept block
        ((math.inf, 0.0), 1e-5, 3 * SWEEP_W + 5),  # the start point
        ((math.nan, 1.0), 0.05, 20),
    ],
)
def test_nonfinite_run_names_its_first_bad_node(x0, h, n_steps):
    # swept blocks are checked finite one by one and only the nodes the
    # scalar loop steps are scanned afterwards; a run still fails at the
    # first non-finite node of the one-step loop.  x' = x^3 from an inline
    # spec: x1**3 compiles to a product, which overflows to inf on floats
    field, seen = recording(cc.load_system({"rhs": ["x1**3", "0"]}))
    ref, step = one_step_nodes(field.rhs_scalar2, x0, h, n_steps)
    assert step is None
    bad = int(np.nonzero(~np.isfinite(ref).all(axis=1))[0][0])
    seen.clear()
    with pytest.raises(DivergedError, match=f"non-finite state at node {bad}$") as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            cc.simulate(field, x0, h, n_steps)
    assert exc.value.first_bad_index == bad
    assert any(seen) == (n_steps >= cc.euler.SWEEP_MIN)


def test_interleaved_arithmetic_is_componentwise():
    # README "Bit-identity contract", interleaved arithmetic: the rows of an
    # (n, 2) float64 array are complex128 numbers, and complex +, - and
    # cumsum give the bits of the float64 operations on each column
    rng = np.random.default_rng(14)
    n = 4096
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e300, -1e300]
    special += [math.inf, -math.inf]

    def operand(scale):
        x = rng.normal(size=(n, 2)) * scale
        rows, cols = rng.integers(0, n, 600), rng.integers(0, 2, 600)
        x[rows, cols] = rng.choice(special, 600)
        return x

    def complex_view(x):
        return x.view(np.complex128)[:, 0]

    def bits(z):
        return z[:, None].view(np.int64)

    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, size=(n, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e300 + 1e300
        for scale in (1.0, magnitudes):
            a, b = operand(scale), operand(scale)
            za, zb = complex_view(a), complex_view(b)
            for op in (np.add, np.subtract):
                want = np.stack([op(a[:, 0], b[:, 0]), op(a[:, 1], b[:, 1])], axis=1)
                assert np.array_equal(bits(op(za, zb)), want.view(np.int64))
            for x in (a, rng.normal(size=(n, 2)) * scale):
                want = np.stack([np.cumsum(x[:, 0]), np.cumsum(x[:, 1])], axis=1)
                got = np.cumsum(complex_view(x))
                assert np.array_equal(bits(got), want.view(np.int64))


def test_immutable_nodes(vdp):
    traj = cc.simulate(vdp, [1.0, 1.0], 1e-3, 10)
    with pytest.raises(ValueError):
        traj.nodes[0, 0] = 99.0


def test_f_nodes_matches_field(vdp):
    # the section normals of the synchronization oracle are f at the nodes
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 50)
    fn = f_nodes(traj)
    assert fn.shape == (51, 2)
    assert np.allclose(fn, vdp.f_raw(traj.nodes), rtol=0, atol=1e-10)


# -- crossings ---------------------------------------------------------------


def harmonic_section(harmonic):
    anchor = np.array([1.0, 0.0])
    return cc.Section(anchor, harmonic.f_raw(anchor))


def test_harmonic_period(harmonic):
    # the circle flow has exact period 2*pi; Euler drift stays O(h)
    traj = cc.simulate(harmonic, [1.0, 0.0], 1e-4, 70000)
    section = harmonic_section(harmonic)
    crossings = cc.detect_crossings(
        traj, section, cc.default_exclusion(1e-4, 0.1)
    )
    assert crossings, "no crossing found"
    assert abs(crossings[0].time - 2 * np.pi) < 0.01


def test_crossing_residual_invariant(harmonic):
    traj = cc.simulate(harmonic, [1.0, 0.0], 1e-3, 7000)
    section = harmonic_section(harmonic)
    for c in cc.detect_crossings(traj, section, cc.default_exclusion(1e-3, 0.1)):
        res = abs(section.offset(c.point))
        bound = 1e-12 * np.linalg.norm(section.normal) * (
            1 + np.linalg.norm(c.point)
        )
        assert res <= bound
        assert c.direction_dot > 0


def test_monotone_escape_no_crossing():
    field = cc.load_system({"rhs": ["1", "0"], "params": {}, "name": "drift"})
    traj = cc.simulate(field, [0.0, 0.0], 0.01, 1000)
    section = cc.Section(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert (
        cc.detect_crossings(traj, section, cc.Exclusion(0.1, 0.05)) == []
    )


def test_return_times_harmonic_two_returns(harmonic):
    traj = cc.simulate(harmonic, [1.0, 0.0], 1e-4, 130000)
    section = harmonic_section(harmonic)
    rt = cc.return_times(traj, section, 2, cc.default_exclusion(1e-4, 0.1))
    assert rt.complete
    (r1, n1, _), (r2, n2, _) = rt.returns
    assert abs(r2 - 2 * r1) < 0.02
    for r, n in ((r1, n1), (r2, n2)):
        assert (n - 1) * traj.h < r <= n * traj.h
        assert n == int(np.ceil(r / traj.h)) or abs(r - (n * traj.h)) < 1e-12


def test_return_times_partial_flag(vdp):
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-3, 1000)  # horizon 1 < R1
    section = cc.Section.through(vdp, traj.nodes[0])
    rt = cc.return_times(traj, section, 1, cc.default_exclusion(1e-3, 0.1))
    assert not rt.complete and rt.returns == []


def test_vdp_first_return(vdp):
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 70000)
    section = cc.Section.through(vdp, traj.nodes[0])
    rt = cc.return_times(traj, section, 1, cc.default_exclusion(1e-4, 0.1))
    r1, n1, _ = rt.first()
    assert r1 == pytest.approx(6.314, abs=0.01)
    assert n1 == 63140


@pytest.mark.parametrize("system,x0", [("harmonic", (1.0, 0.0)), ("vanderpol", (1.8929, -0.5383))])
def test_refinement_consistency(system, x0):
    # halving h moves the first return time by O(h)
    field = cc.load_system({"id": system, "params": {"p": 0.3} if system == "vanderpol" else {}})
    r = {}
    for h in (2e-3, 1e-3):
        traj = cc.simulate(field, list(x0), h, int(9.0 / h))
        section = cc.Section.through(field, traj.nodes[0])
        rt = cc.return_times(traj, section, 1, cc.default_exclusion(h, 0.1))
        assert rt.complete
        r[h] = rt.first()[0]
    assert abs(r[2e-3] - r[1e-3]) <= 5.0 * 2e-3


def test_batch_first_return_matches_scalar(harmonic, linear):
    # one crossing rule: the chunked sweep and return_times on a full run
    # give the same times, bit for bit
    h, horizon, excl = 1e-3, 10.0, cc.Exclusion(1e-2, 0.05)
    assert 2 * np.pi / h > cc.euler.RETURN_CHUNK  # returns after the first chunk

    def sweeps(field, section, pts):
        runs = [cc.Run(field, p, h) for p in pts]
        chunked = cc.batch_first_return(runs, horizon, section, excl)
        full = []
        for p in pts:
            traj = cc.simulate(field, p, h, int(np.ceil(horizon / h)))
            first = cc.return_times(traj, section, 1, excl).first()
            full.append(np.nan if first is None else first[0])
        return chunked, np.array(full)

    # [1, 0.005] crosses at t ~ 0.005 < t_min; [1, 0.02] crosses at t ~ 0.02
    # before it has left B(anchor, 0.05): both early crossings are excluded
    pts = np.array([[1.0, 0.0], [1.01, 0.0], [0.99, 0.0], [1.0, 0.005], [1.0, 0.02]])
    chunked, full = sweeps(harmonic, harmonic_section(harmonic), pts)
    assert np.all(np.isfinite(chunked))
    assert np.allclose(chunked[:3], 2 * np.pi, atol=0.02)
    assert np.all(chunked[3:] > 2 * np.pi - 0.01)
    assert np.array_equal(chunked, full)

    # the stable node never crosses the section through (1, 0)
    anchor = np.array([1.0, 0.0])
    section = cc.Section(anchor, linear.f_raw(anchor))
    pts = np.array([[1.0, 0.0], [0.9, 0.0], [0.5, 0.5]])
    for times in sweeps(linear, section, pts):
        assert np.all(np.isnan(times))


def test_batch_first_return_refuses_mixed_runs(harmonic, linear):
    # runs that share an end step as one group on the first run's field and
    # h, and the sweep's steps and times are counted at that h: a run of
    # another step or field is refused, not swept on the first one's
    section, excl = harmonic_section(harmonic), cc.Exclusion(1e-2, 0.05)
    p = np.array([1.0, 0.0])
    for other in (cc.Run(harmonic, p, 2e-3), cc.Run(linear, p, 1e-3)):
        runs = [cc.Run(harmonic, p, 1e-3), other]
        with pytest.raises(InputError, match="must share a field and h"):
            cc.batch_first_return(runs, 8.0, section, excl)
        assert [run.end for run in runs] == [0, 0]


def counted_extends(monkeypatch):
    """Steps each run takes in each call of euler._step_runs, where every
    node is stepped, in call order."""
    steps = []
    step_runs = cc.euler._step_runs

    def counted(runs, n):
        steps.extend([n] * len(runs))
        return step_runs(runs, n)

    monkeypatch.setattr(cc.euler, "_step_runs", counted)
    return steps


@pytest.mark.parametrize("known", [1000, 4096, 5000, 9000])
def test_continued_run_matches_one_run(harmonic, monkeypatch, known):
    # a run that holds its first nodes and is scanned past them is one run,
    # bit for bit: a run shorter than one chunk, one ending on a chunk
    # boundary, one ending inside the return's chunk and one longer than
    # the run up to its return; only the steps past its nodes are taken
    h, n_steps, excl = 1e-3, 10000, cc.Exclusion(1e-2, 0.05)
    section, x0 = harmonic_section(harmonic), np.array([1.0, 0.0])
    whole = cc.simulate(harmonic, x0, h, n_steps).nodes
    fresh = cc.Run(harmonic, x0, h).first_return(n_steps, section, excl)
    run = cc.Run(harmonic, x0, h).extend(known)
    steps = counted_extends(monkeypatch)
    traj, segment, time = run.first_return(n_steps, section, excl)
    # the return near 2*pi lies in the second chunk, which ends the run
    stop = 2 * cc.euler.RETURN_CHUNK
    assert segment // cc.euler.RETURN_CHUNK == 1
    assert (segment, time) == fresh[1:]
    assert np.array_equal(traj.nodes, whole[: stop + 1])
    assert np.array_equal(fresh[0].nodes, whole[: stop + 1])
    assert sum(steps) == max(stop - known, 0) and run.end == max(stop, known)


def test_run_extends_exactly_or_doubles(harmonic):
    # extend grows a full buffer to the rows it needs or to twice its rows,
    # whichever is more; a trajectory taken before keeps its nodes, and
    # drop_before moves the kept nodes to the front
    h = 1e-3
    run = cc.Run(harmonic, [1.0, 0.0], h).extend(600)
    assert run._buffer.shape[0] == 601
    before = run.trajectory()
    run.extend(10)
    assert run._buffer.shape[0] == 1202 and run.end == 610
    run.extend(600)
    assert run._buffer.shape[0] == 2404
    run.extend(4000)
    assert run._buffer.shape[0] == 5211
    whole = cc.simulate(harmonic, [1.0, 0.0], h, 5210).nodes
    assert np.array_equal(run.nodes, whole)
    assert np.array_equal(before.nodes, whole[:601])
    run.drop_before(1000)
    assert run.base == 1000 and np.array_equal(run.nodes, whole[1000:])
    with pytest.raises(InputError, match="not resident"):
        run.trajectory()
    with pytest.raises(InputError, match="node 999 to keep is not resident"):
        run.drop_before(999)


def test_small_extend_doubles_the_buffer(harmonic):
    # a full buffer grows to twice its rows even for a few more nodes, so a
    # run extended step by step copies its nodes only a few times
    h = 1e-3
    run = cc.Run(harmonic, [1.0, 0.0], h).extend(600)
    run.extend(5)
    assert run._buffer.shape[0] == 2 * 601 and run.end == 605
    assert np.array_equal(run.nodes, cc.simulate(harmonic, [1.0, 0.0], h, 605).nodes)


def test_run_refuses_past_the_node_budget(linear, monkeypatch):
    # a run that would hold more than NODE_BUDGET nodes is refused before
    # its buffer grows: stepped at once, or chunk by chunk while it looks
    # for a return that never comes, its doubling capped at the budget
    chunk = cc.euler.RETURN_CHUNK
    monkeypatch.setattr(cc.euler, "NODE_BUDGET", 2 * chunk + 1)
    h, x0 = 1e-3, np.array([1.0, 0.0])
    with pytest.raises(InputError, match=f"h = 0.001 would hold {2 * chunk + 2} nodes"):
        cc.simulate(linear, x0, h, 2 * chunk + 1)
    assert cc.simulate(linear, x0, h, 2 * chunk).n_steps == 2 * chunk
    run = cc.Run(linear, x0, h)
    section, excl = cc.Section(x0, linear.f_raw(x0)), cc.Exclusion(1e-2, 0.05)
    with pytest.raises(InputError, match=f"budget of {2 * chunk + 1}: raise h or shorten"):
        run.first_return(5 * chunk, section, excl)
    assert run.end == 2 * chunk and run._buffer.shape[0] == 2 * chunk + 1


def test_batch_first_return_reads_and_keeps_runs(harmonic, monkeypatch):
    # each sample continues its run in place: a run that already holds its
    # return is read, not stepped, and the others hold theirs afterwards
    h, horizon, excl = 1e-3, 10.0, cc.Exclusion(1e-2, 0.05)
    section = harmonic_section(harmonic)
    pts = np.array([[1.0, 0.0], [1.01, 0.0], [0.99, 0.0]])
    runs = [cc.Run(harmonic, p, h) for p in pts]
    runs[1].extend(10000)
    whole = runs[1].nodes
    steps = counted_extends(monkeypatch)
    times = cc.batch_first_return(runs, horizon, section, excl)
    stop = 2 * cc.euler.RETURN_CHUNK
    assert sum(steps) == 2 * stop
    fresh = [cc.Run(harmonic, p, h) for p in pts]
    assert np.array_equal(times, cc.batch_first_return(fresh, horizon, section, excl))
    assert runs[1].nodes.base is whole.base and runs[1].end == 10000
    for p, run in zip(pts, runs):
        want = cc.simulate(harmonic, p, h, run.end).nodes
        assert np.array_equal(run.nodes, want) and run.diverged is None


def disk_runs(field, center, radius, count, h):
    """Runs at step h from ``count`` points of the section disk of the
    given radius through ``center``."""
    center = np.asarray(center, dtype=float)
    disk = cc.SectionDisk(center, radius, field.f_raw(center))
    return [cc.Run(field, z, h) for z in disk.sweep_points(count)]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    st.integers(2, 12),
    st.sampled_from([5e-4, 1e-4, 1.25e-6]),
    st.floats(1e-3, 0.2),
    st.integers(1, cc.euler.RETURN_CHUNK),
)
def test_group_extend_matches_runs_alone(vdp, count, h, radius, rest):
    # runs stepped together, over a RETURN_CHUNK and past its end, hold
    # the int64 bits of each run extended alone
    runs = disk_runs(vdp, (1.8929, -0.5383), radius, count, h)
    chunk = cc.euler.RETURN_CHUNK
    for n in (chunk, rest):
        assert cc.euler._step_runs(runs, n) == [None] * count
    for run in runs:
        alone = cc.Run(vdp, run.x0, h).extend(chunk + rest)
        assert np.array_equal(run.nodes.view(np.int64), alone.nodes.view(np.int64))


def test_group_blocks_that_stop_short_halve(vdp, monkeypatch):
    # two runs at h = 5e-4 whose second block stops short: the group halves
    # its blocks and doubles them back, as a run alone does, and steps the
    # whole extend in one _planar_nodes call; each run holds the int64 bits
    # of the run alone
    h, n = 5e-4, 20000
    runs = disk_runs(vdp, (1.8929, -0.5383), 0.01, 2, h)
    shapes, blocks = [], []
    planar, sweep = cc.euler._planar_nodes, cc.euler._sweep_block

    def planar_recorded(rhs2, Z, *args):
        shapes.append(Z.shape)
        return planar(rhs2, Z, *args)

    def sweep_recorded(into, Z, h, work):
        done = sweep(into, Z, h, work)
        blocks.append((Z.shape[0] - 1, done))
        return done

    monkeypatch.setattr(cc.euler, "_planar_nodes", planar_recorded)
    monkeypatch.setattr(cc.euler, "_sweep_block", sweep_recorded)
    assert cc.euler._step_runs(runs, n) == [None, None]
    assert shapes == [(n + 1, 2)]
    top = cc.euler.SWEEP_STEPS // 2
    short = [i for i, (width, done) in enumerate(blocks) if done < width]
    assert short and short[0] == 1
    assert all(blocks[i + 1][0] == blocks[i][0] // 2 for i in short)
    assert blocks[short[0] + 2][0] == top  # doubled back
    monkeypatch.undo()
    for run in runs:
        alone = cc.Run(vdp, run.x0, h).extend(n)
        assert np.array_equal(run.nodes.view(np.int64), alone.nodes.view(np.int64))


def test_r_prime_sweep_steps_each_group_once(vdp, monkeypatch):
    # vdp-example1's R' sweep (11 points of the start disk at h = 1e-4, the
    # center continuing the certificate's run to its first return): each
    # _step_runs call sweeps the 10 other runs by one _planar_nodes, and
    # the scalar loop steps the step per run its blocks leave
    x0, h = np.array([1.8929, -0.5383]), 1e-4
    disk = cc.SectionDisk(x0, 0.1, vdp.f_raw(x0))
    center = cc.Run(vdp, x0, h)
    assert cc.euler.first_loop(center, 10.0, 0.1) is not None
    runs = [
        center if z.tobytes() == x0.tobytes() else cc.Run(vdp, z, h)
        for z in disk.sweep_points(11)
    ]
    assert center in runs
    planar, step_runs = cc.euler._planar_nodes, cc.euler._step_runs
    calls = []

    def planar_counted(rhs2, Z, h):
        calls[-1] += 1
        return planar(rhs2, Z, h)

    def step_counted(runs, n):
        calls.append(0)
        return step_runs(runs, n)

    monkeypatch.setattr(cc.euler, "_planar_nodes", planar_counted)
    monkeypatch.setattr(cc.euler, "_step_runs", step_counted)
    times = cc.return_time_sweep(runs, disk, 10.0)
    assert np.all(np.isfinite(times))
    assert calls == [1] * 16  # one call per chunk of the 10 runs


# the circle flow, whose orbits beyond radius 1.03 blow up; its rhs_scalar2
# takes arrays, so a group sweeps until a block holds a non-finite value
RADIAL_ESCAPE = {
    "name": "escape-radial",
    "rhs": ["x2 + x1*(x1**2 + x2**2 - 1.0609)", "-x1 + x2*(x1**2 + x2**2 - 1.0609)"],
}


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.integers(2, 12), st.sampled_from(["handwritten", "radial"]))
def test_group_run_that_diverges_fails_as_alone(count, escape):
    # the disk through (1, 0) reaches past radius 1.03, where the escape
    # fields blow up: a run of the group that does fails at the node, and
    # with the message, it fails at alone, keeping its resident nodes; the
    # other runs keep their bits
    field = escape_field("blowup") if escape == "handwritten" else cc.load_system(RADIAL_ESCAPE)
    h, n = 1e-3, cc.euler.RETURN_CHUNK
    runs = disk_runs(field, (1.0, 0.0), 0.05, count, h)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = cc.euler._step_runs(runs, n)
        for run, exc in zip(runs, errors):
            alone = cc.Run(field, run.x0, h)
            try:
                alone.extend(n)
            except DivergedError as want:
                assert run.diverged is exc and run.end == 0
                assert (exc.first_bad_index, str(exc)) == (want.first_bad_index, str(want))
            else:
                assert exc is None and run.diverged is None
                assert np.array_equal(run.nodes.view(np.int64), alone.nodes.view(np.int64))
    assert errors[-1] is not None  # the endpoint at radius 1.05


def test_first_return_names_the_diverged_node(harmonic):
    # a run that overflows in its second chunk names its node on the run,
    # and keeps the error
    def rhs2(u1, u2):
        return (u1 * u1 if u1 > 5.0 else 1.0), 0.0

    field = dataclasses.replace(harmonic, rhs_scalar2=rhs2)
    h, n_steps = 1e-3, 20000
    with pytest.raises(DivergedError) as whole:
        cc.simulate(field, [0.0, 0.0], h, n_steps)
    assert whole.value.first_bad_index > cc.euler.RETURN_CHUNK
    run = cc.Run(field, [0.0, 0.0], h)
    with pytest.raises(DivergedError) as chunked:
        run.first_return(n_steps, harmonic_section(harmonic), cc.Exclusion(1e-2, 0.05))
    assert chunked.value.first_bad_index == whole.value.first_bad_index
    assert str(chunked.value) == f"non-finite state at node {whole.value.first_bad_index}"
    assert run.diverged is chunked.value
    assert run.end == cc.euler.RETURN_CHUNK * (run.end // cc.euler.RETURN_CHUNK)


def test_return_times_bracket_violation_raises(harmonic, monkeypatch):
    # a time outside its segment's bracket ((N-1)h, Nh] is an error, not an assert
    traj = cc.simulate(harmonic, [1.0, 0.0], 1e-3, 7000)
    section = harmonic_section(harmonic)
    excl = cc.default_exclusion(1e-3, 0.1)
    good = cc.detect_crossings(traj, section, excl)[0]
    bad = dataclasses.replace(good, time=good.time + 1e-3)
    monkeypatch.setattr(cc.euler, "detect_crossings", lambda *args: [bad])
    with pytest.raises(NumericError, match=f"segment {good.step_index}"):
        cc.return_times(traj, section, 1, excl)
