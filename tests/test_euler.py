import dataclasses
import math

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.errors import DivergedError, InputError, NumericError


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
        2,
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

    field = cc.VectorField("kinked", 2, {}, lambda x: x, None, rhs_scalar2=rhs2)
    x0, h, n_steps = (1.0, 0.0), 1e-3, 2 * SWEEP_W
    ref, _ = one_step_nodes(rhs2, x0, h, n_steps)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


def zeros_guess(rhs2, a1, a2, h, n_steps):
    return np.zeros((2, n_steps + 1))


def noise_guess(rhs2, a1, a2, h, n_steps):
    rng = np.random.default_rng(n_steps)
    return np.array([[a1], [a2]]) + rng.normal(scale=1e-3, size=(2, n_steps + 1))


def one_ulp_guess(rhs2, a1, a2, h, n_steps):
    # the exact nodes, but one of them a single ulp off
    nodes, _ = one_step_nodes(rhs2, (float(a1), float(a2)), h, n_steps)
    nodes[n_steps // 2, 1] = np.nextafter(nodes[n_steps // 2, 1], np.inf)
    return np.ascontiguousarray(nodes.T)


@pytest.mark.parametrize("guess", [zeros_guess, noise_guess, one_ulp_guess])
@pytest.mark.parametrize("h", [1.25e-6, 1e-4])
def test_block_path_ignores_the_guess(vdp, monkeypatch, guess, h):
    # a guess only decides how many nodes a sweep verifies, never their bits
    x0 = (1.8929, -0.5383)
    n_steps = 2 * SWEEP_W + 7
    ref, _ = one_step_nodes(vdp.rhs_scalar2, x0, h, n_steps)
    monkeypatch.setattr(cc.euler, "_sweep_guess", guess)
    field, seen = recording(vdp)
    nodes = cc.simulate(field, x0, h, n_steps).nodes
    assert any(seen)
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


def counting_extrapolation(monkeypatch, wrong=None):
    """Route the extrapolated guess through ``wrong`` (applied in place to
    the block's rows Z[k..k+n] once the true extrapolation has written
    them), recording the node k of each call."""
    calls = []
    extrapolate = cc.euler._extrapolated_guess

    def guess(rhs2, Z, k, width, n, h, H):
        calls.append(k)
        extrapolate(rhs2, Z, k, width, n, h, H)
        if wrong is not None:
            wrong(Z[k : k + n + 1])

    monkeypatch.setattr(cc.euler, "_extrapolated_guess", guess)
    return calls


@pytest.mark.parametrize("gate", ["open", "shut"])
@pytest.mark.parametrize("h", [1.25e-6, 1e-4])
@pytest.mark.parametrize("guess", ["zero_weights", "noise", "one_ulp"])
def test_block_path_ignores_the_extrapolated_guess(vdp, monkeypatch, guess, h, gate):
    # the extrapolation from the block before decides, like the quadratic
    # guess, only how many nodes a sweep verifies; the gate is forced open
    # (every block after a full one extrapolates) or shut (none does)
    x0 = (1.8929, -0.5383)
    n_steps = 4 * SWEEP_W + 7
    ref, _ = one_step_nodes(vdp.rhs_scalar2, x0, h, n_steps)

    def wrong(rows):
        n = rows.size - 1
        if guess == "noise":
            rng = np.random.default_rng(n)
            rows[1:] += rng.normal(scale=1e-3, size=(n, 2)).view(np.complex128)[:, 0]
        elif guess == "one_ulp":
            start = (rows[0].real, rows[0].imag)
            exact, _ = one_step_nodes(vdp.rhs_scalar2, start, h, n)
            exact[n // 2, 1] = np.nextafter(exact[n // 2, 1], np.inf)
            rows[:] = exact.view(np.complex128)[:, 0]

    if guess == "zero_weights":
        degree = cc.euler.GUESS_DEGREE
        monkeypatch.setattr(
            cc.euler, "_lagrange_weights", lambda width: np.zeros((degree + 1, width))
        )
    calls = counting_extrapolation(monkeypatch, wrong)
    monkeypatch.setattr(cc.euler, "SWEEP_SMOOTH", 10**9 if gate == "open" else 0)
    nodes = cc.simulate(vdp, x0, h, n_steps).nodes
    assert bool(calls) == (gate == "open")
    assert np.array_equal(nodes.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("h", [1.25e-6, 5e-6, 1e-4])
def test_extrapolation_gate_follows_the_convergence(vdp, monkeypatch, h):
    # at the h/100 reference steps every block after the first converges in
    # few sweeps and extrapolates; at h = 1e-4 none does, and every block
    # keeps the quadratic guess
    calls = counting_extrapolation(monkeypatch)
    n_steps = 4 * SWEEP_W
    cc.simulate(vdp, (1.8929, -0.5383), h, n_steps)
    if h < 1e-5:
        assert calls == [SWEEP_W, 2 * SWEEP_W, 3 * SWEEP_W]
    else:
        assert calls == []


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


def test_constant_component_keeps_the_block_path(monkeypatch):
    # rhs2 returns a constant component as a plain number; the guess
    # broadcasts it, so every block after the first extrapolates and only
    # the first block's quadratic guess and the 5-step tail call rhs2 on
    # plain floats
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


def test_block_path_checks_the_sign_of_zero(linear, monkeypatch):
    # x2 stays +0.0 from (1, 0); a guess of -0.0 compares equal to it as a
    # float, so only a check of the bits keeps the zeros the scalar loop has
    def negative_zero_guess(rhs2, a1, a2, h, n_steps):
        nodes, _ = one_step_nodes(rhs2, (float(a1), float(a2)), h, n_steps)
        return np.array([nodes[:, 0], np.full(n_steps + 1, -0.0)])

    x0, h, n_steps = (1.0, 0.0), 1e-5, SWEEP_W + 1
    ref, _ = one_step_nodes(linear.rhs_scalar2, x0, h, n_steps)
    monkeypatch.setattr(cc.euler, "_sweep_guess", negative_zero_guess)
    nodes = cc.simulate(linear, x0, h, n_steps).nodes
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
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 50)
    fn = traj.f_nodes
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
        chunked = cc.batch_first_return(field, pts, h, horizon, section, excl)
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


def counted_extends(monkeypatch):
    """Steps each Run.extend call takes, in call order."""
    steps = []
    extend = cc.Run.extend

    def counted(run, n, double=False):
        steps.append(n)
        return extend(run, n, double)

    monkeypatch.setattr(cc.Run, "extend", counted)
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
    # extend grows the buffer to the rows it needs, and with double to at
    # least twice its rows; a trajectory taken before keeps its nodes, and
    # drop_before moves the kept nodes to the front
    h = 1e-3
    run = cc.Run(harmonic, [1.0, 0.0], h).extend(600)
    assert run._buffer.shape[0] == 601
    before = run.trajectory()
    run.extend(10, double=True)
    assert run._buffer.shape[0] == 1202 and run.end == 610
    run.extend(600, double=True)
    assert run._buffer.shape[0] == 2404
    run.extend(4000, double=True)
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
    times = cc.batch_first_return(harmonic, pts, h, horizon, section, excl, runs)
    stop = 2 * cc.euler.RETURN_CHUNK
    assert sum(steps) == 2 * stop
    assert np.array_equal(
        times, cc.batch_first_return(harmonic, pts, h, horizon, section, excl)
    )
    assert runs[1].nodes.base is whole.base and runs[1].end == 10000
    for p, run in zip(pts, runs):
        want = cc.simulate(harmonic, p, h, run.end).nodes
        assert np.array_equal(run.nodes, want) and run.diverged is None


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
