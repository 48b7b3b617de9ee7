import ast
import json
import re

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.errors import InputError, NumericError
from oracles import (
    FD_STEP,
    central_difference_jacobian,
    fitzhugh_nagumo_stacked,
    vanderpol_stacked,
)


def vdp_rhs_oracle(u1, u2, p):
    # independent hand evaluation of the Van der Pol right-hand side
    return np.array([u2, p * u2 - p * u1 * u1 * u2 - u1])


def vdp_jac_oracle(u1, u2, p):
    return np.array([[0.0, 1.0], [-2 * p * u1 * u2 - 1.0, p - p * u1 * u1]])


def test_vanderpol_eval_f(vdp):
    x = np.array([1.8929, -0.5383])
    expect = vdp_rhs_oracle(1.8929, -0.5383, 0.3)
    got = vdp.eval_f(x)
    assert np.allclose(got, expect, rtol=0, atol=1e-15)
    assert got == pytest.approx([-0.5383, -1.4757], abs=1e-4)


def test_linear_and_harmonic_eval_f(linear, harmonic):
    assert np.allclose(linear.eval_f(np.array([2.0, 3.0])), [-2.0, -3.0])
    assert np.allclose(harmonic.eval_f(np.array([1.0, 0.0])), [0.0, -1.0])


def test_vanderpol_jacobian(vdp):
    x = np.array([1.8929, -0.5383])
    J = vdp.eval_jacobian(x)
    assert np.allclose(J, vdp_jac_oracle(1.8929, -0.5383, 0.3), atol=1e-15)
    assert J[1, 0] == pytest.approx(-0.3886, abs=1e-4)
    assert J[1, 1] == pytest.approx(-0.7749, abs=1e-4)


@pytest.mark.parametrize("shape", [(), (1,), (257,), (5, 3, 7)])
def test_vanderpol_arrays_match_stacked(vdp, shape):
    # rhs and jac fill one preallocated array each; their values are those
    # of the np.stack construction bit for bit
    rhs, jac = vanderpol_stacked(0.3)
    x = np.random.default_rng(3).uniform(-3.0, 3.0, size=shape + (2,))
    for got, want in ((vdp.f_raw(x), rhs(x)), (vdp.jac_raw(x), jac(x))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_trivial_jacobians(linear, harmonic):
    assert np.allclose(linear.eval_jacobian(np.array([0.3, -2.0])), -np.eye(2))
    assert np.allclose(
        harmonic.eval_jacobian(np.array([5.0, 1.0])), [[0, 1], [-1, 0]]
    )


@pytest.mark.parametrize(
    "spec",
    [
        {"id": "vanderpol", "params": {"p": 0.3}},
        {"id": "harmonic"},
        {"id": "linear-stable", "params": {"rate": 1.0}},
        {"id": "fitzhugh-nagumo"},
        {"id": "unstable-focus"},
    ],
)
def test_analytic_vs_fd_jacobian(spec):
    field = cc.load_system(spec)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, size=(100, field.dim))
    J_an = field.jac_raw(pts)
    J_fd = central_difference_jacobian(field, pts)
    assert np.abs(J_an - J_fd).max() <= 1e-6


def test_fd_agreement_invariant(vdp):
    # entrywise |J_fd - J_an| <= 10 * eps_fd * (1 + |J|_max)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-3, 3, size=(20, 2)):
        J = vdp.eval_jacobian(x)
        J_fd = central_difference_jacobian(vdp, x)
        bound = 10 * FD_STEP * (1.0 + np.abs(J).max())
        assert np.abs(J - J_fd).max() <= bound


def test_purity_bit_identical(vdp):
    x = np.array([0.73, -1.21])
    f1, f2 = vdp.eval_f(x), vdp.eval_f(x)
    J1, J2 = vdp.eval_jacobian(x), vdp.eval_jacobian(x)
    assert np.array_equal(f1, f2) and np.array_equal(J1, J2)


def test_eval_f_errors(vdp):
    with pytest.raises(InputError):
        vdp.eval_f(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        vdp.eval_f(np.array([np.nan, 0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_f_nonfinite_output_reports_coordinate():
    field = cc.load_system(
        {"rhs": ["1/x1", "x2"], "params": {}, "name": "singular"}
    )
    with pytest.raises(NumericError, match="coordinate 0"):
        field.eval_f(np.array([0.0, 1.0]))


def test_load_registry_and_unknown_id():
    field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
    assert field.name == "vanderpol" and field.dim == 2
    with pytest.raises(InputError, match="unknown system id"):
        cc.load_system({"id": "does-not-exist"})


# inline specs of registry systems, written with ** as a user would
INLINE = {
    "vanderpol-inline": (
        {"rhs": ["x2", "p*x2 - p*x1**2*x2 - x1"], "params": {"p": 0.3}},
        {"id": "vanderpol"},
    ),
    "fitzhugh-nagumo-inline": (
        {
            "rhs": ["x1 - x1**3/3 - x2 + current", "eps*(x1 + a - b*x2)"],
            "params": {"a": 0.7, "b": 0.8, "eps": 0.08, "current": 0.5},
        },
        {"id": "fitzhugh-nagumo"},
    ),
}


def test_inline_matches_registry(vdp):
    inline = cc.load_system({"name": "vdp-inline", **INLINE["vanderpol-inline"][0]})
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2, 2, size=(25, 2)):
        assert np.allclose(inline.eval_f(x), vdp.eval_f(x), atol=1e-14)
        assert np.allclose(
            inline.eval_jacobian(x), vdp.eval_jacobian(x), atol=1e-14
        )


@pytest.mark.parametrize("name", sorted(INLINE))
def test_derived_jacobian_matches_registry_bit_exact(name):
    # the Jacobian sympy derives from the rhs, printed with integer powers
    # as products, rounds as the hand-written registry Jacobian does
    inline, registry = (cc.load_system(spec) for spec in INLINE[name])
    x = np.random.default_rng(17).uniform(-3.0, 3.0, size=(1000, 2))
    got, want = inline.jac_raw(x), registry.jac_raw(x)
    assert got.shape == want.shape == (1000, 2, 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p", [1 / 3, 0.1 + 0.2])
def test_inline_parameters_keep_full_precision(p):
    # parameters are bound as floats, not printed into the generated code
    field = cc.load_system({"rhs": ["p*x1", "x2"], "params": {"p": p}})
    assert field.f_raw([1.0, 0.0])[0] == p
    assert field.rhs_scalar2(1.0, 0.0)[0] == p


def test_inline_with_jacobian_expressions():
    # Jacobians are derived from the rhs; a spec that still gives one is
    # rejected by name rather than silently ignored
    msg = r"unknown system spec key\(s\) \['jacobian'\]"
    with pytest.raises(InputError, match=msg):
        cc.load_system(
            {
                "rhs": ["x2", "p*x2 - p*x1**2*x2 - x1"],
                "params": {"p": 0.3},
                "jacobian": [["0", "1"], ["-2*p*x1*x2 - 1", "p - p*x1**2"]],
            }
        )


@pytest.mark.parametrize(
    "spec,msg",
    [
        ({"rhs": ["x2", "-x1"], "fd_step": 1e-6}, r"key\(s\) \['fd_step'\]"),
        (
            {"rhs": ["-x1", "-2*x2", "-3*x3"], "name": "diag3"},
            "implemented for planar systems; 'diag3' has dimension 3",
        ),
        ({"rhs": ["foo(x1)", "x2"]}, r"unsupported function foo in \['foo\(x1\)'"),
        (
            {"rhs": ["x2", "-p*x1"], "params": {"p": "abc"}},
            "parameter 'p' must be a number, got 'abc'",
        ),
        (
            {"id": "vanderpol", "params": {"p": "abc"}},
            "parameter 'p' must be a number, got 'abc'",
        ),
        ({"rhs": ["x1 > 0", "x2"]}, "'x1 > 0' is not an arithmetic expression"),
        ({"rhs": "x2"}, "'rhs' must be a list"),
        ({"rhs": ["x2", "-x1"], "params": [0.3]}, "'params' must be a JSON object"),
        (
            {"id": "vanderpol", "params": {"P": 1.0}},
            r"unknown parameter\(s\) \['P'\] for system 'vanderpol'; "
            r"its parameters are \['p'\]",
        ),
        (
            {"id": "harmonic", "params": {"p": 0.3}},
            r"unknown parameter\(s\) \['p'\] for system 'harmonic'; "
            r"its parameters are \[\]",
        ),
        (
            {"id": "vanderpol", "params": {"p": "nan"}},
            "parameter 'p' must be a finite number, got 'nan'",
        ),
        (
            {"rhs": ["x2", "-p*x1"], "params": {"p": float("-inf")}},
            "parameter 'p' must be a finite number, got -inf",
        ),
        (
            {"rhs": ["x2", "-p*x1"], "params": {"p": 10**400}},
            "parameter 'p' must be a finite number, got 1000",
        ),
        ({"name": 5, "rhs": ["x2", "-x1"]}, "system spec 'name' must be a string"),
        ({"id": ["vanderpol"]}, "system spec 'id' must be a string"),
    ],
    ids=[
        "fd_step",
        "three-dimensional",
        "undefined-function",
        "non-numeric-param",
        "non-numeric-registry-param",
        "relational",
        "rhs-not-a-list",
        "params-not-an-object",
        "unknown-registry-param",
        "registry-system-without-params",
        "nan-registry-param",
        "infinite-inline-param",
        "integer-past-float-range",
        "name-not-a-string",
        "id-not-a-string",
    ],
)
def test_unsupported_specs_raise(spec, msg):
    with pytest.raises(InputError, match=msg):
        cc.load_system(spec)


def test_vector_field_requires_planar_scalar_rhs(vdp):
    with pytest.raises(InputError, match="'bare' has no rhs_scalar2"):
        cc.VectorField("bare", 2, {}, vdp.rhs, vdp.jacobian)
    with pytest.raises(InputError, match="'cube3' has dimension 3"):
        cc.VectorField("cube3", 3, {}, vdp.rhs, rhs_scalar2=vdp.rhs_scalar2)


def test_load_from_json_file(tmp_path, vdp):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"id": "vanderpol", "params": {"p": 0.3}}))
    field = cc.load_system(str(path))
    x = np.array([0.5, 0.5])
    assert np.allclose(field.eval_f(x), vdp.eval_f(x))


def test_load_from_file_that_is_not_text(tmp_path):
    path = tmp_path / "sys.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InputError, match="malformed system file"):
        cc.load_system(path)


@pytest.mark.parametrize(
    "spec,params",
    [
        ({"rhs": ["x2", "-p*x1"], "params": {"p": "0.3"}}, {"p": 0.3}),
        ({"rhs": ["x2", "-p*x1"], "params": {"p": 2}}, {"p": 2.0}),
        (
            {"id": "fitzhugh-nagumo", "params": {"eps": "0.1"}},
            {"a": 0.7, "b": 0.8, "eps": 0.1, "current": 0.5},
        ),
    ],
)
def test_params_are_the_floats_the_kernels_use(spec, params):
    # field.params, which the certificate records, holds the bound floats,
    # not the strings or integers of the spec
    field = cc.load_system(spec)
    assert field.params == params
    assert all(type(v) is float for v in field.params.values())


def test_malformed_inputs():
    with pytest.raises(InputError):
        cc.load_system({"params": {}})  # neither id nor rhs
    with pytest.raises(InputError, match="missing parameter"):
        cc.load_system({"rhs": ["q*x1", "x2"], "params": {}})
    with pytest.raises(InputError, match="malformed"):
        cc.load_system({"rhs": ["x1 +* 2", "x2"], "params": {}})


def test_batched_rhs_shapes(vdp):
    X = np.ones((4, 7, 2))
    assert vdp.f_raw(X).shape == (4, 7, 2)
    assert vdp.jac_raw(X).shape == (4, 7, 2, 2)


@pytest.mark.parametrize("system", sorted(cc.systems.REGISTRY) + sorted(INLINE))
def test_rhs_scalar2_broadcasts_bit_exact(system):
    # the contract simulate's sweeps rest on: rhs_scalar2 on float64 arrays
    # rounds element by element as it does on Python floats, for the
    # registry and for rhs_scalar2 generated from inline specs
    field = cc.load_system(INLINE[system][0] if system in INLINE else {"id": system})
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-8.0, 50.0, size=(2, 400))
    u = mags * rng.choice([-1.0, 1.0], size=mags.shape)
    u[:, :3] = [[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0]]
    arrays = np.array(np.broadcast_arrays(*field.rhs_scalar2(u[0], u[1])))
    floats = np.array(
        [field.rhs_scalar2(float(a), float(b)) for a, b in u.T.tolist()]
    ).T
    assert arrays.shape == floats.shape == u.shape
    assert np.array_equal(arrays.view(np.int64), floats.view(np.int64))


STACKED = {
    "vanderpol": lambda f: vanderpol_stacked(**f.params),
    "fitzhugh-nagumo": lambda f: fitzhugh_nagumo_stacked(**f.params),
}
PLANAR_SPECS = {
    **{sid: {"id": sid} for sid in cc.systems.REGISTRY},
    **{name: specs[0] for name, specs in INLINE.items()},
    # a constant component, which the kernel returns as a plain number
    "constant-f1": {"rhs": ["0.5", "-x1"]},
}


def _bits(value, shape):
    """The bytes of ``value`` (an entry plane or a constant) at ``shape``."""
    return np.broadcast_to(np.asarray(value, dtype=float), shape).tobytes()


@pytest.mark.parametrize("shape", [(), (7,), (4, 7)])
@pytest.mark.parametrize("system", sorted(PLANAR_SPECS))
def test_planar_kernels_match_interleaved(system, shape):
    # f_planes and jac_planes call the planar kernels themselves; each entry,
    # a constant Jacobian entry broadcast to the points, equals the
    # interleaved view at the stacked points and, for the systems whose
    # (..., 2) forms were written by hand, that form too.  f planes have the
    # points' shape, a constant component included
    field = cc.load_system(PLANAR_SPECS[system])
    x = np.random.default_rng(23).uniform(-3.0, 3.0, size=shape + (2,))
    u1, u2 = x[..., 0].copy(), x[..., 1].copy()
    f, J = field.f_raw(x), field.jac_raw(x)
    f_planes, jac_planes = field.f_planes(u1, u2), field.jac_planes(u1, u2)
    assert [np.shape(v) for v in f_planes] == [shape, shape]
    assert [_bits(v, shape) for v in f_planes] == [f[..., k].tobytes() for k in (0, 1)]
    assert [_bits(v, shape) for v in jac_planes] == [
        J[..., i, j].tobytes() for i in (0, 1) for j in (0, 1)
    ]
    if system in STACKED:
        rhs, jac = STACKED[system](field)
        assert f.tobytes() == rhs(x).tobytes()
        assert J.tobytes() == jac(x).tobytes()


# the nodes the rhs_scalar2 contract allows: + - * /, unary minus, names and
# numeric constants
ARITHMETIC = (
    ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
    ast.UnaryOp, ast.USub, ast.Name, ast.Load, ast.Constant,
)


@pytest.mark.parametrize("system", sorted(cc.systems.REGISTRY))
def test_registry_entries_meet_the_field_contract(system):
    # the registry is expression strings: rhs_scalar2 (its own strings, or
    # f's) is arithmetic that rounds element by element on arrays, and J
    # and rhs_scalar2 are f's Jacobian and f as sympy reads them
    import sympy

    defaults, f, jac, *rhs2 = cc.systems.REGISTRY[system]
    rhs2 = rhs2[0] if rhs2 else f
    for expr in rhs2:
        for node in ast.walk(ast.parse(expr, mode="eval")):
            assert isinstance(node, ARITHMETIC), (expr, ast.dump(node))
            if isinstance(node, ast.Constant):
                assert type(node.value) in (int, float), expr
    local = {k: sympy.Symbol(k) for k in ["x1", "x2", *defaults]}
    F, J, R = (
        sympy.Matrix(sympy.sympify(exprs, locals=local)) for exprs in (f, jac, rhs2)
    )
    assert F.free_symbols | J.free_symbols | R.free_symbols <= set(local.values())
    assert sympy.simplify(J - F.jacobian([local["x1"], local["x2"]])) == sympy.zeros(2, 2)
    assert sympy.simplify(R - F) == sympy.zeros(2, 1)


@pytest.mark.parametrize(
    "rhs,i",
    [(["1/0", "x2"], 0), (["x2", "zoo*x1"], 1), (["x2/(x1 - x1)", "x2"], 0)],
    ids=["one-over-zero", "zoo", "folded-zero-division"],
)
def test_complex_infinity_is_refused(rhs, i):
    # sympy folds each to complex infinity, which no printer writes
    msg = re.escape(f"rhs[{i}] = {rhs[i]!r} folds to complex infinity")
    with pytest.raises(InputError, match=msg):
        cc.load_system({"name": "zoo", "rhs": rhs})
