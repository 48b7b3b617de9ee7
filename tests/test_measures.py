import numpy as np
import pytest

import cyclecert as cc
from cyclecert.errors import EquilibriumProximityError, InputError, NumericError
from cyclecert.measures import SliceSampling, make_slice


def charpoly_eigs(S):
    """Brute-force symmetric eigenvalues via characteristic-polynomial roots
    (independent of the library eigensolver); n = 2 or 3."""
    n = S.shape[0]
    if n == 2:
        tr, det = S[0, 0] + S[1, 1], np.linalg.det(S)
        disc = np.sqrt(max(tr * tr / 4 - det, 0.0))
        return np.sort([tr / 2 - disc, tr / 2 + disc])
    # cubic: x^3 - tr x^2 + c2 x - det
    tr = np.trace(S)
    c2 = 0.5 * (tr ** 2 - np.trace(S @ S))
    det = np.linalg.det(S)
    roots = np.roots([1.0, -tr, c2, -det])
    return np.sort(roots.real)


def test_symmetric_part_trivials():
    assert np.allclose(cc.symmetric_part(np.array([[0, 1], [-1, 0]])), 0.0)
    assert np.allclose(cc.symmetric_part(-np.eye(2)), -np.eye(2))
    with pytest.raises(InputError):
        cc.symmetric_part(np.ones((2, 3)))


def test_symmetric_part_vanderpol(vdp):
    # S12 = -p*u1*u2 from averaging the off-diagonal entries by hand
    u1, u2, p = 1.8929, -0.5383, 0.3
    S = cc.symmetric_part(vdp.eval_jacobian(np.array([u1, u2])))
    assert S[0, 1] == pytest.approx(-p * u1 * u2, abs=1e-15)
    assert S[0, 1] == pytest.approx(0.3057, abs=1e-4)
    assert S[1, 1] == pytest.approx(-0.7749, abs=1e-4)
    assert np.array_equal(S, S.T)


def test_transverse_measure_trivials(harmonic, linear):
    ts = cc.transverse_measure(harmonic, np.array([0.3, 0.8]))
    assert ts.mu == pytest.approx(0.0, abs=1e-15)
    assert ts.mu_perp == pytest.approx(0.0, abs=1e-15)
    ts = cc.transverse_measure(linear, np.array([1.0, 2.0]))
    assert ts.mu == pytest.approx(-1.0)
    assert ts.mu_perp == pytest.approx(-1.0)


def test_transverse_measure_equilibrium_error(linear):
    with pytest.raises(EquilibriumProximityError):
        cc.transverse_measure(linear, np.array([0.0, 0.0]))


def test_mu_equals_brute_force_on_random_matrices():
    # the library eigensolver agrees with characteristic-polynomial roots
    # on 200 random 2x2 and 3x3 Jacobians
    rng = np.random.default_rng(17)
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        J = rng.normal(size=(n, n))
        S = cc.symmetric_part(J)
        evals = charpoly_eigs(S)
        assert np.allclose(np.linalg.eigvalsh(S), evals, atol=1e-7)
        assert cc.measures.mu_max_batch(S) == pytest.approx(evals[-1], abs=1e-7)


def test_mu_matches_oracle_on_random_jacobians(vdp):
    # mu at random state points equals the largest char-poly root of S
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=2)
        if np.linalg.norm(vdp.f_raw(x)) < 1e-6:
            continue
        ts = cc.transverse_measure(vdp, x)
        S = cc.symmetric_part(vdp.eval_jacobian(x))
        assert ts.mu == pytest.approx(charpoly_eigs(S)[-1], abs=1e-10)
        assert ts.mu_perp <= ts.mu + 1e-12


def test_projection_vs_eigenvector_match_planted():
    # linear field f(x) = S x with planted eigenpairs; at x = v0 the flow
    # direction is exactly an eigenvector, so both methods must agree
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 50:
        angle = rng.uniform(0, 2 * np.pi)
        v0 = np.array([np.cos(angle), np.sin(angle)])
        v1 = np.array([-v0[1], v0[0]])
        l0, l1 = rng.normal(size=2)
        if abs(l0) < 0.1 or abs(abs(l0) - abs(l1)) < 1e-3:
            continue
        S = l0 * np.outer(v0, v0) + l1 * np.outer(v1, v1)
        field = cc.load_system(
            {
                "rhs": [
                    f"{float(S[0,0])!r}*x1 + {float(S[0,1])!r}*x2",
                    f"{float(S[1,0])!r}*x1 + {float(S[1,1])!r}*x2",
                ],
                "params": {},
                "jacobian": [
                    [repr(float(S[0, 0])), repr(float(S[0, 1]))],
                    [repr(float(S[1, 0])), repr(float(S[1, 1]))],
                ],
                "name": "planted",
            }
        )
        proj = cc.transverse_measure(field, v0, method="projection")
        match = cc.transverse_measure(field, v0, method="eigenvector-match")
        assert proj.mu_perp == pytest.approx(l1, abs=1e-10)
        assert match.mu_perp == pytest.approx(proj.mu_perp, abs=1e-10)
        assert match.alignment == pytest.approx(1.0, abs=1e-9)
        checked += 1


def test_transverse_measure_three_dimensional():
    # diagonal linear system: at x = e1 the flow direction is an eigenvector,
    # so dropping it leaves the largest remaining diagonal entry
    field = cc.load_system(
        {
            "rhs": ["-x1", "-2*x2", "-3*x3"],
            "params": {},
            "jacobian": [
                ["-1", "0", "0"],
                ["0", "-2", "0"],
                ["0", "0", "-3"],
            ],
            "name": "diag3",
        }
    )
    x = np.array([1.0, 0.0, 0.0])
    match = cc.transverse_measure(field, x, method="eigenvector-match")
    proj = cc.transverse_measure(field, x, method="projection")
    assert match.mu == pytest.approx(-1.0)
    assert match.mu_perp == pytest.approx(-2.0)
    assert proj.mu_perp == pytest.approx(-2.0)
    assert match.alignment == pytest.approx(1.0)
    # auto picks eigenvector matching beyond the plane
    auto = cc.transverse_measure(field, x)
    assert auto.method == "eigenvector-match"
    # batch kernel agrees on the higher-dimensional path
    X = np.array([[1.0, 0.0, 0.0], [0.5, 0.2, -0.1]])
    vals = cc.mu_perp_batch(field, X)
    assert vals[0] == pytest.approx(-2.0)


def test_mu_perp_batch_matches_scalar(vdp):
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, size=(40, 2))
    keep = np.linalg.norm(vdp.f_raw(X), axis=1) > 1e-6
    X = X[keep]
    batch = cc.mu_perp_batch(vdp, X)
    scalar = [cc.transverse_measure(vdp, x).mu_perp for x in X]
    assert np.allclose(batch, scalar, atol=1e-12)


# -- slice bounds -----------------------------------------------------------


def test_lambda_zero_radius_slice(vdp):
    x = np.array([1.8929, -0.5383])
    h = 1e-3
    slc = make_slice(vdp, x, h, 0.0, n_s=5)
    lb = cc.lambda_over_slice(vdp, slc, SliceSampling(n_s=5, n_ball=8))
    s = np.linspace(0, h, 5)
    centers = x + s[:, None] * vdp.f_raw(x)
    direct = cc.mu_perp_batch(vdp, centers).max()
    assert lb.lam >= direct
    assert lb.lam == pytest.approx(direct + lb.padding, abs=1e-15)


def test_lambda_constant_field_no_padding(linear):
    slc = make_slice(linear, np.array([1.0, 0.0]), 0.01, 0.05, n_s=5)
    lb = cc.lambda_over_slice(linear, slc, SliceSampling())
    assert lb.lam == pytest.approx(-1.0, abs=1e-12)
    assert lb.padding == pytest.approx(0.0, abs=1e-12)


def test_lambda_monotone_in_radius(vdp):
    x = np.array([1.0, 1.0])
    h = 1e-3
    prev = -np.inf
    for radius in (0.0, 0.05, 0.1, 0.2):
        slc = make_slice(vdp, x, h, radius, n_s=5)
        pts = cc.measures.sample_slice_points(vdp, slc, SliceSampling())
        mx = cc.mu_perp_batch(vdp, pts).max()
        assert mx >= prev - 1e-12
        prev = mx


def test_lambda_dominates_all_samples(vdp):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=2)
        if np.linalg.norm(vdp.f_raw(x)) < 0.2:
            continue
        slc = make_slice(vdp, x, 1e-3, 0.08, n_s=5)
        pts = cc.measures.sample_slice_points(vdp, slc, SliceSampling())
        lb = cc.lambda_over_slice(vdp, slc)
        assert lb.lam >= cc.mu_perp_batch(vdp, pts).max()


# -- growth rates -----------------------------------------------------------


def test_sigma_rate_examples():
    r = cc.sigma_rate(-2.0, 0.9, 1.1, 0.015)
    assert r.sigma == pytest.approx(-0.9) and r.branch == "contracting"
    r = cc.sigma_rate(1.0, 0.9, 1.1, 0.015)
    assert r.sigma == pytest.approx(1.65) and r.branch == "regularized"
    r = cc.sigma_rate(-0.01, 0.9, 1.1, 0.015)
    assert r.sigma == pytest.approx(1.5 * 1.1 * 0.015) == pytest.approx(0.02475)
    assert r.branch == "regularized"


def test_sigma_rate_invalid_inputs():
    with pytest.raises(InputError):
        cc.sigma_rate(1.0, -0.1, 1.0, 0.015)
    with pytest.raises(InputError):
        cc.sigma_rate(1.0, 0.9, 1.1, 0.0)


def test_sigma_rate_nan_lambda_raises():
    # the floor check is a raised error, so it holds under python -O too
    lam = np.array([-2.0, 1.0, np.nan, 0.5])
    with pytest.raises(NumericError, match="segment 2"):
        cc.measures.sigma_rate_batch(lam, 0.9, 1.1, 0.015)
    with pytest.raises(NumericError):
        cc.sigma_rate(np.nan, 0.9, 1.1, 0.015)


def test_sigma_rules_randomized():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        lam = rng.normal(scale=2.0)
        a = rng.uniform(0.05, 2.0)
        b = a + rng.uniform(0.0, 1.0)
        gamma = rng.uniform(1e-4, 0.5)
        r = cc.sigma_rate(lam, a, b, gamma)
        if lam < -gamma:
            assert r.branch == "contracting"
            assert r.sigma == pytest.approx(0.5 * a * lam)
            assert r.sigma < 0
        else:
            assert r.branch == "regularized"
            assert r.sigma == pytest.approx(1.5 * b * max(abs(lam), gamma))
            assert r.sigma > 0
        assert (r.sigma < 0) == (r.branch == "contracting")
        assert abs(r.sigma) >= 0.5 * gamma * a - 1e-15


def test_sigma_batch_matches_scalar():
    rng = np.random.default_rng(4)
    lam = rng.normal(scale=2.0, size=200)
    a = rng.uniform(0.1, 1.0, size=200)
    b = a + rng.uniform(0, 0.5, size=200)
    batch = cc.measures.sigma_rate_batch(lam, a, b, 0.02)
    scalar = [cc.sigma_rate(l, ai, bi, 0.02).sigma for l, ai, bi in zip(lam, a, b)]
    assert np.allclose(batch, scalar, rtol=0, atol=0)
