import numpy as np
import pytest

import cyclecert as cc
from cyclecert.errors import EquilibriumProximityError, InputError, NumericError

from oracles import mu_perp_einsum


def charpoly_eigs(S):
    """Brute-force eigenvalues of a symmetric 2x2 matrix via the roots of
    its characteristic polynomial (independent of the library
    eigensolver)."""
    tr, det = S[0, 0] + S[1, 1], np.linalg.det(S)
    disc = np.sqrt(max(tr * tr / 4 - det, 0.0))
    return np.sort([tr / 2 - disc, tr / 2 + disc])


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


def test_mu_equals_brute_force_on_random_matrices(vdp):
    # the library eigensolver and the package's measure mu agree with
    # characteristic-polynomial roots of S = sym(J(x)) at 200 random Van
    # der Pol state points
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 200:
        x = rng.uniform(-3, 3, size=2)
        if np.linalg.norm(vdp.f_raw(x)) < 1e-6:
            continue
        S = cc.symmetric_part(vdp.eval_jacobian(x))
        evals = charpoly_eigs(S)
        assert np.allclose(np.linalg.eigvalsh(S), evals, atol=1e-7)
        assert cc.transverse_measure(vdp, x).mu == pytest.approx(evals[-1], abs=1e-7)
        checked += 1


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
    # direction is exactly an eigenvector, so the projection onto its
    # normal leaves the other eigenvalue
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
                "name": "planted",
            }
        )
        proj = cc.transverse_measure(field, v0)
        assert proj.mu_perp == pytest.approx(l1, abs=1e-10)
        checked += 1


def test_mu_perp_batch_matches_scalar(vdp):
    # the planar-component kernel against the einsum w^T S w, and the
    # single-point spectrum as a view of the kernel
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, size=(40, 2))
    keep = np.linalg.norm(vdp.f_raw(X), axis=1) > 1e-6
    X = X[keep]
    batch = cc.mu_perp_batch(vdp, X)
    assert np.array_equal(batch, mu_perp_einsum(vdp, X))
    scalar = [cc.transverse_measure(vdp, x).mu_perp for x in X]
    assert np.array_equal(batch, scalar)


def test_mu_perp_batch_bit_exact_on_anchor_slices(vdp, vdp_cert):
    # every point of the stride-10 anchor slices of the certified tube
    # (9 offsets x 5 s-points x 6314 anchors)
    tube, traj = vdp_cert.tube, vdp_cert.trajectory
    cfg = cc.PipelineConfig()
    grids = cc.SegmentGrids(traj, tube.N1, cc.tube.N_S)
    anchors = np.append(np.arange(0, tube.N1, cfg.lambda_stride), tube.N1 - 1)
    offs = np.union1d(np.linspace(-1.0, 1.0, cc.tube.N_BALL), [0.0])
    r = tube.delta[anchors][None, :] * np.exp(
        tube.sigma[anchors][None, :] * grids.s[:, None]
    )
    t = offs[:, None, None] * r
    X0 = grids.P0[:, anchors] + t * grids.W0[:, anchors]
    X1 = grids.P1[:, anchors] + t * grids.W1[:, anchors]
    assert X0.shape == (9, 5, 6315)
    pts = np.stack([X0, X1], axis=-1)
    ref = mu_perp_einsum(vdp, pts)
    assert np.array_equal(cc.mu_perp_batch(vdp, X0, X1), ref)
    assert np.array_equal(cc.mu_perp_batch(vdp, pts), ref)


@pytest.mark.parametrize(
    "spec",
    [
        {"id": "harmonic"},
        {"id": "linear-stable", "params": {"rate": 1.0}},
        {"id": "fitzhugh-nagumo"},
    ],
)
def test_mu_perp_batch_bit_exact_random_points(spec):
    field = cc.load_system(spec)
    X = np.random.default_rng(31).uniform(-3, 3, size=(4, 500, 2))
    X = X[:, np.linalg.norm(field.f_raw(X), axis=-1).min(axis=0) > 1e-6]
    assert np.array_equal(cc.mu_perp_batch(field, X), mu_perp_einsum(field, X))


def test_planar_norm_bit_exact():
    # every pair of magnitudes 1e-160..1e160 of both signs, subnormals,
    # signed zeros, infinities and NaN, against np.linalg.norm bit for bit
    # (overflow to inf included)
    mags = 10.0 ** np.arange(-160, 161, 8)
    sub = np.array([5e-324, 1e-320, 1e-310, 2.2250738585072009e-308])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    rand = np.random.default_rng(3).standard_normal(16) * 1e5
    vals = np.concatenate([mags, -mags, sub, -sub, special, rand])
    V = np.stack(np.meshgrid(vals, vals), axis=-1).reshape(-1, 2)
    with np.errstate(over="ignore"):
        for X in (V, V.reshape(-1, 4, 2), V[::3], np.ascontiguousarray(V.T).T):
            got = cc.measures.planar_norm(X)
            ref = np.linalg.norm(X, axis=-1)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# -- slice bounds -----------------------------------------------------------


def one_segment_lambda(field, x, h, radius):
    """lambda_profile on the single segment [x, x + h f(x)] with a flat
    slice radius; returns (Lambda, grids)."""
    traj = cc.simulate(field, x, h, 1)
    grids = cc.SegmentGrids(traj, 1, cc.tube.N_S)
    lam = cc.lambda_profile(grids, np.full((grids.n_s, 1), radius), np.array([0]))
    return float(lam[0]), grids


def slice_points(grids, radius):
    """The slice samples: N_BALL transverse offsets in [-1, 1] plus the
    center, at every s-grid point of segment 0."""
    offs = np.union1d(np.linspace(-1.0, 1.0, cc.tube.N_BALL), [0.0])[:, None]
    return np.stack(
        [
            grids.P0[:, 0] + offs * radius * grids.W0[:, 0],
            grids.P1[:, 0] + offs * radius * grids.W1[:, 0],
        ],
        axis=-1,
    )


def slice_values(field, grids, radius):
    """mu_perp on the slice samples of segment 0, shaped (offsets, n_s, 1)
    as padded_extrema takes them."""
    return cc.mu_perp_batch(field, slice_points(grids, radius))[..., None]


def test_lambda_zero_radius_slice(vdp):
    x = np.array([1.8929, -0.5383])
    h = 1e-3
    lam, grids = one_segment_lambda(vdp, x, h, 0.0)
    s = np.linspace(0, h, 5)
    centers = x + s[:, None] * vdp.f_raw(x)
    direct = cc.mu_perp_batch(vdp, centers).max()
    assert lam >= direct
    assert lam == float(cc.measures.padded_extrema(slice_values(vdp, grids, 0.0))[1][0])


def test_lambda_constant_field_no_padding(linear):
    lam, grids = one_segment_lambda(linear, np.array([1.0, 0.0]), 0.01, 0.05)
    vals = slice_values(linear, grids, 0.05)
    assert lam == pytest.approx(-1.0, abs=1e-12)
    assert lam == float(cc.measures.padded_extrema(vals)[1][0])
    assert lam - vals.max() == pytest.approx(0.0, abs=1e-12)


def test_lambda_monotone_in_radius(vdp):
    x = np.array([1.0, 1.0])
    h = 1e-3
    prev = -np.inf
    for radius in (0.0, 0.05, 0.1, 0.2):
        lam, grids = one_segment_lambda(vdp, x, h, radius)
        vals = slice_values(vdp, grids, radius)
        assert lam == float(cc.measures.padded_extrema(vals)[1][0])
        mx = vals.max()  # the sampled maximum
        assert mx >= prev - 1e-12
        prev = mx


def test_lambda_dominates_all_samples(vdp):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=2)
        if np.linalg.norm(vdp.f_raw(x)) < 0.2:
            continue
        lam, grids = one_segment_lambda(vdp, x, 1e-3, 0.08)
        assert lam >= cc.mu_perp_batch(vdp, slice_points(grids, 0.08)).max()


# -- the padding rule -------------------------------------------------------


def padded_extrema_loop(vals, wrap=()):
    """padded_extrema one column of the last axis and one neighbor pair at
    a time."""
    lead = vals.shape[:-1]
    lo, hi = np.empty(vals.shape[-1]), np.empty(vals.shape[-1])
    for c in range(vals.shape[-1]):
        v = vals[..., c]
        jump = 0.0
        for idx in np.ndindex(*lead):
            for ax, n in enumerate(lead):
                if idx[ax] + 1 < n or (ax in wrap and n > 1):
                    nb = list(idx)
                    nb[ax] = (idx[ax] + 1) % n
                    jump = max(jump, abs(v[tuple(nb)] - v[idx]))
        lo[c] = v.min() - cc.measures.PAD_FACTOR * jump
        hi[c] = v.max() + cc.measures.PAD_FACTOR * jump
    return lo, hi


@pytest.mark.parametrize("shape", [(5, 4, 3), (9, 32, 1), (1, 6, 2), (7, 5)])
@pytest.mark.parametrize("wrap", [(), (1,)])
def test_padded_extrema_matches_neighbor_loop(shape, wrap):
    rng = np.random.default_rng(len(shape) * 10 + len(wrap))
    vals = rng.normal(size=shape)
    for got, ref in zip(
        cc.measures.padded_extrema(vals, wrap), padded_extrema_loop(vals, wrap)
    ):
        assert got.tobytes() == ref.tobytes()


def test_padded_extrema_counts_the_wrap_pair():
    # one radius by four angles: the largest jump is from the last angle
    # back to the first
    vals = np.array([[0.0, 1.0, 2.0, 8.0]])[..., None]
    lo, hi = cc.measures.padded_extrema(vals)
    assert (lo[0], hi[0]) == (-6.0, 14.0)
    lo, hi = cc.measures.padded_extrema(vals, wrap=(1,))
    assert (lo[0], hi[0]) == (-8.0, 16.0)


# -- growth rates -----------------------------------------------------------


def test_sigma_rate_examples():
    # the branch is the sign: contracting below zero, regularized above
    assert cc.sigma_rate(-2.0, 0.9, 1.1, 0.015) == pytest.approx(-0.9)
    assert cc.sigma_rate(1.0, 0.9, 1.1, 0.015) == pytest.approx(1.65)
    r = cc.sigma_rate(-0.01, 0.9, 1.1, 0.015)
    assert r == pytest.approx(1.5 * 1.1 * 0.015) == pytest.approx(0.02475)
    assert r > 0


def test_sigma_rate_invalid_inputs():
    with pytest.raises(InputError):
        cc.sigma_rate(1.0, -0.1, 1.0, 0.015)
    with pytest.raises(InputError):
        cc.sigma_rate(1.0, 0.9, 1.1, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="^gamma must be finite and positive"):
            cc.sigma_rate(0.1, 1.0, 1.0, bad)


def test_sigma_rate_rejects_b_below_a():
    a = np.array([0.9, 0.9, 0.9, 0.9])
    b = np.array([1.1, 0.9, 0.8, 0.7])
    with pytest.raises(InputError, match="segment 2: .* a <= b"):
        cc.sigma_rate(np.zeros(4), a, b, 0.015)


def test_sigma_rate_nan_lambda_raises():
    # the floor check is a raised error, so it holds under python -O too
    lam = np.array([-2.0, 1.0, np.nan, 0.5])
    with pytest.raises(NumericError, match="segment 2"):
        cc.sigma_rate(lam, 0.9, 1.1, 0.015)
    with pytest.raises(NumericError):
        cc.sigma_rate(np.nan, 0.9, 1.1, 0.015)


def test_sigma_rules_randomized():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        lam = rng.normal(scale=2.0)
        a = rng.uniform(0.05, 2.0)
        b = a + rng.uniform(0.0, 1.0)
        gamma = rng.uniform(1e-4, 0.5)
        sigma = float(cc.sigma_rate(lam, a, b, gamma))
        if lam < -gamma:
            assert sigma == pytest.approx(0.5 * a * lam)
            assert sigma < 0
        else:
            assert sigma == pytest.approx(1.5 * b * max(abs(lam), gamma))
            assert sigma > 0
        assert abs(sigma) >= 0.5 * gamma * a - 1e-15


def test_sigma_batch_matches_scalar():
    # one call over 200 segments equals 200 single-segment calls bit for bit
    rng = np.random.default_rng(4)
    lam = rng.normal(scale=2.0, size=200)
    a = rng.uniform(0.1, 1.0, size=200)
    b = a + rng.uniform(0, 0.5, size=200)
    batch = cc.sigma_rate(lam, a, b, 0.02)
    scalar = [float(cc.sigma_rate(l, ai, bi, 0.02)) for l, ai, bi in zip(lam, a, b)]
    assert np.allclose(batch, scalar, rtol=0, atol=0)
