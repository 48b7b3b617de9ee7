
import re
import tracemalloc

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.constants import SectionDisk
from cyclecert.errors import (
    CertificateBlockedError,
    DivergedError,
    EquilibriumProximityError,
    InputError,
    InvalidReparametrizationError,
)
from cyclecert.systems import VectorField
from conftest import escape_field
from oracles import eta_sweep_oracle, theta_dot


def box_points(lo, hi, n):
    """The n x n grid of the square [lo, hi]^2 as an (n*n, 2) point array."""
    axis = np.linspace(lo, hi, n)
    return np.stack([m.ravel() for m in np.meshgrid(axis, axis)], axis=-1)


def test_lipschitz_trivials(linear, harmonic):
    box = box_points(-2.0, 2.0, 5)
    assert cc.estimate_lipschitz(linear, box) == pytest.approx(1.0)
    assert cc.estimate_lipschitz(harmonic, box) == pytest.approx(1.0)


def test_lipschitz_vdp_tube_region(vdp_cert):
    # the pipeline's growth constant over the reference tube
    assert vdp_cert.constants.L == pytest.approx(1.516, rel=0.05)



def matrix_field(mats):
    """A planar field whose Jacobian at the m points of a batch is the
    (m, 2, 2) batch ``mats``."""
    return VectorField(
        name="matrices",
        params={},
        rhs=lambda x: x,
        jacobian=lambda x: mats,
        rhs_scalar2=lambda u1, u2: (u1, u2),
    )


def spectral_family(kind, rng):
    """2x2 matrices whose spectral radius is at or near 2."""
    k = np.arange(40)
    if kind == "near-defective":
        # [[a, b], [1e-12, a + 1e-9]], and the defective [[a, 1], [0, a]]
        a = np.concatenate([2.0 + 1e-9 * k, -2.0 - 1e-9 * k])
        J = np.zeros((a.size, 2, 2))
        J[:, 0, 0], J[:, 0, 1] = a, rng.uniform(-1.0, 1.0, a.size)
        J[:, 1, 0], J[:, 1, 1] = 1e-12, a + 1e-9
        D = np.zeros((a.size, 2, 2))
        D[:, 0, 0] = D[:, 1, 1] = a
        D[:, 0, 1] = 1.0
        return np.concatenate([J, D])
    if kind == "misordered":
        # near-defective, radii within 1e-8 of each other: the closed form
        # is off by up to 3e-8 and orders them otherwise than LAPACK does
        E = np.zeros((400, 2, 2))
        E[:, 0, 0] = 2.0 + rng.uniform(-1e-9, 1e-9, 400)
        E[:, 1, 1] = E[:, 0, 0] + rng.uniform(-1e-9, 1e-9, 400)
        E[:, 0, 1] = rng.uniform(0.5, 1.5, 400)
        E[:, 1, 0] = rng.uniform(0.0, 1e-16, 400)
        return E
    if kind == "rotation":
        # r times a rotation by theta: a complex pair of modulus r
        r, th = 2.0 + 1e-9 * k, rng.uniform(0.0, 2.0 * np.pi, k.size)
        c, s = r * np.cos(th), r * np.sin(th)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    # ties: copies of one matrix, and different matrices of radius 2
    one = np.repeat([[[2.0, 0.3], [0.0, -1.0]]], 5, axis=0)
    th = np.pi / 3
    rot = 2.0 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return np.concatenate([one, [np.diag([2.0, -2.0]), 2.0 * np.eye(2), rot]])


def indexed_matrix_field(mats):
    """A planar field whose Jacobian at the point (k, 0) is ``mats[k]``."""
    return VectorField(
        name="matrices",
        params={},
        rhs=lambda x: x,
        jacobian=lambda x: mats[x[..., 0].astype(np.int64)],
        rhs_scalar2=lambda u1, u2: (u1, u2),
    )


def eigvals_sizes(monkeypatch):
    """The batch sizes np.linalg.eigvals is called with from now on."""
    sizes, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(
        np.linalg, "eigvals", lambda J: sizes.append(len(J)) or eigvals(J)
    )
    return sizes


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("kind", ["near-defective", "misordered", "rotation", "ties"])
def test_lipschitz_filter_matches_full_eigvals(kind, scale):
    # the closed-form filter keeps the matrix LAPACK finds largest: L is
    # the value of eigvals over the whole batch, bit for bit
    rng = np.random.default_rng(11)
    background = rng.uniform(-0.9, 0.9, (2000, 2, 2))  # radius < 1.8
    family = spectral_family(kind, rng)
    J = scale * np.concatenate([background, family])
    J = J[rng.permutation(len(J))]
    ref = float(np.abs(np.linalg.eigvals(J)).max())
    got = cc.estimate_lipschitz(matrix_field(J), np.zeros((len(J), 2)))
    assert got.hex() == ref.hex()
    if scale == 1.0:
        # no background matrix reaches LAPACK
        assert len(cc.constants._spectral_radius_candidates(J)) <= len(family)


@pytest.mark.parametrize("block", [7, 97, 1024])
@pytest.mark.parametrize("kind", ["near-defective", "misordered", "rotation", "ties"])
def test_lipschitz_blocks_match_full_eigvals(kind, block, monkeypatch):
    # blocks of 7, 97 and 1024 points: each block's filter keeps the matrix
    # LAPACK finds largest however the family falls across blocks, also
    # next to a block whose large-entry matrix widens its margin
    rng = np.random.default_rng(13)
    background = rng.uniform(-0.9, 0.9, (2000, 2, 2))
    J = np.concatenate([background, spectral_family(kind, rng)])
    J = J[rng.permutation(len(J))]
    J[-5] = [[0.0, 1e3], [0.0, 0.0]]  # radius 0, max|J| 1e3
    ref = float(np.abs(np.linalg.eigvals(J)).max())
    monkeypatch.setattr(cc.constants, "LIPSCHITZ_BLOCK", block)
    pts = np.stack([np.arange(len(J)), np.zeros(len(J))], axis=-1)
    sizes = eigvals_sizes(monkeypatch)
    got = cc.estimate_lipschitz(indexed_matrix_field(J), pts)
    assert got.hex() == ref.hex()
    assert sizes[0] < len(J)


def test_lipschitz_filter_vdp_tube_samples(vdp, vdp_cert):
    pts = cc.tube._collect_tube_samples(
        vdp_cert.tube,
        extra_radius=cc.tube.REGION_MARGIN * vdp_cert.delta0, use_delta=False,
    )
    ref = float(np.abs(np.linalg.eigvals(vdp.jac_raw(pts))).max())
    assert cc.estimate_lipschitz(vdp, pts) == ref == vdp_cert.constants.L


def test_lipschitz_memory(vdp, vdp_cert):
    # the Jacobians of the 252,600 segment samples are taken in blocks: the
    # estimate peaks under 6 MiB, where the whole (m, 2, 2) stack and its
    # absolute values peaked at 23 MiB
    pts = cc.tube._collect_tube_samples(
        vdp_cert.tube,
        extra_radius=cc.tube.REGION_MARGIN * vdp_cert.delta0, use_delta=False,
    )
    assert len(pts) == 252600
    tracemalloc.start()
    try:
        L = cc.estimate_lipschitz(vdp, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L == vdp_cert.constants.L
    assert peak < 6 * 2**20


def test_lipschitz_filter_non_finite_falls_back():
    J = np.random.default_rng(12).uniform(-1.0, 1.0, (50, 2, 2))
    # a finite batch whose closed form overflows takes the full call
    big = J.copy()
    big[7] = 1e200
    ref = float(np.abs(np.linalg.eigvals(big)).max())
    assert cc.estimate_lipschitz(matrix_field(big), np.zeros((50, 2))) == ref
    # a non-finite entry fails as eigvals fails on the whole batch
    for bad in (np.nan, np.inf, -np.inf):
        J_bad = J.copy()
        J_bad[13, 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvals(J_bad)
        with pytest.raises(np.linalg.LinAlgError):
            cc.estimate_lipschitz(matrix_field(J_bad), np.zeros((50, 2)))

def test_speed_bounds_box(linear):
    m, M = cc.estimate_speed_bounds(linear, box_points(1.0, 2.0, 21))
    assert m == pytest.approx(np.sqrt(2.0))
    assert M == pytest.approx(2.0 * np.sqrt(2.0))


def test_speed_bounds_harmonic_circle(harmonic):
    angles = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    m, M = cc.estimate_speed_bounds(harmonic, circle)
    assert m == pytest.approx(1.0) and M == pytest.approx(1.0)


def test_speed_bounds_vdp_magnitudes(vdp, vdp_cert):
    # honest field magnitude over the loop, with its own dense oracle
    traj = vdp_cert.trajectory
    N1 = vdp_cert.N1
    speeds = np.linalg.norm(vdp.f_raw(traj.nodes[:N1]), axis=1)
    m, M = cc.estimate_speed_bounds(vdp, traj.nodes[:N1])
    assert M == pytest.approx(speeds.max(), rel=1e-12)
    # the pipeline's magnitude constants use the state-norm convention and
    # land at the reference value
    assert vdp_cert.constants.M_f == pytest.approx(2.22, rel=0.05)
    assert float(vdp_cert.tube.m_tilde.max()) == pytest.approx(2.22, rel=0.05)


def test_speed_bounds_equilibrium_flag(linear):
    with pytest.raises(EquilibriumProximityError):
        # the grid hits the origin
        cc.estimate_speed_bounds(linear, box_points(-1.0, 1.0, 21))


def test_grid_refinement_monotonicity(vdp):
    coarse, fine = box_points(-2.0, 2.0, 21), box_points(-2.0, 2.0, 41)
    L1 = cc.estimate_lipschitz(vdp, coarse)
    L2 = cc.estimate_lipschitz(vdp, fine)
    assert L2 >= L1 - 1e-12
    m1, M1 = cc.estimate_magnitude_bounds(coarse)
    m2, M2 = cc.estimate_magnitude_bounds(fine)
    assert M2 >= M1 - 1e-12 and m2 <= m1 + 1e-12


# -- theta_dot ---------------------------------------------------------------


def test_theta_dot_on_trajectory_is_one(vdp):
    x = np.array([1.8929, -0.5383])
    assert theta_dot(vdp, x, 0.0, x) == pytest.approx(1.0, abs=1e-14)


def test_theta_dot_linear_radial(linear):
    x = np.array([1.0, 0.0])
    # transverse offset at s=0: xi on the section through x
    xi = np.array([1.0, 1e-3])
    assert theta_dot(linear, x, 0.0, xi) == pytest.approx(1.0, abs=1e-12)
    # at s > 0 the exact radial flow gives 1/(1-s)
    s = 0.05
    c = x + s * linear.f_raw(x)
    w = np.array([0.0, 1.0])
    assert theta_dot(linear, x, s, c + 1e-3 * w) == pytest.approx(
        1.0 / (1.0 - s), abs=1e-9
    )


def continued_theta(field, x_i, y_i, s_grid, refine=4000):
    """Independent oracle: continue the synchronized time along a fine-step
    reference and read theta(s) off by bisection on the dense output."""
    h = s_grid[-1]
    f_i = field.f_raw(x_i)
    horizon = 3.0 * h + 10 * h
    ref = cc.simulate(field, y_i, h / refine, int(np.ceil(horizon / (h / refine))))
    thetas = []
    theta_prev = 0.0
    for s in s_grid:
        c = x_i + s * f_i
        n = field.f_raw(c)
        lo = theta_prev
        hi = min(theta_prev + 3.0 * h + 5 * h / refine, ref.horizon)
        glo = (ref.dense_point(lo) - c) @ n
        # expand until bracketed
        t = lo
        step = h / refine
        while t < hi and ((ref.dense_point(t) - c) @ n) < 0:
            t += step
        hi_b = t
        lo_b = max(lo, t - step)
        for _ in range(80):
            mid = 0.5 * (lo_b + hi_b)
            if ((ref.dense_point(mid) - c) @ n) < 0:
                lo_b = mid
            else:
                hi_b = mid
        thetas.append(0.5 * (lo_b + hi_b))
        theta_prev = thetas[-1]
    return np.array(thetas)


@pytest.mark.parametrize("system", ["vanderpol", "harmonic", "linear-stable"])
def test_theta_dot_matches_finite_differences(system):
    # |closed form - FD of a numerically continued theta| <= 1e-4 (1 + |td|)
    field = cc.load_system(
        {"id": system, "params": {"p": 0.3} if system == "vanderpol" else {}}
    )
    rng = np.random.default_rng(hash(system) % 2 ** 31)
    h = 1e-3
    s_grid = np.linspace(0.0, h, 9)
    checked = 0
    while checked < 34:
        x_i = rng.uniform(-2, 2, size=2)
        f_i = field.f_raw(x_i)
        nf = np.linalg.norm(f_i)
        if nf < 0.3:
            continue
        w = np.array([-f_i[1], f_i[0]]) / nf
        y_i = x_i + rng.uniform(-0.05, 0.05) * w
        thetas = continued_theta(field, x_i, y_i, s_grid)
        fd = np.gradient(thetas, s_grid)
        for k in (2, 4, 6):  # interior points, away from one-sided stencils
            s = s_grid[k]
            c = x_i + s * f_i
            xi = cc.ReferenceSolution.compute(
                field, y_i, h, 4 * h, refine=4000
            ).traj.dense_point(thetas[k])
            td = theta_dot(field, x_i, s, xi)
            assert abs(td - fd[k]) <= 1e-4 * (1.0 + abs(td)) + 2e-3 * h
        checked += 1


# -- phase-rate bounds (tube.ab_profile) -------------------------------------


def segment_ab(field, traj, i, radius):
    """ab_profile's (a_i, b_i) with a flat slice radius on every segment."""
    grids = cc.SegmentGrids(traj, i + 1, cc.tube.N_S)
    radii = np.full((grids.n_s, i + 1), radius)
    a, b = cc.ab_profile(grids, radii, np.arange(i + 1))
    return float(a[i]), float(b[i])


def test_estimate_ab_zero_profile(vdp):
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 10)
    a, b = segment_ab(vdp, traj, 0, 0.0)
    assert a == pytest.approx(1.0, abs=5e-4)
    assert b == pytest.approx(1.0, abs=5e-4)
    assert a <= 1.0 <= b


def test_estimate_ab_linear_field(linear):
    traj = cc.simulate(linear, [1.0, 0.0], 1e-2, 10)
    for delta in (0.0, 0.05, 0.2):
        a, b = segment_ab(linear, traj, 0, delta)
        # exact radial rate is 1/(1-s) on s in [0, h]
        assert a == pytest.approx(1.0, abs=3 * 1e-2)
        assert b == pytest.approx(1.0, abs=3 * 1e-2)


def test_estimate_ab_brackets_grid(vdp):
    # (a, b) bracket the scalar closed form on the sampled grid: 5 s-points
    # and 5 transverse offsets up to the slice radius 0.1
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 10)
    a, b = segment_ab(vdp, traj, 3, 0.1)
    x_i = traj.nodes[3]
    vals = []
    for s in np.linspace(0.0, traj.h, 5):
        c = x_i + s * vdp.f_raw(x_i)
        fc = vdp.f_raw(c)
        w = np.array([-fc[1], fc[0]]) / np.linalg.norm(fc)
        for o in np.linspace(-1.0, 1.0, 5):
            vals.append(theta_dot(vdp, x_i, s, c + o * 0.1 * w))
    assert a <= min(vals) and b >= max(vals)
    assert a > 0


def test_estimate_ab_invalid_at_huge_radius(vdp):
    traj = cc.simulate(vdp, [1.8929, -0.5383], 1e-4, 10)
    with pytest.raises(InvalidReparametrizationError):
        segment_ab(vdp, traj, 0, 50.0)


# -- estimate_eta ------------------------------------------------------------
#
# The sampled h/10 return-time sweep is ``oracles.eta_sweep_oracle``; the
# tests of sampled return times run on it.


def test_estimate_eta_harmonic(harmonic):
    anchor = np.array([1.0, 0.0])
    disk = SectionDisk(anchor, 0.05, harmonic.f_raw(anchor))
    est = eta_sweep_oracle(harmonic, disk, 8, h=1e-3, horizon=10.0, refine=10)
    # the circle flow has period 2*pi independent of the start point
    assert est.T_lo == pytest.approx(2 * np.pi, abs=0.02)
    assert est.T_hi == pytest.approx(2 * np.pi, abs=0.02)
    assert est.eta == pytest.approx(np.pi, abs=0.01)


def test_estimate_eta_degenerate_disk(harmonic):
    anchor = np.array([1.0, 0.0])
    disk = SectionDisk(anchor, 0.0, harmonic.f_raw(anchor))
    est = eta_sweep_oracle(harmonic, disk, 1, h=1e-3, horizon=10.0, refine=10)
    assert est.eta == pytest.approx(0.5 * est.T_lo)
    assert est.T_lo == est.T_hi


def test_estimate_eta_vdp(vdp_cert):
    est = eta_sweep_oracle(
        vdp_cert.trajectory.field,
        vdp_cert.tube.y0_disk,
        vdp_cert.eta.n_samples,
        vdp_cert.h,
        horizon=min(10.0, 2.5 * vdp_cert.R1),
        refine=10,
    )
    assert est.eta == pytest.approx(3.16, abs=0.05)
    assert 6.25 <= est.T_lo <= est.T_hi <= 6.40
    assert est.R_prime >= est.T_lo
    # the production R' is the oracle's step-h sweep, bit for bit
    assert vdp_cert.eta.R_prime == est.R_prime


def test_estimate_eta_blocking(linear):
    anchor = np.array([1.0, 0.0])
    disk = SectionDisk(anchor, 0.05, linear.f_raw(anchor))
    runs = [cc.Run(linear, z, 1e-2) for z in disk.sweep_points(4)]
    with pytest.raises(CertificateBlockedError):
        cc.return_time_sweep(runs, disk, horizon=5.0)


# (system, x0, h, delta0, gamma, horizon) of the tubes the interval is
# checked on; only the Van der Pol run is certified.  The harmonic run
# holds the step condition but not the inclusion, the FitzHugh-Nagumo run
# neither: the check is on the interval's numbers, which the tube gives
# whether or not the certificate holds.
INTERVAL_RUNS = {
    "fitzhugh-nagumo": (
        {"id": "fitzhugh-nagumo"}, (1.833419474496068, 0.3354878852385902),
        4e-3, 0.05, 0.05, 60.0,
    ),
    "harmonic": ({"id": "harmonic"}, (1.0, 0.0), 5e-4, 0.02, 0.1, 10.0),
}


@pytest.mark.parametrize("name", ["vanderpol", "fitzhugh-nagumo", "harmonic"])
def test_tube_interval_contains_sampled_returns(name, vdp_cert):
    # 64 first returns at h/10 from the initial disk lie in [T_lo, T_hi]
    if name == "vanderpol":
        cert, horizon = vdp_cert, 10.0
    else:
        spec, x0, h, delta0, gamma, horizon = INTERVAL_RUNS[name]
        cert = cc.certify_existence(
            cc.load_system(spec), x0, h, delta0, gamma, horizon=horizon
        )
    eta = cert.eta
    assert eta.established and eta.eta > 0.0
    if name != "fitzhugh-nagumo":
        assert cert.step_condition.holds
    oracle = eta_sweep_oracle(
        cert.trajectory.field,
        cert.tube.y0_disk,
        64,
        cert.h,
        horizon=min(horizon, 2.5 * cert.R1),
        refine=10,
    )
    times = oracle.flow_times
    assert times.size == 64
    assert eta.T_lo <= times.min() and times.max() <= eta.T_hi, (
        eta.T_lo, times.min(), times.max(), eta.T_hi
    )


def test_estimate_eta_sums_follow_phase_rates(vdp_cert):
    tube = vdp_cert.tube
    last = tube.R1 - (tube.N1 - 1) * tube.h
    eta = vdp_cert.eta
    assert eta.sum_lo == pytest.approx(
        tube.h * np.sum(1.0 / tube.b_seg[:-1]) + last / tube.b_seg[-1], rel=1e-12
    )
    assert eta.sum_hi == pytest.approx(
        tube.h * np.sum(1.0 / tube.a_seg[:-1]) + last / tube.a_seg[-1], rel=1e-12
    )
    # rho is the inclusion check's lhs, and the ball covers the drift
    assert eta.rho == vdp_cert.inclusion.lhs
    assert eta.rho + eta.e * eta.f_max <= eta.ball_radius


def test_eta_speed_bounds_dominate_denser_ball(vdp, vdp_cert):
    # v and f_max, padded from the 9 x 32 polar grid of the ball, bound
    # f.n0 from below and |f| from above on a 4x denser grid of it
    eta, disk = vdp_cert.eta, vdp_cert.tube.y0_disk
    n0 = disk.normal / np.linalg.norm(disk.normal)
    r = eta.ball_radius * np.linspace(0.0, 1.0, 33)
    phi = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    ring = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    F = vdp.f_raw(disk.center + r[:, None, None] * ring[None, :, :])
    assert eta.v <= (F @ n0).min()
    assert eta.f_max >= np.linalg.norm(F, axis=-1).max()


@pytest.mark.parametrize(
    "rho, why",
    [
        # a ball of radius 15 around x0 holds points where f.n0 < 0
        (5.0, "no speed floor"),
        # |f| grows with rho while v shrinks: the ball of radius 0.9
        # cannot hold rho + e * f_max
        (0.3, "ball too small"),
    ],
)
def test_estimate_eta_not_established(vdp, vdp_cert, rho, why):
    disk = vdp_cert.tube.y0_disk
    runs = [
        cc.Run(vdp, z, vdp_cert.h)
        for z in disk.sweep_points(vdp_cert.eta.n_samples)
    ]
    eta = cc.estimate_eta(vdp_cert.tube, rho, 10.0, runs)
    if why == "no speed floor":
        assert eta.v <= 0.0
    else:
        assert eta.v > 0.0 and rho + rho / eta.v * eta.f_max > eta.ball_radius
    assert not eta.established
    assert eta.T_lo == -np.inf and eta.T_hi == np.inf and not eta.eta > 0.0
    assert eta.R_prime == vdp_cert.eta.R_prime


def _escape_inline(mode):
    """:func:`conftest.escape_field` as an inline spec, whose Piecewise
    rhs_scalar2 steps on plain floats only."""
    out = "x1**2" if mode == "blowup" else "1"
    return cc.load_system(
        {
            "name": f"escape-{mode}",
            "rhs": [
                f"Piecewise((x2, x1 < 1.03), ({out}, True))",
                "Piecewise((-x1, x1 < 1.03), (0, True))",
            ],
        }
    )


@pytest.mark.parametrize("handwritten", [True, False])
@pytest.mark.parametrize("mode", ["drift", "blowup"])
def test_estimate_eta_blocking_names_sample(mode, handwritten):
    # the sample at u1 = 1.05 escapes; the other two return near 2*pi.  It
    # drifts off and never returns, or blows up: the error says which, with
    # the step a diverged run failed at
    field = escape_field(mode) if handwritten else _escape_inline(mode)
    anchor = np.array([1.0, 0.0])
    disk = SectionDisk(anchor, 0.05, field.f_raw(anchor))
    pts = disk.sweep_points(3)
    runs = [cc.Run(field, z, 1e-3) for z in pts]
    bad = int(np.argmax(pts[:, 0]))
    assert bad != 0 and pts[bad, 0] > 1.03
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CertificateBlockedError) as err:
            cc.return_time_sweep(runs, disk, horizon=8.0)
        if mode == "blowup":
            with pytest.raises(DivergedError) as run:
                cc.simulate(field, pts[bad], 1e-3, 8000)
    assert f"sample {bad} at {pts[bad].tolist()}" in str(err.value)
    if mode == "drift":
        assert str(err.value).endswith("did not return within horizon 8")
    else:
        assert str(err.value).endswith(
            f"diverged at step {run.value.first_bad_index}"
        )


def test_empty_return_sweep_is_an_input_error(harmonic):
    # no run to read the step from: an InputError naming runs, not an
    # IndexError from runs[0]
    anchor = np.array([1.0, 0.0])
    disk = SectionDisk(anchor, 0.05, harmonic.f_raw(anchor))
    section = cc.Section(disk.center, disk.normal)
    with pytest.raises(InputError, match=r"^len\(runs\) must be"):
        cc.batch_first_return([], 8.0, section, cc.default_exclusion(1e-3, 0.05))
    with pytest.raises(InputError, match=r"^len\(runs\) must be"):
        cc.return_time_sweep([], disk, 8.0)


X0 = np.array([1.8929, -0.5383])


@pytest.mark.parametrize(
    "name,call",
    [
        pytest.param(
            "len(h_list)",
            lambda f: cc.error_curve_experiment(f, X0, X0, [], 5.0, 0.1, 0.015),
            id="empty-h-list",
        ),
        pytest.param("n", lambda f: cc.Run(f, X0, 1e-3).extend(5).extend(-3),
                     id="negative-extend"),
        pytest.param(
            "radius",
            lambda f: SectionDisk(X0, -1.0, f.f_raw(X0)).sweep_points(3),
            id="negative-disk-radius",
        ),
        pytest.param("|normal|", lambda f: SectionDisk(X0, 0.1, (0.0, 0.0)),
                     id="zero-disk-normal"),
        pytest.param("n", lambda f: cc.Run(f, X0, 1e-3).extend(10**400),
                     id="count-beyond-float-range"),
    ],
)
def test_library_inputs_are_refused_by_name(vdp, name, call):
    # an empty step list, a negative step count, a negative disk radius, a
    # zero disk normal and a count no float holds are InputErrors naming
    # the argument, not a max() error, a run cut short, a mirrored disk, NaN
    # sweep points or an OverflowError
    refused = f"^{re.escape(name)} must be finite and positive"
    with pytest.raises(InputError, match=refused):
        call(vdp)
    run = cc.Run(vdp, X0, 1e-3).extend(5)
    assert run.extend(0).end == 5  # extending by nothing stays a no-op


def test_global_constants_validation(vdp_cert):
    c = vdp_cert.constants
    c.validate()
    assert 0 < c.m <= c.M_C <= c.M_f
    assert 0 < c.a <= c.b
    assert 0 < c.eta <= c.T_lo <= c.T_hi
