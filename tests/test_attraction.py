import dataclasses

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.config import PipelineConfig
from cyclecert.errors import CertificateBlockedError, InputError
from cyclecert.verdict import radius_excess

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_H, VDP_X0, force_rate


@pytest.fixture(scope="module")
def vdp_attraction(vdp, vdp_cert):
    cert = cc.certify_attraction(vdp_cert, reference_d=-0.34)
    assert cert.certified, cert.failure
    return cert


def test_exponent_linearity(vdp):
    exp = cc.contraction_exponent(
        cc.Run(vdp, VDP_X0, 1e-3), VDP_GAMMA, VDP_DELTA0, PipelineConfig(), horizon=10.0
    )
    # K(z, h) - K(z, 0) = h * sigma_{N1} exactly (as represented)
    assert exp.Kh == exp.K0 + exp.h * exp.sigma_last
    assert exp.Kh - exp.K0 == pytest.approx(exp.h * exp.sigma_last, rel=1e-12)
    assert exp.K_max == max(exp.K0, exp.Kh)


def test_exponent_consistent_with_tube(vdp, vdp_cert):
    # same rate chain: K at the in-segment return offset equals the log of
    # the tube contraction ratio
    exp = cc.contraction_exponent(
        cc.Run(vdp, VDP_X0, VDP_H), VDP_GAMMA, VDP_DELTA0, PipelineConfig(), horizon=10.0
    )
    tube = vdp_cert.tube
    s_star = tube.R1 - (tube.N1 - 1) * tube.h
    lhs = exp.K0 + s_star * exp.sigma_last
    rhs = np.log(tube.delta_at(tube.R1) / tube.delta0)
    assert abs(lhs - rhs) <= 1e-10


def test_exponent_forced_constant_rate(vdp, monkeypatch):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 7000)
    section = cc.Section.through(vdp, traj.nodes[0])
    R1, N1, _ = cc.return_times(
        traj, section, 1, cc.default_exclusion(1e-3, 0.1)
    ).first()
    c = -0.7
    force_rate(monkeypatch, c)
    tube = cc.build_tube(traj, R1, N1, 0.1, 0.015)
    K0 = 1e-3 * c * (N1 - 1)
    assert float(1e-3 * tube.sigma[: N1 - 1].sum()) == pytest.approx(K0)
    assert np.log(tube.delta[N1] / 0.1) == pytest.approx(c * N1 * 1e-3, rel=1e-12)


def test_exponent_no_return_blocks(linear):
    with pytest.raises(CertificateBlockedError):
        cc.contraction_exponent(
            cc.Run(linear, (1.0, 0.0), 1e-2), 0.015, 0.1, PipelineConfig(), horizon=5.0
        )


def test_harmonic_gamma_floor_not_certifiable(harmonic):
    # neutral circle flow: transverse measure 0, the floor forces positive
    # rates, so the loop exponent is positive and certification must refuse
    exp = cc.contraction_exponent(
        cc.Run(harmonic, (1.0, 0.0), 1e-3), 0.015, 0.05, PipelineConfig(), horizon=10.0
    )
    assert exp.K_max > 0.0
    assert exp.K_max == pytest.approx(1.5 * 0.015 * 2 * np.pi, rel=0.05)


def test_sweep_single_sample_is_center(vdp):
    cfg = PipelineConfig(lambda_stride=50, sweep_samples=1)
    existence = cc.certify_existence(
        vdp, VDP_X0, 1e-3, VDP_DELTA0, VDP_GAMMA, cfg, horizon=10.0
    )
    sweep = cc.sweep_Y0(existence)
    solo = cc.contraction_exponent(
        cc.Run(vdp, VDP_X0, 1e-3), VDP_GAMMA, VDP_DELTA0, cfg, horizon=10.0
    )
    assert sweep.d == pytest.approx(solo.K_max)


def test_sweep_monotone_in_samples(vdp):
    d = {}
    for n in (3, 5):
        cfg = PipelineConfig(lambda_stride=50, sweep_samples=n)
        existence = cc.certify_existence(
            vdp, VDP_X0, 2e-3, VDP_DELTA0, VDP_GAMMA, cfg, horizon=10.0
        )
        d[n] = cc.sweep_Y0(existence).d
    # the 5-point grid contains the 3-point grid
    assert d[5] >= d[3] - 1e-15


def test_unstable_focus_sweep_positive():
    field = cc.load_system({"id": "unstable-focus", "params": {"growth": 0.05}})
    exp = cc.contraction_exponent(
        cc.Run(field, (1.0, 0.0), 2e-4), 0.015, 0.1, PipelineConfig(), horizon=20.0
    )
    assert exp.K_max > 0.0


def test_compute_D_values():
    # direct arithmetic on the error-floor formula
    D = cc.compute_D(2.22, 1.516, 0.015, 0.9, 1.1)
    assert D == pytest.approx(2.22 * (2 * 1.516 / (0.015 * 0.9) + 2.1), rel=1e-12)
    assert D == pytest.approx(503.26, abs=0.05)
    # degenerate constant field: only the b + 1 term remains
    assert cc.compute_D(2.0, 0.0, 0.015, 0.9, 1.1) == pytest.approx(2.0 * 2.1)
    # doubling gamma shrinks the dominant term
    assert cc.compute_D(2.22, 1.516, 0.03, 0.9, 1.1) < D
    with pytest.raises(InputError):
        cc.compute_D(2.22, 1.516, 0.015, 0.0, 1.1)
    with pytest.raises(InputError):
        cc.compute_D(2.22, 1.516, -1.0, 0.9, 1.1)
    # NaN and the infinities are refused too, for gamma and for a
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="^gamma must be finite and positive"):
            cc.compute_D(2.22, 1.516, bad, 0.9, 1.1)
        with pytest.raises(InputError, match="^phase-rate lower bound a must be"):
            cc.compute_D(2.22, 1.516, 0.015, bad, 1.1)


def test_integral_harmonic_zero(harmonic):
    traj = cc.simulate(harmonic, [1.0, 0.0], 1e-3, 6300)
    chk = cc.integral_criterion(traj, 0.015, period=2 * np.pi)
    assert chk.value == pytest.approx(0.0, abs=1e-12)


def test_integral_constant_negative(linear):
    # mu_perp = -1 everywhere, below gamma: weight 1/2, integral = -T/2
    T = 2.0
    traj = cc.simulate(linear, [1.0, 0.0], 1e-3, 2000)
    chk = cc.integral_criterion(traj, 0.015, period=T)
    assert chk.value == pytest.approx(-T / 2, rel=1e-6)


def test_integral_vdp_negative(vdp_attraction):
    assert vdp_attraction.integral.value < 0.0


def test_integral_from_certified_trajectory(vdp_cert, vdp_attraction):
    # the loop integral runs over the existence trajectory's first loop:
    # period R1, trapezoid nodes 0..floor(R1/h), which is N1 nodes
    chk = vdp_attraction.integral
    assert chk.period == vdp_cert.R1
    assert chk.n_samples == vdp_cert.N1


def test_attraction_requires_certified_existence(vdp, linear):
    failed = cc.certify_existence(
        linear, (1.0, 0.0), 1e-2, 0.1, 0.015, PipelineConfig(), horizon=5.0
    )
    with pytest.raises(InputError, match="requires a certified"):
        cc.certify_attraction(failed)


def test_attraction_vdp_certificate(vdp_attraction, vdp_cert):
    cert = vdp_attraction
    assert cert.d <= -0.30
    assert cert.sample_count == 11
    assert all(e.K_max <= cert.d + 1e-15 for e in cert.exponents)
    assert cert.D == pytest.approx(
        cc.compute_D(
            vdp_cert.constants.M_C,
            vdp_cert.constants.L,
            VDP_GAMMA,
            vdp_cert.constants.a,
            vdp_cert.constants.b,
        )
    )
    doc = cert.to_dict()
    assert doc["verdict"] == "certified"
    assert len(doc["samples"]) == 11
    assert doc["integral"]["four_d"] == pytest.approx(4 * cert.d)
    assert doc["reference_d"] == -0.34
    assert doc["reference_gap"] == pytest.approx(cert.d + 0.34)
    import jsonschema

    from cyclecert.output import load_schema

    jsonschema.validate(doc, load_schema("attraction_certificate.schema.json"))


def test_harmonic_attraction_refused(harmonic):
    # existence already fails for the neutral flow (tube radius grows under
    # the floor), so the basin stage refuses its precondition
    cert = cc.certify_existence(
        harmonic, (1.0, 0.0), 1e-3, 0.05, 0.015, PipelineConfig(), horizon=10.0
    )
    assert not cert.certified
    with pytest.raises(InputError):
        cc.certify_attraction(cert)


def test_certified_implies_empirical_attraction(vdp, vdp_cert):
    # surrogate check of convergence: per-period distance to a settled
    # reference orbit strictly decreases for initial-disk starts.  Query and
    # orbit use the same fine step so both approach the same discrete cycle,
    # and the distance goes to the orbit polyline, not just its nodes;
    # otherwise step-size mismatch puts a floor under the distances.  The
    # distances are read once per loop period R1; the orbit spans T_hi, an
    # upper bound on the return time, so it holds the whole closed loop.
    T = vdp_cert.R1
    h_fine = VDP_H / 5
    settle = cc.simulate(vdp, VDP_X0, h_fine, int(10 * T / h_fine))
    orbit = settle.nodes[-int(vdp_cert.eta.T_hi / h_fine) :]
    A = orbit[:-1]
    seg = orbit[1:] - A
    seg_len2 = (seg ** 2).sum(axis=1)

    def dist_to_orbit(p):
        t = np.clip(((p - A) * seg).sum(axis=1) / seg_len2, 0.0, 1.0)
        proj = A + t[:, None] * seg
        return float(np.sqrt(((proj - p) ** 2).sum(axis=1)).min())

    disk = vdp_cert.tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    rng = np.random.default_rng(31)
    # magnitudes bounded away from zero so the start is visibly off-cycle
    u = rng.uniform(0.5, 1.0, size=10) * rng.choice([-1.0, 1.0], size=10)
    for uk in u:
        y0 = disk.center + uk * disk.radius * w
        traj = cc.simulate(vdp, y0, h_fine, int(5 * T / h_fine))
        dists = [
            dist_to_orbit(traj.dense_point(min(p * T, traj.horizon)))
            for p in range(1, 6)
        ]
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:])), dists


# -- the disk sweep and the existence tube -----------------------------------

COARSE_H = 2e-3
COARSE_CFG = PipelineConfig(lambda_stride=10)


@pytest.fixture(scope="module")
def coarse_existence(vdp):
    # a tube a certificate would accept; at this step it fails only eq_h
    cert = cc.certify_existence(
        vdp, VDP_X0, COARSE_H, VDP_DELTA0, VDP_GAMMA, COARSE_CFG, horizon=10.0
    )
    tube = cert.tube
    assert tube is not None and radius_excess(tube.delta, tube.sampled_radius) is None
    return cert


@pytest.fixture(scope="module")
def coarse_existences(vdp, coarse_existence):
    """The coarse certificate with ``sweep_samples`` n, certified once per n."""
    made = {COARSE_CFG.sweep_samples: coarse_existence}

    def existence(n):
        if n not in made:
            cfg = dataclasses.replace(COARSE_CFG, sweep_samples=n)
            made[n] = cc.certify_existence(
                vdp, VDP_X0, COARSE_H, VDP_DELTA0, VDP_GAMMA, cfg, horizon=10.0
            )
        return made[n]

    return existence


def exponent_fields(e):
    return (e.z.tobytes(), e.K0, e.Kh, e.N1, e.R1, e.sigma_last, e.h)


def counted_builds(monkeypatch):
    """Count the sweep's tube builds through attraction's binding."""
    calls = []
    build = cc.attraction.build_tube

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(cc.attraction, "build_tube", counting)
    return calls


def coarse_sweep(existence):
    sweep = cc.sweep_Y0(existence)
    n = existence.config.sweep_samples
    assert [e.radius_excess for e in sweep.exponents] == [None] * n
    return sweep


def test_sweep_reuses_existence_tube_at_center(vdp, coarse_existence, monkeypatch):
    calls = counted_builds(monkeypatch)
    reused = coarse_sweep(coarse_existence)
    assert len(calls) == 10
    assert len(reused.exponents) == 11
    built = [
        cc.contraction_exponent(
            cc.Run(vdp, z, COARSE_H), VDP_GAMMA, VDP_DELTA0, COARSE_CFG, horizon=10.0
        )
        for z in coarse_existence.tube.y0_disk.sweep_points(11)
    ]
    assert len(calls) == 21
    assert [e.radius_excess for e in built] == [None] * 11
    assert [exponent_fields(e) for e in reused.exponents] == [
        exponent_fields(e) for e in built
    ]
    assert reused.d == max(e.K_max for e in built)
    fresh = cc.contraction_exponent(
        cc.Run(vdp, VDP_X0, COARSE_H), VDP_GAMMA, VDP_DELTA0, COARSE_CFG, horizon=10.0
    )
    assert exponent_fields(reused.exponents[5]) == exponent_fields(fresh)


def test_attraction_center_exponent_is_fresh_exponent(vdp, vdp_attraction):
    # the production sweep takes its center sample from the existence tube
    fresh = cc.contraction_exponent(
        cc.Run(vdp, VDP_X0, VDP_H), VDP_GAMMA, VDP_DELTA0, PipelineConfig(), horizon=10.0
    )
    assert exponent_fields(vdp_attraction.exponents[5]) == exponent_fields(fresh)


@pytest.mark.parametrize("change", ["even"])
def test_sweep_reuse_needs_the_existence_run(coarse_existences, monkeypatch, change):
    # an even sweep has no center sample, so it builds every tube
    calls = counted_builds(monkeypatch)
    sweep = coarse_sweep(coarse_existences(4))
    assert len(calls) == 4
    assert len(sweep.exponents) == 4


def test_sweep_threads_match_serial(coarse_existences, monkeypatch):
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CYCLECERT_THREADS", threads)
        runs.append(coarse_sweep(coarse_existences(5)))
    serial, threaded = ([exponent_fields(e) for e in r.exponents] for r in runs)
    assert threaded == serial
    assert runs[1].d == runs[0].d


def test_sweep_reads_threads_env_when_it_runs(coarse_existences, monkeypatch):
    # the sweep reads CYCLECERT_THREADS when it runs, so a value set after
    # the config was made takes effect
    monkeypatch.delenv("CYCLECERT_THREADS", raising=False)
    pools = []

    class Recording(cc.attraction.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cc.attraction, "ThreadPoolExecutor", Recording)
    monkeypatch.setenv("CYCLECERT_THREADS", "2")
    coarse_sweep(coarse_existences(3))
    assert pools == [2]


# -- runs stepped once -----------------------------------------------------


def test_each_start_point_stepped_once(vdp, monkeypatch):
    # R' samples the basin sweep's start points, and at least the center
    # and both endpoints: its sweep continues the existence run from x0,
    # and the basin sweep continues the R' runs.  Counted per run through
    # euler._step_runs, where every node is stepped: no run is stepped from
    # a node twice, and the nodes stepped from on the initial disk are R''s
    # start points; with 2 samples the basin sweep takes R''s endpoints
    starts = []
    step_runs = cc.euler._step_runs

    def counted(runs, n):
        starts.extend(run.nodes[-1].tobytes() for run in runs)
        return step_runs(runs, n)

    monkeypatch.setattr(cc.euler, "_step_runs", counted)
    for samples in (COARSE_CFG.sweep_samples, 2):
        starts.clear()
        config = dataclasses.replace(COARSE_CFG, sweep_samples=samples)
        existence = cc.certify_existence(
            vdp, VDP_X0, COARSE_H, VDP_DELTA0, VDP_GAMMA, config, horizon=10.0
        )
        # at the coarse step only the step condition eq_h fails; the
        # constants are all there
        existence = dataclasses.replace(existence, verdict="certified")
        cert = cc.certify_attraction(existence)
        disk = existence.tube.y0_disk
        assert [e.z.tobytes() for e in cert.exponents] == [
            z.tobytes() for z in disk.sweep_points(samples)
        ]
        assert len(starts) == len(set(starts))
        n = disk.normal / np.linalg.norm(disk.normal)
        on_disk = {
            z
            for z in starts
            for y in [np.frombuffer(z) - disk.center]
            if abs(y @ n) < 1e-12 and np.linalg.norm(y) <= disk.radius * (1 + 1e-12)
        }
        pts = [z.tobytes() for z in disk.sweep_points(max(samples, 3))]
        assert len(set(pts)) == max(samples, 3)
        assert on_disk == set(pts)
        assert [run.x0.tobytes() for run in existence.start_runs] == pts
        assert existence.start_runs[len(pts) // 2] is existence.run


@pytest.mark.parametrize(
    "spec, x0, h, delta0, horizon",
    [
        ({"id": "vanderpol", "params": {"p": 0.3}}, VDP_X0, COARSE_H, VDP_DELTA0, 10.0),
        (
            {"id": "fitzhugh-nagumo"}, (1.833419474496068, 0.3354878852385902),
            4e-3, 0.05, 60.0,
        ),
    ],
)
def test_sweep_crossing_matches_return_times(spec, x0, h, delta0, horizon):
    # R1 and N1 from the crossing the chunk loop finds are those of
    # return_times on the run it took and on one run of the whole horizon
    field = cc.load_system(spec)
    x0 = np.asarray(x0)
    disk = cc.SectionDisk(x0, delta0, field.f_raw(x0))
    n_steps = int(np.ceil(horizon / h))
    excl = cc.default_exclusion(h, delta0)
    for z in disk.sweep_points(8):
        section = cc.Section.through(field, z)
        ran, segment, R1 = cc.Run(field, z, h).first_return(n_steps, section, excl)
        N1 = cc.euler.return_index(R1, segment, h)
        whole = cc.simulate(field, z, h, n_steps)
        for traj in (ran, whole):
            assert cc.return_times(traj, section, 1, excl).first()[:2] == (R1, N1)


def test_sweep_radius_excess_blocks_attraction(vdp, vdp_cert, vdp_attraction, monkeypatch):
    # every vdp-example1 sweep tube stays within its sampled radii; one
    # whose radius at segment 1234 was sampled too thin blocks the basin
    # certificate, which names the sample and the segment
    assert all(e.radius_excess is None for e in vdp_attraction.exponents)
    monkeypatch.delenv("CYCLECERT_THREADS", raising=False)
    build, widened = cc.attraction.build_tube, cc.tube.widened_radius
    calls = []

    def thin(*args):
        radius = widened(*args)
        if not calls:  # every pass of the first sweep tube
            radius[1234] *= 0.5
        return radius

    def counted(*args, **kwargs):
        calls.append(build(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cc.tube, "widened_radius", thin)
    monkeypatch.setattr(cc.attraction, "build_tube", counted)
    cert = cc.certify_attraction(vdp_cert)
    assert not cert.certified
    assert cert.failure["reason"] == "slice-radius-inconsistent"
    assert cert.failure["kind"] == "blocking"
    z = vdp_cert.tube.y0_disk.sweep_points(11)[0]
    assert f"sweep sample 0 at {z.tolist()}" in cert.failure["detail"]
    assert "first at segment 1234" in cert.failure["detail"]
    assert cert.exponents[0].radius_excess == 1234
