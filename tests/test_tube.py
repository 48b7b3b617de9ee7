import copy
import dataclasses
import functools
import json
import tracemalloc

import jsonschema
import numpy as np
import pytest

import cyclecert
import cyclecert as cc
from cyclecert.config import PipelineConfig
from cyclecert.errors import DivergedError, InputError, InvalidReparametrizationError
from cyclecert.measures import norm_planes
from cyclecert.output import canonical_json, load_schema
from cyclecert.tube import radius_excess

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_H, VDP_X0, force_rate
from oracles import (
    ab_profile_whole,
    bridge_loop,
    build_tube_whole,
    interleaved,
)


def test_no_return_failure(linear):
    cert = cc.certify_existence(
        linear, (1.0, 0.0), 1e-2, 0.1, 0.015, PipelineConfig(), horizon=20.0
    )
    assert cert.verdict == "failed"
    assert cert.failure["reason"] == "no-return"
    assert cert.failure["kind"] == "negative"


def test_existence_run_ends_at_the_return_chunk(vdp, vdp_cert):
    # the existence run is a first-return run: it ends at the end of the
    # 4096-step chunk that holds R1, not at the horizon's 100,000 steps, and
    # R1 and N1 are those of one run of the whole horizon
    traj = vdp_cert.trajectory
    assert traj.n_steps == 16 * cc.euler.RETURN_CHUNK == 65536
    assert np.array_equal(traj.nodes, cc.simulate(vdp, VDP_X0, VDP_H, 65536).nodes)
    whole = cc.simulate(vdp, VDP_X0, VDP_H, 100000)
    section = cc.Section.through(vdp, whole.nodes[0])
    R1, N1, _ = cc.return_times(
        whole, section, 1, cc.default_exclusion(VDP_H, VDP_DELTA0)
    ).first()
    assert (vdp_cert.R1, vdp_cert.N1) == (R1, N1)


def test_diverged_run_names_its_node(harmonic):
    # a run that overflows in its second chunk gives a blocking certificate
    # whose detail ends with the first non-finite node on the whole run
    def rhs2(u1, u2):
        return (u1 * u1 if u1 > 5.0 else 1.0), 0.0

    field = dataclasses.replace(harmonic, rhs_scalar2=rhs2)
    with pytest.raises(DivergedError) as whole:
        cc.simulate(field, [1.0, 0.0], 1e-3, 10000)
    bad = whole.value.first_bad_index
    assert bad > cc.euler.RETURN_CHUNK
    cert = cc.certify_existence(field, (1.0, 0.0), 1e-3, 0.1, 0.015, horizon=10.0)
    assert cert.failure["kind"] == "blocking"
    assert cert.failure["detail"].endswith(f" {bad}")
    assert cert.R1 is None and cert.trajectory is None


def test_diverged_run_keeps_its_reason(harmonic):
    # an rhs that divides by zero in the run's second chunk gives a blocking
    # certificate whose detail names the error and its node on the whole run
    zero = 0.0

    def rhs2(u1, u2):
        return (1.0 if u1 < 6.0 else 1.0 / zero), 0.0

    field = dataclasses.replace(harmonic, rhs_scalar2=rhs2)
    with pytest.raises(DivergedError) as whole:
        cc.simulate(field, [1.0, 0.0], 1e-3, 10000)
    bad, reason = whole.value.first_bad_index, whole.value.reason
    assert bad > cc.euler.RETURN_CHUNK
    assert reason == "ZeroDivisionError('float division by zero')"
    cert = cc.certify_existence(field, (1.0, 0.0), 1e-3, 0.1, 0.015, horizon=10.0)
    assert cert.failure["reason"] == "DivergedError"
    assert cert.failure["kind"] == "blocking"
    assert cert.failure["detail"] == f"{reason} at node {bad}"


def test_tube_failure_keeps_the_return(vdp, monkeypatch):
    # a tube build that raises leaves the run and its return on the
    # blocking certificate
    def fail(*args, **kwargs):
        raise InvalidReparametrizationError("phase-rate lower bound 0 <= 0")

    monkeypatch.setattr(cc.tube, "build_tube", fail)
    cert = cc.certify_existence(
        vdp, VDP_X0, 2e-3, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.failure["reason"] == "InvalidReparametrizationError"
    assert cert.failure["kind"] == "blocking"
    assert cert.N1 == 3158 and cert.R1 == pytest.approx(6.314, abs=0.01)
    assert cert.trajectory.n_steps >= cert.N1 and cert.tube is None


def test_forced_rate_constant_delta(vdp, monkeypatch):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 7000)
    section = cc.Section.through(vdp, traj.nodes[0])
    rt = cc.return_times(traj, section, 1, cc.default_exclusion(1e-3, 0.1))
    R1, N1, _ = rt.first()
    force_rate(monkeypatch, 0.0)
    tube = cc.build_tube(vdp, traj, R1, N1, 0.1, 0.015, M_f=2.3)
    assert np.allclose(tube.delta, 0.1)
    assert tube.delta_at(0.37 * R1) == pytest.approx(0.1)


def test_forced_rate_closed_form(vdp, monkeypatch):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 7000)
    section = cc.Section.through(vdp, traj.nodes[0])
    R1, N1, _ = cc.return_times(
        traj, section, 1, cc.default_exclusion(1e-3, 0.1)
    ).first()
    c = -2.0
    force_rate(monkeypatch, c)
    tube = cc.build_tube(vdp, traj, R1, N1, 0.1, 0.015, M_f=2.3)
    # delta(ih + s) = delta0 exp(c*(ih + s)) for the constant-rate chain
    for t in (0.0, 0.5 * traj.h, 3.7 * traj.h, R1):
        assert tube.delta_at(t) == pytest.approx(0.1 * np.exp(c * t), rel=1e-12)


def test_delta_chain_matches_closed_form(vdp_cert):
    tube = vdp_cert.tube
    h = tube.h
    closed = tube.delta0 * np.exp(h * np.cumsum(tube.sigma))
    rel = np.abs(tube.delta[1:] - closed) / closed
    assert rel.max() <= 1e-12


def test_alpha_monotone_delta_positive(vdp_cert):
    tube = vdp_cert.tube
    assert np.all(np.diff(tube.alpha) >= 0)
    assert np.all(tube.delta > 0)


def test_tube_segment_view(vdp_cert):
    # segment 10 from the tube's arrays: alpha grows by b*M_f*h over it and
    # delta by exp(sigma*h), at the rate deltas_at evaluates inside it
    tube, i = vdp_cert.tube, 10
    h, s = tube.h, 0.25 * tube.h
    assert tube.alpha[i + 1] == pytest.approx(
        tube.alpha[i] + tube.b_seg[i] * tube.M_f * h
    )
    assert tube.deltas_at([i * h])[0] == tube.delta[i]
    inside = tube.deltas_at([i * h + s])[0]
    assert inside == pytest.approx(tube.delta[i] * np.exp(tube.sigma[i] * s), rel=1e-12)
    assert tube.delta[i] * np.exp(tube.sigma[i] * h) == pytest.approx(
        tube.delta[i + 1], rel=1e-12
    )


def test_inline_spec_certifies_like_registry(vdp_cert):
    # the inline Van der Pol, stepped through its generated rhs_scalar2 and
    # measured with its derived Jacobian, gives the registry's certificate
    field = cc.load_system(
        {"rhs": ["x2", "p*x2 - p*x1**2*x2 - x1"], "params": {"p": 0.3}}
    )
    cert = cc.certify_existence(
        field, VDP_X0, VDP_H, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.certified, cert.failure
    got, want = cert.constants, vdp_cert.constants
    for f in dataclasses.fields(want):
        if isinstance(getattr(want, f.name), float):
            assert getattr(got, f.name) == pytest.approx(
                getattr(want, f.name), rel=1e-12, abs=0.0
            ), f.name
    assert cert.tube_summary["delta_end"] == pytest.approx(
        vdp_cert.tube_summary["delta_end"], rel=1e-12, abs=0.0
    )


def test_vdp_example_tube_values(vdp_cert):
    # reference run: delta decays monotonically to its loop-end value
    tube = vdp_cert.tube
    assert tube.R1 == pytest.approx(6.314, abs=0.01)
    assert tube.N1 == 63140
    delta_end = tube.delta[tube.N1]
    assert delta_end == pytest.approx(0.0642, rel=0.10)
    assert tube.delta.min() == pytest.approx(delta_end)
    assert radius_excess(tube) is None


def test_step_condition_vdp(vdp_cert):
    step = vdp_cert.step_condition
    assert step.holds
    assert step.rhs_max == pytest.approx(0.05, rel=0.20)
    assert step.min_margin >= 0.0
    assert step.margins.shape == (vdp_cert.N1,)


def test_step_condition_tiny_delta0_fails(vdp):
    cert = cc.certify_existence(
        vdp, VDP_X0, 1e-2, 1e-5, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.verdict == "failed"
    assert cert.failure["reason"] == "eq_h-violated"


def test_step_condition_rhs_linear_in_h(vdp_cert, vdp):
    # halving h halves the right-hand side (constants nearly unchanged)
    cfg = PipelineConfig(lambda_stride=20)
    half = cc.certify_existence(
        vdp, VDP_X0, VDP_H / 2, VDP_DELTA0, VDP_GAMMA, cfg, horizon=10.0
    )
    assert half.certified
    ratio = half.step_condition.rhs_max / vdp_cert.step_condition.rhs_max
    assert ratio == pytest.approx(0.5, abs=0.05)
    assert half.step_condition.min_margin > vdp_cert.step_condition.min_margin


def test_inclusion_boundary_case_strict():
    from cyclecert.tube import InclusionReport

    # equality must not pass: the sufficient test is a strict inequality
    rep = InclusionReport(
        lhs=0.0642 + 0.0,
        rhs=0.0642,
        sufficient_holds=bool(0.0642 + 0.0 < 0.0642),
        geometric_holds=None,
        geometric_max_dist=None,
        geometric_points=0,
        return_gap=0.0,
    )
    assert not rep.sufficient_holds


def test_inclusion_vdp(vdp_cert):
    incl = vdp_cert.inclusion
    assert incl.sufficient_holds
    assert incl.lhs < incl.rhs == VDP_DELTA0
    assert incl.geometric_holds
    assert incl.geometric_max_dist <= VDP_DELTA0


def test_unstable_focus_fails_inclusion():
    field = cc.load_system({"id": "unstable-focus", "params": {"growth": 0.05}})
    cert = cc.certify_existence(
        field, (1.0, 0.0), 2e-4, 0.1, 0.015, PipelineConfig(), horizon=20.0
    )
    assert cert.verdict == "failed"
    assert cert.failure["reason"] == "eq_new-violated"
    # the step condition itself holds; it is the return slice that escapes,
    # with the tube radius growing over the loop
    assert cert.step_condition.holds
    assert cert.tube_summary["delta_end"] > 0.1


def test_gamma_guard():
    field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
    with pytest.raises(InputError):
        cc.certify_existence(
            field, VDP_X0, VDP_H, VDP_DELTA0, 0.0, PipelineConfig(), horizon=10.0
        )
    with pytest.raises(InputError):
        cc.sigma_rate(1.0, 0.9, 1.1, -0.015)


def test_certificate_dict_layout(vdp_cert):
    doc = vdp_cert.to_dict()
    assert doc["verdict"] == "certified"
    assert doc["conditions"]["eq_h"]["holds"]
    assert doc["conditions"]["eq_new"]["holds"]
    assert doc["conditions"]["eta"]["holds"]
    for key in ("L", "M_f", "M_C", "m", "a", "b", "eta", "T_lo", "T_hi", "R_prime"):
        assert key in doc["constants"]
    assert doc["tube_summary"]["N1"] == vdp_cert.N1
    assert doc["flags"]["radius_consistent"]


def _eta_with(change):
    """``estimate_eta`` run on a changed tube or distance bound."""
    real = cc.constants.estimate_eta

    def wrapped(field, tube, rho, **kw):
        if change == "lower-end":
            # phase rates 1e6 times faster: the tube sums shrink below e
            tube = copy.copy(tube)
            tube.b_seg = tube.b_seg * 1e6
        else:
            # a ball of radius 15 around x0, where f.n0 < 0 somewhere
            rho = 5.0
        return real(field, tube, rho, **kw)

    return wrapped


@pytest.mark.parametrize("change", ["lower-end", "no-speed-floor"])
def test_eta_failure_is_a_failed_certificate(vdp, monkeypatch, change):
    # a return-time interval that gives no eta > 0 fails the eta condition;
    # the certificate keeps its constants and stays schema-valid
    monkeypatch.setattr(cyclecert.tube, "estimate_eta", _eta_with(change))
    cert = cc.certify_existence(
        vdp, VDP_X0, VDP_H, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.step_condition.holds and cert.inclusion.sufficient_holds
    assert cert.failure["reason"] == "eta-nonpositive"
    assert cert.failure["kind"] == "negative"
    assert cert.eta.established == (change == "lower-end")
    assert cert.eta.T_lo <= 0.0 and cert.constants.eta <= 0.0
    doc = json.loads(canonical_json(cert.to_dict()))
    assert doc["conditions"]["eta"]["holds"] is False
    jsonschema.validate(doc, load_schema("existence_certificate.schema.json"))


def test_inclusion_failure_with_unestablished_interval(harmonic):
    # the harmonic tube grows past delta0 and its ball does not cover
    # rho + e * f_max: the inclusion fails first, constants are kept
    cert = cc.certify_existence(
        harmonic, (1.0, 0.0), 1e-3, 0.02, 0.2, PipelineConfig(), horizon=10.0
    )
    assert cert.step_condition.holds
    assert cert.failure["reason"] == "eq_new-violated"
    assert not cert.eta.established
    assert cert.constants is not None
    doc = json.loads(canonical_json(cert.to_dict()))
    jsonschema.validate(doc, load_schema("existence_certificate.schema.json"))


def test_coarse_step_keeps_constants(vdp):
    # the error curve's coarsest step fails eq_h but still yields D
    cert = cc.certify_existence(
        vdp, VDP_X0, 5e-4, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.failure["reason"] == "eq_h-violated"
    c = cert.constants
    assert np.isfinite(cc.compute_D(c.M_C, c.L, VDP_GAMMA, c.a, c.b))


def test_forward_invariance_of_certified_tube(vdp, vdp_cert):
    # fine-step surrogates from random initial-disk points stay inside the
    # tube for one full return (synchronized states within delta(t));
    # the acceptance suite runs the full 20-trajectory version
    tube = vdp_cert.tube
    traj = vdp_cert.trajectory
    rng = np.random.default_rng(12)
    u = rng.uniform(-1, 1, size=6)
    disk = tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    pts = disk.center[None, :] + (u * disk.radius)[:, None] * w[None, :]
    horizon = tube.horizon
    violations = []
    for y0 in pts:
        ref = cc.ReferenceSolution.compute(vdp, y0, VDP_H, 1.2 * horizon, refine=100)
        series = cc.synchronize(ref, traj, y0, t_max=horizon)
        violations += cc.tube_membership_check(series, tube)
    assert violations == []


def test_bounds_dominate_denser_resampling(vdp, vdp_cert):
    # soundness of the sampled bounds: on every segment of the certified
    # loop, Lambda_i and [a_i, b_i] dominate an unpadded resampling on
    # 9 s-points x 33 offsets of the final tube's slices, radius
    # delta_i e^{sigma_i s}
    tube = vdp_cert.tube
    traj = vdp_cert.trajectory
    h = tube.h
    s = np.linspace(0.0, h, 9)
    offs = np.linspace(-1.0, 1.0, 33)
    margins = {"Lambda": np.empty(tube.N1), "a": np.empty(tube.N1), "b": np.empty(tube.N1)}
    for lo in range(0, tube.N1, 2048):
        seg = slice(lo, min(lo + 2048, tube.N1))
        FN = traj.seg_dirs[seg]
        P = traj.nodes[seg][None, :, :] + s[:, None, None] * FN[None, :, :]
        FC = vdp.f_raw(P)
        W = np.stack([-FC[..., 1], FC[..., 0]], axis=-1)
        W /= np.linalg.norm(FC, axis=-1)[..., None]
        r = tube.delta[seg][None, :] * np.exp(tube.sigma[seg][None, :] * s[:, None])
        D = offs[:, None, None, None] * r[None, :, :, None] * W[None]
        X = P[None] + D  # (offset, s, segment, 2)
        margins["Lambda"][seg] = tube.lam[seg] - cc.mu_perp_batch(vdp, X).max(axis=(0, 1))
        # closed form of theta_dot with xi = X on the section through P
        Jf = np.einsum("snij,nj->sni", vdp.jac_raw(P), FN)
        num = np.einsum("ni,sni->sn", FN, FC) - np.einsum("osni,sni->osn", D, Jf)
        td = num / np.einsum("osni,sni->osn", vdp.f_raw(X), FC)
        margins["a"][seg] = td.min(axis=(0, 1)) - tube.a_seg[seg]
        margins["b"][seg] = tube.b_seg[seg] - td.max(axis=(0, 1))
        if lo == 0:
            # the vectorized closed form is the scalar theta_dot
            for o, k in ((0, 0), (5, 4), (32, 8)):
                ref = cc.theta_dot(vdp, traj.nodes[7], s[k], X[o, k, 7])
                assert td[o, k, 7] == pytest.approx(ref, rel=1e-12)
    for name, m in margins.items():
        i = int(np.argmin(m))
        assert m[i] >= 0.0, f"{name} falls short at segment {i} by {-m[i]:g}"


# -- the tube kernels against their whole-array oracles ----------------------


def session_radius(tube, s):
    """The final tube's slice radii delta_i e^{sigma_i s}, shape (n_s, N1)."""
    return tube.delta[None, :-1] * np.exp(tube.sigma[None, :] * s[:, None])


@pytest.mark.parametrize("n_s,ab_offsets", [(5, 5), (2, 2), (2, 5), (5, 2)])
def test_ab_profile_bit_exact(vdp, vdp_cert, n_s, ab_offsets):
    # 63140 segments are 7 full blocks and one of 5796
    tube = vdp_cert.tube
    assert tube.N1 // cc.tube.AB_BLOCK == 7
    assert tube.N1 % cc.tube.AB_BLOCK == 5796
    cfg = PipelineConfig(n_s=n_s, ab_offsets=ab_offsets)
    grids = cc.SegmentGrids(vdp, vdp_cert.trajectory, tube.N1, n_s)
    radius = session_radius(tube, grids.s)
    a, b = cc.ab_profile(vdp, grids, radius, np.arange(tube.N1), cfg)
    a_ref, b_ref = ab_profile_whole(vdp, interleaved(grids), radius, cfg)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)


def test_ab_profile_denominator_error_in_later_block(vdp, vdp_cert):
    # f vanishes right of x1 = 50.  Segment 9000 (block 1) reaches there
    # only at the last offset, segment 30000 (block 3) at the first; the
    # first offset's segment is reported, as the offset-by-offset scan
    # over all segments reports it.  Both are stride-10 anchors, so the
    # stride-10 profile names segment 30000 too
    tube = vdp_cert.tube
    cfg = PipelineConfig()
    field = dataclasses.replace(
        vdp, rhs=lambda x: np.where(x[..., :1] > 50.0, 0.0, vdp.rhs(x))
    )
    grids = cc.SegmentGrids(vdp, vdp_cert.trajectory, tube.N1, cfg.n_s)
    radius = session_radius(tube, grids.s)
    for i, sign in ((9000, 1.0), (30000, -1.0)):
        w = grids.W0[:, i]
        assert np.all(sign * w > 0.01)
        radius[:, i] = (60.0 - grids.P0[:, i]) / (sign * w)
    with pytest.raises(InvalidReparametrizationError) as ref:
        ab_profile_whole(field, interleaved(grids), radius, cfg)
    assert "segment 30000;" in str(ref.value)
    for anchors in (np.arange(tube.N1), tube.anchors):
        with pytest.raises(InvalidReparametrizationError) as got:
            cc.ab_profile(field, grids, radius, anchors, cfg)
        assert str(got.value) == str(ref.value)


def test_counting_field_takes_the_stacked_path(vdp, vdp_cert):
    # rhs and jacobian wrapped the way the traced benchmark run counts
    # points: functools.wraps copies the planar kernel onto each wrapper,
    # yet the tube kernels call the wrappers on the stacked points, so the
    # counts see every point, and the tube is the planar path's bit for bit
    seen = {"f": 0, "J": 0}

    def counting(fn, key):
        @functools.wraps(fn)
        def counted(x):
            seen[key] += x.size // 2
            return fn(x)

        return counted

    field = dataclasses.replace(
        vdp, rhs=counting(vdp.rhs, "f"), jacobian=counting(vdp.jacobian, "J")
    )
    assert field.rhs.kernel is vdp.rhs.kernel
    tube, cfg = vdp_cert.tube, PipelineConfig()
    args = (vdp_cert.trajectory, tube.R1, tube.N1, tube.delta0, tube.gamma, tube.M_f, cfg)
    got, ref = cc.build_tube(field, *args), cc.build_tube(vdp, *args)
    for name in ("lam", "sigma", "a_seg", "b_seg", "m_tilde", "sampled_radius", "delta"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    # the anchor grid: f on the s-grid of the 6315 stride-10 anchors; each
    # pass's Lambda: f and J on 9 offsets of the anchor slices; the (a, b)
    # pass: J on the anchor grid, f on ab_offsets offsets of it; the M~
    # loop evaluates nothing
    anchor_grid = cfg.n_s * 6315
    slices = cc.tube.PASSES * 9 * anchor_grid
    f = anchor_grid + slices + cfg.ab_offsets * anchor_grid
    assert seen == {"f": f, "J": slices + anchor_grid}


def test_ab_profile_memory(vdp, vdp_cert):
    # the block-wise profile allocates under a quarter of what the
    # whole-array form holds at its peak on the session tube
    tube = vdp_cert.tube
    cfg = PipelineConfig()
    grids = cc.SegmentGrids(vdp, vdp_cert.trajectory, tube.N1, cfg.n_s)
    radius = session_radius(tube, grids.s)
    peaks = []
    anchors = np.arange(tube.N1)
    for fn, args in (
        (ab_profile_whole, (interleaved(grids), radius)),
        (cc.ab_profile, (grids, radius, anchors)),
    ):
        tracemalloc.start()
        try:
            fn(vdp, *args, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    whole, blocked = peaks
    assert whole > 40 * 2**20
    assert blocked < whole / 4


def test_build_tube_memory(vdp, vdp_cert):
    # every per-segment stage streams segment blocks, so no (n_s, N1) plane
    # exists: the build of the session tube peaks under 15 MiB, where the
    # whole-loop planes peaked at 32 MiB
    tube = vdp_cert.tube
    args = (vdp_cert.trajectory, tube.R1, tube.N1, tube.delta0, tube.gamma, tube.M_f)
    tracemalloc.start()
    try:
        cc.build_tube(vdp, *args, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2**20


FHN_X0, FHN_H = (1.833419474496068, 0.3354878852385902), 4e-3


@functools.lru_cache(maxsize=None)
def fhn_loop():
    """(field, traj, R1, N1, delta0, gamma) of one FitzHugh-Nagumo loop."""
    field, delta0, gamma = cc.load_system({"id": "fitzhugh-nagumo"}), 0.05, 0.05
    traj = cc.simulate(field, FHN_X0, FHN_H, 15000)
    section = cc.Section.through(field, traj.nodes[0])
    excl = cc.default_exclusion(FHN_H, delta0)
    R1, N1, _ = cc.return_times(traj, section, 1, excl).first()
    assert N1 == 9870
    return field, traj, R1, N1, delta0, gamma


def loop_of(system, vdp, vdp_cert):
    if system == "vanderpol":
        c = vdp_cert
        return vdp, c.trajectory, c.R1, c.N1, VDP_DELTA0, VDP_GAMMA
    return fhn_loop()


@pytest.mark.parametrize(
    "system,stride,block",
    [
        ("vanderpol", 10, None),
        ("vanderpol", 7, 1000),
        ("fitzhugh-nagumo", 10, None),
        ("fitzhugh-nagumo", 7, 333),
    ],
)
def test_streamed_build_matches_whole_grid(
    vdp, vdp_cert, monkeypatch, system, stride, block
):
    # N1 = 63140 (Van der Pol) and 9870 (FitzHugh-Nagumo) end in a short
    # block of the default AB_BLOCK and of 1000 and 333; strides 7 and 10
    # leave a short last gap before segment N1 - 1
    field, traj, R1, N1, delta0, gamma = loop_of(system, vdp, vdp_cert)
    if block is not None:
        monkeypatch.setattr(cc.tube, "AB_BLOCK", block)
    B = cc.tube.AB_BLOCK
    assert N1 % B and N1 > B
    cfg = PipelineConfig(lambda_stride=stride)
    anchors = np.unique(np.append(np.arange(0, N1, stride), N1 - 1))
    assert 1 < anchors[-1] - anchors[-2] < stride
    # block grids and the anchor grid are columns of the whole-loop grid
    whole = cc.SegmentGrids(field, traj, N1, cfg.n_s)
    for segs in (slice(0, B), slice(B, 2 * B), slice(N1 - N1 % B, N1), anchors):
        part = cc.SegmentGrids(field, traj, N1, cfg.n_s, segs)
        for name in ("P0", "P1", "FC0", "FC1", "nFC", "W0", "W1", "FN0", "FN1"):
            got, ref = getattr(part, name), getattr(whole, name)[..., segs]
            assert got.tobytes() == ref.tobytes(), name
    # the streamed build against the build on whole-loop planes
    tube = cc.build_tube(field, traj, R1, N1, delta0, gamma, 2.0, cfg)
    ref = build_tube_whole(field, traj, N1, delta0, gamma, cfg)
    for name in ("lam", "sigma", "a_seg", "b_seg", "m_tilde", "sampled_radius"):
        assert getattr(tube, name).tobytes() == getattr(ref, name).tobytes(), name


def test_radius_failure_names_the_segment(vdp, monkeypatch):
    # a tube whose radius at segment 777 was sampled too thin fails the
    # existence certificate there
    build = cc.tube.build_tube

    def thin(*args, **kwargs):
        tube = build(*args, **kwargs)
        radius = tube.sampled_radius.copy()
        radius[777] *= 0.5
        tube.sampled_radius = radius
        return tube

    monkeypatch.setattr(cc.tube, "build_tube", thin)
    cert = cc.certify_existence(
        vdp, VDP_X0, 2e-3, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.failure["reason"] == "slice-radius-inconsistent"
    assert "first at segment 777:" in cert.failure["detail"]
    assert cc.tube.radius_excess(cert.tube) == 777
    assert cert.flags["radius_consistent"] is False


def test_m_tilde_is_formed_when_read(vdp):
    # a build forms no M~; the first read forms it once, from the run
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 7000)
    section = cc.Section.through(vdp, traj.nodes[0])
    R1, N1, _ = cc.return_times(
        traj, section, 1, cc.default_exclusion(1e-3, 0.1)
    ).first()
    tube = cc.build_tube(vdp, traj, R1, N1, 0.1, 0.015, 2.3)
    assert tube._m_tilde is None
    grids = cc.SegmentGrids(vdp, traj, N1, PipelineConfig().n_s)
    m = tube.m_tilde
    assert m is tube.m_tilde and not m.flags.writeable
    assert m.tobytes() == norm_planes(grids.P0, grids.P1).max(axis=0).tobytes()


def test_one_anchor_grid_per_certificate(vdp, monkeypatch):
    # the Lambda passes and both tube samples of the constants read the one
    # anchor grid that build_tube keeps on the tube
    anchor_grids = []

    class Counted(cc.SegmentGrids):
        def __init__(self, field, traj, N1, n_s, segs=slice(None)):
            super().__init__(field, traj, N1, n_s, segs)
            if isinstance(segs, np.ndarray):
                anchor_grids.append(self)

    monkeypatch.setattr(cc.tube, "SegmentGrids", Counted)
    cert = cc.certify_existence(
        vdp, VDP_X0, 2e-3, VDP_DELTA0, VDP_GAMMA,
        PipelineConfig(lambda_stride=50), horizon=10.0,
    )
    assert cert.constants is not None
    assert len(anchor_grids) == 1
    tube = cert.tube
    assert tube.anchor_grids is anchor_grids[0]
    assert np.array_equal(
        tube.anchors, np.unique(np.append(np.arange(0, tube.N1, 50), tube.N1 - 1))
    )


@pytest.mark.parametrize("stride", [1, 7, 10, 50])
def test_lambda_bridge_matches_gap_loop(vdp, vdp_cert, stride):
    # strides 7, 10 and 50 leave a short last gap before segment N1 - 1
    tube = vdp_cert.tube
    cfg = PipelineConfig(lambda_stride=stride)
    grids = cc.SegmentGrids(vdp, vdp_cert.trajectory, tube.N1, cfg.n_s)
    anchors = np.arange(0, tube.N1, stride)
    if anchors[-1] != tube.N1 - 1:
        anchors = np.append(anchors, tube.N1 - 1)
    lam = cc.lambda_profile(vdp, grids, session_radius(tube, grids.s), anchors, cfg)
    lam_ref = bridge_loop(lam[anchors], anchors, tube.N1, 1.0, cc.tube.PAD_FACTOR)
    assert np.array_equal(lam, lam_ref)


@pytest.mark.parametrize(
    "stride,per_block", [(1, 1), (1, 7), (1, None), (10, 1), (10, 7)]
)
def test_lambda_profile_blocks_bit_exact(vdp, vdp_cert, monkeypatch, stride, per_block):
    # blocks of 1 and 7 anchors, and at stride 1 the default size, against
    # one block over the loop; the first 4001 segments keep the one-block
    # and one-anchor runs small and leave a short last gap and last block
    tube = vdp_cert.tube
    cfg = PipelineConfig(lambda_stride=stride)
    N1 = 4001
    grids = cc.SegmentGrids(vdp, vdp_cert.trajectory, N1, cfg.n_s)
    radius = session_radius(tube, grids.s)[:, :N1]
    anchors = np.unique(np.append(np.arange(0, N1, stride), N1 - 1))
    points = 9 * cfg.n_s  # slice points per anchor: 8 offsets and the center
    monkeypatch.setattr(cc.tube, "LAMBDA_BLOCK", anchors.size * points)
    lam_ref = cc.lambda_profile(vdp, grids, radius, anchors, cfg)
    if per_block is None:
        monkeypatch.undo()
        assert cc.tube.LAMBDA_BLOCK < anchors.size * points
    else:
        monkeypatch.setattr(cc.tube, "LAMBDA_BLOCK", per_block * points)
    lam = cc.lambda_profile(vdp, grids, radius, anchors, cfg)
    assert np.array_equal(lam, lam_ref)


def test_anchor_bridge_matches_gap_loop():
    # one, two and four anchors (no second difference, then two), with
    # gaps of every length from 0 to 5
    rng = np.random.default_rng(3)
    for anchors in ([0], [0, 4], [0, 1, 6, 9], [2, 3, 5, 10]):
        anchors = np.array(anchors)
        aA, bA = rng.uniform(0.5, 1.0, anchors.size), rng.uniform(1.0, 1.5, anchors.size)
        N1 = anchors[-1] + 1
        a_ref = bridge_loop(aA, anchors, N1, -1.0, cc.tube.PAD_FACTOR)
        b_ref = bridge_loop(bA, anchors, N1, 1.0, cc.tube.PAD_FACTOR)
        a = cc.tube.anchor_bridge(aA, anchors, N1, -1.0)
        b = cc.tube.anchor_bridge(bA, anchors, N1, 1.0)
        lo = anchors[0]
        assert a[lo:].tobytes() == a_ref[lo:].tobytes()
        assert b[lo:].tobytes() == b_ref[lo:].tobytes()


@pytest.mark.parametrize("system", ["vanderpol", "fitzhugh-nagumo"])
def test_stride_one_ab_is_per_segment(vdp, vdp_cert, monkeypatch, system):
    # at stride 1 every segment is an anchor, so no gap is bridged and
    # (a, b) is the per-segment profile on the build's slice radii
    field, traj, R1, N1, delta0, gamma = loop_of(system, vdp, vdp_cert)
    cfg = PipelineConfig(lambda_stride=1)
    calls = []

    def spy(field, grids, radius, anchors, cfg):
        calls.append((grids, radius))
        return real(field, grids, radius, anchors, cfg)

    real = cc.tube.ab_profile
    monkeypatch.setattr(cc.tube, "ab_profile", spy)
    tube = cc.build_tube(field, traj, R1, N1, delta0, gamma, 2.0, cfg)
    ((grids, radius),) = calls
    assert radius.shape == (cfg.n_s, N1)
    a_ref, b_ref = ab_profile_whole(field, interleaved(grids), radius, cfg)
    assert tube.a_seg.tobytes() == a_ref.tobytes()
    assert tube.b_seg.tobytes() == b_ref.tobytes()


def resampled_margins(
    field, traj, R1, N1, delta0, gamma, stride, segs=None, grid=(9, 33)
):
    """Margins of Lambda_i, a_i and b_i of the tube built at ``stride`` over
    an unpadded resampling, on ``grid`` (s-points, offsets), of the
    final-tube slice of every segment, or of the segments ``segs``, radius
    delta_i e^{sigma_i s}."""
    cfg = PipelineConfig(lambda_stride=stride)
    tube = cc.build_tube(field, traj, R1, N1, delta0, gamma, 2.0, cfg)
    s = np.linspace(0.0, tube.h, grid[0])
    offs = np.linspace(-1.0, 1.0, grid[1])
    segs = np.arange(N1) if segs is None else np.asarray(segs)
    margins = {name: np.empty(segs.size) for name in ("Lambda", "a", "b")}
    for lo in range(0, segs.size, 2048):
        out = slice(lo, lo + 2048)
        seg = segs[out]
        FN = traj.seg_dirs[seg]
        P = traj.nodes[seg][None, :, :] + s[:, None, None] * FN[None, :, :]
        FC = field.f_raw(P)
        W = np.stack([-FC[..., 1], FC[..., 0]], axis=-1)
        W /= np.linalg.norm(FC, axis=-1)[..., None]
        r = tube.delta[seg][None, :] * np.exp(tube.sigma[seg][None, :] * s[:, None])
        D = offs[:, None, None, None] * r[None, :, :, None] * W[None]
        X = P[None] + D  # (offset, s, segment, 2)
        mu = cc.mu_perp_batch(field, X).max(axis=(0, 1))
        margins["Lambda"][out] = tube.lam[seg] - mu
        Jf = np.einsum("snij,nj->sni", field.jac_raw(P), FN)
        num = np.einsum("ni,sni->sn", FN, FC) - np.einsum("osni,sni->osn", D, Jf)
        td = num / np.einsum("osni,sni->osn", field.f_raw(X), FC)
        margins["a"][out] = td.min(axis=(0, 1)) - tube.a_seg[seg]
        margins["b"][out] = tube.b_seg[seg] - td.max(axis=(0, 1))
    return margins


@pytest.fixture(scope="module")
def resampled(vdp, vdp_cert):
    """resampled_margins of (system, stride), each computed once."""
    cache = {}

    def margins(system, stride):
        if (system, stride) not in cache:
            loop = loop_of(system, vdp, vdp_cert)
            cache[system, stride] = resampled_margins(*loop, stride)
        return cache[system, stride]

    return margins


def assert_dominates(margins, names):
    for name in names:
        m = margins[name]
        i = int(np.argmin(m))
        assert m[i] >= 0.0, f"{name} falls short at segment {i} by {-m[i]:g}"


@pytest.mark.parametrize("system", ["vanderpol", "fitzhugh-nagumo"])
@pytest.mark.parametrize("stride", [10, 20])
def test_ab_bridge_dominates_every_segment(resampled, system, stride):
    # the anchors' (a, b) bridged by the worse neighbor and the curvature
    # pad cover every segment between them
    assert_dominates(resampled(system, stride), ("a", "b"))


@pytest.mark.parametrize("system", ["vanderpol", "fitzhugh-nagumo"])
def test_lambda_dominates_every_segment_at_stride_20(resampled, system):
    assert_dominates(resampled(system, 20), ("Lambda",))


# Stride-1 segments of the Van der Pol loop on which a pad of half the
# neighbor jump at the sampled maximum left Lambda up to 9.9e-6 short of a
# 17 s x 129 offset resampling
STRIDE_ONE_MISSES = [
    14832, 14833, 14834, 14835, 15013, 15014, 15015,
    46441, 46442, 46443, 46580, 46581, 46582,
]


def test_lambda_dominates_dense_resampling_at_stride_1(vdp, vdp_cert):
    loop = loop_of("vanderpol", vdp, vdp_cert)
    m = resampled_margins(*loop, 1, segs=STRIDE_ONE_MISSES, grid=(17, 129))["Lambda"]
    k = int(np.argmin(m))
    assert m[k] >= 0.0, (
        f"Lambda falls short at segment {STRIDE_ONE_MISSES[k]} by {-m[k]:g}"
    )
