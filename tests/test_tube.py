import copy
import dataclasses
import functools
import json
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclecert
import cyclecert as cc
from cyclecert.config import PipelineConfig
from cyclecert.errors import (
    DivergedError,
    InputError,
    InvalidReparametrizationError,
    NumericError,
)
from cyclecert.measures import PAD_FACTOR, norm_planes, sigma_rate
from cyclecert.output import canonical_json, load_schema
from cyclecert.verdict import radius_excess

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_H, VDP_X0, force_rate, up_to
from oracles import (
    ab_profile_whole,
    bridge_loop,
    build_tube_whole,
    interleaved,
    seg_dirs,
    theta_dot,
    tube_membership_check,
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
    tube = cc.build_tube(traj, R1, N1, 0.1, 0.015)
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
    tube = cc.build_tube(traj, R1, N1, 0.1, 0.015)
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
    # the last pass's excess, which the certificates read, is that of the
    # tube's radii
    assert radius_excess(tube.delta, tube.sampled_radius) is None
    assert tube.pass_history[-1]["radius_excess"] is None


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


def test_short_loop_guesses_on_every_anchor(vdp, monkeypatch):
    # the tiny-delta0 loop has 65 anchors, under 2 GUESS_ANCHORS, so pass 1
    # guesses on every one of them: its build is that of a build whose
    # guess stride is 1 by construction, and it keeps the eq_h-violated
    # verdict (a guess on every 10th anchor missed a Lambda peak there and
    # blocked the certificate with a slice-radius-inconsistent failure)
    def run():
        return cc.certify_existence(
            vdp, VDP_X0, 1e-2, 1e-5, VDP_GAMMA, PipelineConfig(), horizon=10.0
        )

    cert = run()
    assert cert.tube.anchors.size == 65 < 2 * cc.tube.GUESS_ANCHORS
    assert cert.failure["reason"] == "eq_h-violated"
    monkeypatch.setattr(cc.tube, "GUESS_ANCHORS", cert.tube.anchors.size)
    ref = run()
    assert cert.pass_history == ref.pass_history
    for name in ("lam", "sigma", "a_seg", "b_seg", "sampled_radius", "delta"):
        got, want = getattr(cert.tube, name), getattr(ref.tube, name)
        assert got.tobytes() == want.tobytes(), name


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


BAD_RUN_VALUES = [np.nan, np.inf, -np.inf, 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_RUN_VALUES)
@pytest.mark.parametrize("name", ["h", "delta0", "gamma", "horizon"])
def test_certify_existence_refuses_bad_run_value(vdp, name, value):
    # the library entry point refuses what RunConfig.validate refuses,
    # before any stepping, with the field's name
    run = dict(h=VDP_H, delta0=VDP_DELTA0, gamma=VDP_GAMMA, horizon=10.0)
    run[name] = value
    with pytest.raises(InputError, match=f"^{name} must be finite and positive"):
        cc.certify_existence(vdp, VDP_X0, config=PipelineConfig(), **run)


@pytest.mark.parametrize("value", BAD_RUN_VALUES)
@pytest.mark.parametrize("name", ["h", "delta0", "gamma"])
def test_build_tube_refuses_bad_run_value(vdp, name, value):
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 10)
    if name == "h":
        # a trajectory's step is refused by simulate; build the bad one
        traj = cc.EulerTrajectory(vdp, traj.x0, value, traj.nodes)
    run = dict(delta0=0.1, gamma=0.015)
    run[name] = value
    with pytest.raises(InputError, match=f"^{name} must be finite and positive"):
        cc.build_tube(traj, 6.3, 10, run["delta0"], run["gamma"])


def test_simulate_refuses_bad_step(vdp):
    for value in BAD_RUN_VALUES:
        with pytest.raises(InputError, match="^h must be finite and positive"):
            cc.simulate(vdp, VDP_X0, value, 10)


def test_certify_existence_refuses_overflowing_step_count(vdp):
    with pytest.raises(InputError, match="^h = 5e-324 leaves no finite step count"):
        cc.certify_existence(vdp, VDP_X0, 5e-324, VDP_DELTA0, VDP_GAMMA)


def test_step_condition_refuses_an_overflowing_floor(vdp_cert):
    # a gamma so small that 2L/(gamma a) overflows leaves no finite floor to
    # compare with: a NumericError (a blocking certificate), never an
    # infinite margin in the certificate
    tube = copy.copy(vdp_cert.tube)
    tube.gamma = 5e-324
    with pytest.raises(NumericError, match="floor is not finite at segment 1: "):
        cc.check_step_condition(tube, vdp_cert.constants)


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

    def wrapped(tube, rho, *args):
        if change == "lower-end":
            # phase rates 1e6 times faster: the tube sums shrink below e
            tube = copy.copy(tube)
            tube.b_seg = tube.b_seg * 1e6
        else:
            # a ball of radius 15 around x0, where f.n0 < 0 somewhere
            rho = 5.0
        return real(tube, rho, *args)

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
    floor = vdp_cert.step_condition.rhs
    violations = []
    for y0 in pts:
        ref = cc.ReferenceSolution.compute(vdp, y0, VDP_H, 1.2 * horizon, refine=100)
        series = cc.synchronize(ref, up_to(traj, tube.N1))
        violations += tube_membership_check(series, tube, floor)
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
        FN = seg_dirs(traj)[seg]
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
                ref = theta_dot(vdp, traj.nodes[7], s[k], X[o, k, 7])
                assert td[o, k, 7] == pytest.approx(ref, rel=1e-12)
    for name, m in margins.items():
        i = int(np.argmin(m))
        assert m[i] >= 0.0, f"{name} falls short at segment {i} by {-m[i]:g}"


# -- the tube kernels against their whole-array oracles ----------------------


def session_radius(tube, s):
    """The final tube's slice radii delta_i e^{sigma_i s}, shape (n_s, N1)."""
    return tube.delta[None, :-1] * np.exp(tube.sigma[None, :] * s[:, None])


@pytest.mark.parametrize("n_s,ab_offsets", [(5, 5), (2, 2), (2, 5), (5, 2)])
def test_ab_profile_bit_exact(vdp, vdp_cert, monkeypatch, n_s, ab_offsets):
    # 63140 segments are 7 full blocks and one of 5796
    tube = vdp_cert.tube
    assert tube.N1 // cc.tube.AB_BLOCK == 7
    assert tube.N1 % cc.tube.AB_BLOCK == 5796
    monkeypatch.setattr(cc.tube, "AB_OFFSETS", ab_offsets)
    grids = cc.SegmentGrids(vdp_cert.trajectory, tube.N1, n_s)
    radius = session_radius(tube, grids.s)
    a, b = cc.ab_profile(grids, radius, np.arange(tube.N1))
    a_ref, b_ref = ab_profile_whole(vdp, interleaved(grids), radius)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)


def test_ab_profile_denominator_error_in_later_block(vdp, vdp_cert):
    # f vanishes right of x1 = 50.  Segment 9000 (block 1) reaches there
    # only at the last offset, segment 30000 (block 3) at the first; the
    # first offset's segment is reported, as the offset-by-offset scan
    # over all segments reports it.  Both are stride-10 anchors, so the
    # stride-10 profile names segment 30000 too
    tube = vdp_cert.tube
    field = dataclasses.replace(
        vdp, rhs=lambda x: np.where(x[..., :1] > 50.0, 0.0, vdp.rhs(x))
    )
    traj = vdp_cert.trajectory
    traj = cc.EulerTrajectory(field, traj.x0, traj.h, traj.nodes)
    grids = cc.SegmentGrids(traj, tube.N1, cc.tube.N_S)
    radius = session_radius(tube, grids.s)
    for i, sign in ((9000, 1.0), (30000, -1.0)):
        w = grids.W0[:, i]
        assert np.all(sign * w > 0.01)
        radius[:, i] = (60.0 - grids.P0[:, i]) / (sign * w)
    with pytest.raises(InvalidReparametrizationError) as ref:
        ab_profile_whole(field, interleaved(grids), radius)
    assert "segment 30000;" in str(ref.value)
    for anchors in (np.arange(tube.N1), tube.anchors):
        with pytest.raises(InvalidReparametrizationError) as got:
            cc.ab_profile(grids, radius, anchors)
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
    tube, cfg, traj = vdp_cert.tube, PipelineConfig(), vdp_cert.trajectory
    args = (tube.R1, tube.N1, tube.delta0, tube.gamma, cfg)
    counted = cc.EulerTrajectory(field, traj.x0, traj.h, traj.nodes)
    got, ref = cc.build_tube(counted, *args), cc.build_tube(traj, *args)
    for name in ("lam", "sigma", "a_seg", "b_seg", "m_tilde", "sampled_radius", "delta"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    # the anchor grid: f on the s-grid of the 6315 stride-10 anchors; pass
    # 1's Lambda: f and J on 9 offsets of the slices of the 633 guess
    # anchors (every 6315 // GUESS_ANCHORS = 10th and the last); pass 2,
    # which settles: Lambda the same on every anchor slice, and (a, b) J on
    # the anchor grid, f on AB_OFFSETS offsets of it; the M~ loop evaluates
    # nothing
    assert [p["radius_excess"] for p in ref.pass_history] == [0, None]
    assert 6315 // cc.tube.GUESS_ANCHORS == 10
    anchor_grid = cc.tube.N_S * 6315
    slices = 9 * cc.tube.N_S * 633 + 9 * anchor_grid
    f = anchor_grid + slices + cc.tube.AB_OFFSETS * anchor_grid
    assert seen == {"f": f, "J": slices + anchor_grid}


def test_build_rates_run_per_piece(vdp, vdp_cert, monkeypatch):
    # each pass takes its rates and the delta chain's exponentials once per
    # piece of its anchors, at most 2 anchors - 1 values, and no exp sees
    # more columns than that: the 63,140 segments are reached by np.repeat
    tube = vdp_cert.tube
    most = 2 * tube.anchors.size - 1
    assert most < tube.N1
    rates, exps = [], []

    def counted_rate(lam, a, b, gamma):
        rates.append(np.size(lam))
        return sigma_rate(lam, a, b, gamma)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            exps.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(cc.verdict, "sigma_rate", counted_rate)
    monkeypatch.setattr(cc.verdict, "np", CountingNumpy())
    args = (vdp_cert.trajectory, tube.R1, tube.N1, tube.delta0, tube.gamma)
    got = cc.build_tube(*args, PipelineConfig())
    monkeypatch.undo()
    passes = len(got.pass_history)
    assert passes == 2
    assert len(rates) == passes and max(rates) <= most
    chain = [shape[0] for shape in exps if len(shape) == 1]
    assert len(chain) == passes and max(chain) <= most
    assert max(shape[-1] for shape in exps) <= most
    assert got.delta.tobytes() == tube.delta.tobytes()


def gap_pieces(anchors):
    """The index, among the pieces of ``anchors``, of each gap piece, and
    its first segment."""
    count = cc.tube.piece_counts(anchors)
    start = anchors[0] + np.cumsum(count) - count
    gap = np.flatnonzero(~np.isin(start, anchors))
    return gap, start[gap]


def test_ab_profile_names_the_first_segment_of_a_gap(vdp, vdp_cert, monkeypatch):
    # anchor 5 takes a small a > 0, and the curvature pad takes the gaps on
    # either side of it below 0: the error names the first segment of the
    # gap before it, segment 41, as the per-segment bridge does
    anchors, N1 = np.arange(0, 101, 10), 101
    grids = cc.SegmentGrids(vdp_cert.trajectory, N1, cc.tube.N_S, anchors)
    radius = session_radius(vdp_cert.tube, grids.s)[:, anchors]
    aA, bA = np.ones(anchors.size), np.full(anchors.size, 2.0)
    aA[5] = 0.05
    monkeypatch.setattr(cc.tube, "padded_extrema", lambda vals: (aA.copy(), bA.copy()))
    with pytest.raises(InvalidReparametrizationError) as got:
        cc.ab_profile(grids, radius, anchors)
    a_ref = bridge_loop(aA, anchors, N1, -1.0, PAD_FACTOR)
    bad = int(np.flatnonzero(a_ref <= 0.0)[0])
    assert bad == 41 and aA.min() > 0.0
    assert str(got.value) == f"phase-rate lower bound {a_ref[bad]:g} <= 0 at segment {bad}"


@pytest.mark.parametrize("fault", ["b-below-a", "nan-lambda"])
def test_rate_errors_name_the_first_segment_of_a_gap(vdp, vdp_cert, monkeypatch, fault):
    # the first piece at fault is a gap, of segments 11..19 (b < a, piece
    # 3) or of segments 21..29 (a NaN Lambda, below the gamma a / 2 floor,
    # piece 5): the build
    # raises the message sigma_rate gives on the per-segment values, which
    # names the gap's first segment
    tube = vdp_cert.tube
    gap, first = gap_pieces(tube.anchors)
    seen = {}
    lambda_profile, ab_profile = cc.tube.lambda_profile, cc.tube.ab_profile

    def faulty_lambda(*args):
        lam = seen["lam"] = lambda_profile(*args)
        if fault == "nan-lambda" and lam.size == seen.get("pieces"):
            lam[gap[2]] = np.nan
        return lam

    def faulty_ab(*args):
        a, b = ab_profile(*args)
        seen["pieces"] = a.size
        if fault == "b-below-a":
            b[gap[1]] = 0.5 * a[gap[1]]
        seen["a"], seen["b"] = a, b
        return a, b

    monkeypatch.setattr(cc.tube, "lambda_profile", faulty_lambda)
    monkeypatch.setattr(cc.tube, "ab_profile", faulty_ab)
    kind = InputError if fault == "b-below-a" else NumericError
    args = (vdp_cert.trajectory, tube.R1, tube.N1, tube.delta0, tube.gamma)
    with pytest.raises(kind) as got:
        cc.build_tube(*args, PipelineConfig())
    count = cc.tube.piece_counts(tube.anchors)
    per_segment = (np.repeat(seen[k], count) for k in ("lam", "a", "b"))
    with pytest.raises(kind) as ref:
        sigma_rate(*per_segment, tube.gamma)
    assert str(got.value) == str(ref.value)
    segment = 11 if fault == "b-below-a" else 21
    assert list(gap[1:3]) == [3, 5] and list(first[1:3]) == [11, 21]
    assert str(got.value).startswith(f"segment {segment}: ")
    assert len(got.value.pass_history) == 1  # pass 2 raised


def test_ab_profile_memory(vdp, vdp_cert):
    # the block-wise profile allocates under a quarter of what the
    # whole-array form holds at its peak on the session tube
    tube = vdp_cert.tube
    grids = cc.SegmentGrids(vdp_cert.trajectory, tube.N1, cc.tube.N_S)
    radius = session_radius(tube, grids.s)
    peaks = []
    anchors = np.arange(tube.N1)
    for fn, args in (
        (ab_profile_whole, (vdp, interleaved(grids), radius)),
        (cc.ab_profile, (grids, radius, anchors)),
    ):
        tracemalloc.start()
        try:
            fn(*args)
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
    args = (vdp_cert.trajectory, tube.R1, tube.N1, tube.delta0, tube.gamma)
    tracemalloc.start()
    try:
        cc.build_tube(*args, PipelineConfig())
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
        ("vanderpol", 1, None),
        ("vanderpol", 2, None),
        ("vanderpol", 10, None),
        ("vanderpol", 7, 1000),
        ("fitzhugh-nagumo", 2, None),
        ("fitzhugh-nagumo", 10, None),
        ("fitzhugh-nagumo", 7, 333),
    ],
)
def test_streamed_build_matches_whole_grid(
    vdp, vdp_cert, monkeypatch, system, stride, block
):
    # N1 = 63140 (Van der Pol) and 9870 (FitzHugh-Nagumo) end in a short
    # block of the default AB_BLOCK and of 1000 and 333; strides 7 and 10
    # leave a short last gap before segment N1 - 1.  At stride 1 every gap
    # is empty, and at stride 2 every gap but the empty last one holds one
    # segment, so each piece is one segment
    field, traj, R1, N1, delta0, gamma = loop_of(system, vdp, vdp_cert)
    if block is not None:
        monkeypatch.setattr(cc.tube, "AB_BLOCK", block)
    B = cc.tube.AB_BLOCK
    assert N1 % B and N1 > B
    cfg = PipelineConfig(lambda_stride=stride)
    anchors = np.unique(np.append(np.arange(0, N1, stride), N1 - 1))
    if stride > 2:
        assert 1 < anchors[-1] - anchors[-2] < stride
    else:
        assert np.array_equal(cc.tube.piece_counts(anchors), np.ones(N1))
    # block grids and the anchor grid are columns of the whole-loop grid
    whole = cc.SegmentGrids(traj, N1, cc.tube.N_S)
    for segs in (slice(0, B), slice(B, 2 * B), slice(N1 - N1 % B, N1), anchors):
        part = cc.SegmentGrids(traj, N1, cc.tube.N_S, segs)
        for name in ("P0", "P1", "FC0", "FC1", "nFC", "W0", "W1", "FN0", "FN1"):
            got, ref = getattr(part, name), getattr(whole, name)[..., segs]
            assert got.tobytes() == ref.tobytes(), name
    # the streamed build against the build on whole-loop planes
    tube = cc.build_tube(traj, R1, N1, delta0, gamma, cfg)
    ref = build_tube_whole(traj, N1, delta0, gamma, cfg)
    for name in ("lam", "sigma", "a_seg", "b_seg", "m_tilde", "sampled_radius", "delta"):
        assert getattr(tube, name).tobytes() == getattr(ref, name).tobytes(), name
    assert [p["radius_excess"] for p in tube.pass_history] == ref.excesses


# Tube radii and rates that reach every rounding regime of the products
# RADIUS_SAFETY delta e^{sigma s}: zero, subnormal and infinite radii, and
# rates whose exp underflows to 0 or overflows to inf on the s-grid
RADII = st.sampled_from([0.0, 5e-324, 1e-310, np.inf]) | st.floats(1e-300, 1e300)
RATES = st.sampled_from([-1e300, -1e9, 1e9, 1e300]) | st.floats(-1e7, 1e7)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(RATES, st.integers(1, 4)), min_size=1, max_size=6),
    st.sampled_from([1e-4, 1e-2, 1.0]),
    st.data(),
)
@example([(-1e9, 2), (1e9, 1)], 1e-2, None)  # inf radius, underflowing exp
def test_widened_radius_is_the_per_segment_maximum(pieces, h, data):
    # the sampled radius from each piece's s-grid growth maximum equals the
    # s-grid maximum of every segment's widened radius, bit for bit, NaNs
    # included (an inf radius times an exp that underflows to 0)
    rate = np.array([r for r, _ in pieces])
    count = np.array([n for _, n in pieces])
    n = int(count.sum())
    if data is None:
        delta = np.full(n, np.inf)
    else:
        delta = np.array(data.draw(st.lists(RADII, min_size=n, max_size=n)))
    s = np.linspace(0.0, h, cc.tube.N_S)
    with np.errstate(all="ignore"):
        c = cc.tube.RADIUS_SAFETY * delta
        got = cc.verdict.widened_radius(c, rate, count, s)
        sigma = np.repeat(rate, count)
        wide = cc.tube.RADIUS_SAFETY * delta[None, :] * np.exp(sigma[None, :] * s[:, None])
    ref = wide.max(axis=0)
    assert got.tobytes() == ref.tobytes()
    if data is None:
        assert np.isnan(ref[:2]).all() and ref[2] == np.inf


def test_radius_failure_names_the_segment(vdp, monkeypatch):
    # a tube whose radius at segment 777 is sampled too thin on every pass
    # stops at the pass whose excess is the one before's, and fails the
    # existence certificate there
    widened = cc.tube.widened_radius

    def thin(*args):
        radius = widened(*args)
        radius[777] *= 0.5
        return radius

    monkeypatch.setattr(cc.tube, "widened_radius", thin)
    cert = cc.certify_existence(
        vdp, VDP_X0, 2e-3, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert cert.failure["reason"] == "slice-radius-inconsistent"
    assert "first at segment 777:" in cert.failure["detail"]
    assert radius_excess(cert.tube.delta, cert.tube.sampled_radius) == 777
    assert cert.pass_history[-1]["radius_excess"] == 777
    assert cert.flags["radius_consistent"] is False


@pytest.mark.parametrize(
    "system,stride",
    [("vanderpol", 1), ("vanderpol", 10), ("vanderpol", 20), ("fitzhugh-nagumo", 10)],
)
def test_bounds_are_sampled_on_the_final_tube(vdp, vdp_cert, monkeypatch, system, stride):
    # the last pass samples Lambda and (a, b) on one radius, and at every
    # anchor the final tube radius delta_i e^{sigma_i s} stays within it, so
    # both bounds cover the slices of the tube the certificate reports
    field, traj, R1, N1, delta0, gamma = loop_of(system, vdp, vdp_cert)
    radii = {}
    for name in ("lambda_profile", "ab_profile"):

        def recorded(grids, radius, *args, fn=getattr(cc.tube, name), name=name):
            radii[name] = radius
            return fn(grids, radius, *args)

        monkeypatch.setattr(cc.tube, name, recorded)
    cfg = PipelineConfig(lambda_stride=stride)
    tube = cc.build_tube(traj, R1, N1, delta0, gamma, cfg)
    a = tube.anchors
    final = tube.delta[a] * np.exp(tube.sigma[a] * tube.anchor_grids.s[:, None])
    radius = radii["ab_profile"]
    assert radius.shape == final.shape
    assert (final <= radius * (1.0 + cc.verdict.RADIUS_RTOL)).all()
    assert np.array_equal(radii["lambda_profile"], radius)
    assert tube.pass_history[-1]["radius_excess"] is None


@pytest.mark.parametrize("stride,segment", [(1, 97), (10, 110), (20, 100)])
def test_fhn_loop_settles_on_a_negative_verdict(stride, segment):
    # the third pass settles: the build repeats its pass while the first
    # segment past the sampled radius moves forward, so the loop's verdict
    # is the step condition's, not a blocked certificate
    field, traj, R1, N1, delta0, gamma = fhn_loop()
    cert = cc.certify_existence(
        field, FHN_X0, FHN_H, delta0, gamma, PipelineConfig(lambda_stride=stride),
        horizon=60.0,
    )
    assert cert.N1 == N1
    assert cert.failure["reason"] == "eq_h-violated"
    assert f"first at segment {segment} " in cert.failure["detail"]
    excess = [p["radius_excess"] for p in cert.pass_history]
    assert len(excess) == 3 and excess[0] == 0 < excess[1] and excess[2] is None
    assert cert.flags["radius_consistent"] is True


def test_advancing_passes_widen_the_slices_until_a_vanishes(monkeypatch):
    # the FitzHugh-Nagumo loop from the node 15,000 steps of FHN_H reach
    # from (1, 0): every pass moves the first excess segment forward, and
    # after 7 passes the widened slices take a <= 0.  The blocked
    # certificate keeps the history of the 7 passes that ran
    field = cc.load_system({"id": "fitzhugh-nagumo"})
    x0 = cc.simulate(field, (1.0, 0.0), FHN_H, 15000).nodes[-1]
    excesses = []
    excess = cc.tube.radius_excess

    def recorded(*args):
        excesses.append(excess(*args))
        return excesses[-1]

    monkeypatch.setattr(cc.tube, "radius_excess", recorded)
    cert = cc.certify_existence(field, x0, FHN_H, 0.05, 0.05, PipelineConfig(), horizon=60.0)
    assert cert.failure["reason"] == "InvalidReparametrizationError"
    assert cert.failure["kind"] == "blocking"
    assert cert.failure["detail"].endswith("<= 0 at segment 1091")
    assert excesses == [55, 259, 493, 730, 975, 1234]  # passes 2 to 7
    assert cert.config.lambda_stride == 10
    history = [p["radius_excess"] for p in cert.pass_history]
    assert history == [0] + excesses
    assert [p["pass"] for p in cert.pass_history] == list(range(1, 8))
    assert cert.to_dict()["pass_history"] == cert.pass_history


def test_excess_that_does_not_advance_blocks(vdp, monkeypatch):
    # slices thinner than the tube they are sampled from: pass 2's first
    # excess segment is pass 1's, so the build stops there and the
    # certificate blocks, naming the segment
    monkeypatch.setattr(cc.tube, "RADIUS_SAFETY", 0.9)
    cert = cc.certify_existence(
        vdp, VDP_X0, 2e-3, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    assert [p["radius_excess"] for p in cert.pass_history] == [0, 0]
    # the certificate reads the last pass's excess, that of the tube's radii
    assert radius_excess(cert.tube.delta, cert.tube.sampled_radius) == 0
    assert cert.failure["reason"] == "slice-radius-inconsistent"
    assert cert.failure["kind"] == "blocking"
    assert "first at segment 0:" in cert.failure["detail"]
    assert cert.flags["radius_consistent"] is False


def test_m_tilde_is_formed_when_read(vdp):
    # a build forms no M~; the first read forms it once, from the run
    traj = cc.simulate(vdp, VDP_X0, 1e-3, 7000)
    section = cc.Section.through(vdp, traj.nodes[0])
    R1, N1, _ = cc.return_times(
        traj, section, 1, cc.default_exclusion(1e-3, 0.1)
    ).first()
    tube = cc.build_tube(traj, R1, N1, 0.1, 0.015)
    assert "m_tilde" not in vars(tube)
    grids = cc.SegmentGrids(traj, N1, cc.tube.N_S)
    m = tube.m_tilde
    assert m is tube.m_tilde and not m.flags.writeable
    assert m.tobytes() == norm_planes(grids.P0, grids.P1).max(axis=0).tobytes()


def test_one_anchor_grid_per_certificate(vdp, monkeypatch):
    # the Lambda passes and both tube samples of the constants read the one
    # anchor grid that build_tube keeps on the tube
    anchor_grids = []

    class Counted(cc.SegmentGrids):
        def __init__(self, traj, N1, n_s, segs=slice(None)):
            super().__init__(traj, N1, n_s, segs)
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
    grids = cc.SegmentGrids(vdp_cert.trajectory, tube.N1, cc.tube.N_S)
    anchors = np.arange(0, tube.N1, stride)
    if anchors[-1] != tube.N1 - 1:
        anchors = np.append(anchors, tube.N1 - 1)
    lam = cc.lambda_profile(grids, session_radius(tube, grids.s), anchors)
    lam = np.repeat(lam, cc.tube.piece_counts(anchors))
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
    N1 = 4001
    grids = cc.SegmentGrids(vdp_cert.trajectory, N1, cc.tube.N_S)
    radius = session_radius(tube, grids.s)[:, :N1]
    anchors = np.unique(np.append(np.arange(0, N1, stride), N1 - 1))
    points = 9 * cc.tube.N_S  # slice points per anchor: 8 offsets and the center
    monkeypatch.setattr(cc.tube, "LAMBDA_BLOCK", anchors.size * points)
    lam_ref = cc.lambda_profile(grids, radius, anchors)
    if per_block is None:
        monkeypatch.undo()
        assert cc.tube.LAMBDA_BLOCK < anchors.size * points
    else:
        monkeypatch.setattr(cc.tube, "LAMBDA_BLOCK", per_block * points)
    lam = cc.lambda_profile(grids, radius, anchors)
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
        # one value per piece, spread over the segments from anchors[0] on
        count = cc.tube.piece_counts(anchors)
        a = np.repeat(cc.tube.anchor_bridge(aA, anchors, -1.0), count)
        b = np.repeat(cc.tube.anchor_bridge(bA, anchors, 1.0), count)
        lo = anchors[0]
        assert a.tobytes() == a_ref[lo:].tobytes()
        assert b.tobytes() == b_ref[lo:].tobytes()


@pytest.mark.parametrize("system", ["vanderpol", "fitzhugh-nagumo"])
def test_stride_one_ab_is_per_segment(vdp, vdp_cert, monkeypatch, system):
    # at stride 1 every segment is an anchor, so no gap is bridged and
    # (a, b) is the per-segment profile on the build's slice radii
    field, traj, R1, N1, delta0, gamma = loop_of(system, vdp, vdp_cert)
    cfg = PipelineConfig(lambda_stride=1)
    calls = []

    def spy(grids, radius, anchors):
        calls.append((grids, radius))
        return real(grids, radius, anchors)

    real = cc.tube.ab_profile
    monkeypatch.setattr(cc.tube, "ab_profile", spy)
    tube = cc.build_tube(traj, R1, N1, delta0, gamma, cfg)
    assert len(calls) == len(tube.pass_history) - 1  # every pass after the first
    grids, radius = calls[-1]
    assert radius.shape == (cc.tube.N_S, N1)
    a_ref, b_ref = ab_profile_whole(field, interleaved(grids), radius)
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
    tube = cc.build_tube(traj, R1, N1, delta0, gamma, cfg)
    s = np.linspace(0.0, tube.h, grid[0])
    offs = np.linspace(-1.0, 1.0, grid[1])
    segs = np.arange(N1) if segs is None else np.asarray(segs)
    margins = {name: np.empty(segs.size) for name in ("Lambda", "a", "b")}
    for lo in range(0, segs.size, 2048):
        out = slice(lo, lo + 2048)
        seg = segs[out]
        FN = seg_dirs(traj)[seg]
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
