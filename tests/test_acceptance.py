"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

import cyclecert as cc
from cyclecert.config import PipelineConfig
from cyclecert.output import canonical_json
from cyclecert.syncerr import ReferenceSolution

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_H, VDP_X0, up_to
from oracles import theta_dot, tube_membership_check


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_vanderpol_existence(vdp):
    t0 = time.time()
    cert = cc.certify_existence(
        vdp, VDP_X0, VDP_H, VDP_DELTA0, VDP_GAMMA,
        PipelineConfig(lambda_stride=10), horizon=10.0,
    )
    elapsed = time.time() - t0
    delta_end = cert.tube_summary["delta_end"]
    rhs = cert.step_condition.rhs_max
    checks = {
        "R1": abs(cert.R1 - 6.314) <= 0.01,
        "N1": abs(cert.N1 - 63140) <= 100,
        "delta_end": abs(delta_end - 0.0642) <= 0.10 * 0.0642,
        "rhs": abs(rhs - 0.05) <= 0.20 * 0.05,
        "verdict": cert.certified,
        "runtime_stride10": elapsed < 120.0,
    }
    t1 = time.time()
    cert1 = cc.certify_existence(
        vdp, VDP_X0, VDP_H, VDP_DELTA0, VDP_GAMMA,
        PipelineConfig(lambda_stride=1), horizon=10.0,
    )
    checks["stride1_verdict"] = cert1.certified
    checks["runtime_stride1"] = (time.time() - t1) < 1200.0
    report(
        "1 (existence, reference run)",
        all(checks.values()),
        f"R1={cert.R1:.4f} N1={cert.N1} delta_end={delta_end:.4f} "
        f"rhs={rhs:.4f} verdict={cert.verdict} "
        f"t10={elapsed:.0f}s t1={time.time() - t1:.0f}s "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_2_nonuniform_contraction(vdp, vdp_cert):
    traj = vdp_cert.trajectory
    mp = cc.mu_perp_batch(vdp, traj.nodes[: vdp_cert.N1])
    lo, hi = float(mp.min()), float(mp.max())
    # the loop-wise transverse measure must change sign (not uniformly
    # contractive) and stay within the documented bracket, checked with
    # 0.2 slack on each endpoint
    checks = {
        "within_bracket": lo >= -4.2 - 0.2 and hi <= 1.2 + 0.2,
        "max_positive": hi > 0.0,
        "min_negative": lo < 0.0,
    }
    report(
        "2 (transverse measure sign change)",
        all(checks.values()),
        f"mu_perp range=[{lo:.3f}, {hi:.3f}] "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_3_vanderpol_attraction(vdp, vdp_cert):
    att = cc.certify_attraction(vdp_cert, reference_d=-0.34)
    D_pinned = cc.compute_D(2.22, 1.516, 0.015, 0.9, 1.1)
    checks = {
        "sweep_11": att.sample_count == 11,
        "d": att.d <= -0.30,
        "D_formula": abs(D_pinned - 503.0) <= 5.0,
        "verdict": att.certified,
    }
    report(
        "3 (attraction, disk sweep)",
        all(checks.values()),
        f"d={att.d:.4f} D(pinned)={D_pinned:.2f} verdict={att.verdict} "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_4_error_floor_scaling(vdp):
    t0 = time.time()
    h_list = [5e-4, 2.5e-4, 1.25e-4]
    rep = cc.error_curve_experiment(
        vdp,
        VDP_X0,
        (1.8037, -0.5057),
        h_list,
        periods=5,
        delta0=VDP_DELTA0,
        gamma=VDP_GAMMA,
        config=PipelineConfig(),
        horizon=10.0,
        refine=100,
    )
    elapsed = time.time() - t0
    tails = [r.tail_max for r in rep.runs]
    ratios = [r.tail_max / r.h for r in rep.runs]
    checks = {
        "ordered": tails[0] > tails[1] > tails[2],
        "below_floor": all(r.tail_max <= r.D * r.h for r in rep.runs),
        "ratio_within_3x": max(ratios) / min(ratios) <= 3.0,
        "runtime": elapsed < 600.0,
    }
    report(
        "4 (error floor scaling)",
        all(checks.values()),
        f"tails={[f'{t:.5f}' for t in tails]} "
        f"Dh={[f'{r.D * r.h:.4f}' for r in rep.runs]} "
        f"tail/h={[f'{q:.1f}' for q in ratios]} t={elapsed:.0f}s "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_5_property_suite(vdp, harmonic, linear, vdp_cert):
    failures = []

    # a. tube radius chain equals its closed form to 1e-12 relative
    tube = vdp_cert.tube
    closed = tube.delta0 * np.exp(tube.h * np.cumsum(tube.sigma))
    if not (np.abs(tube.delta[1:] - closed) / closed).max() <= 1e-12:
        failures.append("delta-chain")

    # b. rate branch rules on 1000 randomized tuples
    rng = np.random.default_rng(77)
    for _ in range(1000):
        lam = rng.normal(scale=2.0)
        a = rng.uniform(0.05, 2.0)
        b = a + rng.uniform(0.0, 1.0)
        gamma = rng.uniform(1e-4, 0.5)
        # the branch is the sign: contracting iff sigma < 0
        sigma = float(cc.sigma_rate(lam, a, b, gamma))
        ok = (
            (sigma < 0) == (lam < -gamma)
            and abs(sigma) >= 0.5 * gamma * a - 1e-15
            and (
                sigma == pytest.approx(0.5 * a * lam)
                if lam < -gamma
                else sigma == pytest.approx(1.5 * b * max(abs(lam), gamma))
            )
        )
        if not ok:
            failures.append("sigma-rules")
            break

    # c. the measure mu equals the brute-force largest eigenvalue of
    #    sym(J(x)) at random state points; transverse part never exceeds it
    from test_measures import charpoly_eigs

    checked = 0
    while checked < 200:
        x = rng.uniform(-3, 3, size=2)
        if np.linalg.norm(vdp.f_raw(x)) < 1e-6:
            continue
        S = cc.symmetric_part(vdp.eval_jacobian(x))
        if abs(cc.transverse_measure(vdp, x).mu - charpoly_eigs(S)[-1]) > 1e-7:
            failures.append("mu-oracle")
            break
        checked += 1
    for _ in range(100):
        x = rng.uniform(-3, 3, size=2)
        if np.linalg.norm(vdp.f_raw(x)) < 1e-3:
            continue
        ts = cc.transverse_measure(vdp, x)
        if ts.mu_perp > ts.mu + 1e-12:
            failures.append("mu-perp-le-mu")
            break

    # d. phase-rate closed form vs finite differences of a continued
    #    synchronization on random registry-system configurations
    from test_constants import continued_theta

    h = 1e-3
    s_grid = np.linspace(0.0, h, 9)
    checked = 0
    fields = [vdp, harmonic, linear]
    while checked < 100:
        field = fields[checked % 3]
        x_i = rng.uniform(-2, 2, size=2)
        f_i = field.f_raw(x_i)
        nf = np.linalg.norm(f_i)
        if nf < 0.3:
            continue
        w = np.array([-f_i[1], f_i[0]]) / nf
        y_i = x_i + rng.uniform(-0.05, 0.05) * w
        thetas = continued_theta(field, x_i, y_i, s_grid)
        fd = np.gradient(thetas, s_grid)
        ref = ReferenceSolution.compute(field, y_i, h, 4 * h, refine=4000)
        k = 4
        xi = ref.traj.dense_point(thetas[k])
        td = theta_dot(field, x_i, s_grid[k], xi)
        if abs(td - fd[k]) > 1e-4 * (1.0 + abs(td)) + 2e-3 * h:
            failures.append("theta-dot-fd")
            break
        checked += 1

    # e. crossing detector: circle-flow period and monotone escape
    trajH = cc.simulate(harmonic, [1.0, 0.0], 1e-4, 70000)
    secH = cc.Section.through(harmonic, trajH.nodes[0])
    crossH = cc.detect_crossings(trajH, secH, cc.default_exclusion(1e-4, 0.1))
    if not crossH or abs(crossH[0].time - 2 * np.pi) > 0.01:
        failures.append("harmonic-period")
    drift = cc.load_system({"rhs": ["1", "0"], "params": {}, "name": "drift"})
    trajD = cc.simulate(drift, [0.0, 0.0], 0.01, 500)
    if cc.detect_crossings(
        trajD, cc.Section(np.zeros(2), np.array([1.0, 0.0])), cc.Exclusion(0.1, 0.01)
    ):
        failures.append("monotone-escape")

    # f. certified tube contains 20 fine-step trajectories for one return;
    #    each h/100 reference is streamed and stepped only as far as the
    #    synchronization up to the tube horizon reads it
    disk = tube.y0_disk
    w = np.array([-disk.normal[1], disk.normal[0]]) / np.linalg.norm(disk.normal)
    u = np.random.default_rng(12).uniform(-1, 1, size=20)
    for uk in u:
        y0 = disk.center + uk * disk.radius * w
        ref = cc.ReferenceStream(vdp, y0, VDP_H, 1.1 * tube.horizon, refine=100)
        series = cc.synchronize(ref, up_to(vdp_cert.trajectory, tube.N1))
        if tube_membership_check(series, tube, vdp_cert.step_condition.rhs):
            failures.append("forward-invariance")
            break

    # g. negative controls
    neg = cc.certify_existence(
        linear, (1.0, 0.0), 1e-2, 0.1, 0.015, PipelineConfig(), horizon=20.0
    )
    if neg.failure["reason"] != "no-return":
        failures.append("negative-linear")
    focus = cc.load_system({"id": "unstable-focus", "params": {"growth": 0.05}})
    negf = cc.certify_existence(
        focus, (1.0, 0.0), 2e-4, 0.1, 0.015, PipelineConfig(), horizon=20.0
    )
    if negf.failure["reason"] != "eq_new-violated":
        failures.append("negative-focus")
    expH = cc.contraction_exponent(
        cc.Run(harmonic, (1.0, 0.0), 1e-3), 0.015, 0.05, PipelineConfig(), horizon=10.0
    )
    if not expH.K_max > 0:
        failures.append("negative-harmonic")

    report("5 (property suite)", not failures, f"failed={failures}")


def test_criterion_6_determinism(vdp, vdp_cert):
    cert2 = cc.certify_existence(
        vdp, VDP_X0, VDP_H, VDP_DELTA0, VDP_GAMMA, PipelineConfig(), horizon=10.0
    )
    a = canonical_json(vdp_cert.to_dict())
    b = canonical_json(cert2.to_dict())
    report(
        "6 (determinism)",
        a == b,
        f"identical={a == b} bytes={len(a)}",
    )
