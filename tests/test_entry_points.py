"""Every public entry point gives a result or a CycleCertError.

One derandomized hypothesis test feeds the library's entry points the
values a caller can get wrong: empty runs and lists, NaN, infinite, zero
and negative scalars and counts, points of the wrong shape, and runs on
mixed fields.  A call may return anything or raise a
:class:`~cyclecert.errors.CycleCertError`; any other exception is an
escape, which the entry point should refuse with an InputError.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclecert as cc
from cyclecert.errors import CycleCertError

from conftest import VDP_DELTA0, VDP_GAMMA, VDP_X0

BAD_SCALARS = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_COUNTS = [math.nan, math.inf, 0, -1, 1.5]
BAD_POINTS = [(), (1.0,), (1.0, 2.0, 3.0), ((1.8929, -0.5383),), (math.nan, 0.0)]
# section normals without a direction
BAD_NORMALS = [(0.0, 0.0), (-0.0, 0.0), (math.inf, 1.0), (math.nan, 1.0)]
# steps of at least 5e-3, and horizons of at most 8 (3 for a reference of
# up to 10 substeps a step), keep every run within 6,000 steps
COARSE_H = 1e-2
Y0 = (1.8037, -0.5057)


def sometimes(bad, good):
    """Values of ``good``, and one of ``bad`` a quarter of the time, so
    that a bad value often meets the code past the checks of the others."""
    pick = st.sampled_from([False, False, False, True])
    return pick.flatmap(lambda is_bad: st.sampled_from(bad) if is_bad else good)


def scalar(lo, hi):
    return sometimes(BAD_SCALARS, st.floats(lo, hi))


def count(lo, hi):
    return sometimes(BAD_COUNTS, st.integers(lo, hi))


def point(near):
    return sometimes(BAD_POINTS, st.tuples(*(st.floats(c - 0.05, c + 0.05) for c in near)))


class World:
    """The fields, and a coarse certificate that fails only eq_h."""

    def __init__(self, vdp, harmonic):
        self.vdp, self.harmonic = vdp, harmonic
        config = cc.PipelineConfig(lambda_stride=10, sweep_samples=3)
        self.cert = cc.certify_existence(
            vdp, VDP_X0, COARSE_H, VDP_DELTA0, VDP_GAMMA, config, horizon=8.0
        )
        assert self.cert.constants is not None, self.cert.failure

    def __repr__(self):  # hypothesis prints it with a falsifying example
        return "World(vdp, harmonic, cert)"


@pytest.fixture(scope="module")
def world(vdp, harmonic):
    return World(vdp, harmonic)


def runs_of(world, kind):
    """Fresh runs of one kind: none, the coarse disk's, or runs on mixed
    fields or steps."""
    vdp, disk = world.vdp, world.cert.tube.y0_disk
    if kind == "empty":
        return []
    if kind == "fields":
        return [cc.Run(vdp, VDP_X0, COARSE_H), cc.Run(world.harmonic, VDP_X0, COARSE_H)]
    if kind == "steps":
        return [cc.Run(vdp, VDP_X0, COARSE_H), cc.Run(vdp, VDP_X0, 2 * COARSE_H)]
    return [cc.Run(vdp, z, COARSE_H) for z in disk.sweep_points(3)]


RUNS = st.sampled_from(["empty", "fields", "steps", "disk"])


def call_load_system(world, draw):
    spec = draw(
        st.sampled_from(
            [
                {"id": "vanderpol", "params": {"p": math.nan}},
                {"id": "vanderpol", "params": {"p": math.inf}},
                {"id": "vanderpol", "params": {"p": -1.0}},
                {"id": "linear-stable", "params": {"rate": 0.0}},
                {"id": "no-such-system"},
                {"rhs": []},
                {"rhs": ["x2"]},
                {"rhs": ["x2", "-x1", "x1"]},
                {"rhs": ["x2", "-p*x1"], "params": {"p": math.nan}},
                {},
            ]
        )
    )
    return cc.load_system(spec)


def call_simulate(world, draw):
    return cc.simulate(
        world.vdp, draw(point(VDP_X0)), draw(scalar(5e-3, 5e-2)), draw(count(1, 200))
    )


def call_run_extend(world, draw):
    run = cc.Run(world.vdp, draw(point(VDP_X0)), draw(scalar(5e-3, 5e-2)))
    return run.extend(draw(count(0, 200)))


def call_sweep_points(world, draw):
    center, normal = draw(point(VDP_X0)), draw(point((-0.5, -2.0)))
    disk = cc.SectionDisk(center, draw(scalar(1e-3, 0.2)), normal)
    return disk.sweep_points(draw(st.integers(-2, 5)))


def call_section_disk(world, draw):
    # a disk is built with a direction: its sweep points are finite
    normal = draw(sometimes(BAD_NORMALS, st.sampled_from([(-0.5, -2.0), (1e-3, 0.0)])))
    disk = cc.SectionDisk(VDP_X0, draw(st.floats(1e-3, 0.2)), normal)
    points = disk.sweep_points(draw(st.integers(2, 5)))
    assert np.isfinite(points).all(), points


def call_reference_solution(world, draw):
    return cc.ReferenceSolution.compute(
        world.vdp, draw(point(Y0)), draw(scalar(5e-3, 5e-2)), draw(scalar(0.5, 3.0)),
        draw(count(1, 10)),
    )


def call_batch_first_return(world, draw):
    runs = runs_of(world, draw(RUNS))
    section = cc.Section.through(world.vdp, VDP_X0)
    exclusion = cc.default_exclusion(draw(scalar(5e-3, 5e-2)), draw(scalar(0.01, 0.2)))
    return cc.batch_first_return(runs, draw(scalar(6.5, 8.0)), section, exclusion)


def call_return_time_sweep(world, draw):
    runs = runs_of(world, draw(RUNS))
    disk = world.cert.tube.y0_disk
    return cc.return_time_sweep(runs, disk, draw(scalar(6.5, 8.0)))


def call_estimate_eta(world, draw):
    runs = runs_of(world, draw(RUNS))
    tube = world.cert.tube
    return cc.estimate_eta(tube, draw(scalar(0.01, 0.3)), draw(scalar(6.5, 8.0)), runs)


def call_synchronize(world, draw):
    vdp, cert = world.vdp, world.cert
    traj = cc.simulate(vdp, VDP_X0, draw(st.sampled_from([COARSE_H, 0.05])), 40)
    reference = cc.ReferenceStream(
        vdp, draw(point(Y0)), draw(scalar(5e-3, 5e-2)), draw(scalar(0.5, 3.0)),
        draw(count(1, 10)),
    )
    return cc.synchronize(
        reference, traj, tau_sync=draw(scalar(0.1, 1.0)),
        tube=draw(st.sampled_from([None, cert.tube])),
        D=draw(st.sampled_from([None]) | scalar(0.1, 10.0)),
    )


def call_certify_existence(world, draw):
    stride = draw(count(1, 50))
    samples = draw(count(1, 5))
    config = cc.PipelineConfig(lambda_stride=stride, sweep_samples=samples)
    return cc.certify_existence(
        world.vdp, draw(point(VDP_X0)), draw(scalar(5e-3, 5e-2)),
        draw(scalar(0.01, 0.2)), draw(scalar(1e-3, 0.1)), config,
        horizon=draw(scalar(1.0, 8.0)),
    )


def call_certify_attraction(world, draw):
    # the coarse certificate as it is (failed) and as if it were certified
    cert = world.cert
    verdict = draw(st.sampled_from(["failed", "certified"]))
    existence = dataclasses.replace(cert, verdict=verdict)
    return cc.certify_attraction(existence, draw(st.none() | scalar(-1.0, 0.0)))


def call_error_curve_experiment(world, draw):
    h_list = draw(sometimes([[]], st.lists(scalar(2e-2, 5e-2), min_size=1, max_size=2)))
    return cc.error_curve_experiment(
        world.vdp, VDP_X0, draw(point(Y0)), h_list,
        draw(scalar(0.1, 0.5)), VDP_DELTA0, VDP_GAMMA,
        cc.PipelineConfig(sweep_samples=3), horizon=8.0, refine=draw(count(1, 4)),
    )


ENTRY_POINTS = {
    f.__name__.removeprefix("call_"): f
    for f in (
        call_certify_existence, call_certify_attraction, call_error_curve_experiment,
        call_return_time_sweep, call_estimate_eta, call_batch_first_return,
        call_simulate, call_run_extend, call_synchronize, call_sweep_points,
        call_load_system, call_section_disk, call_reference_solution,
    )
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_entry_point_gives_a_result_or_a_cyclecert_error(world, name, data):
    with np.errstate(all="ignore"):
        try:
            ENTRY_POINTS[name](world, data.draw)
        except CycleCertError:
            pass
