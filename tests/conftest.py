import numpy as np
import pytest

import cyclecert as cc

VDP_X0 = (1.8929, -0.5383)
VDP_H = 1e-4
VDP_DELTA0 = 0.1
VDP_GAMMA = 0.015


@pytest.fixture(scope="session")
def vdp():
    return cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})


@pytest.fixture(scope="session")
def harmonic():
    return cc.load_system({"id": "harmonic"})


@pytest.fixture(scope="session")
def linear():
    return cc.load_system({"id": "linear-stable", "params": {"rate": 1.0}})


@pytest.fixture(scope="session")
def vdp_cert(vdp):
    """Certified Van der Pol run at the reference parameters; shared because
    the full pipeline costs seconds."""
    cert = cc.certify_existence(
        vdp, VDP_X0, VDP_H, VDP_DELTA0, VDP_GAMMA, cc.PipelineConfig(), horizon=10.0
    )
    assert cert.certified, cert.failure
    return cert


def force_rate(monkeypatch, c):
    """Make every per-segment rate of ``build_tube`` the constant c."""
    monkeypatch.setattr(
        cc.verdict, "sigma_rate", lambda lam, a, b, gamma: np.full(lam.shape, c)
    )


def up_to(traj, n):
    """The first n steps of ``traj``, as a trajectory of its own."""
    return cc.EulerTrajectory(traj.field, traj.x0, traj.h, traj.nodes[: n + 1])


def escape_field(mode):
    """The circle flow for u1 < 1.03; beyond it u1 drifts off ("drift", no
    return) or blows up ("blowup", the run diverges).  Its rhs_scalar2
    branches on its arguments, so its runs step on plain floats."""

    def rhs(x):
        u1, u2 = x[..., 0], x[..., 1]
        out = u1 * u1 if mode == "blowup" else np.ones_like(u1)
        inside = u1 < 1.03
        return np.stack([np.where(inside, u2, out), np.where(inside, -u1, 0.0)], -1)

    def rhs2(u1, u2):
        if u1 < 1.03:
            return u2, -u1
        return (u1 * u1 if mode == "blowup" else 1.0), 0.0

    return cc.VectorField(f"escape-{mode}", {}, rhs, rhs_scalar2=rhs2)
