"""Straightforward versions of library kernels, kept as test oracles.

These are the einsum and per-gap loop forms that ``measures.mu_perp_batch``
and ``tube.lambda_profile`` / ``tube.ab_profile`` compute in planar
components, over blocks and between anchors, the whole-loop planes that
``tube.build_tube`` streams in segment blocks, the stacked (..., 2) Van der Pol and
FitzHugh-Nagumo right-hand sides and Jacobians that the registry's planar
kernels replaced, the sampled return-time sweep that the tube's return-time
interval replaced, the joined synchronization series that the error curve
now fills in place, and a central-difference Jacobian that checks the
hand-written registry Jacobians; the tests hold the library to them.
"""

from types import SimpleNamespace

import numpy as np

from cyclecert.errors import (
    CertificateBlockedError,
    EquilibriumProximityError,
    InvalidReparametrizationError,
)
from cyclecert.euler import Exclusion, Section, batch_first_return
from cyclecert.measures import (
    M_FLOOR,
    PAD_FACTOR,
    norm_planes,
    sigma_rate,
    symmetric_part,
)
from cyclecert.syncerr import SyncErrorSeries
from cyclecert.tube import (
    PASSES,
    RADIUS_SAFETY,
    SegmentGrids,
    lambda_profile,
)


FD_STEP = 1e-6


def central_difference_jacobian(field, x, eps=FD_STEP):
    """J(x) for points (..., n) from central differences of f with step eps."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[k] = eps
        cols.append((field.f_raw(x + e) - field.f_raw(x - e)) / (2.0 * eps))
    # cols[k] = df/dx_k, shape (..., n); stack to (..., n, n)
    return np.stack(cols, axis=-1)


def mu_perp_einsum(field, X):
    """w^T S w with w the unit normal of f, as one einsum."""
    X = np.asarray(X, dtype=float)
    F = field.f_raw(X)
    nf = np.linalg.norm(F, axis=-1)
    if np.any(nf <= M_FLOOR):
        raise EquilibriumProximityError("|f| at or below the floor")
    S = symmetric_part(field.jac_raw(X))
    w = np.stack([-F[..., 1], F[..., 0]], axis=-1) / nf[..., None]
    return np.einsum("...i,...ij,...j->...", w, S, w)


def bridge_loop(vA, anchors, N1, side, pad_factor):
    """A lower (side -1) or upper (+1) bound on the segments from its padded
    anchor values, one gap at a time: the worse of the two anchor values,
    widened by pad_factor / 8 times the larger |second difference| at the
    two anchors, where an end anchor takes its neighbor's."""
    out = np.empty(N1)
    out[anchors] = vA
    n = anchors.size

    def curvature(k):
        if n < 3:
            return 0.0
        k = min(max(k, 1), n - 2)
        return abs((vA[k + 1] - vA[k]) - (vA[k] - vA[k - 1]))

    worse = min if side < 0 else max
    for j in range(n - 1):
        a0, a1 = anchors[j], anchors[j + 1]
        if a1 > a0 + 1:
            pad = pad_factor * max(curvature(j), curvature(j + 1)) / 8
            out[a0 + 1 : a1] = worse(vA[j], vA[j + 1]) + side * pad
    return out


def interleaved(grids, cols=slice(None)):
    """The component planes of a ``SegmentGrids``, or of its columns
    ``cols``, stacked into (..., 2) point arrays ``P``, ``W``, ``FC`` and
    ``FN``."""
    P = np.stack([grids.P0, grids.P1], axis=-1)[:, cols]
    return SimpleNamespace(
        P=P,
        W=np.stack([grids.W0, grids.W1], axis=-1)[:, cols],
        FC=np.stack([grids.FC0, grids.FC1], axis=-1)[:, cols],
        FN=np.stack([grids.FN0, grids.FN1], axis=-1)[cols],
        nFC=grids.nFC[:, cols],
        n_s=grids.n_s,
        N1=P.shape[1],
    )


def ab_profile_whole(field, grids, radius, cfg):
    """(a_i, b_i) over all segments at once, with the full
    (offsets, n_s, N1) theta-dot array and its neighbor differences.

    ``grids`` holds (..., 2) point arrays, :func:`interleaved` of a
    ``SegmentGrids``."""
    offs = np.linspace(-1.0, 1.0, cfg.ab_offsets)
    JC = field.jac_raw(grids.P)
    Jf = np.einsum("snij,nj->sni", JC, grids.FN)
    base = np.einsum("ni,sni->sn", grids.FN, grids.FC)
    td = np.empty((offs.size, grids.n_s, grids.N1))
    for k, o in enumerate(offs):
        XI = grids.P + o * radius[..., None] * grids.W
        num = base - np.einsum("sni,sni->sn", XI - grids.P, Jf)
        den = np.einsum("sni,sni->sn", field.f_raw(XI), grids.FC)
        low = np.abs(den) < M_FLOOR * grids.nFC
        if np.any(low):
            bad = int(np.nonzero(low.any(axis=0))[0][0])
            raise InvalidReparametrizationError(
                f"phase-rate denominator vanished at segment {bad}; step too "
                "large or tube too fat"
            )
        td[k] = num / den
    jump = np.abs(np.diff(td, axis=0)).max(axis=(0, 1))
    jump = np.maximum(jump, np.abs(np.diff(td, axis=1)).max(axis=(0, 1)))
    margin = PAD_FACTOR * jump
    return td.min(axis=(0, 1)) - margin, td.max(axis=(0, 1)) + margin


def build_tube_whole(field, traj, N1, delta0, gamma, cfg):
    """The per-segment arrays of ``build_tube`` from whole-loop (n_s, N1)
    planes: one ``SegmentGrids`` over every segment, whose anchor columns
    both Lambda passes and the (a, b) pass read, the (a, b) bridge one gap
    at a time, and the slice radii of every segment as one plane per
    pass."""
    grids = SegmentGrids(field, traj, N1, cfg.n_s)
    anchors = np.arange(0, N1, cfg.lambda_stride)
    if anchors[-1] != N1 - 1:
        anchors = np.append(anchors, N1 - 1)
    a_seg, b_seg = np.ones(N1), np.ones(N1)
    radius = np.full((cfg.n_s, N1), delta0)
    for pass_no in range(1, PASSES + 1):
        lam = lambda_profile(field, grids, radius, anchors, cfg)
        sigma = sigma_rate(lam, a_seg, b_seg, gamma)
        delta_nodes = np.concatenate(
            [[delta0], delta0 * np.cumprod(np.exp(sigma * traj.h))]
        )
        if pass_no == PASSES:
            break
        growth = np.exp(sigma[None, :] * grids.s[:, None])
        r = (delta_nodes[None, :N1] * growth)[:, anchors]
        aA, bA = ab_profile_whole(field, interleaved(grids, anchors), r, cfg)
        a_seg = bridge_loop(aA, anchors, N1, -1.0, PAD_FACTOR)
        b_seg = bridge_loop(bA, anchors, N1, 1.0, PAD_FACTOR)
        radius = RADIUS_SAFETY * delta_nodes[None, :N1] * growth
    return SimpleNamespace(
        lam=lam, sigma=sigma, a_seg=a_seg, b_seg=b_seg,
        m_tilde=norm_planes(grids.P0, grids.P1).max(axis=0),
        sampled_radius=radius.max(axis=0),
    )


def vanderpol_stacked(p):
    """The Van der Pol (rhs, jac) pair built with ``np.stack``."""

    def rhs(x):
        u1, u2 = x[..., 0], x[..., 1]
        return np.stack([u2, p * u2 - p * u1 ** 2 * u2 - u1], axis=-1)

    def jac(x):
        u1, u2 = x[..., 0], x[..., 1]
        z = np.zeros_like(u1)
        row1 = np.stack([z, np.ones_like(u1)], axis=-1)
        row2 = np.stack([-2.0 * p * u1 * u2 - 1.0, p - p * u1 ** 2], axis=-1)
        return np.stack([row1, row2], axis=-2)

    return rhs, jac


def fitzhugh_nagumo_stacked(a, b, eps, current):
    """The FitzHugh-Nagumo (rhs, jac) pair built with ``np.stack``."""

    def rhs(x):
        v, w = x[..., 0], x[..., 1]
        return np.stack(
            [v - v ** 3 / 3.0 - w + current, eps * (v + a - b * w)], axis=-1
        )

    def jac(x):
        v = x[..., 0]
        row1 = np.stack([1.0 - v ** 2, -np.ones_like(v)], axis=-1)
        row2 = np.stack(
            [np.full_like(v, eps), np.full_like(v, -eps * b)], axis=-1
        )
        return np.stack([row1, row2], axis=-2)

    return rhs, jac


def eta_sweep_oracle(field, disk, n_samples, h, horizon, refine=10):
    """Sweep first return times from ``disk.sweep_points(n_samples)``.

    Fine-step surrogates of the exact flow (step h/refine) give T_lo, T_hi
    and the floor eta = T_lo/2; the plain step h gives R', the bound on the
    discrete first-return time.  Both sweeps use the crossing rule of
    :func:`~cyclecert.euler.return_times`.  A sample that never returns
    within the horizon, or whose run diverges, blocks certification.
    """
    pts = disk.sweep_points(n_samples)
    section = Section(disk.center, disk.normal)

    def sweep(step):
        excl = Exclusion(t_min=10.0 * step, r_excl=0.5 * disk.radius)
        times = batch_first_return(field, pts, step, horizon, section, excl)
        if np.isnan(times).any():
            bad = int(np.nonzero(np.isnan(times))[0][0])
            raise CertificateBlockedError(
                f"return-time sweep at step {step:g}: sample {bad} at "
                f"{pts[bad].tolist()} diverged or did not return within "
                f"horizon {horizon:g}"
            )
        return times

    t_flow = sweep(h / refine)
    t_euler = sweep(h)
    T_lo, T_hi = float(t_flow.min()), float(t_flow.max())
    return SimpleNamespace(
        eta=0.5 * T_lo,
        T_lo=T_lo,
        T_hi=T_hi,
        R_prime=float(t_euler.max()),
        n_samples=n_samples,
        refine=refine,
        flow_times=t_flow,
    )


def concatenate_series(parts):
    """One SyncErrorSeries from the consecutive parts of a synchronization."""

    def join(name):
        return np.concatenate([getattr(p, name) for p in parts])

    return SyncErrorSeries(
        times=join("times"),
        thetas=join("thetas"),
        errors=join("errors"),
        residuals=join("residuals"),
        h=parts[0].h,
        bounds=None if parts[0].bounds is None else join("bounds"),
    )
