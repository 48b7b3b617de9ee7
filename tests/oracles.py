"""Straightforward whole-array versions of the tube kernels.

These are the einsum and per-gap loop forms that ``measures.mu_perp_batch``
and ``tube.lambda_profile`` / ``tube.ab_profile`` compute in planar
components and over segment blocks; the tests hold the library kernels to
them bit for bit.
"""

import numpy as np

from cyclecert.errors import EquilibriumProximityError, InvalidReparametrizationError
from cyclecert.measures import M_FLOOR, symmetric_part


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


def drift_bridge_loop(lamA, padA, anchors, N1, pad_factor):
    """Lambda and padding of the segments from the padded anchor bounds,
    one gap at a time."""
    lam = np.empty(N1)
    pad = np.zeros(N1)
    lam[anchors] = lamA
    for j in range(anchors.size - 1):
        a0, a1 = anchors[j], anchors[j + 1]
        if a1 > a0 + 1:
            drift = pad_factor * abs(lamA[j + 1] - lamA[j])
            lam[a0 + 1 : a1] = max(lamA[j], lamA[j + 1]) + drift
            pad[a0 + 1 : a1] = drift
    pad[anchors] = padA
    return lam, pad


def ab_profile_whole(field, grids, radius, cfg):
    """(a_i, b_i) over all segments at once, with the full
    (offsets, n_s, N1) theta-dot array and its neighbor differences."""
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
    margin = cfg.pad_factor * jump
    return td.min(axis=(0, 1)) - margin, td.max(axis=(0, 1)) + margin
