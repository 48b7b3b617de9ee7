"""Matrix measures, their transverse restriction and per-step growth rates.

For the Euclidean norm the matrix measure of A is the largest eigenvalue of
the symmetric part (A + A^T)/2.  The transverse variant excludes the flow
direction by projecting the symmetric part onto the orthogonal complement
of f(x), which in the plane is the single direction f(x) turned by a
quarter.

Every sampled extremum (the slice bounds Lambda_i and the phase-rate
bounds [a_i, b_i] on the tube's anchor segments, and v and f_max of the
return-time interval) is padded by one rule, :func:`padded_extrema`.
Per-step growth rates are conservative approximations of the slice-wise
bound: contracting slices use half the lower phase rate, all others use
3/2 of the upper phase rate with the magnitude floored at gamma, so every
rate is bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumProximityError, InputError, NumericError
from .systems import VectorField

# |f| floor below which the transverse decomposition is undefined
M_FLOOR = 1e-8
# Every sampled extremum is widened by this factor times the largest jump
# between neighbouring samples (padded_extrema).
PAD_FACTOR = 1.0


def padded_extrema(vals, wrap=()):
    """(min, max) of ``vals`` over every axis but the last, each widened by
    ``PAD_FACTOR`` times the largest jump between neighbours along any of
    those axes.  The axes in ``wrap`` are periodic: their last and first
    samples are neighbours too."""
    axes = tuple(range(vals.ndim - 1))
    jump = np.zeros(vals.shape[-1])
    for ax in axes:
        d = vals - np.roll(vals, 1, axis=ax) if ax in wrap else np.diff(vals, axis=ax)
        np.maximum(jump, np.abs(d, out=d).max(axis=axes, initial=0.0), out=jump)
    pad = PAD_FACTOR * jump
    return vals.min(axis=axes) - pad, vals.max(axis=axes) + pad


def symmetric_part(J) -> np.ndarray:
    """(J + J^T)/2 for one matrix or a batch (..., n, n)."""
    J = np.asarray(J, dtype=float)
    if J.ndim < 2 or J.shape[-1] != J.shape[-2]:
        raise InputError(f"expected square matrices, got shape {J.shape}")
    return 0.5 * (J + np.swapaxes(J, -1, -2))


def _rot90(v):
    """Counterclockwise quarter turn of planar vectors (..., 2)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def planar_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of planar vectors (..., 2).

    sqrt(v0*v0 + v1*v1) in components equals ``np.linalg.norm(v, axis=-1)``
    bit for bit (its sum over a length-2 axis adds the same two squares) at
    a fraction of the cost.
    """
    return norm_planes(v[..., 0], v[..., 1])


def norm_planes(v0, v1):
    """:func:`planar_norm` of the vectors with component arrays v0, v1."""
    return np.sqrt(v0 * v0 + v1 * v1)


def mu_perp_batch(field: VectorField, X: np.ndarray, u2=None) -> np.ndarray:
    """Transverse measure w^T S w at a batch of points (..., 2), with w the
    unit normal of f; the hot kernel behind the slice bounds.  With ``u2``
    given, the points are the component planes ``X`` (first) and ``u2``.

    Computed in planar components: with w = (-f_1, f_0)/|f| and S the
    symmetric part of J, the four terms w_i S_ij w_j are summed in the
    order i, j = 00, 01, 10, 11, which is the order (and so the rounding)
    of ``np.einsum("...i,...ij,...j->...", w, S, w)``.

    The result and every temporary are five point-shaped planes, each
    written in place by the IEEE operation of the expression beside it; a
    0-d batch (one point) gets 0-d planes.
    """
    if u2 is None:
        X = np.asarray(X, dtype=float)
        u1, u2 = X[..., 0], X[..., 1]
    else:
        u1 = X
    F0, F1 = field.f_planes(u1, u2)
    # the scratch planes come before the result, so the result lies above
    # them on the heap and freeing them leaves malloc no top to trim and
    # fault back in on the next call; [k, ...] keeps a 0-d plane an array
    scratch = np.empty((4,) + np.shape(F0))
    t, w0, w1, s = (scratch[k, ...] for k in range(4))
    out = np.empty(np.shape(F0))
    nf = np.multiply(F0, F0, out=t)
    nf += np.multiply(F1, F1, out=w1)
    np.sqrt(nf, out=nf)  # norm_planes(F0, F1)
    if np.any(nf <= M_FLOOR):
        raise EquilibriumProximityError(
            "|f| at or below the floor inside a slice; transverse "
            "decomposition undefined near equilibria"
        )
    np.divide(np.negative(F1, out=w0), nf, out=w0)  # -F1 / nf
    np.divide(F0, nf, out=w1)  # F0 / nf
    j00, j01, j10, j11 = field.jac_planes(u1, u2)
    # w0 s00 w0 + w0 s01 w1 + w1 s01 w0 + w1 s11 w1, s_ij = 0.5 (j_ij + j_ji)
    np.multiply(w0, _half_sum(j00, j00, out), out=out)
    out *= w0
    s01 = _half_sum(j01, j10, s)
    out += np.multiply(np.multiply(w0, s01, out=t), w1, out=t)
    out += np.multiply(np.multiply(w1, s01, out=t), w0, out=t)
    out += np.multiply(np.multiply(w1, _half_sum(j11, j11, t), out=t), w1, out=t)
    return out


def _half_sum(a, b, buf):
    """0.5 * (a + b), written into ``buf`` unless a and b are both plain
    numbers (constant Jacobian entries), which stay one."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return 0.5 * (a + b)
    return np.multiply(0.5, np.add(a, b, out=buf), out=buf)


@dataclass(frozen=True)
class TransverseSpectrum:
    """Spectrum of the symmetric part, its measure mu and the transverse
    measure mu_perp."""

    eigenvalues: np.ndarray
    mu: float
    mu_perp: float


def transverse_measure(field: VectorField, x) -> TransverseSpectrum:
    """Full measure mu and transverse measure mu_perp at one point."""
    x = np.asarray(x, dtype=float)
    f = field.eval_f(x)
    nf = float(np.linalg.norm(f))
    if nf <= M_FLOOR:
        raise EquilibriumProximityError(
            f"|f(x)| = {nf:g} <= floor {M_FLOOR:g}; point is too close to "
            "an equilibrium"
        )
    evals = np.linalg.eigvalsh(symmetric_part(field.eval_jacobian(x)))
    return TransverseSpectrum(
        eigenvalues=evals,
        mu=float(evals[-1]),
        mu_perp=float(mu_perp_batch(field, x)),
    )


def sigma_rate(lam, a, b, gamma: float) -> np.ndarray:
    """Regularized growth rates, one per segment (array index).

    contracting: sigma = a * Lambda / 2 < 0 (when Lambda < -gamma);
    regularized: sigma = 3/2 * b * max(|Lambda|, gamma) > 0.  The branch is
    the sign of sigma.  The gamma floor keeps |sigma| >= gamma*a/2 > 0,
    which the error-floor constant downstream relies on; a rate that breaks
    it (a NaN Lambda, for one) raises :class:`NumericError`.
    """
    if gamma <= 0.0:
        raise InputError("gamma must be positive")
    lam = np.asarray(lam, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), lam.shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), lam.shape)
    if np.any(a <= 0.0):
        raise InputError("phase-rate lower bounds must be positive")
    bad = np.flatnonzero(b < a)
    if bad.size:
        i = int(bad[0])
        raise InputError(
            f"segment {i}: phase-rate bounds must satisfy a <= b, got "
            f"a = {float(a.flat[i])!r} > b = {float(b.flat[i])!r}"
        )
    out = np.where(
        lam < -gamma,
        0.5 * a * lam,
        1.5 * b * np.maximum(np.abs(lam), gamma),
    )
    bad = np.flatnonzero(~(np.abs(out) >= 0.5 * gamma * a - 1e-300))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"segment {i}: growth rate {float(out.flat[i])!r} from Lambda "
            f"{float(lam.flat[i])!r} is below the floor gamma*a/2 = "
            f"{0.5 * gamma * float(a.flat[i])!r}"
        )
    return out
