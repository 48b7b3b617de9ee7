"""Matrix measures and their transverse restriction.

For the Euclidean norm the matrix measure of A is the largest eigenvalue of
the symmetric part (A + A^T)/2.  The transverse variant excludes the flow
direction: either exactly, by projecting the symmetric part onto the
orthogonal complement of f(x) (the default in the plane, where the
complement is one-dimensional), or by discarding the eigenvector most
aligned with f(x) (eigenvector matching, used in higher dimensions).

Per-step growth rates are conservative approximations of the slice-wise
transverse bound: contracting slices use half the lower phase rate, all
others use 3/2 of the upper phase rate with the magnitude floored at gamma,
so every rate is bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumProximityError, InputError, NumericError
from .systems import VectorField

M_FLOOR = 1e-8


def symmetric_part(J) -> np.ndarray:
    """(J + J^T)/2 for one matrix or a batch (..., n, n)."""
    J = np.asarray(J, dtype=float)
    if J.ndim < 2 or J.shape[-1] != J.shape[-2]:
        raise InputError(f"expected square matrices, got shape {J.shape}")
    return 0.5 * (J + np.swapaxes(J, -1, -2))


def _rot90(v):
    """Counterclockwise quarter turn of planar vectors (..., 2)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _complement_basis(f_unit: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of a unit vector, as columns."""
    n = f_unit.shape[0]
    q, _ = np.linalg.qr(np.column_stack([f_unit, np.eye(n)]))
    # first column of q spans f (up to sign); remaining n-1 span the complement
    return q[:, 1:n]


def mu_max_batch(S: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of symmetric matrices, batched."""
    return np.linalg.eigvalsh(S)[..., -1]


def mu_perp_batch(
    field: VectorField, X: np.ndarray, m_floor: float = M_FLOOR
) -> np.ndarray:
    """Transverse measure at a batch of points (..., n), projection method.

    Planar systems use the exact one-dimensional complement of f; this is
    the hot kernel behind the slice bounds.
    """
    X = np.asarray(X, dtype=float)
    F = field.f_raw(X)
    nf = np.linalg.norm(F, axis=-1)
    if np.any(nf <= m_floor):
        raise EquilibriumProximityError(
            "|f| at or below the floor inside a slice; transverse "
            "decomposition undefined near equilibria"
        )
    S = symmetric_part(field.jac_raw(X))
    if field.dim == 2:
        w = _rot90(F) / nf[..., None]
        return np.einsum("...i,...ij,...j->...", w, S, w)
    flat = X.reshape(-1, field.dim)
    Sf = S.reshape(-1, field.dim, field.dim)
    Ff = F.reshape(-1, field.dim)
    out = np.empty(flat.shape[0])
    for k in range(flat.shape[0]):
        Q = _complement_basis(Ff[k] / np.linalg.norm(Ff[k]))
        out[k] = mu_max_batch(Q.T @ Sf[k] @ Q)
    return out.reshape(X.shape[:-1])


@dataclass(frozen=True)
class TransverseSpectrum:
    """Spectrum of the symmetric part split into tangent and transverse parts.

    ``alignment`` is |cos| of the angle between the tangent eigenvector and
    f(x)/|f(x)|; values below 0.9 mean the flow direction sits between
    eigenvectors and the eigenvector-match split is ambiguous.
    """

    eigenvalues: np.ndarray
    tangent_index: int
    mu: float
    mu_perp: float
    alignment: float
    method: str

    @property
    def ambiguous(self) -> bool:
        return self.alignment < 0.9


def transverse_measure(
    field: VectorField,
    x,
    method: str = "auto",
    m_floor: float = M_FLOOR,
) -> TransverseSpectrum:
    """Full measure mu and transverse measure mu_perp at one point.

    ``projection``: mu_perp is the largest eigenvalue of Q^T S Q with Q an
    orthonormal basis of the complement of f(x); exact and unambiguous for
    planar systems.  ``eigenvector-match``: the eigenvector most aligned
    with f(x) is declared tangent and dropped; ties go to the larger
    eigenvalue.  ``auto`` picks projection for n = 2, matching otherwise.
    """
    x = np.asarray(x, dtype=float)
    f = field.eval_f(x)
    nf = float(np.linalg.norm(f))
    if nf <= m_floor:
        raise EquilibriumProximityError(
            f"|f(x)| = {nf:g} <= floor {m_floor:g}; point is too close to "
            "an equilibrium"
        )
    if method == "auto":
        method = "projection" if field.dim == 2 else "eigenvector-match"
    if method not in ("projection", "eigenvector-match"):
        raise InputError(f"unknown method {method!r}")

    S = symmetric_part(field.eval_jacobian(x))
    evals, evecs = np.linalg.eigh(S)
    f_unit = f / nf
    overlaps = np.abs(evecs.T @ f_unit)
    # tie-break equally aligned eigenvectors toward the larger eigenvalue:
    # eigh sorts ascending, so the last argmax wins
    tangent = int(len(evals) - 1 - np.argmax(overlaps[::-1]))
    alignment = float(overlaps[tangent])
    mu = float(evals[-1])

    if method == "projection":
        if field.dim == 2:
            w = _rot90(f_unit)
            mu_perp = float(w @ S @ w)
        else:
            Q = _complement_basis(f_unit)
            mu_perp = float(mu_max_batch(Q.T @ S @ Q))
    else:
        rest = np.delete(evals, tangent)
        mu_perp = float(rest.max())

    return TransverseSpectrum(
        eigenvalues=evals,
        tangent_index=tangent,
        mu=mu,
        mu_perp=mu_perp,
        alignment=alignment,
        method=method,
    )


# --------------------------------------------------------------------------
# slice-wise upper bounds
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Slice:
    """A family of section-sliced balls along one Euler segment.

    ``centers`` are points x_i(s) on an s-grid, ``radii`` the ball radii
    there, ``normals`` the section normals f(x_i(s)).
    """

    segment_index: int
    centers: np.ndarray  # (n_s, n)
    radii: np.ndarray  # (n_s,)
    normals: np.ndarray  # (n_s, n)


@dataclass(frozen=True)
class SliceSampling:
    """Sampling density and safety padding for slice bounds."""

    n_s: int = 5
    n_ball: int = 8
    pad_factor: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class LambdaBound:
    """Sampled upper bound of the transverse measure over one slice."""

    segment_index: int
    lam: float
    samples_used: int
    padding: float


def make_slice(
    field: VectorField,
    x_i,
    h: float,
    radius_profile,
    n_s: int,
    segment_index: int = 0,
) -> Slice:
    """Build the s-grid slice family for one segment.

    ``radius_profile`` is a scalar or an array of radii on the s-grid.
    """
    x_i = np.asarray(x_i, dtype=float)
    f_i = field.f_raw(x_i)
    s = np.linspace(0.0, h, n_s)
    centers = x_i[None, :] + s[:, None] * f_i[None, :]
    radii = np.broadcast_to(np.asarray(radius_profile, dtype=float), (n_s,)).copy()
    return Slice(segment_index, centers, radii, field.f_raw(centers))


def _slice_offsets(n_ball: int, dim: int, seed: int) -> np.ndarray:
    """Transverse offset pattern in [-1, 1]; includes endpoints and center."""
    if dim == 2:
        offs = np.linspace(-1.0, 1.0, n_ball)
        if 0.0 not in offs:
            offs = np.sort(np.append(offs, 0.0))
        return offs[:, None]  # coefficients of the single transverse direction
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_ball, dim - 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([np.zeros((1, dim - 1)), pts])


def sample_slice_points(field: VectorField, slc: Slice, sampling: SliceSampling):
    """Concrete sample points of a slice: centers plus transverse offsets.

    Returns (points, shape) where points has shape (n_off, n_s, n).
    """
    centers = slc.centers
    F = field.f_raw(centers)
    nf = np.linalg.norm(F, axis=-1, keepdims=True)
    if field.dim == 2:
        W = _rot90(F) / nf  # unit transverse direction at each center
        offs = _slice_offsets(sampling.n_ball, 2, sampling.seed)[:, 0]
        pts = (
            centers[None, :, :]
            + offs[:, None, None] * slc.radii[None, :, None] * W[None, :, :]
        )
        return pts
    coeffs = _slice_offsets(sampling.n_ball, field.dim, sampling.seed)
    pts = np.empty((coeffs.shape[0],) + centers.shape)
    for j in range(centers.shape[0]):
        Q = _complement_basis(F[j] / nf[j])
        pts[:, j, :] = centers[j] + slc.radii[j] * (coeffs @ Q.T)
    return pts


def _sampling_pad(values: np.ndarray, pad_factor: float) -> float:
    """Half the largest neighbor jump adjacent to the maximizer.

    Bounds the gap between the sampled maximum and the true supremum of a
    smooth field sampled on a grid (piecewise-linear interpolation error).
    """
    if values.size <= 1 or pad_factor == 0.0:
        return 0.0
    flat_idx = np.argmax(values)
    ij = np.unravel_index(flat_idx, values.shape)
    jump = 0.0
    for axis in range(values.ndim):
        for d in (-1, 1):
            kk = list(ij)
            kk[axis] += d
            if 0 <= kk[axis] < values.shape[axis]:
                jump = max(jump, abs(values[ij] - values[tuple(kk)]))
    return pad_factor * 0.5 * jump


def lambda_over_slice(
    field: VectorField,
    slc: Slice,
    sampling: SliceSampling = SliceSampling(),
    m_floor: float = M_FLOOR,
) -> LambdaBound:
    """Sampled upper bound of mu_perp over a slice, with safety padding.

    The bound is the maximum over the sample grid plus ``pad_factor`` times
    half the largest neighbor jump at the maximizer; it dominates every
    sampled value by construction.
    """
    if np.any(slc.radii < 0.0):
        raise InputError("slice radii must be nonnegative")
    pts = sample_slice_points(field, slc, sampling)
    vals = mu_perp_batch(field, pts, m_floor=m_floor)
    pad = _sampling_pad(vals, sampling.pad_factor)
    return LambdaBound(
        segment_index=slc.segment_index,
        lam=float(vals.max() + pad),
        samples_used=int(vals.size),
        padding=float(pad),
    )


# --------------------------------------------------------------------------
# regularized per-step growth rates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaRate:
    """Per-step growth rate with its branch.

    contracting: sigma = a * Lambda / 2 < 0 (requires Lambda < -gamma);
    regularized: sigma = 3/2 * b * max(|Lambda|, gamma) > 0.
    """

    segment_index: int
    sigma: float
    branch: str


def sigma_rate(lam, a: float, b: float, gamma: float) -> SigmaRate:
    """Regularized growth rate for one step.

    The gamma floor keeps |sigma| >= gamma*a/2 > 0, which the error-floor
    constant downstream relies on; a rate that breaks it (a NaN Lambda, for
    one) raises :class:`NumericError`.
    """
    if isinstance(lam, LambdaBound):
        index, lam_val = lam.segment_index, lam.lam
    else:
        index, lam_val = 0, float(lam)
    if gamma <= 0.0:
        raise InputError("gamma must be positive")
    if a <= 0.0:
        raise InputError("phase-rate lower bound a must be positive")
    if b < a:
        raise InputError("phase-rate bounds must satisfy a <= b")

    if lam_val < -gamma:
        sigma = 0.5 * a * lam_val
        branch = "contracting"
    else:
        sigma = 1.5 * b * max(abs(lam_val), gamma)
        branch = "regularized"
    if not abs(sigma) >= 0.5 * gamma * a - 1e-300:
        raise NumericError(
            f"segment {index}: growth rate {sigma!r} from Lambda {lam_val!r} "
            f"is below the floor gamma*a/2 = {0.5 * gamma * a!r}"
        )
    return SigmaRate(segment_index=index, sigma=sigma, branch=branch)


def sigma_rate_batch(lam: np.ndarray, a, b, gamma: float) -> np.ndarray:
    """Vectorized growth rates; same branch rules and floor check as
    :func:`sigma_rate`, with the array index as the segment index."""
    if gamma <= 0.0:
        raise InputError("gamma must be positive")
    lam = np.asarray(lam, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), lam.shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), lam.shape)
    if np.any(a <= 0.0):
        raise InputError("phase-rate lower bounds must be positive")
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
