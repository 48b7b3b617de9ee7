"""The verdict core: every step from the tube's sampled bounds to a verdict.

Its functions map arrays and numbers to arrays and numbers, sampling no
field: the rates and the chain delta_{i+1} = delta_i e^{sigma_i h}, the
radii and their excess, the step condition, the return inclusion, the
return-time interval and the loop exponents K0, Kh and d = max K.  Same
operation order: each performs the IEEE operations of the builder code it
took over, in its order and on arrays of its shapes, so no output bit
moves.  Every exponential is :func:`growth`'s ``np.exp`` or
:func:`radius_at`'s ``math.exp``, which differs from it in the last ulp on
some arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CycleCertError, InputError, NumericError
from .measures import sigma_rate

# Relative slack of radius_excess.
RADIUS_RTOL = 1e-3


def piece_rates(lam, a, b, gamma, count):
    """:func:`~cyclecert.measures.sigma_rate` on per-piece values, whose
    pieces have ``count`` segments each.  An error is raised as the rates of
    the segments raise it, naming the first segment of the piece at fault."""
    try:
        return sigma_rate(lam, a, b, gamma)
    except CycleCertError:
        sigma_rate(*(np.repeat(v, count) for v in (lam, a, b)), gamma)
        raise


def growth(sigma, s):
    """e^{sigma s} on broadcast arrays."""
    return np.exp(sigma * s)


def delta_chain(rate, count, delta0, h):
    """delta_0 = delta0, delta_{i+1} = delta_i e^{sigma_i h}, from the rates
    of pieces of ``count`` segments each."""
    return np.concatenate(
        [[delta0], delta0 * np.cumprod(np.repeat(growth(rate, h), count))]
    )


def widened_radius(c, rate, count, s):
    """The s-grid maxima of c_i e^{sigma_i s_k} over the segments i, from
    their widened radii c_i >= 0 and the rates of their pieces of ``count``
    segments each.

    Rounding is monotone, so the maximum of the products is the product
    with the maximum, bit for bit; but an infinite c_i on a piece where an
    exp underflows to 0 gives the NaN of inf * 0, as the products do.
    """
    plane = growth(rate[None, :], s[:, None])
    out = c * np.repeat(plane.max(axis=0), count)
    under = (plane == 0.0).any(axis=0)
    if under.any():
        at = np.repeat(under, count) & np.isinf(c)
        out[at] = c[at] * 0.0
    return out


def radius_excess(delta, sampled_radius) -> int | None:
    """The first segment whose tube radius, by the chain ``delta``, exceeds
    the radius its bounds were sampled on (a NaN radius counts), or None."""
    span = np.maximum(delta[:-1], delta[1:])
    ok = span <= sampled_radius * (1.0 + RADIUS_RTOL) + 1e-300
    return None if ok.all() else int(ok.argmin())


def radius_at(delta, sigma, h, ts) -> np.ndarray:
    """The radius delta_i e^{sigma_i s} at each time t = i h + s of an
    array; a time on a node takes delta_i, which delta_i e^0 rounds to."""
    ts = np.asarray(ts, dtype=float)
    horizon = sigma.size * h
    outside = (ts < 0.0) | (ts > horizon * (1 + 1e-12))
    if outside.any():
        raise InputError(f"time {ts[outside][0]} outside tube horizon [0, {horizon}]")
    i = np.minimum((ts / h).astype(np.int64), sigma.size - 1)
    s = ts - i * h
    out = delta[i]
    off = np.nonzero(s != 0.0)[0]
    i = i[off]
    exp = math.exp
    out[off] = [
        d * exp(g * x)
        for d, g, x in zip(delta[i].tolist(), sigma[i].tolist(), s[off].tolist())
    ]
    return out


def step_margins(delta, m_tilde, a, b, L, M_f, gamma, h):
    """(margins, floor) of the step condition per segment: the floor h (M~_i
    (2L/(gamma a_i) + 1) + b_i M_f), and min(delta_{i-1}, delta_i) less it,
    since the radius is monotone in s.  A floor that is not finite (2L/(gamma
    a_i) overflows) raises NumericError: there is no condition to report."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        rhs = h * (m_tilde * (2.0 * L / (gamma * a) + 1.0) + b * M_f)
    if not np.isfinite(rhs).all():
        i = int(np.argmin(np.isfinite(rhs)))
        raise NumericError(
            f"the step condition's floor is not finite at segment {i + 1}: "
            f"2L/(gamma a) = 2 * {L!r} / ({gamma!r} * {float(a[i])!r})"
        )
    return np.minimum(delta[:-1], delta[1:]) - rhs, rhs


def inclusion(gap, radius, delta0):
    """The left side of |x(R1) - x0| + delta(R1) < delta0, and whether it holds."""
    lhs = gap + radius
    return lhs, lhs < delta0


def eta_interval(a, b, h, R1, rho, v, f_max, ball_radius) -> dict:
    """The fields ``eta``, ``T_lo``, ``T_hi``, ``sum_lo``, ``sum_hi`` and
    ``e`` of :class:`~cyclecert.constants.EtaEstimate`, which derives them."""
    weights = np.full(a.size, h)
    weights[-1] = R1 - (a.size - 1) * h
    sum_lo = float(np.sum(weights / b))
    sum_hi = float(np.sum(weights / a))
    e = rho / v if v > 0.0 else math.inf
    if not rho + e * f_max <= ball_radius:
        e = math.inf
    T_lo = sum_lo - e
    return {"eta": 0.5 * T_lo, "T_lo": T_lo, "T_hi": sum_hi + e,
            "sum_lo": sum_lo, "sum_hi": sum_hi, "e": e}


def loop_exponents(sigma, h):
    """K0 = h (sigma_0 + ... + sigma_{N1-2}), Kh = K0 + h sigma_{N1-1} and
    the last rate: K is linear in s, so K0 and Kh bound it."""
    K0 = float(h * sigma[:-1].sum())
    last = float(sigma[-1])
    return K0, K0 + h * last, last


def basin_exponent(K0, Kh) -> float:
    """d = max K over the start points; the disk is a basin iff d < 0."""
    return float(max(max(k0, kh) for k0, kh in zip(K0, Kh)))
