"""Autonomous ODE systems with Jacobians.

A :class:`VectorField` wraps the right-hand side f of dx/dt = f(x) together
with its Jacobian J(x).  Registry systems ship an analytic, numpy-broadcasting
Jacobian; user-defined systems loaded from a config fall back to central
finite differences unless Jacobian expressions are supplied.

Right-hand sides and Jacobians accept arrays of shape (..., n) and return
(..., n) resp. (..., n, n), so the rest of the toolkit can evaluate whole
batches of points in one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError

DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class VectorField:
    """An autonomous system f: R^n -> R^n with a Jacobian.

    Immutable after construction; evaluation is pure, so instances are safe
    to share across threads.
    """

    name: str
    dim: int
    params: dict
    rhs: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = DEFAULT_FD_STEP
    # planar systems only: (u1, u2) -> (du1, du2), called on plain floats
    # and on float64 arrays.  It may use only + - * / (no **, no math or
    # numpy functions), so it rounds element by element on arrays as it does
    # on floats; simulate's sweeps verify array results against the float
    # recurrence on that basis.  Every registry system meets this.  One that
    # raises TypeError or ValueError on arrays (it branches on its
    # arguments) is stepped on plain floats only.
    rhs_scalar2: Optional[Callable] = dc_field(default=None, repr=False)

    @property
    def jacobian_mode(self) -> str:
        return "analytic" if self.jacobian is not None else "finite-difference"

    # -- raw evaluation (no validation), used by vectorized inner loops -----

    def f_raw(self, x):
        return self.rhs(np.asarray(x, dtype=float))

    def jac_raw(self, x):
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return self.jacobian(x)
        return self._jac_fd(x)

    def _jac_fd(self, x):
        """Central-difference Jacobian with step ``fd_step``, batched."""
        eps = self.fd_step
        cols = []
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = eps
            cols.append((self.rhs(x + e) - self.rhs(x - e)) / (2.0 * eps))
        # cols[k] = df/dx_k, shape (..., n); stack to (..., n, n)
        return np.stack(cols, axis=-1)

    # -- validated public operations ----------------------------------------

    def eval_f(self, x) -> np.ndarray:
        """Evaluate f(x) for a single point, with input/output validation."""
        x = self._check_point(x)
        out = self.rhs(x)
        if not np.all(np.isfinite(out)):
            bad = int(np.nonzero(~np.isfinite(out))[0][0])
            raise NumericError(
                f"f(x) is not finite in coordinate {bad} at x={x.tolist()}"
            )
        return out

    def eval_jacobian(self, x) -> np.ndarray:
        """Evaluate the n-by-n Jacobian J(x) for a single point."""
        x = self._check_point(x)
        out = self.jac_raw(x)
        if not np.all(np.isfinite(out)):
            i, j = np.argwhere(~np.isfinite(out))[0]
            raise NumericError(
                f"J(x) is not finite in entry ({int(i)},{int(j)}) at x={x.tolist()}"
            )
        return out

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InputError(
                f"expected a point of dimension {self.dim}, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise InputError(f"point has non-finite coordinates: {x.tolist()}")
        return x


# --------------------------------------------------------------------------
# registry systems
# --------------------------------------------------------------------------


def _make_vanderpol(params):
    p = float(params.get("p", 0.3))

    # each output is one preallocated array filled component by component
    def rhs(x):
        u1, u2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape)
        out[..., 0] = u2
        out[..., 1] = p * u2 - p * u1 ** 2 * u2 - u1
        return out

    def jac(x):
        u1, u2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 0.0
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = -2.0 * p * u1 * u2 - 1.0
        out[..., 1, 1] = p - p * u1 ** 2
        return out

    def rhs2(u1, u2):
        return u2, p * u2 - p * u1 * u1 * u2 - u1

    return VectorField("vanderpol", 2, {"p": p}, rhs, jac, rhs_scalar2=rhs2)


def _make_harmonic(params):
    def rhs(x):
        return np.stack([x[..., 1], -x[..., 0]], axis=-1)

    J = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def jac(x):
        return np.broadcast_to(J, x.shape[:-1] + (2, 2)).copy()

    def rhs2(u1, u2):
        return u2, -u1

    return VectorField("harmonic", 2, {}, rhs, jac, rhs_scalar2=rhs2)


def _make_linear_stable(params):
    rate = float(params.get("rate", 1.0))

    def rhs(x):
        return -rate * x

    def jac(x):
        eye = -rate * np.eye(2)
        return np.broadcast_to(eye, x.shape[:-1] + (2, 2)).copy()

    def rhs2(u1, u2):
        return -rate * u1, -rate * u2

    return VectorField("linear-stable", 2, {"rate": rate}, rhs, jac, rhs_scalar2=rhs2)


def _make_fitzhugh_nagumo(params):
    a = float(params.get("a", 0.7))
    b = float(params.get("b", 0.8))
    eps = float(params.get("eps", 0.08))
    current = float(params.get("current", 0.5))

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

    def rhs2(v, w):
        return v - v * v * v / 3.0 - w + current, eps * (v + a - b * w)

    return VectorField(
        "fitzhugh-nagumo",
        2,
        {"a": a, "b": b, "eps": eps, "current": current},
        rhs,
        jac,
        rhs_scalar2=rhs2,
    )


def _make_unstable_focus(params):
    # expanding spiral: radial growth `growth`, unit angular speed
    growth = float(params.get("growth", 0.05))

    def rhs(x):
        u1, u2 = x[..., 0], x[..., 1]
        return np.stack([growth * u1 - u2, u1 + growth * u2], axis=-1)

    J = None

    def jac(x):
        m = np.array([[growth, -1.0], [1.0, growth]])
        return np.broadcast_to(m, x.shape[:-1] + (2, 2)).copy()

    def rhs2(u1, u2):
        return growth * u1 - u2, u1 + growth * u2

    return VectorField(
        "unstable-focus", 2, {"growth": growth}, rhs, jac, rhs_scalar2=rhs2
    )


REGISTRY = {
    "vanderpol": _make_vanderpol,
    "harmonic": _make_harmonic,
    "linear-stable": _make_linear_stable,
    "fitzhugh-nagumo": _make_fitzhugh_nagumo,
    "unstable-focus": _make_unstable_focus,
}


# --------------------------------------------------------------------------
# config-file loading
# --------------------------------------------------------------------------


@dataclass
class SystemSpec:
    """Parsed system definition: registry id or inline expressions.

    JSON schema (one of ``id`` / ``rhs`` is required)::

        {"id": "vanderpol", "params": {"p": 0.3}}
        {"name": "...", "rhs": ["x2", "p*x2 - p*x1**2*x2 - x1"],
         "params": {"p": 0.3},
         "jacobian": [["0", "1"], ["-2*p*x1*x2 - 1", "p - p*x1**2"]]}

    Inline expressions use state variables ``x1..xn`` plus parameter names.
    Inline systems use finite-difference Jacobians unless ``jacobian``
    expressions are given.
    """

    system_id: Optional[str] = None
    rhs_exprs: Optional[list] = None
    params: dict = dc_field(default_factory=dict)
    jacobian_exprs: Optional[list] = None
    name: Optional[str] = None
    fd_step: float = DEFAULT_FD_STEP

    @classmethod
    def from_dict(cls, d: dict) -> "SystemSpec":
        if not isinstance(d, dict):
            raise InputError("system spec must be a JSON object")
        if "id" not in d and "rhs" not in d:
            raise InputError("system spec needs either 'id' or 'rhs'")
        return cls(
            system_id=d.get("id"),
            rhs_exprs=d.get("rhs"),
            params=dict(d.get("params", {})),
            jacobian_exprs=d.get("jacobian"),
            name=d.get("name"),
            fd_step=float(d.get("fd_step", DEFAULT_FD_STEP)),
        )

    @classmethod
    def from_json(cls, path) -> "SystemSpec":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed system file {path}: {e}") from e
        return cls.from_dict(d)


def _lambdify_exprs(exprs, var_names, params, dim):
    """Compile a list of expressions into one batched numpy callable."""
    import sympy

    symbols = sympy.symbols(var_names)
    local = dict(zip(var_names, symbols))
    compiled = []
    for expr in exprs:
        try:
            sym = sympy.sympify(expr, locals=local)
        except (sympy.SympifyError, SyntaxError, TypeError) as e:
            raise InputError(f"malformed expression {expr!r}: {e}") from e
        free = {str(s) for s in sym.free_symbols} - set(var_names)
        missing = free - set(params)
        if missing:
            raise InputError(f"missing parameter(s) {sorted(missing)} in {expr!r}")
        sym = sym.subs({sympy.Symbol(k): v for k, v in params.items()})
        compiled.append(sympy.lambdify(symbols, sym, modules="numpy"))
    return compiled


def load_system(spec) -> VectorField:
    """Build a :class:`VectorField` from a :class:`SystemSpec`, dict or path.

    Registry ids are bound with their analytic Jacobians; inline systems get
    central-difference Jacobians unless Jacobian expressions are provided.
    """
    if isinstance(spec, (str, Path)):
        spec = SystemSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = SystemSpec.from_dict(spec)
    if not isinstance(spec, SystemSpec):
        raise InputError(f"cannot interpret system spec of type {type(spec)!r}")

    if spec.system_id is not None:
        maker = REGISTRY.get(spec.system_id)
        if maker is None:
            raise InputError(
                f"unknown system id {spec.system_id!r}; "
                f"known: {sorted(REGISTRY)}"
            )
        return maker(spec.params)

    dim = len(spec.rhs_exprs)
    var_names = [f"x{k + 1}" for k in range(dim)]
    fns = _lambdify_exprs(spec.rhs_exprs, var_names, spec.params, dim)

    def rhs(x):
        comps = [np.asarray(fn(*np.moveaxis(x, -1, 0)), dtype=float) for fn in fns]
        comps = [np.broadcast_to(c, x.shape[:-1]) for c in comps]
        return np.stack(comps, axis=-1)

    jac = None
    if spec.jacobian_exprs is not None:
        flat = [e for row in spec.jacobian_exprs for e in row]
        if len(flat) != dim * dim:
            raise InputError("jacobian must be an n-by-n array of expressions")
        jfns = _lambdify_exprs(flat, var_names, spec.params, dim)

        def jac(x):
            vals = [
                np.broadcast_to(
                    np.asarray(fn(*np.moveaxis(x, -1, 0)), dtype=float),
                    x.shape[:-1],
                )
                for fn in jfns
            ]
            arr = np.stack(vals, axis=-1)
            return arr.reshape(x.shape[:-1] + (dim, dim))

    return VectorField(
        spec.name or "inline",
        dim,
        dict(spec.params),
        rhs,
        jac,
        fd_step=spec.fd_step,
    )
