"""Planar autonomous ODE systems with Jacobians.

A :class:`VectorField` wraps the right-hand side f of dx/dt = f(x), its
Jacobian J(x) and ``rhs_scalar2``, the f that every Euler step calls.
Registry systems are written by hand and load without sympy.  Inline
systems from a config are expressions in the state variables x1, x2 that
sympy compiles, with the Jacobian derived from them.

Both kinds write f and J once, as planar kernels on component arrays.
Right-hand sides and Jacobians are views of them that accept arrays of
shape (..., 2) and return (..., 2) resp. (..., 2, 2), so the rest of the
toolkit can evaluate whole batches of points in one call; the tube kernels
call the planar kernels directly (:meth:`VectorField.f_planes`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError


def _check_planar(name: str, dim: int):
    """Raise :class:`InputError` unless the system is planar."""
    if dim != 2:
        raise InputError(
            f"cyclecert is implemented for planar systems; {name!r} has "
            f"dimension {dim}"
        )


@dataclass(frozen=True)
class VectorField:
    """A planar autonomous system f: R^2 -> R^2 with its Jacobian.

    Construction raises :class:`InputError` unless ``dim`` is 2 and
    ``rhs_scalar2`` is given.  Immutable after construction; evaluation is
    pure, so instances are safe to share across threads.

    Planar kernels: every system this module builds writes f once, as
    ``(u1, u2) -> (f1, f2)``, and J once, as ``(u1, u2) -> (j00, j01, j10,
    j11)``, on component arrays (a constant entry may be a plain number).
    Its ``rhs`` and ``jacobian`` are :class:`PlanarView` objects that fill
    one (..., 2) resp. (..., 2, 2) array with the kernel's components.
    :meth:`f_planes` and :meth:`jac_planes` call the kernel itself when the
    field holds such a view, so the planes and the interleaved arrays come
    from the same expression per component and are equal bit for bit.  Any
    other ``rhs`` or ``jacobian`` (a user callable, or a wrapper that counts
    the points it sees) is called on the stacked points, so it still sees
    every point, and its result is split into planes.
    """

    name: str
    dim: int
    params: dict
    rhs: Callable[[np.ndarray], np.ndarray]
    # None only for a field that is stepped but never differentiated
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # (u1, u2) -> (du1, du2), called on plain floats and on float64 arrays;
    # every Euler step goes through it.  It may use only + - * / (no **, no
    # math or numpy functions), so it rounds element by element on arrays as
    # it does on floats; simulate's sweeps verify array results against the
    # float recurrence on that basis.  Every registry system and every
    # polynomial or rational inline system meets this.  One that raises
    # TypeError or ValueError on arrays (it calls math functions or branches
    # on its arguments) is stepped on plain floats only.
    rhs_scalar2: Optional[Callable] = dc_field(default=None, repr=False)

    def __post_init__(self):
        _check_planar(self.name, self.dim)
        if self.rhs_scalar2 is None:
            raise InputError(f"system {self.name!r} has no rhs_scalar2")

    # -- raw evaluation (no validation), used by vectorized inner loops -----

    def f_raw(self, x):
        return self.rhs(np.asarray(x, dtype=float))

    def jac_raw(self, x):
        return self.jacobian(np.asarray(x, dtype=float))

    def f_planes(self, u1, u2):
        """(f1, f2) at the points with component arrays u1, u2, each an
        array of the points' shape."""
        if isinstance(self.rhs, PlanarView):
            shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
            return tuple(np.broadcast_to(v, shape) for v in self.rhs.kernel(u1, u2))
        out = self.rhs(np.stack([u1, u2], axis=-1))
        return out[..., 0], out[..., 1]

    def jac_planes(self, u1, u2):
        """(j00, j01, j10, j11) at the points with component arrays u1, u2;
        a constant entry may be a plain number, which broadcasts."""
        if isinstance(self.jacobian, PlanarView):
            return self.jacobian.kernel(u1, u2)
        J = self.jacobian(np.stack([u1, u2], axis=-1))
        return J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1]

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

    def f(u1, u2):
        return u2, p * u2 - p * u1 ** 2 * u2 - u1

    def jac(u1, u2):
        return 0.0, 1.0, -2.0 * p * u1 * u2 - 1.0, p - p * u1 ** 2

    def rhs2(u1, u2):
        return u2, p * u2 - p * u1 * u1 * u2 - u1

    return _planar_field("vanderpol", {"p": p}, f, jac, rhs2)


def _make_harmonic(params):
    def f(u1, u2):
        return u2, -u1

    def jac(u1, u2):
        return 0.0, 1.0, -1.0, 0.0

    return _planar_field("harmonic", {}, f, jac, f)


def _make_linear_stable(params):
    rate = float(params.get("rate", 1.0))
    # the entries of -rate * I, with its signed off-diagonal zeros
    diag, off = -rate * 1.0, -rate * 0.0

    def f(u1, u2):
        return -rate * u1, -rate * u2

    def jac(u1, u2):
        return diag, off, off, diag

    return _planar_field("linear-stable", {"rate": rate}, f, jac, f)


def _make_fitzhugh_nagumo(params):
    a = float(params.get("a", 0.7))
    b = float(params.get("b", 0.8))
    eps = float(params.get("eps", 0.08))
    current = float(params.get("current", 0.5))

    def f(v, w):
        return v - v ** 3 / 3.0 - w + current, eps * (v + a - b * w)

    def jac(v, w):
        return 1.0 - v ** 2, -1.0, eps, -eps * b

    def rhs2(v, w):
        return v - v * v * v / 3.0 - w + current, eps * (v + a - b * w)

    return _planar_field(
        "fitzhugh-nagumo",
        {"a": a, "b": b, "eps": eps, "current": current},
        f,
        jac,
        rhs2,
    )


def _make_unstable_focus(params):
    # expanding spiral: radial growth `growth`, unit angular speed
    growth = float(params.get("growth", 0.05))

    def f(u1, u2):
        return growth * u1 - u2, u1 + growth * u2

    def jac(u1, u2):
        return growth, -1.0, 1.0, growth

    return _planar_field("unstable-focus", {"growth": growth}, f, jac, f)


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
         "params": {"p": 0.3}}

    Inline expressions use the state variables ``x1, x2`` plus parameter
    names; the Jacobian is derived from them.  Other keys raise InputError.
    """

    system_id: Optional[str] = None
    rhs_exprs: Optional[list] = None
    params: dict = dc_field(default_factory=dict)
    name: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "SystemSpec":
        if not isinstance(d, dict):
            raise InputError("system spec must be a JSON object")
        if "id" not in d and "rhs" not in d:
            raise InputError("system spec needs either 'id' or 'rhs'")
        unknown = sorted(set(d) - {"id", "rhs", "params", "name"})
        if unknown:
            raise InputError(
                f"unknown system spec key(s) {unknown}; the Jacobian of an "
                "inline system is derived from its rhs"
            )
        if not isinstance(d.get("rhs", []), list):
            raise InputError("system spec 'rhs' must be a list of expressions")
        if not isinstance(d.get("params", {}), dict):
            raise InputError("system spec 'params' must be a JSON object")
        return cls(
            system_id=d.get("id"),
            rhs_exprs=d.get("rhs"),
            params=dict(d.get("params", {})),
            name=d.get("name"),
        )

    @classmethod
    def from_json(cls, path) -> "SystemSpec":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed system file {path}: {e}") from e
        except OSError as e:
            raise InputError(f"cannot read system file {path}: {e}") from e
        return cls.from_dict(d)


class PlanarView:
    """Batched view x (..., 2) -> (...,) + ``shape`` of a planar kernel: the
    entries, in C order, are the components ``kernel(x1, x2)`` returns, each
    filled into one preallocated array."""

    def __init__(self, kernel, shape):
        self.kernel = kernel
        self.shape = shape

    def __call__(self, x):
        out = np.empty(x.shape[:-1] + self.shape)
        flat = out.reshape(x.shape[:-1] + (-1,))
        for k, value in enumerate(self.kernel(x[..., 0], x[..., 1])):
            flat[..., k] = value
        return out


def _planar_field(name, params, f, jac, rhs2) -> VectorField:
    """The field whose ``rhs`` and ``jacobian`` are views of the planar
    kernels ``f`` and ``jac``."""
    return VectorField(
        name, 2, params, PlanarView(f, (2,)), PlanarView(jac, (2, 2)),
        rhs_scalar2=rhs2,
    )


def _inline_system(name, exprs, params) -> VectorField:
    """Compile inline expressions in x1, x2 with sympy.

    ``rhs_scalar2`` is printed for the ``math`` module with integer powers
    written as products (negative ones as 1/(...)), so a polynomial or
    rational system uses only + - * / and meets the contract of
    :class:`VectorField`; non-integer powers go to ``math.pow``, which,
    like every other ``math`` function, raises TypeError on arrays.  ``rhs``
    and the Jacobian, ``sympy.Matrix(exprs).jacobian([x1, x2])``, are
    printed the same way for numpy.  Parameters stay names bound to their
    float values at call time, so no digit of them is lost in printing.
    """
    import sympy
    from sympy.printing.numpy import NumPyPrinter
    from sympy.printing.precedence import PRECEDENCE
    from sympy.printing.pycode import PythonCodePrinter

    def products(printer, expr):
        base = printer.parenthesize(expr.base, PRECEDENCE["Atom"], strict=True)
        prod = "*".join([base] * abs(int(expr.exp)))
        return f"({prod})" if expr.exp > 0 else f"(1/({prod}))"

    class ArrayPrinter(NumPyPrinter):
        def _print_Pow(self, expr, rational=False):
            if expr.exp.is_Integer:
                return products(self, expr)
            return super()._print_Pow(expr, rational=rational)

    class MathPrinter(PythonCodePrinter):
        def _print_Pow(self, expr, rational=False):
            if expr.exp.is_Integer:
                return products(self, expr)
            pow_ = self._module_format("math.pow")
            return f"{pow_}({self._print(expr.base)}, {self._print(expr.exp)})"

    values = {k: float(v) for k, v in params.items()}
    names = ["x1", "x2", *values]
    local = {k: sympy.Symbol(k) for k in names}
    syms = []
    for expr in exprs:
        try:
            sym = sympy.sympify(expr, locals=local)
        except (sympy.SympifyError, SyntaxError, TypeError) as e:
            raise InputError(f"malformed expression {expr!r}: {e}") from e
        if not isinstance(sym, sympy.Expr):
            raise InputError(f"expression {expr!r} is not an arithmetic expression")
        missing = {str(s) for s in sym.free_symbols} - set(names)
        if missing:
            raise InputError(f"missing parameter(s) {sorted(missing)} in {expr!r}")
        syms.append(sym)
    x = [local["x1"], local["x2"]]
    jac = sympy.Matrix(syms).jacobian(x)

    def compiled(components, module, printer):
        settings = {"fully_qualified_modules": False, "inline": True}
        try:
            return sympy.lambdify(
                x, tuple(components), modules=[values, module],
                printer=printer(settings),
            )
        except NotImplementedError as e:  # "Unsupported by <printer>: <name>"
            name = str(e).splitlines()[0].rsplit(": ", 1)[-1]
            raise InputError(
                f"unsupported function {name} in {list(exprs)}"
            ) from None

    return _planar_field(
        name,
        dict(params),
        compiled(syms, "numpy", ArrayPrinter),
        compiled(jac, "numpy", ArrayPrinter),
        compiled(syms, "math", MathPrinter),
    )


def load_system(spec) -> VectorField:
    """Build a :class:`VectorField` from a :class:`SystemSpec`, dict or path.

    Registry ids are bound to their hand-written functions, without
    importing sympy; inline systems are compiled by :func:`_inline_system`.
    """
    if isinstance(spec, (str, Path)):
        spec = SystemSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = SystemSpec.from_dict(spec)
    if not isinstance(spec, SystemSpec):
        raise InputError(f"cannot interpret system spec of type {type(spec)!r}")
    for k, v in spec.params.items():
        try:
            float(v)
        except (TypeError, ValueError):
            raise InputError(f"parameter {k!r} must be a number, got {v!r}") from None

    if spec.system_id is not None:
        maker = REGISTRY.get(spec.system_id)
        if maker is None:
            raise InputError(
                f"unknown system id {spec.system_id!r}; "
                f"known: {sorted(REGISTRY)}"
            )
        return maker(spec.params)

    name = spec.name or "inline"
    _check_planar(name, len(spec.rhs_exprs))
    return _inline_system(name, spec.rhs_exprs, spec.params)
