"""Planar autonomous ODE systems with Jacobians.

A :class:`VectorField` wraps the right-hand side f of dx/dt = f(x), its
Jacobian J(x) and ``rhs_scalar2``, the f that every Euler step calls.

Every system is expression strings in the state variables x1, x2 and its
parameters, and one function, :func:`_compiled_field`, compiles them.  A
registry entry (:data:`REGISTRY`) is its f, J and, where that rounds
differently from f, ``rhs_scalar2`` as strings, so it loads without sympy.
An inline system from a config gives f alone: sympy checks it, derives J
and prints both as strings for numpy and for ``math``.

f and J compile to planar kernels on component arrays.  Right-hand sides and
Jacobians are views of them that accept arrays of shape (..., 2) and return
(..., 2) resp. (..., 2, 2), so the rest of the toolkit can evaluate whole
batches of points in one call; the tube kernels call the planar kernels
directly (:meth:`VectorField.f_planes`).
"""

from __future__ import annotations

import functools
import json
import math
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

    Planar kernels: every system this module builds compiles f once, as
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
    # it does on floats; Run.extend's sweeps verify array results against the
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
# systems as expression strings: the registry, compiling and loading
# --------------------------------------------------------------------------

# id -> (parameter defaults, f, J row by row[, rhs_scalar2]), expressions in
# x1, x2 and the parameters.  rhs_scalar2 is given where it rounds
# differently from f (x1*x1 against x1**2); otherwise it is f
REGISTRY = {
    "vanderpol": (
        {"p": 0.3},
        ["x2", "p*x2 - p*x1**2*x2 - x1"],
        [["0.0", "1.0"], ["-2.0*p*x1*x2 - 1.0", "p - p*x1**2"]],
        ["x2", "p*x2 - p*x1*x1*x2 - x1"],
    ),
    "harmonic": ({}, ["x2", "-x1"], [["0.0", "1.0"], ["-1.0", "0.0"]]),
    # -rate * I, with its signed off-diagonal zeros
    "linear-stable": (
        {"rate": 1.0},
        ["-rate*x1", "-rate*x2"],
        [["-rate", "-rate*0.0"], ["-rate*0.0", "-rate"]],
    ),
    "fitzhugh-nagumo": (
        {"a": 0.7, "b": 0.8, "eps": 0.08, "current": 0.5},
        ["x1 - x1**3/3.0 - x2 + current", "eps*(x1 + a - b*x2)"],
        [["1.0 - x1**2", "-1.0"], ["eps", "-eps*b"]],
        ["x1 - x1*x1*x1/3.0 - x2 + current", "eps*(x1 + a - b*x2)"],
    ),
    # expanding spiral: radial growth `growth`, unit angular speed
    "unstable-focus": (
        {"growth": 0.05},
        ["growth*x1 - x2", "x1 + growth*x2"],
        [["growth", "-1.0"], ["1.0", "growth"]],
    ),
}


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


# The names f and J see: numpy's, then math's for the functions numpy lacks
# (gamma, erf), and functools.reduce, which sympy prints for Min and Max.
# rhs_scalar2 sees math's.
_ARRAY_NAMES = {**vars(math), **vars(np), "reduce": functools.reduce}


def _compiled_field(name, params, f, jac, rhs2=None) -> VectorField:
    """The field of expression strings in x1, x2 and the float parameters
    ``params``: ``f`` (two), ``jac`` (two rows of two) and ``rhs2`` (two,
    ``f`` if None).  Each list compiles to ``lambda x1, x2: (...)``; f and J
    are wrapped in :class:`PlanarView`."""

    def kernel(exprs, names):
        return eval(f"lambda x1, x2: ({', '.join(exprs)},)", {**names, **params})

    jac = [e for row in jac for e in row]
    return VectorField(
        name, 2, params, PlanarView(kernel(f, _ARRAY_NAMES), (2,)),
        PlanarView(kernel(jac, _ARRAY_NAMES), (2, 2)),
        rhs_scalar2=kernel(rhs2 or f, vars(math)),
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

    names = ["x1", "x2", *params]
    local = {k: sympy.Symbol(k) for k in names}
    syms = []
    for i, expr in enumerate(exprs):
        try:
            sym = sympy.sympify(expr, locals=local)
        except (sympy.SympifyError, SyntaxError, TypeError) as e:
            raise InputError(f"malformed expression {expr!r}: {e}") from e
        if not isinstance(sym, sympy.Expr):
            raise InputError(f"expression {expr!r} is not an arithmetic expression")
        if sym.has(sympy.zoo):  # no printer writes it
            raise InputError(f"rhs[{i}] = {expr!r} folds to complex infinity")
        missing = {str(s) for s in sym.free_symbols} - set(names)
        if missing:
            raise InputError(f"missing parameter(s) {sorted(missing)} in {expr!r}")
        syms.append(sym)
    jac = sympy.Matrix(syms).jacobian([local["x1"], local["x2"]])

    def printed(components, printer):
        printer = printer({"fully_qualified_modules": False, "inline": True})
        try:
            return [printer.doprint(c) for c in components]
        except NotImplementedError as e:  # "Unsupported by <printer>: <name>"
            name = str(e).splitlines()[0].rsplit(": ", 1)[-1]
            raise InputError(f"unsupported function {name} in {list(exprs)}") from None

    return _compiled_field(
        name, params, printed(syms, ArrayPrinter),
        [printed(row, ArrayPrinter) for row in jac.tolist()],
        printed(syms, MathPrinter),
    )


def load_system(spec) -> VectorField:
    """Build a :class:`VectorField` from a system spec: a dict, or the path
    of a JSON file that holds one.

    A spec names a registry system or gives inline expressions (one of
    ``id`` / ``rhs`` is required)::

        {"id": "vanderpol", "params": {"p": 0.3}}
        {"name": "...", "rhs": ["x2", "p*x2 - p*x1**2*x2 - x1"],
         "params": {"p": 0.3}}

    Inline expressions use the state variables ``x1, x2`` plus parameter
    names; the Jacobian is derived from them by :func:`_inline_system`.
    Registry systems load without importing sympy.  Other keys, a registry
    parameter the system does not have, and a parameter that is not a
    finite number raise InputError.
    """
    if isinstance(spec, (str, Path)):
        try:
            spec = json.loads(Path(spec).read_text())
        except ValueError as e:  # bad JSON, or bytes that are not text
            raise InputError(f"malformed system file {spec}: {e}") from e
        except OSError as e:
            raise InputError(f"cannot read system file {spec}: {e}") from e
    if not isinstance(spec, dict):
        raise InputError("system spec must be a JSON object")
    if "id" not in spec and "rhs" not in spec:
        raise InputError("system spec needs either 'id' or 'rhs'")
    unknown = sorted(set(spec) - {"id", "rhs", "params", "name"})
    if unknown:
        raise InputError(
            f"unknown system spec key(s) {unknown}; the Jacobian of an "
            "inline system is derived from its rhs"
        )
    if not isinstance(spec.get("rhs", []), list):
        raise InputError("system spec 'rhs' must be a list of expressions")
    if not isinstance(spec.get("params", {}), dict):
        raise InputError("system spec 'params' must be a JSON object")
    for key in ("id", "name"):
        if not isinstance(spec.get(key, ""), str):
            raise InputError(f"system spec {key!r} must be a string")
    params = {}
    for k, v in spec.get("params", {}).items():
        try:
            params[k] = float(v)
        except (TypeError, ValueError):
            raise InputError(f"parameter {k!r} must be a number, got {v!r}") from None
        except OverflowError:  # an integer past the float range
            params[k] = math.inf
        if not math.isfinite(params[k]):
            raise InputError(f"parameter {k!r} must be a finite number, got {v!r}")

    if "id" in spec:
        sid = spec["id"]
        if sid not in REGISTRY:
            raise InputError(f"unknown system id {sid!r}; known: {sorted(REGISTRY)}")
        defaults, *exprs = REGISTRY[sid]
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise InputError(
                f"unknown parameter(s) {unknown} for system {sid!r}; "
                f"its parameters are {sorted(defaults)}"
            )
        return _compiled_field(sid, {**defaults, **params}, *exprs)

    name = spec.get("name") or "inline"
    _check_planar(name, len(spec["rhs"]))
    return _inline_system(name, spec["rhs"], params)
