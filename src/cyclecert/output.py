"""Deterministic serialization: canonical JSON, CSV exports, atomic writes.

Floats are rendered with 17 significant digits and keys are sorted, so two
runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import repeat
from pathlib import Path

import numpy as np


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(x, ".17g")


def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (np.floating, float)):
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in items)
            + "}"
        )
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return _render(obj) + "\n"


def atomic_write_text(path, text):
    """Write ``text``, a string or an iterable of strings written in turn,
    to a temporary file, then move it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write_text(path, canonical_json(obj))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                format(v, ".17g") if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# domain-specific exports
# --------------------------------------------------------------------------


def write_trajectory_csv(path, traj, stride: int = 1):
    n = traj.nodes.shape[1]
    header = ["t"] + [f"x_{k + 1}" for k in range(n)]
    idx = range(0, traj.n_steps + 1, stride)
    rows = ([i * traj.h] + list(traj.nodes[i]) for i in idx)
    write_csv(path, header, rows)


def write_crossings_csv(path, returns):
    dim = len(returns[0][2].point) if returns else 2
    header = ["p", "R_p", "N_p"] + [f"x_{k + 1}" for k in range(dim)]
    rows = (
        [p + 1, rp, np_, *crossing.point]
        for p, (rp, np_, crossing) in enumerate(returns)
    )
    write_csv(path, header, rows)


def write_tube_csv(path, tube, traj, stride: int = 1):
    header = ["i", "t", "c_1", "c_2", "alpha", "delta", "Lambda", "sigma"]

    def rows():
        for i in range(0, tube.N1, stride):
            yield [
                i,
                i * tube.h,
                traj.nodes[i][0],
                traj.nodes[i][1],
                tube.alpha[i],
                tube.delta[i],
                tube.lam[i],
                tube.sigma[i],
            ]

    write_csv(path, header, rows())


def write_measures_csv(path, tube, mu_perp_nodes, stride: int = 1):
    header = ["i", "Lambda", "sigma", "branch", "mu_perp"]

    def rows():
        for i in range(0, tube.N1, stride):
            yield [
                i,
                tube.lam[i],
                tube.sigma[i],
                "contracting" if tube.sigma[i] < 0 else "regularized",
                mu_perp_nodes[i],
            ]

    write_csv(path, header, rows())


# rows formatted per pass of write_error_curve_csv
CSV_ROWS = 1 << 16


def write_error_curve_csv(path, series, D: float):
    """The rows of :func:`write_csv` for a synchronized error series.

    Columns are taken with ``tolist()`` a block of rows at a time and
    formatted as Python floats, which gives the text numpy scalars give, in
    less time; each block is written before the next is formatted.
    """
    floor = D * series.h
    n = series.times.size
    bounds = series.bounds if series.bounds is not None else np.full(n, floor)
    columns = (series.times, series.thetas, series.errors, bounds)
    row = "%.17g,%.17g,%.17g,%.17g,%.17g\n"

    def blocks():
        yield "t,theta,error,delta_bound,Dh\n"
        for a in range(0, n, CSV_ROWS):
            rows = zip(*(c[a : a + CSV_ROWS].tolist() for c in columns), repeat(floor))
            yield "".join(row % r for r in rows)

    atomic_write_text(path, blocks())


def schema_dir() -> Path:
    return Path(__file__).parent / "schemas"


def load_schema(name: str) -> dict:
    with open(schema_dir() / name) as fh:
        return json.load(fh)
