"""Deterministic serialization: canonical JSON, CSV exports, atomic writes.

Floats are rendered with 17 significant digits and keys are sorted, so two
runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import os
from itertools import chain
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


def atomic_write(path, chunks):
    """Write the bytes ``chunks``, one after another, to a temporary file,
    then move it to ``path``.  The file is created with mode 0o666, so the
    umask sets its permissions, as for any file a program creates."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    atomic_write(path, [canonical_json(obj).encode()])


# CSV: one kernel, csv_rows, whose views are the exports.  A value fills a
# cell of little-endian words, NUL where it has no character: a float the
# sign and "0.000" (below 1) in bytes 0..6, digits in 7..23, those past the
# point one byte up, the exponent in 25..29, the separator in 31.  Deleting
# every NUL gives the text; README "Bit-identity contract" says it is exact.

TIE_MARGIN = 2.0**-20
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double in halves


@functools.cache
def _tables():
    """The kernel's tables, built on first use: a run without CSVs has none."""
    E = np.arange(-271, 272)  # the exponents of the fast path, and a margin
    fixed = (E >= -4) & (E <= 16)  # %g's fixed notation
    # 10**(16 - e) = hi + lo, lo the rest of hi rounded, and hi = h1 + h2
    hi = 10.0 ** (16 - E)
    lo = np.array(  # the exact 10**k - n/d, correctly rounded by int division
        [(10 ** max(k, 0) * d - n * 10 ** max(-k, 0)) / (10 ** max(-k, 0) * d)
         for k, (n, d) in zip((16 - E).tolist(), map(float.as_integer_ratio, hi))]
    )
    h1 = hi * _SPLIT - (hi * _SPLIT - hi)
    # the mask of the bytes of word w below cell byte b, for b in 0..25
    k = np.clip(np.arange(26) - 8 * np.arange(4)[:, None], 0, 8).ravel().tolist()
    below = np.array([(1 << 8 * v) - 1 for v in k], np.uint64).reshape(4, 26)
    # the point's region byte r (cell byte 8 + r): 0 in scientific notation,
    # 16 where the digits hold none; the "0"s of the integer digits in words
    # 1 and 2; the point at each r in words 1..3, and none at r = 17
    r = np.where(fixed, np.where(E >= 0, np.minimum(E, 16), 16), 0)
    fill = below[1:3, 8 + r] & np.uint64(0x3030303030303030) * (fixed & (E >= 0))
    point = (below[1:, 9:] ^ below[1:, 8:-1]) & np.uint64(0x2E2E2E2E2E2E2E2E)
    point = np.concatenate([point, np.zeros((3, 1), np.uint64)], axis=1)
    # the sign and "0.000" ending at cell byte 6, and the exponent from byte 25
    lead = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in E.tolist()]
    lead = b"".join(t.rjust(7, b"\0") + b"\0" for t in lead + [b"-" + t for t in lead])
    prefix = np.frombuffer(lead, "<u8").astype(np.uint64)
    exp = b"".join((b"\0e%+03d" % e).ljust(8, b"\0") for e in E.tolist())
    suffix = np.where(fixed, 0, np.frombuffer(exp, "<u8").astype(np.uint64))
    # "0042" for 42, then with its trailing zeros NUL: "0042", "01\0\0"
    n = np.arange(10000, dtype=np.uint64)
    digits = sum((n // 10 ** (3 - i) % 10 + 48) << 8 * i for i in range(4))
    zeros = sum((n % 10**i == 0).astype(np.uint64) for i in range(1, 5))
    digits = np.concatenate([digits, digits & (1 << 8 * (4 - zeros)) - 1])
    return E, hi, lo, h1, hi - h1, below, r, fill, point, prefix, suffix, digits


def _float_cells(x, out):
    """Fill the (m, 4) uint64 ``out`` with the cells of the float64s ``x``;
    returns the indices of the values left to Python's '%'."""
    E, HI, LO, H1, H2, BELOW, R, FILL, POINT, PREFIX, SUFFIX, DIGITS = _tables()
    a = np.abs(x)
    b = np.fmin(np.fmax(a, 1e-270), 1e270)
    fast = b == a
    j = np.floor(np.log10(b)).astype(np.intp) - E[0]
    p = b * HI[j]
    b1 = b * _SPLIT - (b * _SPLIT - b)
    b2, h1, h2 = b - b1, H1[j], H2[j]
    t = (((b1 * h1 - p) + b1 * h2 + b2 * h1) + b2 * h2) + b * LO[j]
    near = np.rint(t)
    D = p.astype(np.int64) + near.astype(np.int64)
    fast &= (np.abs(t - near) < 0.5 - TIE_MARGIN) & (D > 10**16) & (D < 10**17)
    slow = np.flatnonzero(~fast)
    D[slow], j[slow] = 10**16 + 1, -E[0]
    # D is d0 and the chunks c of 4 digits; the last chunk, and one that only
    # zero chunks follow, is read with its trailing zeros NUL
    d0, hi8 = D // 10**16, D // 10**8
    lo8, hi8 = D - hi8 * 10**8, hi8 - d0 * 10**8
    c = [hi8 // 10**4, hi8, lo8 // 10**4, lo8 + 10000]
    c[1], c[3] = c[1] - c[0] * 10**4, c[3] - c[2] * 10**4
    for k in (2, 1, 0):
        c[k] += (c[k + 1] == 10000) * 10000
    w1 = DIGITS[c[0]] | (DIGITS[c[1]] << 32)
    w2 = DIGITS[c[2]] | (DIGITS[c[3]] << 32)
    # the digits past region byte r move up for the point, kept if one does
    r = R[j]
    low1, low2 = BELOW[1][8 + r], BELOW[2][8 + r]
    up1, up2 = w1 & ~low1, w2 & ~low2
    r[(up1 | up2) == 0] = 17
    out[:, 0] = PREFIX[j + np.signbit(x) * E.size] | (d0.astype(np.uint64) + 48) << 56
    out[:, 1] = w1 & low1 | FILL[0][j] | up1 << 8 | POINT[0][r]
    out[:, 2] = w2 & low2 | FILL[1][j] | up2 << 8 | up1 >> 56 | POINT[1][r]
    out[:, 3] = up2 >> 56 | POINT[2][r] | SUFFIX[j]
    return slow


# rows formatted per block of csv_rows
CSV_ROWS = 1 << 12


def csv_rows(columns, const=()):
    """Yield, as bytes, one block of ``CSV_ROWS`` rows at a time, the CSV
    text of the rows of ``columns``, 1-d arrays of one length of floats,
    integers or bytes, each row ended by the values ``const``.

    A float is ``'%.17g' % float(v)``, an integer ``str(v)``.  ``const``
    is formatted once, by this kernel, as a row of its own."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if {c.shape for c in columns} != {(n,)}:
        raise ValueError("CSV columns must be 1-d arrays of one length")
    if not {c.dtype.kind for c in columns} <= set("fiuS"):
        raise TypeError("CSV columns must hold floats, integers or bytes")
    widths = [c.itemsize // 8 + 1 if c.dtype.kind == "S" else 4 for c in columns]
    end = b"".join(csv_rows([np.asarray([v]) for v in const])) if const else b""
    tail = np.frombuffer(end.ljust(-(-len(end) // 8) * 8, b"\0"), "<u8")
    for a in range(0, n, CSV_ROWS):
        block = np.empty((min(CSV_ROWS, n - a), sum(widths) + tail.size), "<u8")
        text = block.view(np.uint8)
        o = 0
        for c, w in zip(columns, widths):
            c = c[a : a + CSV_ROWS]
            if c.dtype.kind == "S":
                block[:, o : o + w] = 0
                chars = c.view(np.uint8).reshape(-1, c.itemsize)
                text[:, 8 * o : 8 * o + c.itemsize] = chars
            else:
                slow = _float_cells(c.astype(np.float64), block[:, o : o + w])
                fmt = b"%.17g"
                if c.dtype.kind != "f":  # and the integers a double does not hold
                    fmt, big = b"%d", (c > 2**53) | (c < -(2**53))
                    slow = np.union1d(slow, np.flatnonzero(big))
                for i in slow:
                    cell = (fmt % c[i]).ljust(31, b"\0")
                    text[i, 8 * o : 8 * o + 31] = np.frombuffer(cell, np.uint8)
            o += w
            text[:, 8 * o - 1] = ord(",")
        block[:, o:] = tail
        if not const:
            text[:, 8 * o - 1] = ord("\n")
        yield block.tobytes().translate(None, b"\0")


def write_csv(path, header, columns, const=()):
    """Write ``header`` and the :func:`csv_rows` of ``columns``."""
    head = [",".join(header).encode() + b"\n"]
    atomic_write(path, chain(head, csv_rows(columns, const)))


def write_trajectory_csv(path, traj, stride: int = 1):
    i = np.arange(0, traj.n_steps + 1, stride)
    write_csv(path, ["t", "x_1", "x_2"], [i * traj.h, *traj.nodes[i].T])


def write_crossings_csv(path, returns):
    rp, n, crossing = zip(*returns) if returns else ((), (), ())
    xy = np.array([c.point for c in crossing], dtype=float).reshape(-1, 2)
    columns = [np.arange(1, len(rp) + 1), np.array(rp, float), np.array(n, int), *xy.T]
    write_csv(path, ["p", "R_p", "N_p", "x_1", "x_2"], columns)


def write_tube_csv(path, tube, stride: int = 1):
    i = np.arange(0, tube.N1, stride)
    traj = tube.traj
    rates = (tube.alpha, tube.delta, tube.lam, tube.sigma, tube.a_seg, tube.b_seg)
    header = ["i", "t", "c_1", "c_2", "alpha", "delta", "Lambda", "sigma", "a", "b"]
    write_csv(path, header, [i, i * tube.h, *traj.nodes[i].T, *(v[i] for v in rates)])


def write_measures_csv(path, tube, mu_perp_nodes, stride: int = 1):
    i = np.arange(0, tube.N1, stride)
    branch = np.where(tube.sigma[i] < 0, b"contracting", b"regularized")
    columns = [i, tube.lam[i], tube.sigma[i], branch, np.asarray(mu_perp_nodes)[i]]
    write_csv(path, ["i", "Lambda", "sigma", "branch", "mu_perp"], columns)


def write_error_curve_csv(path, series, D: float):
    """The CSV of an error series and its floor D*h.  Dh, and the bound of
    the last rows that repeat the last bound's bits (the rows after the tube
    radius falls below the floor), are formatted once, as the rows' end."""
    floor = D * series.h
    n = series.times.size
    bounds = series.bounds if series.bounds is not None else np.full(n, floor)
    bits = bounds.view(np.int64)
    tail = int(np.max(np.flatnonzero(bits != bits[-1:]) + 1, initial=0))
    columns = [series.times, series.thetas, series.errors, bounds]
    head = csv_rows([c[:tail] for c in columns], (floor,))
    rest = csv_rows([c[tail:] for c in columns[:3]], (bounds[-1], floor) if n else ())
    atomic_write(path, chain([b"t,theta,error,delta_bound,Dh\n"], head, rest))


def schema_dir() -> Path:
    return Path(__file__).parent / "schemas"


def load_schema(name: str) -> dict:
    with open(schema_dir() / name) as fh:
        return json.load(fh)
