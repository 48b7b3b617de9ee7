"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload vdp1-attraction --seed 0 \
        --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The program is imported from ``src/`` of the same checkout;
nothing is installed.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics instead.  The line before it
is ``{"info": ...}``: machine, versions, thread environment, per-unit
times and report digests.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# half before the units, half after, so a run samples the machine at two times
SETUP_PROBES = 16

# import + load_system of a preset's system in a fresh interpreter, then
# the speed kernel's mean time in the same interpreter
PROBE = """\
import sys, time
t0 = time.perf_counter()
import cyclecert
cyclecert.load_system(cyclecert.get_preset(sys.argv[1]).system)
t = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from speed import kernel_mean
print(t, kernel_mean(int(sys.argv[3])))
"""
PROBE_KERNELS = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(preset, count):
    """Seconds of ``import cyclecert`` + ``load_system`` of the preset's
    system, each of ``count`` probes timed inside a fresh interpreter and
    put at the reference speed by the kernel's mean time measured right
    after it in the same interpreter.  Returns (measured, scaled) pairs."""
    from speed import REFERENCE_S

    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, preset, str(BENCH), str(PROBE_KERNELS)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        t, kernel_s = map(float, proc.stdout.split())
        probes.append((t, t * REFERENCE_S / kernel_s))
    return probes


def run_unit(wl, seed, out, tracer=None):
    """One timed unit, then its checks: returns a record dict.

    Untraced, the unit runs under a ``Speedometer`` and the record's
    ``wall`` and ``cpu`` are at the reference speed; the measured seconds
    are ``raw_wall`` and ``raw_cpu``.  Traced, ``wall`` is measured.
    """
    from speed import Speedometer

    out.mkdir(parents=True)
    gc.collect()
    meter = Speedometer() if tracer is None else None
    try:
        if tracer is not None:
            tracer.install()
        with meter or contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                failures = wl.run(seed, out)
            except Exception:  # a failed unit is counted, not fatal
                traceback.print_exc()
                failures = ["raised"]
            raw_wall = time.perf_counter() - w0
            raw_cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.close()
    wall, cpu = raw_wall, raw_cpu
    kernel_s = None
    if meter is not None:
        wall, cpu = meter.scale(raw_wall, raw_cpu)
        kernel_s = dict(mean=statistics.fmean(meter.wall), samples=len(meter.wall))
    docs, digest = None, None
    paths = [out / name for name in wl.reports]
    if all(p.is_file() for p in paths):
        data = [p.read_bytes() for p in paths]
        digest = hashlib.sha256(b"".join(data)).hexdigest()
        docs = [json.loads(d) for d in data]
        try:
            failures = failures + wl.check(docs)
        except (KeyError, TypeError, ValueError):
            traceback.print_exc()
            failures = failures + ["malformed_report"]
    else:
        failures = failures + ["missing_report"]
    shutil.rmtree(out)
    return dict(wall=wall, cpu=cpu, raw_wall=raw_wall, raw_cpu=raw_cpu,
                kernel_s=kernel_s, failures=failures, digest=digest, docs=docs)


def measure(wl, args, out_root):
    from tracing import Tracer

    units, probes = [], []
    if args.trace:
        tracer = Tracer()
        units.append(run_unit(wl, args.seed, out_root / "unit0", tracer))
    else:
        probes += probe_setup(wl.preset, SETUP_PROBES // 2)
        t0 = time.perf_counter()
        while not units or time.perf_counter() - t0 < args.seconds:
            units.append(run_unit(wl, args.seed, out_root / f"unit{len(units)}"))
        probes += probe_setup(wl.preset, SETUP_PROBES - SETUP_PROBES // 2)
    failed = sum(1 for u in units if u["failures"])

    if args.trace:
        (traced,) = units
        metrics = tracer.metrics(traced["wall"])
        metrics.update(tracer.values)
        if traced["docs"] is not None:
            metrics.update(wl.values(traced["docs"]))
        extra = tracer.overhead_s()
        metrics["trace.overhead_frac"] = extra / (traced["wall"] - extra)
        metrics["fail_frac"] = failed / len(units)
    else:
        metrics = {
            "wall_s": statistics.median(u["wall"] for u in units),
            "cpu_s": statistics.median(u["cpu"] for u in units),
            "setup_s": statistics.median(s for _, s in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "unit_wall_s": [u["wall"] for u in units],
        "unit_raw_wall_s": [u["raw_wall"] for u in units],
        "unit_raw_cpu_s": [u["raw_cpu"] for u in units],
        "unit_kernel_s": [u["kernel_s"] for u in units],
        "unit_failures": [u["failures"] for u in units],
        "report_sha256": sorted({u["digest"] for u in units if u["digest"]}),
        "env": environment(),
    }
    if args.trace:
        info["span_names"] = tracer.span_names()
    else:
        info["setup_probe_s"] = [s for _, s in probes]
        info["setup_probe_raw_s"] = [t for t, _ in probes]
    return units, failed, metrics, info


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": metadata.version("sympy"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("CYCLECERT_THREADS",)},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclecert" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # pin BLAS threads before numpy loads; sweeps stay single-threaded
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CYCLECERT_THREADS", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = ROOT / ".bench_out" / f"{wl.name}-{os.getpid()}"
    try:
        units, failed, metrics, info = measure(wl, args, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    unknown = set(metrics) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(units),
                "failed": failed,
                # a result a workload does not produce reads 0
                "metrics": {
                    m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
