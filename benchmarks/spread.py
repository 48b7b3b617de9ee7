"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload vdp2-error-curve --runs 10

Each run is ``benchmarks/run.py`` in its own process, one after another,
untraced, for ``run_seconds`` of ``BENCHMARK.json``, with seeds
``0 .. runs - 1``.  Then seed 0 is run once more and its report digests
must equal those of the first seed-0 run (criterion 6 across processes);
that repeat is not part of the spread.  Prints one JSON line per run, then
a summary line: per metric, and for the measured unit seconds before
scaling to the reference speed (``raw_wall_s``), the median, the quartiles
from ``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median,
and for end-to-end metrics the bound from ``BENCHMARK.json``.  Exits with 1
when a unit failed its checks or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    print(json.dumps({"seed": seed, "report_sha256": info["report_sha256"],
                      **result}), flush=True)
    return info, result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    values, failed, digests = {}, 0, []
    for seed in range(args.runs):
        info, result = run_once(args.workload, seed, seconds)
        failed += result["failed"]
        digests.append(info["report_sha256"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # measured seconds, before scaling to the reference speed
        values.setdefault("raw_wall_s", []).append(
            statistics.median(info["unit_raw_wall_s"]))
    info, result = run_once(args.workload, 0, seconds)
    failed += result["failed"]
    same_digest = info["report_sha256"] == digests[0]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        row = {"median": med, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / med if med else None}
        if name in bounds:
            row["bound"] = bounds[name]
        summary[name] = row
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "failed": failed, "seed0_digest_repeats": same_digest,
                      "summary": summary}))
    return 0 if failed == 0 and same_digest else 1


if __name__ == "__main__":
    sys.exit(main())
