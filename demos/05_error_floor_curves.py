"""Synchronized-error curves for three step sizes.

Each Euler trajectory, five loops long, is compared against a 100x finer
reference started from a nearby point of the initial disk; the synchronized
error first contracts with the tube and then settles at a floor
proportional to the step size.  Halving h halves the tail, and every tail
stays below D*h.
"""

from pathlib import Path

import cyclecert as cc
from cyclecert.output import write_error_curve_csv, write_json

out = Path("out/demo05")
out.mkdir(parents=True, exist_ok=True)

field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
report = cc.error_curve_experiment(
    field,
    x0=(1.8929, -0.5383),
    y0=(1.8037, -0.5057),
    h_list=[5e-4, 2.5e-4, 1.25e-4],
    periods=5,
    delta0=0.1,
    gamma=0.015,
    config=cc.PipelineConfig(),
    horizon=10.0,
    refine=100,
)

for run in report.runs:
    print(f"h = {run.h:.2e}: tail = {run.tail_max:.5f}  "
          f"D*h = {run.D * run.h:.4f}  tail/h = {run.tail_max / run.h:.1f}  "
          f"within floor: {run.passes}")
    write_error_curve_csv(out / f"error_curve_h{run.h:.6g}.csv", run.series, run.D)

write_json(out / "summary.json", report.to_dict())
print(f"wrote per-h curves and {out}/summary.json")
