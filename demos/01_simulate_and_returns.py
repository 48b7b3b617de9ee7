"""Simulate the Van der Pol oscillator and locate its section returns.

The trajectory starts on the attracting loop; the section through the start
point (orthogonal to the flow there) is crossed once per revolution in the
positive direction.  Exports the trajectory and the return table as CSV.
"""

from pathlib import Path

import numpy as np

import cyclecert as cc
from cyclecert.output import write_crossings_csv, write_csv

out = Path("out/demo01")
out.mkdir(parents=True, exist_ok=True)

field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
x0 = (1.8929, -0.5383)
h = 1e-4

traj = cc.simulate(field, x0, h, n_steps=int(20.0 / h))
section = cc.Section.through(field, traj.nodes[0])
rt = cc.return_times(traj, section, p_max=3, exclusion=cc.default_exclusion(h, 0.1))

print(f"horizon {traj.horizon:g}, {traj.n_steps} steps")
for p, (R_p, N_p, crossing) in enumerate(rt.returns, start=1):
    print(f"return {p}: R_{p} = {R_p:.4f}, N_{p} = {N_p}, point = {crossing.point}")

i = np.arange(0, traj.n_steps + 1, 10)
write_csv(out / "trajectory.csv", ["t", "x_1", "x_2"], [i * h, *traj.nodes[i].T])
write_crossings_csv(out / "crossings.csv", rt.returns)
print(f"wrote {out}/trajectory.csv and {out}/crossings.csv")
