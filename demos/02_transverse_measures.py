"""Transverse matrix measures along one Van der Pol loop.

The measure of a matrix (for the Euclidean norm) is the largest eigenvalue
of its symmetric part; the transverse variant removes the flow direction.
Along this loop it changes sign: the cycle is not uniformly contracting
transversally, only on average, which is exactly the regime the
certificates are built for.
"""

from pathlib import Path

import numpy as np

import cyclecert as cc
from cyclecert.output import write_csv

out = Path("out/demo02")
out.mkdir(parents=True, exist_ok=True)

field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
x0 = np.array([1.8929, -0.5383])
h = 1e-4

traj = cc.simulate(field, x0, h, n_steps=70000)
section = cc.Section.through(field, x0)
R1, N1, _ = cc.return_times(
    traj, section, 1, cc.default_exclusion(h, 0.1)
).first()

mu_perp = cc.mu_perp_batch(field, traj.nodes[:N1])
print(f"one loop: R1 = {R1:.4f}, N1 = {N1}")
print(f"transverse measure range: [{mu_perp.min():.3f}, {mu_perp.max():.3f}]")
print(f"fraction of the loop with positive transverse measure: "
      f"{(mu_perp > 0).mean():.2%}")

spec = cc.transverse_measure(field, x0)
print(f"at the start point: mu = {spec.mu:.4f}, mu_perp = {spec.mu_perp:.4f}")

i = np.arange(0, N1, 10)
write_csv(out / "mu_perp.csv", ["t", "mu_perp"], [i * h, mu_perp[i]])
print(f"wrote {out}/mu_perp.csv")
