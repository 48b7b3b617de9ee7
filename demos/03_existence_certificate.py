"""Certify that the Van der Pol system has a limit cycle.

Runs the full pipeline: Euler loop, per-segment transverse bounds and phase
rates, the tube radius chain, the per-step condition, the return-slice
inclusion, and the return-time floor, bounded from the tube's phase rates.
The tube geometry is exported as CSV for plotting the invariant region.
"""

from pathlib import Path

import numpy as np

import cyclecert as cc
from cyclecert.output import write_csv, write_json

out = Path("out/demo03")
out.mkdir(parents=True, exist_ok=True)

field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
cert = cc.certify_existence(
    field,
    x0=(1.8929, -0.5383),
    h=1e-4,
    delta0=0.1,
    gamma=0.015,
    config=cc.PipelineConfig(lambda_stride=10),
    horizon=10.0,
)

print(f"verdict: {cert.verdict}")
print(f"loop: R1 = {cert.R1:.4f}, N1 = {cert.N1}")
print(f"tube radius: start {cert.delta0:g} -> end "
      f"{cert.tube_summary['delta_end']:.4f} (min {cert.tube_summary['delta_min']:.4f})")
print(f"per-step condition: floor max {cert.step_condition.rhs_max:.4f}, "
      f"worst margin {cert.step_condition.min_margin:.4f}")
print(f"return slice: {cert.inclusion.lhs:.4f} < {cert.inclusion.rhs:g} "
      f"(geometric check: {cert.inclusion.geometric_holds})")
print(f"return-time floor eta = {cert.eta.eta:.3f} "
      f"(T in [{cert.eta.T_lo:.3f}, {cert.eta.T_hi:.3f}] from the tube's "
      f"phase rates, e = {cert.eta.e:.4f}; R' = {cert.eta.R_prime:.3f})")
print("constants:", {k: round(v, 4) for k, v in cert.constants.to_dict().items()
                     if isinstance(v, float)})

write_json(out / "existence_certificate.json", cert.to_dict())
tube = cert.tube
i = np.arange(0, tube.N1, 10)
rates = (tube.alpha, tube.delta, tube.lam, tube.sigma, tube.a_seg, tube.b_seg)
header = ["i", "t", "c_1", "c_2", "alpha", "delta", "Lambda", "sigma", "a", "b"]
columns = [i, i * tube.h, *tube.traj.nodes[i].T, *(v[i] for v in rates)]
write_csv(out / "tube.csv", header, columns)
print(f"wrote {out}/existence_certificate.json and {out}/tube.csv")
