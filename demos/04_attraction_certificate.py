"""Certify a basin of attraction for the Van der Pol limit cycle.

Sweeps start points across the initial section disk: each one gets its own
loop and accumulated growth exponent K.  If every exponent stays below a
negative constant d, tube radii shrink loop over loop and the disk is a
basin of attraction; the synchronized Euler error then settles below the
floor D*h.
"""

from pathlib import Path

import cyclecert as cc
from cyclecert.output import write_json

out = Path("out/demo04")
out.mkdir(parents=True, exist_ok=True)

field = cc.load_system({"id": "vanderpol", "params": {"p": 0.3}})
existence = cc.certify_existence(
    field, (1.8929, -0.5383), 1e-4, 0.1, 0.015, cc.PipelineConfig(), horizon=10.0
)
assert existence.certified, existence.failure

att = cc.certify_attraction(existence, reference_d=-0.34)
print(f"verdict: {att.verdict}")
print(f"sampled loop exponents ({att.sample_count} start points):")
for e in att.exponents:
    print(f"  z = ({e.z[0]:+.4f}, {e.z[1]:+.4f})  K = [{e.K0:.4f}, {e.Kh:.4f}]"
          f"  N1 = {e.N1}")
print(f"d = max K = {att.d:.4f} (certifiable iff negative)")
print(f"error-floor factor D = {att.D:.1f}, floor D*h = {att.D * existence.h:.4f}")
print(f"weighted loop integral of the transverse measure: "
      f"{att.integral.value:.4f} (informational, vs 4d = {4 * att.d:.4f})")

write_json(out / "attraction_certificate.json", att.to_dict())
print(f"wrote {out}/attraction_certificate.json")
