"""The benchmark's workloads: which command a unit runs and how its output
is checked.

A unit is one ``cyclecert`` command run in-process through
``cyclecert.cli.main``, so the CLI's argument handling, preset lookup,
``load_system`` and output writers are all inside it.  ``check`` returns
the names of the acceptance bands the written reports miss; the bands are
those of ``tests/test_acceptance.py``.  ``values`` returns result values
the traced run reports next to its costs.
"""

from __future__ import annotations

from cyclecert import cli


def _failed(checks):
    return [name for name, ok in checks.items() if not ok]


class Workload:
    name: str
    preset: str
    argv: list  # command and its options, without --seed and --out
    reports: tuple  # canonical-JSON files the unit writes, digested and checked

    def run(self, seed, out):
        code = cli.main(self.argv + ["--seed", str(seed), "--out", str(out)])
        return [] if code == cli.EXIT_OK else [f"exit_code_{code}"]


class Vdp1Attraction(Workload):
    """``certify-attraction --preset vdp-example1``: the existence
    certificate (eta sweep, tube, constants), then the 11-point disk sweep
    of tube builds, the h/100 fine run and the loop integral."""

    name = "vdp1-attraction"
    preset = "vdp-example1"
    argv = ["certify-attraction", "--preset", preset]
    reports = ("existence_certificate.json", "attraction_certificate.json")

    def check(self, docs):
        ex, att = docs
        summary = ex["tube_summary"] or {}
        eq_h = ex["conditions"]["eq_h"] or {}
        return _failed(
            {
                "existence_verdict": ex["verdict"] == "certified",
                "R1": abs(summary.get("R1", 0.0) - 6.314) <= 0.01,
                "N1": abs(summary.get("N1", 0) - 63140) <= 100,
                "delta_end": abs(summary.get("delta_end", 0.0) - 0.0642)
                <= 0.10 * 0.0642,
                "rhs": abs(eq_h.get("rhs_max", 0.0) - 0.05) <= 0.20 * 0.05,
                "verdict": att["verdict"] == "certified",
                "11_exponents": att["sample_count"] == 11 and len(att["samples"]) == 11,
                "d": att["d"] is not None and att["d"] <= -0.30,
            }
        )

    def values(self, docs):
        return {"attraction.d": docs[1]["d"]}


class Vdp2ErrorCurve(Workload):
    """``error-curve --preset vdp-example2`` at the coarsest and the finest
    of the preset's three step sizes.  The command sizes the horizon from
    the coarsest step, so both runs are those of the full preset."""

    name = "vdp2-error-curve"
    preset = "vdp-example2"
    argv = ["error-curve", "--preset", preset, "--h-list", "0.0005,0.000125"]
    reports = ("error_curve_summary.json",)

    def check(self, docs):
        runs = sorted(docs[0]["runs"], key=lambda r: -r["h"])
        tails = [r["tail_max"] for r in runs]
        ratios = [r["tail_max"] / r["h"] for r in runs]
        return _failed(
            {
                "two_step_sizes": len(runs) == 2,
                "tails_decrease": all(a > b for a, b in zip(tails, tails[1:])),
                "below_Dh": all(r["tail_max"] <= r["Dh"] for r in runs),
                "ratio_within_3x": max(ratios) / min(ratios) <= 3.0,
                "finest_certified": runs[-1]["verdict"] == "certified",
            }
        )

    def values(self, docs):
        return {
            "syncerr.tail_over_Dh_max": max(
                r["tail_max"] / r["Dh"] for r in docs[0]["runs"]
            )
        }


WORKLOADS = {w.name: w for w in (Vdp1Attraction(), Vdp2ErrorCurve())}
