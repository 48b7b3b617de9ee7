"""Command-line entry point.

Subcommands: simulate | certify-existence | certify-attraction |
error-curve | constants.  Exit codes: 0 on success/certified, 1 on a valid
run with a negative verdict, 2 on a blocking error (with a machine-readable
error JSON in the output directory), an internal error among them.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import __version__
from .attraction import certify_attraction, compute_D
from .config import PRESETS, RunConfig, get_preset
from .errors import CycleCertError, InputError
from .euler import Section, default_exclusion, return_times, simulate
from .measures import mu_perp_batch
from .output import (
    write_crossings_csv,
    write_error_curve_csv,
    write_json,
    write_measures_csv,
    write_trajectory_csv,
    write_tube_csv,
)
from .syncerr import error_curve_experiment
from .systems import load_system
from .tube import certify_existence

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_ERROR = 2


def _add_common(p):
    p.add_argument("--preset", choices=sorted(PRESETS), help="named run preset")
    p.add_argument("--system", help="registry id or path to a system JSON file")
    p.add_argument("--x0", help="comma-separated initial point")
    p.add_argument("--h", type=float, help="Euler step size")
    p.add_argument("--delta0", type=float, help="initial tube radius")
    p.add_argument("--gamma", type=float, help="rate regularization floor")
    p.add_argument("--horizon", type=float, help="simulation horizon")
    p.add_argument(
        "--samples", type=int, help="disk points of the basin sweep and of R'"
    )
    p.add_argument("--stride", type=int, help="sampling stride of Lambda and (a, b)")
    # unread; benchmarks/workloads.py, its only caller, still passes it
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", default="out", help="output directory")


def _parse_floats(text, name):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"{name} is not a comma-separated list of numbers: {text!r}")


def _run_config(args) -> RunConfig:
    if args.preset and args.system:
        raise InputError(
            f"--preset {args.preset} and --system {args.system} exclude each "
            "other: a preset names its system"
        )
    if args.preset:
        cfg = get_preset(args.preset)
    else:
        if not args.system:
            raise InputError("either --preset or --system is required")
        # a path is read by load_system, whose errors are InputErrors
        system = args.system if args.system.endswith(".json") else {"id": args.system}
        cfg = RunConfig(
            system=system,
            x0=(1.0, 0.0),
            h=1e-3,
            delta0=0.1,
            gamma=0.015,
            horizon=20.0,
        )
    # error-curve alone has --y0, --h-list and --periods
    names = ("h", "delta0", "gamma", "horizon", "periods")
    updates = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    for name in ("x0", "y0", "h_list"):
        if getattr(args, name, None):
            updates[name] = _parse_floats(getattr(args, name), name)
    pipe = {"lambda_stride": args.stride, "sweep_samples": args.samples}
    pipe = {k: v for k, v in pipe.items() if v is not None}
    cfg = replace(cfg, pipeline=replace(cfg.pipeline, **pipe), **updates)
    cfg.validate()
    return cfg


def _exit_code(cert) -> int:
    """0 for a certified certificate, 1 for a negative verdict, 2 for a
    blocking failure."""
    if cert.certified:
        return EXIT_OK
    if cert.failure and cert.failure.get("kind") == "negative":
        return EXIT_NOT_CERTIFIED
    return EXIT_ERROR


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    field = load_system(cfg.system)
    out = Path(args.out)
    traj = simulate(field, cfg.x0, cfg.h, int(math.ceil(cfg.horizon / cfg.h)))
    section = Section.through(field, traj.nodes[0])
    rt = return_times(traj, section, 5, default_exclusion(cfg.h, cfg.delta0))
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_crossings_csv(out / "crossings.csv", rt.returns)
    write_json(
        out / "simulate.json",
        {
            "kind": "simulate-report",
            "system": field.name,
            "h": cfg.h,
            "horizon": traj.horizon,
            "returns": [[r, n] for r, n, _ in rt.returns],
            "complete": rt.complete,
        },
    )
    return EXIT_OK


def cmd_certify_existence(args) -> int:
    cfg = _run_config(args)
    field = load_system(cfg.system)
    out = Path(args.out)
    cert = certify_existence(
        field, cfg.x0, cfg.h, cfg.delta0, cfg.gamma, cfg.pipeline, cfg.horizon
    )
    write_json(out / "existence_certificate.json", cert.to_dict())
    if cert.tube is not None:
        write_tube_csv(out / "tube.csv", cert.tube, cert.trajectory)
        mu_nodes = mu_perp_batch(field, cert.trajectory.nodes[: cert.N1])
        write_measures_csv(out / "measures.csv", cert.tube, mu_nodes)
    return _exit_code(cert)


def cmd_certify_attraction(args) -> int:
    cfg = _run_config(args)
    field = load_system(cfg.system)
    out = Path(args.out)
    existence = certify_existence(
        field, cfg.x0, cfg.h, cfg.delta0, cfg.gamma, cfg.pipeline, cfg.horizon
    )
    write_json(out / "existence_certificate.json", existence.to_dict())
    if not existence.certified:
        return _exit_code(existence)
    cert = certify_attraction(existence, reference_d=cfg.reference_d)
    write_json(out / "attraction_certificate.json", cert.to_dict())
    return _exit_code(cert)


def cmd_error_curve(args) -> int:
    cfg = _run_config(args)
    field = load_system(cfg.system)
    out = Path(args.out)
    if not cfg.h_list:
        raise InputError("error-curve needs --h-list or a preset providing one")
    if cfg.y0 is None:
        raise InputError("error-curve needs --y0 or a preset providing one")
    report = error_curve_experiment(
        field, cfg.x0, cfg.y0, cfg.h_list, cfg.periods, cfg.delta0, cfg.gamma,
        cfg.pipeline, cfg.horizon,
    )
    for run in report.runs:
        write_error_curve_csv(
            out / f"error_curve_h{run.h:.6g}.csv", run.series, run.D
        )
    write_json(out / "error_curve_summary.json", report.to_dict())
    return EXIT_OK if all(r.passes for r in report.runs) else EXIT_NOT_CERTIFIED


def cmd_constants(args) -> int:
    cfg = _run_config(args)
    field = load_system(cfg.system)
    out = Path(args.out)
    cert = certify_existence(
        field, cfg.x0, cfg.h, cfg.delta0, cfg.gamma, cfg.pipeline, cfg.horizon
    )
    if cert.constants is None:
        write_json(out / "constants.json", {"error": cert.failure})
        return EXIT_ERROR
    doc = cert.constants.to_dict()
    doc["D"] = compute_D(
        cert.constants.M_C,
        cert.constants.L,
        cfg.gamma,
        cert.constants.a,
        cert.constants.b,
    )
    write_json(out / "constants.json", doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclecert",
        description="Numerical limit-cycle existence and basin certificates "
        "from explicit-Euler trajectories.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate and export trajectory/crossings")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify-existence", help="existence certificate")
    _add_common(p)
    p.set_defaults(func=cmd_certify_existence)

    p = sub.add_parser("certify-attraction", help="basin-of-attraction certificate")
    _add_common(p)
    p.set_defaults(func=cmd_certify_attraction)

    p = sub.add_parser("error-curve", help="synchronized error floor curves")
    _add_common(p)
    p.add_argument("--y0", help="reference start point (comma-separated)")
    p.add_argument("--h-list", dest="h_list", help="comma-separated step sizes")
    p.add_argument("--periods", type=float, default=None)
    p.set_defaults(func=cmd_error_curve)

    p = sub.add_parser("constants", help="estimate certificate constants only")
    _add_common(p)
    p.set_defaults(func=cmd_constants)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        _write_error(args, "input-error", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except CycleCertError as e:
        _write_error(args, type(e).__name__, e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # a bug, not a verdict: exit 2, never 1
        traceback.print_exc()
        _write_error(args, "internal-error", f"{type(e).__name__}: {e}")
        return EXIT_ERROR


def _write_error(args, kind, exc):
    out = getattr(args, "out", None)
    if out:
        try:
            write_json(
                Path(out) / "error.json",
                {"kind": "error", "error": kind, "detail": str(exc)},
            )
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
