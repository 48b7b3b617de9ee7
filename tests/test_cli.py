import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclecert
from cyclecert.cli import _run_config, build_parser, main
from cyclecert.config import get_preset
from cyclecert import output
from cyclecert.output import (
    canonical_json,
    load_schema,
    write_csv,
    write_error_curve_csv,
)
from cyclecert.syncerr import SyncErrorSeries
from cyclecert.systems import REGISTRY, load_system


@pytest.fixture(scope="module")
def preset_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-preset")
    code = main(["certify-existence", "--preset", "vdp-example1", "--out", str(out)])
    assert code == 0
    return out


def test_certify_existence_preset_exit0(preset_out):
    doc = json.loads((preset_out / "existence_certificate.json").read_text())
    assert doc["verdict"] == "certified"
    assert doc["tube_summary"]["N1"] == 63140


def test_existence_provenance_pinned(preset_out):
    # every estimator setting the certificate records, with its value, so
    # that none drops out of the JSON unnoticed
    doc = json.loads((preset_out / "existence_certificate.json").read_text())
    assert doc["constants"]["provenance"] == {
        "eta": {
            "ball_grid": [9, 32],
            "ball_radius": 0.2366232112932243,
            "e": 0.05488698668513793,
            "f_max": 1.7760777124177127,
            "method": "tube",
            "n_samples": 11,
            "rho": 0.0788744037644081,
            "sum_hi": 6.546294091728576,
            "sum_lo": 6.097739161696079,
            "v": 1.4370328656749776,
        },
        "guess_anchors": 600,
        "lambda_stride": 10,
        "lipschitz_mode": "spectral_radius",
        "magnitude_mode": "state",
        "n_ball": 8,
        "n_s": 5,
        "pad_factor": 1.0,
        "passes": 2,
        "region_margin": 0.05,
        "tube_samples": 252600,
    }


def test_existence_schema_valid(preset_out):
    doc = json.loads((preset_out / "existence_certificate.json").read_text())
    jsonschema.validate(doc, load_schema("existence_certificate.schema.json"))


def test_tube_csv_columns(preset_out):
    header = (preset_out / "tube.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "i", "t", "c_1", "c_2", "alpha", "delta", "Lambda", "sigma", "a", "b",
    ]
    lines = (preset_out / "tube.csv").read_text().splitlines()
    assert len(lines) == 63140 + 1
    # the phase-rate bounds, per segment, as the certificate's a and b
    a, b = np.loadtxt(preset_out / "tube.csv", delimiter=",", skiprows=1, usecols=(8, 9)).T
    doc = json.loads((preset_out / "existence_certificate.json").read_text())
    assert a.min() == doc["constants"]["a"] and b.max() == doc["constants"]["b"]
    assert np.all(a <= b)


def test_measures_csv_columns(preset_out):
    header = (preset_out / "measures.csv").read_text().splitlines()[0]
    assert header.split(",") == ["i", "Lambda", "sigma", "branch", "mu_perp"]


def test_byte_identical_reruns(tmp_path, preset_out):
    out2 = tmp_path / "again"
    assert main(["certify-existence", "--preset", "vdp-example1", "--out", str(out2)]) == 0
    a = (preset_out / "existence_certificate.json").read_bytes()
    b = (out2 / "existence_certificate.json").read_bytes()
    assert a == b


def test_seed_option_changes_nothing(tmp_path, preset_out):
    # --seed is still accepted and read by nothing: every report it writes
    # is byte-identical to the run without it
    out2 = tmp_path / "seeded"
    argv = ["certify-existence", "--preset", "vdp-example1", "--seed", "7"]
    assert main(argv + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in preset_out.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out2 / name).read_bytes() == (preset_out / name).read_bytes()


def test_not_certified_exit1(tmp_path):
    out = tmp_path / "neg"
    code = main(
        [
            "certify-existence",
            "--system", "linear-stable",
            "--x0", "1,0",
            "--h", "0.01",
            "--out", str(out),
        ]
    )
    assert code == 1
    doc = json.loads((out / "existence_certificate.json").read_text())
    assert doc["verdict"] == "failed"
    assert doc["failure"]["reason"] == "no-return"


def test_blocking_error_exit2(tmp_path):
    out = tmp_path / "err"
    code = main(["certify-existence", "--system", "nosuch", "--out", str(out)])
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["kind"] == "error"


@pytest.mark.parametrize("command", ["simulate", "certify-existence"])
def test_preset_and_system_exclude_each_other(tmp_path, command):
    # a preset names its system, so a --system beside it is refused, not
    # dropped
    out = tmp_path / "both"
    argv = [command, "--preset", "vdp-example1", "--system", "harmonic"]
    assert main(argv + ["--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "input-error"
    assert "--preset vdp-example1 and --system harmonic" in doc["detail"]


def test_missing_system_file_exit2(tmp_path, capsys):
    out = tmp_path / "nofile"
    missing = tmp_path / "missing.json"
    code = main(["certify-existence", "--system", str(missing), "--out", str(out)])
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "input-error"
    assert "cannot read system file" in doc["detail"]
    assert "Traceback" not in capsys.readouterr().err


def test_invalid_gamma_exit2(tmp_path):
    out = tmp_path / "badgamma"
    code = main(
        [
            "certify-existence",
            "--preset", "vdp-example1",
            "--gamma", "-1.0",
            "--out", str(out),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("certify-attraction", "--samples", "0"),
        ("certify-existence", "--samples", "-1"),
        ("error-curve", "--periods", "0"),
        ("error-curve", "--periods", "-1"),
    ],
)
def test_invalid_count_exit2(tmp_path, command, option, value):
    # each is refused before any work, with error.json and no certificate
    out = tmp_path / "bad"
    preset = "vdp-example2" if command == "error-curve" else "vdp-example1"
    code = main([command, "--preset", preset, option, value, "--out", str(out)])
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "input-error"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize(
    "command,option,value,name",
    [
        ("certify-existence", "--h", "nan", "h"),
        ("certify-existence", "--h", "inf", "h"),
        ("certify-existence", "--horizon", "inf", "horizon"),
        ("certify-existence", "--horizon", "nan", "horizon"),
        ("certify-existence", "--delta0", "nan", "delta0"),
        ("certify-existence", "--gamma", "nan", "gamma"),
        ("certify-existence", "--h", "1e-300", "h"),
        ("error-curve", "--h-list", "0", "h_list"),
        ("error-curve", "--h-list", "-0.001", "h_list"),
        ("error-curve", "--periods", "inf", "periods"),
        ("error-curve", "--periods", "1e300", "periods"),
        ("error-curve", "--periods", "1e308", "periods"),
        ("error-curve", "--h-list", "abc", "h_list"),
    ],
)
def test_bad_run_value_exit2(tmp_path, command, option, value, name):
    # a value that is not a finite positive number, or a step whose run has
    # more nodes than an array can hold, is refused with an error.json that
    # names it, never a traceback or a verdict.  All are refused before any
    # work but a --periods the run cannot hold, which is refused once the
    # largest h's certificate gives the loop period
    out = tmp_path / "bad"
    preset = "vdp-example2" if command == "error-curve" else "vdp-example1"
    code = main([command, "--preset", preset, option, value, "--out", str(out)])
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "input-error"
    assert doc["detail"].startswith(f"{name} ")
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_field_overflow_at_start_point_exit2(tmp_path):
    # f overflows at x0, so the section through it has no normal; the
    # error names the start point, not the section
    out = tmp_path / "overflow"
    code = main(
        ["certify-existence", "--preset", "vdp-example1", "--x0", "1e300,0",
         "--out", str(out)]
    )
    assert code == 2
    detail = json.loads((out / "error.json").read_text())["detail"]
    assert "not finite at the start point [1e+300, 0.0]" in detail


def test_equilibrium_start_point_exit2(tmp_path):
    # the Van der Pol origin is an equilibrium: no section runs through it,
    # and the error says why, naming the point
    out = tmp_path / "equilibrium"
    code = main(
        ["certify-existence", "--preset", "vdp-example1", "--x0", "0,0",
         "--out", str(out)]
    )
    assert code == 2
    detail = json.loads((out / "error.json").read_text())["detail"]
    assert "the field vanishes at the start point [0.0, 0.0]" in detail


@pytest.mark.parametrize(
    "command,option,name",
    [("certify-existence", "--h", "h"), ("error-curve", "--h-list", "h_list")],
)
def test_step_count_overflow_exit2(tmp_path, command, option, name):
    # horizon / h overflows for a subnormal step, so the run has no finite
    # step count: refused before any work, naming the value
    out = tmp_path / "subnormal"
    preset = "vdp-example2" if command == "error-curve" else "vdp-example1"
    code = main([command, "--preset", preset, option, "5e-324", "--out", str(out)])
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "input-error"
    assert doc["detail"].startswith(f"{name} ") and "5e-324" in doc["detail"]
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_internal_error_exit2(tmp_path, monkeypatch, capsys):
    # an exception that is not a CycleCertError is a bug, not a verdict:
    # exit 2 with error.json, and the traceback on stderr
    def broken(*args, **kwargs):
        return 1.0 / 0.0

    monkeypatch.setattr(cyclecert.cli, "certify_existence", broken)
    out = tmp_path / "internal"
    code = main(["certify-existence", "--preset", "vdp-example1", "--out", str(out)])
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "internal-error"
    assert doc["detail"] == "ZeroDivisionError: float division by zero"
    assert "Traceback" in capsys.readouterr().err


# every kind of bad float: not a number, infinite, zero, negative,
# subnormal (5e-324 overflows horizon / h) and huge
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e300]


def _run_value(lo, hi, special=SPECIAL):
    return st.one_of(st.sampled_from(special), st.floats(lo, hi))


def _option(values):
    return st.one_of(st.none(), values)


_coordinate = _run_value(-3.0, 3.0)


def _registry_spec(sid):
    # the system's parameters and q, which no registry system has
    names = sorted(REGISTRY[sid][0]) + ["q"]
    params = st.dictionaries(st.sampled_from(names), _run_value(-2.0, 2.0), max_size=2)
    return st.fixed_dictionaries({"id": st.just(sid), "params": params})


# small inline systems: polynomial, rational, one with sin that steps on
# plain floats, and two that sympy folds to complex infinity, which are
# refused; a name that is not a string is refused
_INLINE_RHS = [
    ["x2", "p*x2 - p*x1**2*x2 - x1"],
    ["x2/(1 + x1**2)", "-x1 + p*x2"],
    ["x2", "-sin(x1) + p*x2*(1 - x1**2)"],
    ["1/0", "x2"],
    ["zoo*x1", "x2"],
]
SYSTEM_SPECS = st.sampled_from(sorted(REGISTRY)).flatmap(_registry_spec) | (
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(["inline", 5]),
            "rhs": st.sampled_from(_INLINE_RHS),
            "params": st.fixed_dictionaries({"p": _run_value(0.1, 2.0)}),
        }
    )
)
# steps of at least 2e-3 and horizons of at most 12 keep each run under
# 6,000 steps (10,000 for a --system run without --horizon, which runs to
# 20).  A huge horizon, a tiny normal step (1e-300) and a huge --samples are
# left out: the run then steps, or allocates, as much as they ask, without
# bound
CLI_RUNS = st.fixed_dictionaries(
    {
        "--system": _option(SYSTEM_SPECS),
        "--h": _run_value(2e-3, 2e-2),
        "--delta0": _option(_run_value(0.01, 0.5)),
        "--gamma": _option(_run_value(1e-3, 0.1)),
        "--horizon": _option(_run_value(0.5, 12.0, SPECIAL[:-1])),
        "--x0": _option(st.tuples(_coordinate, _coordinate)),
        "--stride": _option(st.sampled_from([0, -1, 10**9]) | st.integers(1, 50)),
        "--samples": _option(st.integers(-1, 5)),
    }
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(CLI_RUNS)
def test_certify_existence_never_escapes(run):
    # any run value or system spec reaches a verdict (exit 0 or 1,
    # schema-valid certificate), a blocking certificate, or a diagnosed
    # error.json (exit 2); never an exception, and never an internal error
    with tempfile.TemporaryDirectory() as tmp:
        out, spec = Path(tmp) / "out", Path(tmp) / "system.json"
        argv = ["certify-existence", "--preset", "vdp-example1"]
        for option, value in run.items():
            # --h=-inf: a separate "-inf" would read as an option
            if isinstance(value, tuple):
                argv.append(f"{option}={','.join(map(repr, value))}")
            elif isinstance(value, dict):
                # a system file replaces the preset; NaN and Infinity are
                # written as the JSON extensions json.load reads
                spec.write_text(json.dumps(value))
                argv[1:3] = [f"{option}={spec}"]
            elif value is not None:
                argv.append(f"{option}={value!r}")
        code = main(argv + ["--out", str(out)])
        names = sorted(p.name for p in out.iterdir())
        if "error.json" in names:
            doc = json.loads((out / "error.json").read_text())
            assert (code, names) == (2, ["error.json"])
            assert doc["kind"] == "error" and doc["error"] != "internal-error", doc
            return
        doc = json.loads((out / "existence_certificate.json").read_text())
    jsonschema.validate(doc, load_schema("existence_certificate.schema.json"))
    if doc["verdict"] == "certified":
        assert code == 0
    else:
        assert code == (1 if doc["failure"]["kind"] == "negative" else 2), doc["failure"]


def test_pipeline_config_has_only_cli_settings():
    # every PipelineConfig field is a setting the CLI reaches; a field
    # without a flag fails here
    names = [f.name for f in dataclasses.fields(cyclecert.PipelineConfig)]
    assert names == ["lambda_stride", "sweep_samples"]
    args = build_parser().parse_args(
        ["certify-existence", "--preset", "vdp-example1", "--stride", "7",
         "--samples", "5"]
    )
    cfg = _run_config(args)
    assert cfg.pipeline == cyclecert.PipelineConfig(lambda_stride=7, sweep_samples=5)


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--preset", "vdp-example1", "--horizon", "7", "--out", str(out)]
    )
    assert code == 0
    traj_lines = (out / "trajectory.csv").read_text().splitlines()
    assert traj_lines[0] == "t,x_1,x_2"
    assert len(traj_lines) == 70000 + 2
    cross = (out / "crossings.csv").read_text().splitlines()
    assert cross[0] == "p,R_p,N_p,x_1,x_2"
    first = cross[1].split(",")
    assert float(first[1]) == pytest.approx(6.314, abs=0.01)
    assert int(first[2]) == 63140


def test_constants_subcommand(tmp_path):
    out = tmp_path / "const"
    code = main(["constants", "--preset", "vdp-example1", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "constants.json").read_text())
    for key in ("L", "M_f", "M_C", "m", "a", "b", "eta", "T_lo", "T_hi", "R_prime", "D"):
        assert key in doc
    assert doc["provenance"]["lambda_stride"] == 10


def test_certify_attraction_cli(tmp_path):
    out = tmp_path / "attr"
    code = main(
        [
            "certify-attraction",
            "--preset", "vdp-example1",
            "--samples", "3",
            "--stride", "50",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "attraction_certificate.json").read_text())
    jsonschema.validate(doc, load_schema("attraction_certificate.schema.json"))
    assert doc["verdict"] == "certified"
    assert doc["sample_count"] == 3
    assert (out / "existence_certificate.json").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_threads_env_is_an_input_error(tmp_path, monkeypatch, value):
    # CYCLECERT_THREADS is read when the sweep runs, not at import, where
    # the presets and the signature defaults build their PipelineConfig; a
    # count below 1 is refused
    env = dict(
        os.environ,
        CYCLECERT_THREADS=value,
        PYTHONPATH=str(Path(cyclecert.__file__).parents[1]),
    )
    done = subprocess.run(
        [sys.executable, "-c", "import cyclecert.cli"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    monkeypatch.setenv("CYCLECERT_THREADS", value)
    out = tmp_path / "threads"
    code = main(
        [
            "certify-attraction",
            "--preset", "vdp-example1",
            "--samples", "3",
            "--stride", "50",
            "--out", str(out),
        ]
    )
    assert code == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "input-error"
    assert "CYCLECERT_THREADS" in doc["detail"] and repr(value) in doc["detail"]


def test_canonical_json_float_format():
    text = canonical_json({"x": 0.1, "n": 3, "arr": np.array([1.5, 2.5])})
    assert '"x": 0.10000000000000001' in text
    assert '"arr": [1.5, 2.5]' in text
    assert text.endswith("\n")


def test_error_curve_cli_small(tmp_path, monkeypatch):
    # the largest h's certificate gives the loop period and the coarse run
    # continues its run from x0: counted through Run.extend, where every
    # node is stepped, no node of a run at h is stepped twice
    h = 1e-3
    cfg = get_preset("vdp-example2")
    whole = cyclecert.simulate(load_system(cfg.system), cfg.x0, h, 3 * 4096)
    stepped = Counter()
    extend = cyclecert.Run.extend

    def counted(run, n, double=False):
        first = run.end + 1
        extend(run, n, double)
        if run.h == h:
            rows = run.nodes[first - run.base :]
            stepped.update(row.tobytes() for row in rows)
        return run

    monkeypatch.setattr(cyclecert.Run, "extend", counted)
    out = tmp_path / "curves"
    code = main(
        [
            "error-curve",
            "--preset", "vdp-example2",
            "--h-list", "1e-3",
            "--periods", "1",
            "--stride", "50",
            "--out", str(out),
        ]
    )
    assert code in (0, 1)
    doc = json.loads((out / "error_curve_summary.json").read_text())
    jsonschema.validate(doc, load_schema("error_curve_report.schema.json"))
    assert len(doc["runs"]) == 1
    csv_files = list(out.glob("error_curve_h*.csv"))
    assert len(csv_files) == 1
    assert csv_files[0].read_text().splitlines()[0] == "t,theta,error,delta_bound,Dh"
    assert max(stepped[row.tobytes()] for row in whole.nodes[1:]) == 1


def test_error_curve_library_matches_cli(tmp_path):
    # error_curve_experiment over periods of the largest h's R1 gives the
    # series the command writes for the same settings
    out = tmp_path / "curves"
    code = main(
        ["error-curve", "--preset", "vdp-example2", "--h-list", "1e-3",
         "--periods", "1", "--stride", "50", "--out", str(out)]
    )
    assert code in (0, 1)
    cfg = get_preset("vdp-example2")
    report = cyclecert.error_curve_experiment(
        load_system(cfg.system), cfg.x0, cfg.y0, [1e-3], periods=1,
        delta0=cfg.delta0, gamma=cfg.gamma,
        config=cyclecert.PipelineConfig(lambda_stride=50),
    )
    run = report.runs[0]
    library = tmp_path / "library.csv"
    write_error_curve_csv(library, run.series, run.D)
    assert library.read_bytes() == (out / "error_curve_h0.001.csv").read_bytes()


def test_error_curve_csv_matches_write_csv(tmp_path):
    # the block-wise writer gives the bytes write_csv gives on numpy scalars
    rng = np.random.default_rng(3)
    n = output.CSV_ROWS + 123
    thetas = rng.uniform(0.0, 30.0, size=n)
    thetas[:5] = [np.nan, np.inf, -0.0, 5e-324, -1e300]
    series = SyncErrorSeries(
        times=np.arange(n) * 1.25e-4,
        thetas=thetas,
        errors=rng.uniform(0.0, 1e-3, size=n),
        residuals=np.zeros(n),
        h=1.25e-4,
    )
    D = 531.4827
    header = ["t", "theta", "error", "delta_bound", "Dh"]
    for bounds in (rng.uniform(0.0, 0.1, size=n), None):
        series.bounds = bounds
        floor = D * series.h
        write_error_curve_csv(tmp_path / "fast.csv", series, D)
        rows = (
            [
                series.times[j],
                series.thetas[j],
                series.errors[j],
                bounds[j] if bounds is not None else floor,
                floor,
            ]
            for j in range(n)
        )
        write_csv(tmp_path / "rows.csv", header, rows)
        assert (tmp_path / "fast.csv").read_bytes() == (
            tmp_path / "rows.csv"
        ).read_bytes()


@pytest.mark.parametrize(
    "case",
    [
        "floor-tail",
        "signed-zero-tail",
        "last-not-repeated",
        "no-bounds",
        "empty",
        "one-row",
    ],
)
def test_error_curve_csv_tail_rows_match_write_csv(tmp_path, case):
    # the final rows whose bound repeats the last one take a row template
    # with that bound formatted once; the bytes stay write_csv's %.17g rows
    rng = np.random.default_rng(7)
    n = {"empty": 0, "one-row": 1}.get(case, output.CSV_ROWS + 2000)
    h, D = 1.25e-4, 531.4827
    floor = D * h
    bounds = None
    if case == "floor-tail":
        # the floor from row 1000 on: a tail over two blocks of rows
        bounds = np.full(n, floor)
        bounds[:1000] = np.geomspace(10.0, 0.1, 1000)
    elif case == "signed-zero-tail":
        # -0.0 equals 0.0 but formats as "-0": only the last two rows repeat
        bounds = rng.uniform(0.0, 0.1, size=n)
        bounds[-3:] = [0.0, -0.0, -0.0]
    elif case in ("last-not-repeated", "one-row"):
        bounds = rng.uniform(0.0, 0.1, size=n)
    series = SyncErrorSeries(
        times=np.arange(n) * h,
        thetas=rng.uniform(0.0, 30.0, size=n),
        errors=rng.uniform(0.0, 1e-3, size=n),
        residuals=np.zeros(n),
        h=h,
        bounds=bounds,
    )
    write_error_curve_csv(tmp_path / "fast.csv", series, D)
    rows = (
        [
            series.times[j],
            series.thetas[j],
            series.errors[j],
            bounds[j] if bounds is not None else floor,
            floor,
        ]
        for j in range(n)
    )
    header = ["t", "theta", "error", "delta_bound", "Dh"]
    write_csv(tmp_path / "rows.csv", header, rows)
    text = (tmp_path / "fast.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    assert text.count(b"\n") == n + 1
