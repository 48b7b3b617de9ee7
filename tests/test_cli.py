import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cyclecert
from cyclecert.cli import main
from cyclecert import output
from cyclecert.output import (
    canonical_json,
    load_schema,
    write_csv,
    write_error_curve_csv,
)
from cyclecert.syncerr import SyncErrorSeries


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
            "ball_radius": 0.23627508760602672,
            "e": 0.05479923037268842,
            "f_max": 1.7756913272744186,
            "method": "tube",
            "n_samples": 11,
            "rho": 0.07875836253534224,
            "sum_hi": 6.543919621641525,
            "sum_lo": 6.099788337774429,
            "v": 1.4372165813225526,
        },
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


def test_pipeline_config_rejects_zero_threads():
    with pytest.raises(cyclecert.InputError, match="threads"):
        cyclecert.PipelineConfig(threads=0).validate()


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


def test_bad_threads_env_is_an_input_error(tmp_path, monkeypatch):
    # CYCLECERT_THREADS is read when the sweep runs, not at import, where
    # the presets and the signature defaults build their PipelineConfig
    env = dict(
        os.environ,
        CYCLECERT_THREADS="abc",
        PYTHONPATH=str(Path(cyclecert.__file__).parents[1]),
    )
    done = subprocess.run(
        [sys.executable, "-c", "import cyclecert.cli"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    monkeypatch.setenv("CYCLECERT_THREADS", "abc")
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
    assert "CYCLECERT_THREADS" in doc["detail"]


def test_canonical_json_float_format():
    text = canonical_json({"x": 0.1, "n": 3, "arr": np.array([1.5, 2.5])})
    assert '"x": 0.10000000000000001' in text
    assert '"arr": [1.5, 2.5]' in text
    assert text.endswith("\n")


def test_error_curve_cli_small(tmp_path):
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
