"""The demos run end to end against the current API.

Each demo writes under ``out/`` relative to the working directory, so each
runs in its own temporary directory.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script,outputs",
    [
        ("01_simulate_and_returns.py", ["trajectory.csv", "crossings.csv"]),
        ("02_transverse_measures.py", ["mu_perp.csv"]),
        ("03_existence_certificate.py", ["existence_certificate.json", "tube.csv"]),
        ("04_attraction_certificate.py", ["attraction_certificate.json"]),
        ("05_error_floor_curves.py", ["summary.json", "error_curve_h0.000125.csv"]),
    ],
)
def test_demo_runs(tmp_path, monkeypatch, capsys, script, outputs):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = tmp_path / "out" / f"demo{script[:2]}"
    for name in outputs:
        assert (out / name).stat().st_size > 0
    assert capsys.readouterr().out
