import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import cyclecert

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # every check in the package is a raised error, so none disappears
    # under python -O
    root = Path(cyclecert.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_benchmark_tracer_bindings_exist():
    # the traced benchmark run replaces each WRAPS attribute where its
    # caller looks it up; a refactor that drops one breaks that run
    path = ROOT / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _, _ in tracing.WRAPS
        if attr not in vars(tracing._resolve(owner))
    ]
    assert tracing.WRAPS and missing == []


def test_module_imports_are_used():
    # every name a package module imports is read in that module, or is a
    # binding the traced benchmark run replaces there (tracing.WRAPS)
    path = ROOT / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(owner, attr) for owner, attr, _, _ in tracing.WRAPS}
    unused = []
    for path in sorted(Path(cyclecert.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        owner = f"cyclecert.{path.stem}"
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and (owner, name) not in wrapped:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_registry_load_does_not_import_sympy():
    # importing sympy takes longer than a whole registry load; only inline
    # specs need it
    code = (
        "import sys, cyclecert; cyclecert.load_system({'id': 'vanderpol'}); "
        "print('sympy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cyclecert.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_registry_systems_are_planar_views():
    # every registry system gives f and J as planar kernels, so the tube
    # kernels take the planar path for it; a system that hands over the
    # interleaved arrays directly would drop onto the stacked path
    view = cyclecert.systems.PlanarView
    stacked = [
        sid
        for sid in cyclecert.systems.REGISTRY
        for field in [cyclecert.load_system({"id": sid})]
        if not (isinstance(field.rhs, view) and isinstance(field.jacobian, view))
    ]
    assert stacked == []
