import ast
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

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


def _names_random(dotted):
    """Whether a dotted name is the random module or numpy.random."""
    parts = dotted.split(".")
    return parts[0] == "random" or any(
        a in ("np", "numpy") and b == "random" for a, b in zip(parts, parts[1:])
    )


def test_package_draws_no_random_numbers():
    # a certificate is a deterministic function of its inputs: no package
    # module imports or reads numpy.random or the random module
    root = Path(cyclecert.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            else:
                continue
            if any(_names_random(name) for name in names):
                found.add(f"{path.relative_to(root)}:{node.lineno}")
    assert sorted(found) == []


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


def _call_scopes(tree, scope, names):
    """(function, callee) for every call in ``tree`` of a name in
    ``names``, the function given by its qualified name under ``scope``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call):
            callee = ast.unparse(node.func).rsplit(".", 1)[-1]
            if callee in names:
                found.append((scope, callee))
        found += _call_scopes(node, inner, names)
    return found


def test_every_node_is_stepped_by_run_extend():
    # Run.extend is the one place a node is stepped: outside
    # _planar_nodes, which falls back to _scalar_nodes, it is the only
    # caller of either.  The other ways a run once grew (step_on,
    # _coarse_run, prefix= and step= parameters) stay gone
    sites, gone = [], []
    for path in sorted(Path(cyclecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {"_planar_nodes", "_scalar_nodes"}
        sites += [
            f"{scope}: {callee}"
            for scope, callee in _call_scopes(tree, path.stem, names)
            if scope != "euler._planar_nodes"
        ]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in ("step_on", "_coarse_run"):
                gone.append(f"{path.stem}.{node.name}")
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            gone += [
                f"{path.stem}.{node.name}({a.arg}=)"
                for a in args
                if a.arg in ("prefix", "step")
            ]
    assert sites == ["euler.Run.extend: _planar_nodes"]
    assert gone == []


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


def test_documented_test_names_exist():
    # every test_... name that README.md or a package docstring or comment
    # cites is a test function or a test module, so a test that is renamed
    # or folded leaves no stale name in the docs
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    known = {path.stem for path in tests}
    for path in tests:
        tree = ast.parse(path.read_text(), filename=str(path))
        known |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    texts = [(ROOT / "README.md").read_text()]
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(cyclecert.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        texts += [
            ast.get_docstring(node) or ""
            for node in ast.walk(tree)
            if isinstance(node, scopes)
        ]
        texts += [
            token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    cited = set(re.findall(r"\btest_\w+", "\n".join(texts)))
    assert cited and sorted(cited - known) == []


def _fresh(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cyclecert.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return done.stdout.strip()


def test_registry_load_does_not_import_sympy():
    # importing sympy takes longer than a whole registry load; only inline
    # specs need it
    code = (
        "import sys, cyclecert; cyclecert.load_system({'id': 'vanderpol'}); "
        "print('sympy' in sys.modules)"
    )
    assert _fresh(code) == "False"


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


def test_load_system_imports_three_package_modules():
    # the start-up the benchmark times: import plus a preset's load_system
    # needs errors, config and systems only, and no thread pool
    code = (
        "import sys, cyclecert\n"
        "cyclecert.load_system(cyclecert.get_preset('vdp-example1').system)\n"
        "print(sorted(m for m in sys.modules if m.startswith('cyclecert')))\n"
        "print('concurrent.futures' in sys.modules)"
    )
    assert _fresh(code).splitlines() == [
        "['cyclecert', 'cyclecert.config', 'cyclecert.errors', 'cyclecert.systems']",
        "False",
    ]


def test_simulate_loads_no_certificate_modules():
    # demos/01's calls step and find returns without the tube, the basin
    # sweep or the error curve
    code = (
        "import sys, cyclecert as cc\n"
        "field = cc.load_system({'id': 'vanderpol', 'params': {'p': 0.3}})\n"
        "traj = cc.simulate(field, (1.8929, -0.5383), 1e-3, 7000)\n"
        "section = cc.Section.through(field, traj.nodes[0])\n"
        "cc.return_times(traj, section, 1, cc.default_exclusion(1e-3, 0.1))\n"
        "print(sorted(m for m in ('tube', 'attraction', 'syncerr')"
        " if 'cyclecert.' + m in sys.modules))"
    )
    assert _fresh(code) == "[]"


def test_package_names_resolve_to_their_submodule():
    # each name the package exports is its submodule's own object, and
    # each submodule is reachable as an attribute
    for name, module in cyclecert._SOURCE.items():
        owner = importlib.import_module(f"cyclecert.{module}")
        assert getattr(cyclecert, name) is getattr(owner, name), name
    for module in cyclecert._API:
        assert getattr(cyclecert, module) is importlib.import_module(
            f"cyclecert.{module}"
        )
    api = {*cyclecert._API, *cyclecert._SOURCE}
    assert sorted(api) == cyclecert.__all__
    assert api <= set(dir(cyclecert))


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclecert.no_such_name
    assert not hasattr(cyclecert, "__no_such_dunder__")


def test_star_import_binds_the_whole_api():
    code = (
        "from cyclecert import *\n"
        "import cyclecert\n"
        "print([n for n in cyclecert.__all__ if n not in globals()])"
    )
    assert _fresh(code) == "[]"
