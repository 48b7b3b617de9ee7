import ast
import importlib
import importlib.util
import inspect
import io
import json
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


ENVIRONMENT = {"os.environ", "os.getenv", "os.putenv"}
CONCURRENCY = ("concurrent.futures", "threading")


def test_package_reads_no_environment():
    # a run is set by its arguments alone, and runs on the calling thread:
    # no package module reads the environment or imports a thread pool
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
            if any(
                name in ENVIRONMENT
                or any(name == m or name.startswith(m + ".") for m in CONCURRENCY)
                for name in names
            ):
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
    # euler._step_runs is the one place a node is stepped, for a run alone
    # (Run.extend calls it with its own run) or for runs stepped together:
    # it sweeps them by one _planar_nodes, then steps what the sweeps leave
    # of each run by the scalar loop, and it is the only caller of either.
    # The other ways a run once grew or was guessed (step_on, _coarse_run,
    # _sweep_guess, the blocks of _sweep_block, prefix=, step= and double=
    # parameters) stay gone
    sites, gone = [], []
    for path in sorted(Path(cyclecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {"_planar_nodes", "_scalar_nodes"}
        sites += [
            f"{scope}: {callee}"
            for scope, callee in _call_scopes(tree, path.stem, names)
        ]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in ("step_on", "_coarse_run", "_sweep_guess", "_sweep_block"):
                gone.append(f"{path.stem}.{node.name}")
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            gone += [
                f"{path.stem}.{node.name}({a.arg}=)"
                for a in args
                if a.arg in ("prefix", "step", "double")
            ]
    assert sites == [
        "euler._step_runs: _planar_nodes",
        "euler._step_runs: _scalar_nodes",
    ]
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


def test_verdict_core_imports_only_numpy_math_errors_and_measures():
    # the arithmetic from sampled bounds to a verdict can be replayed
    # without the builder: verdict.py imports no sampling module
    path = Path(cyclecert.__file__).parent / "verdict.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy", ".errors", ".measures"}


GROWTH = {"np.exp", "numpy.exp", "math.exp", "np.cumprod", "numpy.cumprod"}


def _growth_sites(path):
    """Each reference to np.exp, math.exp or np.cumprod in a module,
    called, bound or imported by name, as file:line name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = []
        if isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        found += [f"{path.name}:{node.lineno} {n}" for n in names if n in GROWTH]
    return found


def test_exponentials_live_in_the_verdict_core():
    # the tube radii grow in verdict.py alone (growth and radius_at), so a
    # host-independent exp changes one module: no other package module
    # reads np.exp, math.exp or np.cumprod (output.py's bytes table named
    # exp is no such read)
    root = Path(cyclecert.__file__).parent
    others = [p for p in sorted(root.glob("*.py")) if p.name != "verdict.py"]
    assert [site for p in others for site in _growth_sites(p)] == []
    names = {site.split()[-1] for site in _growth_sites(root / "verdict.py")}
    assert names == {"np.exp", "math.exp", "np.cumprod"}


# Each function that reads a field, step, trajectory or start point from
# one of its arguments, and the parameter names that would pass it again
ONE_SOURCE = {
    "constants.return_time_sweep": ("field", "n_samples", "h"),
    "constants.estimate_eta": ("field", "n_samples"),
    "tube.build_tube": ("field",),
    "tube.SegmentGrids": ("field",),
    "tube.lambda_profile": ("field",),
    "tube.ab_profile": ("field",),
    "tube.check_return_inclusion": ("traj",),
    "output.write_tube_csv": ("traj",),
    "attraction.integral_criterion": ("field",),
    "syncerr.synchronize": ("y0",),
}


def test_no_function_takes_an_input_twice():
    # a value that another argument holds is read from it, so a caller
    # cannot pass two that disagree; the R' sweep's runs are required
    params = {}
    for dotted in ONE_SOURCE:
        module, name = dotted.split(".")
        fn = getattr(importlib.import_module(f"cyclecert.{module}"), name)
        params[dotted] = inspect.signature(fn).parameters
    twice = {d: sorted(set(ONE_SOURCE[d]) & set(p)) for d, p in params.items()}
    assert twice == {d: [] for d in ONE_SOURCE}
    for dotted in ("constants.return_time_sweep", "constants.estimate_eta"):
        assert params[dotted]["runs"].default is inspect.Parameter.empty, dotted


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


def test_bench_records_have_their_keys():
    # every committed perf record at the repository root names both
    # commits and the host, and gives per workload and end-to-end metric
    # each side's runs, median and quartiles and the change's wins, plus
    # the stage timings and the Tier-1 wall time it was taken with
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        keys = {"label", "parent", "change", "host", "pairs", "workloads", "stages"}
        assert keys | {"tier1"} <= doc.keys(), path
        assert {"nproc", "numpy"} <= doc["host"].keys(), path
        assert doc["parent"]["commit"] and doc["change"]["commit"], path
        assert doc["workloads"] and doc["stages"] and doc["tier1"]["wall_s"] > 0, path
        for workload, metrics in doc["workloads"].items():
            assert {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"} <= metrics.keys()
            for name, m in metrics.items():
                for side in ("parent", "change"):
                    where = (path.name, workload, name, side)
                    assert {"runs", "median", "q1", "q3"} <= m[side].keys(), where
                    assert len(m[side]["runs"]) == doc["pairs"], where
                assert 0 <= m["wins"] <= doc["pairs"], (path.name, workload, name)
