import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semisplit
import semisplit.cli

MODULES = ("spaces", "semigroups", "opnorm", "geometry", "splitter", "ideals", "subspaces")


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_each_module_all(name):
    module = importlib.import_module(f"semisplit.{name}")
    for attr in module.__all__:
        assert attr in semisplit.__all__
        assert getattr(semisplit, attr) is getattr(module, attr)


def test_package_all_has_no_duplicates():
    assert len(semisplit.__all__) == len(set(semisplit.__all__))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, ast.List):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_src_has_no_unused_imports():
    src = Path(semisplit.__file__).resolve().parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer patches each target by name; a refactor that
    # drops one fails here instead of only under `perfbench/run.py --trace 1`
    spans = _load_perfbench("spans")
    for _, module_name, attr_path in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in vars(owner), f"{module_name}.{attr_path}"


def test_perfbench_limits_match_the_library():
    # the benchmark keeps its own copies of the reconstruction gate, of the
    # padding, which is its ascent-vs-oracle limit, and of the projection
    # residual limit
    workloads = _load_perfbench("workloads")
    assert workloads.RECON_CEILING == semisplit.cli.GATES["recon_error"]
    assert workloads.GAP_LIMIT == semisplit.PADDING
    assert workloads.PROJECTION_RESIDUAL_LIMIT == semisplit.subspaces.PROJECTION_RESIDUAL_LIMIT


# no code in src/ uses scipy: the corollary's Nelder-Mead search is
# subspaces._nelder_mead, the Sylvester matrix comes from numpy, and the Gauss
# rules are Golub-Welsch eigenproblems with B(a, b) from math.lgamma
# (scipy.special alone loads about 280 modules, among them numpy.testing and
# numpy.f2py); scipy stays a test-side reference. The two submodules the
# library once used are named on their own, so a failure says which came
# back; "scipy" covers every other one
UNUSED_SCIPY = ("scipy.optimize", "scipy.linalg", "scipy")


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter on this checkout's src/; return the last
    line it prints."""
    src = str(Path(semisplit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loads(code: str, prefix: str) -> bool:
    """Whether code, run by ``_fresh``, leaves a module named prefix, or one
    below it, loaded."""
    code += (
        f"\nimport sys; print(any(m == {prefix!r} or m.startswith({prefix + '.'!r})"
        " for m in sys.modules))"
    )
    return {"True": True, "False": False}[_fresh(code)]


@pytest.mark.parametrize("prefix", UNUSED_SCIPY)
def test_import_does_not_load_unused_scipy(prefix):
    assert _loads("import semisplit, semisplit.cli", prefix) is False


@pytest.mark.parametrize("prefix", UNUSED_SCIPY)
def test_corollary_does_not_load_unused_scipy(tmp_path, prefix):
    code = f"import semisplit.cli; semisplit.cli.main(['corollary', '--out', {str(tmp_path)!r}])"
    assert _loads(code, prefix) is False


def test_default_commands_do_not_load_scipy(tmp_path):
    # every measure build and cube basis of a default split, dimsweep,
    # corollary and checks, in one process
    runs = [
        ["split", "--set", "n=2"],
        ["dimsweep", "--set", "n_range=2..3"],
        ["corollary", "--set", "n_range=2..3"],
        ["checks"],
    ]
    code = "import semisplit.cli\n" + "".join(
        f"semisplit.cli.main({args + ['--out', str(tmp_path / args[0])]!r})\n" for args in runs
    )
    assert _loads(code, "scipy") is False


def test_split_loads_no_module_outside_the_standard_library(tmp_path):
    # a module loaded on first use inside a command, as numpy loads
    # numpy.random, costs its import inside the benchmark's timed region
    code = (
        "import sys\nimport semisplit, semisplit.cli\nbefore = set(sys.modules)\n"
        f"semisplit.cli.main(['split', '--set', 'n=2', '--out', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if m.partition('.')[0] not in sys.stdlib_module_names))"
    )
    assert _fresh(code) == "[]"


def test_src_does_not_name_unused_scipy():
    src = Path(semisplit.__file__).resolve().parent
    named = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            named += [f"{path.name}: {m}" for m in modules
                      if any(m == p or m.startswith(p + ".") for p in UNUSED_SCIPY)]
    assert named == []


@pytest.mark.parametrize("workload", ["split-sweep", "dimsweep", "verify-dense"])
def test_perfbench_traced_run_is_clean(workload):
    # a traced run exits 1 when a refactor leaves a layer of the trace
    # baseline (perfbench/reference/baseline_layers.json) without calls; one
    # repetition of each mode takes a few seconds
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stderr
