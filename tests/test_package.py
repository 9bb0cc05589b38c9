import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semisplit

MODULES = ("spaces", "semigroups", "opnorm", "geometry", "splitter", "ideals", "subspaces")


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_each_module_all(name):
    module = importlib.import_module(f"semisplit.{name}")
    for attr in module.__all__:
        assert attr in semisplit.__all__
        assert getattr(semisplit, attr) is getattr(module, attr)


def test_package_all_has_no_duplicates():
    assert len(semisplit.__all__) == len(set(semisplit.__all__))


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer patches each target by name; a refactor that
    # drops one fails here instead of only under `perfbench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module_name, attr_path in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in vars(owner), f"{module_name}.{attr_path}"


def test_import_does_not_load_scipy_optimize():
    # only the corollary's Nelder-Mead search needs scipy.optimize (~240
    # modules); it is imported where that search runs, not with the package
    src = str(Path(semisplit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, semisplit, semisplit.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
