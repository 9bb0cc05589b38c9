import importlib.util
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
