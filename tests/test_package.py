import importlib

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
