import dataclasses
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semisplit
from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    OperatorMatrix,
    brownian_exit_theta,
    make_gamma2,
    opnorm_lower,
    strip_damping,
)
from semisplit.cli import (
    GATES,
    RESULTS_HEADER,
    ExperimentConfig,
    UsageError,
    _parse_scalar,
    load_config,
    main,
)
from semisplit.geometry import _check_nodes_per_edge


def run_cli(args):
    return main(list(args))


def test_split_writes_expected_files(tmp_path):
    code = run_cli(
        ["split", "--set", "n=1", "--set", "epsilons=1.0,1e-2",
         "--set", "nodes_per_edge=48", "--out", str(tmp_path)]
    )
    assert code == 0
    results = (tmp_path / "results.csv").read_text().splitlines()
    assert results[0] == RESULTS_HEADER
    assert len(results) == 3
    row = results[2].split(",")
    assert row[-1] == "true" and row[-2] == "true"
    assert float(row[2]) <= 1e-6  # reconstruction column
    assert (tmp_path / "certificate_1.0.txt").exists()
    assert (tmp_path / "certificate_0.01.txt").exists()
    nodes = (tmp_path / "nodes.txt").read_text().splitlines()
    assert nodes[0].startswith("#")
    assert len(nodes) == 1 + 3 * 48


def test_split_eps_one_trivial_row(tmp_path):
    code = run_cli(["split", "--set", "n=1", "--set", "epsilons=1.0",
                    "--set", "nodes_per_edge=32", "--out", str(tmp_path)])
    assert code == 0
    row = (tmp_path / "results.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) <= 1e-7
    assert row[-2:] == ["true", "true"]
    assert row[8] == "nan"  # slope needs at least two sweep points


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run_cli(["split", "--set", "n=1", "--set", "epsilons=1e-1,1e-2",
                        "--set", "nodes_per_edge=48", "--set", "seed=5", "--out", str(out)])
        assert code == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "certificate_0.01.txt").read_bytes() == (b / "certificate_0.01.txt").read_bytes()


def test_repeated_splits_share_the_measure_and_node_norms(tmp_path, monkeypatch):
    import semisplit.geometry
    import semisplit.splitter

    shapes = []
    many = semisplit.splitter.opnorm_lower_many

    def counting(ops, *args, **kwargs):
        ops = list(ops)
        shapes.extend(A.entries.shape for A in ops)
        return many(ops, *args, **kwargs)

    monkeypatch.setattr(semisplit.splitter, "opnorm_lower_many", counting)
    assert run_cli(["split", "--set", "n=3", "--out", str(tmp_path / "n3")]) == 0
    # every cube shares the one-bit factor and the run shares the measure, so
    # the second run measures only its own T0 and T1 stacks
    shapes.clear()
    warm = tmp_path / "warm"
    assert run_cli(["split", "--set", "n=4", "--out", str(warm)]) == 0
    assert shapes and (2, 2) not in shapes
    # a run from empty caches measures every node and writes the same bytes
    monkeypatch.setattr(semisplit.geometry, "_harmonic_measure",
                        functools.lru_cache(semisplit.geometry.HarmonicMeasure))
    monkeypatch.setattr(semisplit.splitter, "_node_estimates",
                        functools.lru_cache(semisplit.splitter._node_estimates.__wrapped__))
    shapes.clear()
    cold = tmp_path / "cold"
    assert run_cli(["split", "--set", "n=4", "--out", str(cold)]) == 0
    assert shapes.count((2, 2)) == 3 * 64
    names = sorted(path.name for path in warm.iterdir())
    assert names == sorted(path.name for path in cold.iterdir())
    for name in names:
        assert (warm / name).read_bytes() == (cold / name).read_bytes(), name


def test_split_reconstruction_above_gate_exits_1(tmp_path):
    # at eps = 1e-5 the vertical damping has modulus about 44, and the damped
    # quadrature reconstructs T(t) only to 2.7e-5, though both bounds hold
    code = run_cli(["split", "--set", "n=1", "--set", "epsilons=1e-2,1e-5",
                    "--out", str(tmp_path)])
    assert code == 1
    rows = [r.split(",") for r in (tmp_path / "results.csv").read_text().splitlines()[1:]]
    assert float(rows[0][2]) <= GATES["recon_error"] < float(rows[1][2])
    assert all(row[-2:] == ["true", "true"] for row in rows)
    assert (tmp_path / "certificate_1e-05.txt").exists()


# a non-finite side or point would pass the order checks and fail later in the
# map, a negative seed in the random generator after the first output is
# written, and a repeated eps would overwrite its own certificate file
@pytest.mark.parametrize(
    "overrides",
    [["t=99"], ["a=inf", "t=0.2"], ["b=inf"], ["seed=-1"], ["epsilons=0.1,0.1", "n=2"]],
    ids=",".join,
)
def test_invalid_config_exits_2_and_writes_nothing(tmp_path, overrides):
    out = tmp_path / "x"
    code = run_cli(["split", *(arg for o in overrides for arg in ("--set", o)), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 1\nepsilons = 1.0\n# comment line\nnodes_per_edge = 32\n")
    out = tmp_path / "run"
    code = run_cli(["split", "--config", str(cfg), "--set", "seed=3", "--out", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()


def test_unknown_key_rejected(tmp_path):
    assert run_cli(["split", "--set", "frobnicate=1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("override", ["n=abc", "epsilons=1e-2,x", "n_range=2..", "seed=1.5"])
def test_malformed_value_exits_2_and_writes_nothing(tmp_path, override):
    out = tmp_path / "x"
    assert run_cli(["split", "--set", override, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("override", ["n_range=5..3", "n_range=0..3", "restarts=-1"])
def test_bad_sweep_config_exits_2_and_writes_nothing(tmp_path, override):
    out = tmp_path / "x"
    assert run_cli(["dimsweep", "--set", override, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides",
    # the corollary projects onto the first-level subspace only, so its former
    # subspace keys are now rejected as unknown keys
    [("corollary", ["n_range=0..3"]),
     ("corollary", ["subspace=bogus"]),
     ("checks", ["walkers=0"]),
     ("corollary", ["subspace=random", "subspace_dim=0"]),
     ("corollary", ["subspace=random", "subspace_dim=-1"])],
    ids=["n_range=0..3", "subspace=bogus", "walkers=0", "subspace_dim=0", "subspace_dim=-1"],
)
def test_bad_corollary_or_checks_config_exits_2_and_writes_nothing(tmp_path, command, overrides):
    out = tmp_path / "x"
    args = [command]
    for override in overrides:
        args += ["--set", override]
    assert run_cli(args + ["--out", str(out)]) == 2
    assert not out.exists()


_DOMAIN = ExperimentConfig().resolved_geometry()

# one library call per config key, run on the parsed value; each is cheap
# and raises its rule's error on a bad value
_LIBRARY_USE = {
    "p": make_gamma2,
    "epsilons": lambda eps: [strip_damping(0.5, e, 0.5) for e in eps],
    "nodes_per_edge": _check_nodes_per_edge,
    "restarts": lambda r: opnorm_lower(
        OperatorMatrix.identity(FiniteProbabilitySpace.uniform(1)), 1.5, 1.5, restarts=r),
    "seed": lambda seed: brownian_exit_theta(_DOMAIN, walkers=1, seed=seed),
    "walkers": lambda walkers: brownian_exit_theta(_DOMAIN, walkers=walkers),
    "n": CubeNoiseSemigroup,
    "n_range": lambda n_range: [CubeNoiseSemigroup(n) for n in n_range],
}


@pytest.mark.parametrize("key, raw", [
    ("p", "1"), ("p", "1.5"), ("p", "2"), ("p", "nan"),
    ("epsilons", "0"), ("epsilons", "1e-3"), ("epsilons", "1"), ("epsilons", "1.5"),
    ("nodes_per_edge", "3"), ("nodes_per_edge", "4"),
    ("restarts", "-1"), ("restarts", "0"),
    ("seed", "-1"), ("seed", "0"),
    ("walkers", "0"), ("walkers", "1"),
    ("n", "0"), ("n", "1"),
    ("n_range", "0..2"), ("n_range", "1..2"),
])
def test_config_rejects_exactly_what_the_library_rejects(tmp_path, key, raw):
    # the config applies the library's own rules, so a value fails at load
    # time (exit 2) exactly when the library would refuse it
    try:
        load_config(None, [f"{key}={raw}"], str(tmp_path))
        cli_rejects = False
    except UsageError:
        cli_rejects = True
    try:
        _LIBRARY_USE[key](_parse_scalar(key, raw))
        library_rejects = False
    except ValueError:
        library_rejects = True
    assert cli_rejects == library_rejects


def test_split_beyond_cube_cap_exits_3_before_any_output(tmp_path):
    code = run_cli(["split", "--set", "n=11", "--set", "nodes_per_edge=32",
                    "--out", str(tmp_path)])
    assert code == 3
    assert (tmp_path / "diagnostics.txt").exists()
    assert not (tmp_path / "results.csv").exists()


def test_dimsweep(tmp_path):
    code = run_cli(["dimsweep", "--set", "n_range=1,2", "--set", "epsilons=1e-2",
                    "--set", "nodes_per_edge=32", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "dimsweep.csv").read_text().splitlines()
    assert lines[0] == "n,theta,C0,C1,norm_T0_pp,norm_T1_p2"
    assert len(lines) == 3


def test_dimsweep_single_entry_trivially_stable(tmp_path):
    code = run_cli(["dimsweep", "--set", "n_range=2", "--set", "epsilons=1e-2",
                    "--set", "nodes_per_edge=32", "--out", str(tmp_path)])
    assert code == 0


def test_dimsweep_cost_guard(tmp_path):
    code = run_cli(["dimsweep", "--set", "n_range=2,12", "--out", str(tmp_path)])
    assert code == 3
    assert (tmp_path / "diagnostics.txt").exists()


def test_corollary(tmp_path):
    code = run_cli(["corollary", "--set", "n_range=1,2", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "corollary.csv").read_text().splitlines()
    assert lines[0] == "n,dim,norm_pp,idempotence_residual,fix_residual"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-9


def test_corollary_cost_guard(tmp_path):
    # the n = 2 row is built, then n = 12 exceeds the cube cap before any row is written
    code = run_cli(["corollary", "--set", "n_range=2,12", "--out", str(tmp_path)])
    assert code == 3
    assert (tmp_path / "diagnostics.txt").exists()
    assert not (tmp_path / "corollary.csv").exists()


def test_readme_lists_every_config_key():
    # a key added to or removed from the config must be added to or removed
    # from the README's `Keys:` list too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [listed] = re.findall(r"Keys: `([^`]*)`", readme)
    names = [name.strip() for name in listed.split(",")]
    assert names == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_entry_point_help():
    # the subprocess imports the package this test run imported, installed or not
    src = str(Path(semisplit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "semisplit.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    for sub in ("split", "dimsweep", "corollary", "checks"):
        assert sub in proc.stdout


@pytest.mark.slow
def test_checks_subcommand(tmp_path, capsys):
    code = run_cli(["checks", "--set", "walkers=5000", "--set", "n=3"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS" in out and "FAIL" not in out
