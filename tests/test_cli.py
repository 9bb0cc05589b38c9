import os
import subprocess
import sys
from pathlib import Path

import pytest

import semisplit
from semisplit.cli import RESULTS_HEADER, main


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
                        "--set", "nodes_per_edge=32", "--set", "seed=5", "--out", str(out)])
        assert code == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "certificate_0.01.txt").read_bytes() == (b / "certificate_0.01.txt").read_bytes()


# a non-finite side or point would pass the order checks and fail later in the map
@pytest.mark.parametrize("overrides", [["t=99"], ["a=inf", "t=0.2"], ["b=inf"]], ids=",".join)
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
    [("corollary", ["subspace=bogus"]),
     ("checks", ["walkers=0"]),
     ("corollary", ["subspace=random", "subspace_dim=0"]),
     ("corollary", ["subspace=random", "subspace_dim=-1"])],
    ids=["subspace=bogus", "walkers=0", "subspace_dim=0", "subspace_dim=-1"],
)
def test_bad_corollary_or_checks_config_exits_2_and_writes_nothing(tmp_path, command, overrides):
    out = tmp_path / "x"
    args = [command]
    for override in overrides:
        args += ["--set", override]
    assert run_cli(args + ["--out", str(out)]) == 2
    assert not out.exists()


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


def test_corollary_degenerate_basis(tmp_path):
    code = run_cli(["corollary", "--set", "n_range=2", "--set", "subspace=degenerate",
                    "--out", str(tmp_path)])
    assert code == 3
    assert (tmp_path / "diagnostics.txt").exists()


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
