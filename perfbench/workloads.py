"""The three workloads: inputs made from a seed, the jobs, and their output checks.

A workload is a list of jobs run one after another by a single client.  A job
either calls the CLI in-process through ``semisplit.cli.main`` (so it times
the path users run, file writes included) or, for work the CLI cannot express,
calls the library API.  Every library name is looked up on the ``semisplit``
modules at call time, so the traced run sees the wrapped names.

Each job returns what its check needs; the checks run after the timed job list.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import semisplit
import semisplit.cli
from semisplit.errors import ConvergenceError

WORKLOADS = ("split-sweep", "dimsweep", "verify-dense")

REFERENCE = Path(__file__).resolve().parent / "reference"

P = 1.5
EPS_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)
# theta, norm, constant and slope columns agreed to 9.7e-11 relative across
# 45 seeds (0-3 and 41 drawn at random below 2^31); the tolerance leaves two
# orders of headroom
RTOL = 1e-8
# dimsweep's norm_T0_pp at n = 7 and n = 8 is the exception.  The final ascent
# on T0 there stops early, at a point that depends on the seed.  Every value is
# a certified lower bound, so none is wrong.  Over 58 seeds (0-11, 40 drawn at
# random below 2^31 and six others) n = 7 read up to 5.5e-5 below the seed-0
# reference.  At n = 8, seeds 0-11 all stop at the reference, 0.04329770, and
# other seeds reach up to 0.04335244, 1.26e-3 above it.  These two rows, keyed
# by n, get tolerances about 18x and 4x their largest deviation seen.
RTOL_DIMSWEEP_T0 = {7: 1e-3, 8: 5e-3}
# recon_error moves about 1e-2 relative across seeds, so it gets a ceiling:
# acceptance criterion 1's reconstruction limit
RECON_CEILING = 1e-6
# acceptance criterion 7's ascent-vs-oracle limit
GAP_LIMIT = 1e-3
# acceptance criterion 10's idempotence and fixed-subspace limit
PROJECTION_RESIDUAL_LIMIT = 1e-9


# library jobs whose certificate values are stored in reference/values.json
IDEAL_KINDS = ("hilbert-schmidt", "trace-norm")
CUBE_ORACLE_JOB = "oracle-checked split, cube n=2"
VALUE_JOBS = tuple(f"generic_split {kind}" for kind in IDEAL_KINDS) + (CUBE_ORACLE_JOB,)


class CheckFailure(Exception):
    """A job's output disagrees with its reference or with a certified limit."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # output files compared byte for byte with the reference, as
    # (produced, reference) pairs; reported as a count, never as a failure
    byte_files: list[tuple[Path, Path]] = field(default_factory=list)
    out_dir: Path | None = None


@dataclass
class CliResult:
    code: int
    stdout: str


def _cli(argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = semisplit.cli.main(argv)
    return CliResult(code, buf.getvalue())


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _read_csv(path: Path) -> list[dict[str, str]]:
    _require(path.is_file(), f"{path.name} was not written")
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _compare_table(
    got_path: Path,
    ref_path: Path,
    relative: dict[str, float],
    ceilings: dict[str, float] | None = None,
    must_be_true: tuple[str, ...] = (),
    row_rtol: Callable[[dict[str, str], str], float | None] = lambda row, col: None,
) -> None:
    """Compare columns relatively (column -> rtol), against ceilings, and as true flags.

    ``row_rtol(reference_row, column)`` may override a column's tolerance for
    one row; it returns None to keep the column's.
    """
    got, ref = _read_csv(got_path), _read_csv(ref_path)
    _require(len(got) == len(ref), f"{got_path.name}: {len(got)} rows, reference has {len(ref)}")
    _require(
        list(got[0]) == list(ref[0]),
        f"{got_path.name}: header {list(got[0])} differs from reference {list(ref[0])}",
    )
    for i, (g, r) in enumerate(zip(got, ref)):
        for col, rtol in relative.items():
            rtol = row_rtol(r, col) or rtol
            _require(
                _close(float(g[col]), float(r[col]), rtol),
                f"{got_path.name} row {i} {col}: {g[col]} vs reference {r[col]} (rtol {rtol})",
            )
        for col, ceiling in (ceilings or {}).items():
            _require(
                float(g[col]) <= ceiling,
                f"{got_path.name} row {i} {col}: {g[col]} above the ceiling {ceiling}",
            )
        for col in must_be_true:
            _require(g[col] == "true", f"{got_path.name} row {i} {col} is {g[col]}")


def _expect_code(res: CliResult, code: int, what: str) -> None:
    _require(res.code == code, f"{what} exited {res.code}, expected {code}")


def _default_geometry():
    domain = semisplit.TriangleDomain.with_defaults(-0.5 * math.log(P - 1.0))
    return domain, semisplit.harmonic_measure(domain, 64)


def cert_values(cert) -> dict[str, float]:
    return {
        "theta": cert.theta,
        "C0_measured": cert.C0_measured,
        "C1_measured": cert.C1_measured,
        "norm_T0_pp": cert.norm_T0_pp,
        "norm_T1_p2": cert.norm_T1_p2,
    }


def reference_values() -> dict:
    """Certificate values of the library jobs, stored with the benchmark."""
    return json.loads((REFERENCE / "values.json").read_text())


def _check_certs(certs, ref: list[dict[str, float]], what: str) -> None:
    _require(len(certs) == len(ref), f"{what}: {len(certs)} certificates, reference has {len(ref)}")
    for eps, cert, r in zip(EPS_SWEEP, certs, ref):
        for key, val in cert_values(cert).items():
            _require(
                _close(val, r[key]),
                f"{what} eps={eps} {key}: {val!r} vs reference {r[key]!r} (rtol {RTOL})",
            )
        _require(
            cert.recon_error_pp <= RECON_CEILING,
            f"{what} eps={eps} recon_error {cert.recon_error_pp} above {RECON_CEILING}",
        )
        _require(cert.bound_T0_ok and cert.bound_T1_ok, f"{what} eps={eps}: a bound flag is false")


# --- split-sweep -------------------------------------------------------------


def _split_cli_job(n: int, seed: int, out: Path) -> Job:
    out_dir = out / f"split-n{n}"
    ref_dir = REFERENCE / "split-sweep" / f"n{n}"
    argv = ["split", "--set", f"n={n}", "--set", f"seed={seed}", "--out", str(out_dir)]

    def check(res: CliResult) -> None:
        _expect_code(res, 0, f"semisplit split n={n}")
        _compare_table(
            out_dir / "results.csv",
            ref_dir / "results.csv",
            relative=dict.fromkeys(("epsilon", "theta", "norm_T0_pp", "C0", "norm_T1_p2",
                                    "C1", "exponent", "slope_fit"), RTOL),
            ceilings={"recon_error": RECON_CEILING},
            must_be_true=("bound_T0_ok", "bound_T1_ok"),
        )

    names = ["results.csv"] + [f"certificate_{eps}.txt" for eps in EPS_SWEEP]
    return Job(
        f"split n={n}",
        lambda: _cli(argv),
        check,
        byte_files=[(out_dir / f, ref_dir / f) for f in names],
        out_dir=out_dir,
    )


def _generic_split_job(kind: str) -> Job:
    def run():
        domain, hm = _default_geometry()
        ideal = semisplit.make_schatten_like(kind)
        cube = semisplit.CubeNoiseSemigroup(3)
        return [
            semisplit.generic_split(cube, domain, hm, ideal, semisplit.ideals.spectral_norm, eps)
            for eps in EPS_SWEEP
        ]

    name = f"generic_split {kind}"

    def check(certs) -> None:
        _check_certs(certs, reference_values()[name], name)

    return Job(name, run, check)


def _split_sweep(seed: int, out: Path) -> list[Job]:
    jobs = [_split_cli_job(n, seed, out) for n in (3, 4, 5, 6)]
    jobs += [_generic_split_job(kind) for kind in IDEAL_KINDS]
    return jobs


# --- dimsweep ----------------------------------------------------------------


def _dimsweep(seed: int, out: Path) -> list[Job]:
    out_dir = out / "dimsweep"
    ref = REFERENCE / "dimsweep" / "dimsweep.csv"
    argv = ["dimsweep", "--set", f"seed={seed}", "--out", str(out_dir)]

    def check(res: CliResult) -> None:
        _expect_code(res, 0, "semisplit dimsweep")
        _compare_table(
            out_dir / "dimsweep.csv", ref,
            relative=dict.fromkeys(("n", "theta", "C0", "C1", "norm_T0_pp", "norm_T1_p2"), RTOL),
            row_rtol=lambda row, col: (
                RTOL_DIMSWEEP_T0.get(int(row["n"])) if col == "norm_T0_pp" else None
            ),
        )

    return [
        Job(
            "dimsweep",
            lambda: _cli(argv),
            check,
            byte_files=[(out_dir / "dimsweep.csv", ref)],
            out_dir=out_dir,
        )
    ]


# --- verify-dense ------------------------------------------------------------


def _diagonal_split_job(seed: int) -> Job:
    # A 6-point diagonal-multiplier semigroup on a non-uniform space: the
    # general-basis path, with long ascents on non-normal operators.  The
    # operator is the one of test_split_diagonal_semigroup (generator seed 3),
    # not drawn from the workload seed: over seeds 0-11 this split took
    # 0.45-1.2 s as the ascents' iteration counts followed the operator, which
    # alone spread verify-dense's wall_s by 10% across seeds.  The workload
    # seed still drives the split's restarts.
    rng = np.random.default_rng(3)
    d = 6
    weights = rng.dirichlet(np.ones(d) * 5)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    spectrum = np.sort(rng.uniform(0.0, 4.0, d))
    spectrum[0] = 0.0

    def run():
        space = semisplit.FiniteProbabilitySpace(weights)
        S = semisplit.DiagonalMultiplierSemigroup(semisplit.OperatorMatrix.on(space, basis), spectrum)
        domain, hm = _default_geometry()
        try:
            return semisplit.split(S, domain, hm, P, 1e-2, seed=seed, oracle_check=True)
        except ConvergenceError as exc:
            raise CheckFailure(f"oracle check raised ConvergenceError: {exc}") from exc

    def check(cert) -> None:
        _require(
            cert.recon_error_pp <= RECON_CEILING,
            f"diagonal split recon_error {cert.recon_error_pp} above {RECON_CEILING}",
        )
        _require(cert.bound_T0_ok and cert.bound_T1_ok, "diagonal split: a bound flag is false")

    return Job("oracle-checked split, diagonal semigroup d=6", run, check)


def _cube_oracle_job(seed: int) -> Job:
    def run():
        domain, hm = _default_geometry()
        cube = semisplit.CubeNoiseSemigroup(2)
        try:
            return [
                semisplit.split(cube, domain, hm, P, eps, seed=seed, oracle_check=True)
                for eps in EPS_SWEEP
            ]
        except ConvergenceError as exc:
            raise CheckFailure(f"oracle check raised ConvergenceError: {exc}") from exc

    def check(certs) -> None:
        _check_certs(certs, reference_values()[CUBE_ORACLE_JOB], CUBE_ORACLE_JOB)

    return Job(CUBE_ORACLE_JOB, run, check)


def _soundness_job(k: int, entries: np.ndarray, seed: int) -> Job:
    d = entries.shape[0]

    def run():
        A = semisplit.OperatorMatrix.on(semisplit.FiniteProbabilitySpace.uniform(d), entries)
        gaps = []
        for p, q in ((1.5, 1.5), (1.5, 2.0), (2.0, 2.0)):
            lo = semisplit.opnorm_lower(A, p, q, seed=seed).value
            orc = semisplit.opnorm_oracle(A, p, q, seed=seed)
            gaps.append(abs(lo - orc) / max(lo, orc))
        return gaps

    def check(gaps) -> None:
        _require(max(gaps) <= GAP_LIMIT, f"matrix {k} (d={d}): ascent-vs-oracle gap {max(gaps):.2e}")

    return Job(f"ascent vs oracle, matrix {k} d={d}", run, check)


def _verify_dense(seed: int, out: Path) -> list[Job]:
    jobs = [_diagonal_split_job(seed), _cube_oracle_job(seed)]
    # the dimension is fixed per slot, so every seed does the same amount of work
    rng = np.random.default_rng([seed, 7])
    for k in range(10):
        d = 2 + k % 5
        jobs.append(_soundness_job(k, rng.standard_normal((d, d)), seed))

    cor_dir = out / "corollary"
    cor_ref = REFERENCE / "verify-dense" / "corollary.csv"
    cor_argv = ["corollary", "--set", f"seed={seed}", "--out", str(cor_dir)]

    def check_corollary(res: CliResult) -> None:
        _expect_code(res, 0, "semisplit corollary")
        _compare_table(
            cor_dir / "corollary.csv", cor_ref,
            relative=dict.fromkeys(("n", "dim", "norm_pp"), RTOL),
            ceilings={
                "idempotence_residual": PROJECTION_RESIDUAL_LIMIT,
                "fix_residual": PROJECTION_RESIDUAL_LIMIT,
            },
        )

    jobs.append(Job("corollary", lambda: _cli(cor_argv), check_corollary, out_dir=cor_dir))

    checks_argv = ["checks", "--set", f"seed={seed}", "--out", str(out / "checks")]

    def check_checks(res: CliResult) -> None:
        failing = [line for line in res.stdout.splitlines() if not line.startswith("PASS")]
        _require(res.code == 0 and not failing, f"semisplit checks exited {res.code}: {failing}")

    jobs.append(Job("checks", lambda: _cli(checks_argv), check_checks, out_dir=out / "checks"))
    return jobs


def make_jobs(workload: str, seed: int, out: Path) -> list[Job]:
    """The workload's job list for this seed, writing CLI outputs under ``out``."""
    builders = {"split-sweep": _split_sweep, "dimsweep": _dimsweep, "verify-dense": _verify_dense}
    return builders[workload](seed, out)
