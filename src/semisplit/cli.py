"""Configuration-driven experiment runner.

Config format: a flat key=value text file ('#' starts a comment), overridable
with repeatable --set KEY=VALUE flags; --out chooses the output directory.
Exit status: 0 when every certified inequality holds, 1 when a certified bound,
a reconstruction error or a stability factor fails (the outputs are still
written), 2 on an invalid config (nothing is written), 3 on a numerical
failure (a diagnostics file is written).
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .geometry import (
    TriangleDomain,
    brownian_exit_theta,
    disk_to_strip,
    harmonic_measure,
    node_table,
    strip_damping,
    strip_to_disk,
)
from .ideals import make_gamma2, make_schatten_like, measure_compatibility, spectral_norm
from .opnorm import DEFAULT_RESTARTS, hypercontractive_time, opnorm_lower
from .semigroups import (
    CubeNoiseSemigroup,
    DiagonalMultiplierSemigroup,
    inverse_walsh_transform,
    semigroup_property_check,
    walsh_transform,
)
from .spaces import FiniteProbabilitySpace, FunctionVector, OperatorMatrix, compose, lp_norm
from .splitter import certificate_text, dimension_sweep, split
from .subspaces import Subspace, build_projection, first_level_subspace

__all__ = ["main", "ExperimentConfig", "GATES"]

RESULTS_HEADER = (
    "epsilon,theta,recon_error,norm_T0_pp,C0,norm_T1_p2,C1,exponent,"
    "slope_fit,bound_T0_ok,bound_T1_ok"
)

# Upper limits on the reconstruction error of each `split` row and on the
# stability numbers that `dimsweep` and `corollary` print; the subcommand exits
# 1 when one is exceeded.  Acceptance criteria 1, 8 and 10 assert the same table.
GATES = {
    "recon_error": 1e-6,
    "theta_spread": 1e-12,
    "C1_factor": 1.5,
    "norm_T0_over_eps_factor": 2.0,
    "projection_norm_factor": 1.5,
}


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    p: float = 1.5
    n: int = 3
    s: float | None = None  # None means the hypercontractive threshold for p
    a: float | None = None
    b: float | None = None
    t: float | None = None
    epsilons: list[float] = field(default_factory=lambda: [1e-1, 1e-2, 1e-3, 1e-4])
    nodes_per_edge: int = 64
    seed: int = 0
    output_dir: str = "."
    restarts: int = DEFAULT_RESTARTS
    n_range: list[int] = field(default_factory=lambda: list(range(2, 9)))
    walkers: int = 20_000
    subspace: str = "first-level"
    subspace_dim: int = 2

    def resolved_geometry(self) -> TriangleDomain:
        s = self.s if self.s is not None else -0.5 * math.log(self.p - 1.0)
        try:
            return TriangleDomain.with_defaults(s, self.a, self.b, self.t)
        except DomainError as exc:
            raise UsageError(f"invariant violated: {exc}") from exc

    def validate(self) -> None:
        if not (1.0 < self.p < 2.0):
            raise UsageError(f"invariant violated: 1 < p < 2 (got p = {self.p})")
        if self.n < 1:
            raise UsageError(f"invariant violated: n >= 1 (got n = {self.n})")
        if not self.epsilons:
            raise UsageError("invariant violated: at least one epsilon is required")
        for e in self.epsilons:
            if not (0.0 < e <= 1.0):
                raise UsageError(
                    f"invariant violated: every epsilon lies in (0, 1] (got {e})"
                )
        if self.nodes_per_edge < 4:
            raise UsageError(
                f"invariant violated: nodes_per_edge >= 4 (got {self.nodes_per_edge})"
            )
        if not self.n_range or min(self.n_range) < 1:
            raise UsageError(
                f"invariant violated: n_range is non-empty with every n >= 1 "
                f"(got {self.n_range})"
            )
        if self.seed < 0:
            raise UsageError(f"invariant violated: seed >= 0 (got {self.seed})")
        if self.restarts < 0:
            raise UsageError(f"invariant violated: restarts >= 0 (got {self.restarts})")
        if self.walkers < 1:
            raise UsageError(f"invariant violated: walkers >= 1 (got {self.walkers})")
        if self.subspace not in ("first-level", "random", "degenerate"):
            raise UsageError(f"invariant violated: unknown subspace kind {self.subspace!r}")
        if self.subspace_dim < 1:
            raise UsageError(f"invariant violated: subspace_dim >= 1 (got {self.subspace_dim})")
        self.resolved_geometry()


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    if key in ("s", "a", "b", "t"):
        return None if raw == "auto" else float(raw)
    if key in ("p",):
        return float(raw)
    if key in ("n", "nodes_per_edge", "seed", "restarts", "walkers", "subspace_dim"):
        return int(raw)
    if key == "epsilons":
        return [float(x) for x in raw.split(",") if x.strip()]
    if key == "n_range":
        if ".." in raw:
            lo, hi = raw.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(x) for x in raw.split(",") if x.strip()]
    if key in ("output_dir", "subspace"):
        return raw
    raise UsageError(f"unknown config key: {key}")


def load_config(path: str | None, overrides: list[str], out: str | None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    pairs: list[tuple[str, str]] = []
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            k, v = line.split("=", 1)
            pairs.append((k.strip(), v))
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        pairs.append((k.strip(), v))
    for k, v in pairs:
        if not hasattr(cfg, k):
            raise UsageError(f"unknown config key: {k}")
        try:
            value = _parse_scalar(k, v)
        except ValueError as exc:
            raise UsageError(f"malformed value for {k}: {v.strip()!r} ({exc})") from exc
        setattr(cfg, k, value)
    if out is not None:
        cfg.output_dir = out
    cfg.validate()
    return cfg


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _slope(log_eps: list[float], log_norm: list[float]) -> float:
    if len(log_eps) < 2:
        return float("nan")
    A = np.stack([np.asarray(log_eps), np.ones(len(log_eps))], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(log_norm), rcond=None)
    return float(coef[0])


def run_split(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    domain = cfg.resolved_geometry()
    hm = harmonic_measure(domain, cfg.nodes_per_edge)
    semigroup = CubeNoiseSemigroup(cfg.n)
    (out / "nodes.txt").write_text(node_table(hm))
    rows = [RESULTS_HEADER]
    log_eps: list[float] = []
    log_norm: list[float] = []
    all_ok = True
    certs = split(
        semigroup, domain, hm, cfg.p, cfg.epsilons,
        restarts=cfg.restarts, seed=cfg.seed, oracle_check=False,
    )
    for eps, cert in zip(cfg.epsilons, certs):
        log_eps.append(math.log(eps))
        log_norm.append(math.log(max(cert.norm_T1_p2, 1e-300)))
        slope = _slope(log_eps, log_norm)
        rows.append(
            ",".join(
                _fmt(v)
                for v in (
                    eps, cert.theta, cert.recon_error_pp, cert.norm_T0_pp,
                    cert.C0_measured, cert.norm_T1_p2, cert.C1_measured,
                    cert.exponent, slope, cert.bound_T0_ok, cert.bound_T1_ok,
                )
            )
        )
        (out / f"certificate_{eps}.txt").write_text(certificate_text(cert))
        all_ok = (all_ok and cert.bound_T0_ok and cert.bound_T1_ok
                  and cert.recon_error_pp <= GATES["recon_error"])
    (out / "results.csv").write_text("\n".join(rows) + "\n")
    return 0 if all_ok else 1


def run_dimsweep(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    eps = cfg.epsilons[0]
    domain = cfg.resolved_geometry()
    rows = dimension_sweep(
        domain, harmonic_measure(domain, cfg.nodes_per_edge), cfg.p, eps, cfg.n_range,
        restarts=cfg.restarts, seed=cfg.seed,
    )
    lines = ["n,theta,C0,C1,norm_T0_pp,norm_T1_p2"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in r))
    (out / "dimsweep.csv").write_text("\n".join(lines) + "\n")
    thetas = [r.theta for r in rows]
    c1s = [r.C1_measured for r in rows]
    t0s = [r.norm_T0_pp / eps for r in rows]
    stats = {
        "theta_spread": max(thetas) - min(thetas),
        "C1_factor": max(c1s) / min(c1s) if min(c1s) > 0 else math.inf,
        "norm_T0_over_eps_factor": max(t0s) / min(t0s) if min(t0s) > 0 else math.inf,
    }
    for name, value in stats.items():
        print(f"{name} {_fmt(value)}")
    return 0 if all(value <= GATES[name] for name, value in stats.items()) else 1


def _subspace_for(cfg: ExperimentConfig, n: int) -> Subspace:
    if cfg.subspace == "first-level":
        return first_level_subspace(n)
    space = FiniteProbabilitySpace.uniform(2**n)
    rng = np.random.default_rng(cfg.seed)
    if cfg.subspace == "random":
        vecs = rng.standard_normal((2**n, cfg.subspace_dim)) + 1j * rng.standard_normal(
            (2**n, cfg.subspace_dim)
        )
        return Subspace(tuple(FunctionVector(vecs[:, j], space) for j in range(cfg.subspace_dim)))
    # degenerate: the same vector twice
    v = rng.standard_normal(2**n) + 0j
    return Subspace((FunctionVector(v, space), FunctionVector(v, space)))


def run_corollary(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    domain = cfg.resolved_geometry()
    lines = ["n,dim,norm_pp,idempotence_residual,fix_residual"]
    norms = []
    for n in cfg.n_range:
        semigroup = CubeNoiseSemigroup(n)
        T = semigroup.evaluate(domain.t)
        X = _subspace_for(cfg, n)
        P, norm_pp = build_projection(T, X, cfg.p, restarts=cfg.restarts, seed=cfg.seed)
        E = P.entries
        idem = float(np.abs(E @ E - E).max())
        fix = float(np.abs(E @ X.matrix - X.matrix).max())
        lines.append(",".join(_fmt(v) for v in (n, X.dim, norm_pp, idem, fix)))
        norms.append(norm_pp)
    (out / "corollary.csv").write_text("\n".join(lines) + "\n")
    factor = max(norms) / min(norms) if min(norms) > 0 else math.inf
    print(f"projection_norm_factor {_fmt(factor)}")
    return 0 if factor <= GATES["projection_norm_factor"] else 1


def run_checks(cfg: ExperimentConfig) -> int:
    """Run the cross-module invariant suite; one line per check."""
    rng = np.random.default_rng(cfg.seed)
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append((name, bool(ok), detail))

    domain = cfg.resolved_geometry()
    hm = harmonic_measure(domain, cfg.nodes_per_edge)
    semigroup = CubeNoiseSemigroup(min(cfg.n, 4))
    space = semigroup.space

    f = FunctionVector(rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size), space)
    rt = inverse_walsh_transform(walsh_transform(f))
    check("walsh-round-trip", np.abs(rt.values - f.values).max() < 1e-12)

    dev = semigroup_property_check(semigroup, 0.3, 0.2 + 0.1j)
    check("semigroup-property-cube", dev <= 1e-12, f"deviation {dev:.2e}")

    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    diag = DiagonalMultiplierSemigroup(
        OperatorMatrix.on(FiniteProbabilitySpace.uniform(6), basis),
        rng.uniform(0.0, 3.0, 6),
    )
    dev = semigroup_property_check(diag, 0.4 + 0.2j, 0.1 + 0.3j)
    check("semigroup-property-diagonal", dev <= 1e-10, f"deviation {dev:.2e}")

    g = FunctionVector(rng.standard_normal(space.size) + 0j, space)
    check(
        "lp-monotonicity",
        lp_norm(g, 1.2) <= lp_norm(g, 1.7) + 1e-12 and lp_norm(g, 1.7) <= lp_norm(g, 2.5) + 1e-12,
    )

    mass = float(hm.weights.sum())
    mean = hm.integrate(hm.z)
    check("measure-mass", abs(mass - 1.0) <= 1e-8, f"mass {mass!r}")
    check("measure-mean-value", abs(mean - domain.t) <= 1e-7, f"integral of z = {mean!r}")

    eps = 1e-2
    psi = strip_damping(hm.theta, eps, hm.w_strip)
    on_v0 = np.abs(np.abs(psi[~hm.is_v1]) - eps).max()
    target = eps ** ((hm.theta - 1) / hm.theta)
    on_v1 = np.abs(np.abs(psi[hm.is_v1]) / target - 1.0).max()
    check("damping-moduli", on_v0 <= 1e-7 and on_v1 <= 1e-6)

    est, se = brownian_exit_theta(domain, walkers=cfg.walkers, seed=cfg.seed)
    check(
        "theta-vs-brownian",
        abs(est - hm.theta) <= 3 * se,
        f"conformal {hm.theta:.5f}, walkers {est:.5f} +- {se:.5f}",
    )

    ok = True
    for _ in range(5):
        A = OperatorMatrix.on(space, rng.standard_normal((space.size,) * 2))
        Bm = OperatorMatrix.on(space, rng.standard_normal((space.size,) * 2))
        for r in (cfg.p, 2.0):
            lhs = opnorm_lower(compose(A, Bm), cfg.p, 2.0, restarts=8, seed=cfg.seed).value
            rhs = (
                opnorm_lower(A, r, 2.0, restarts=8, seed=cfg.seed).value
                * opnorm_lower(Bm, cfg.p, r, restarts=8, seed=cfg.seed).value
            )
            ok = ok and lhs <= rhs * (1 + 1e-3)
    check("norm-submultiplicativity", ok)

    pairs = []
    for _ in range(50):
        x = OperatorMatrix.on(space, rng.standard_normal((space.size,) * 2))
        T = OperatorMatrix.on(space, rng.standard_normal((space.size,) * 2))
        pairs.append((x, T))
    hs = make_schatten_like("hilbert-schmidt")
    tr = make_schatten_like("trace-norm")
    g2 = make_gamma2(cfg.p, restarts=8, seed=cfg.seed)
    c_hs = measure_compatibility(hs, spectral_norm, pairs)
    c_tr = measure_compatibility(tr, spectral_norm, pairs)
    c_g2 = measure_compatibility(
        g2, lambda A: opnorm_lower(A, cfg.p, cfg.p, restarts=8, seed=cfg.seed).value, pairs[:20]
    )
    check(
        "ideal-compatibility",
        all(c <= ideal.C * (1 + tol)
            for c, ideal, tol in ((c_hs, hs, 1e-9), (c_tr, tr, 1e-9), (c_g2, g2, 1e-3))),
        f"ratios hs {c_hs:.6f} trace {c_tr:.6f} into-hilbert {c_g2:.6f}",
    )

    try:
        s_star = hypercontractive_time(cfg.p, CubeNoiseSemigroup(3))
        check("hypercontractive-threshold", True, f"s* = {s_star:.6f}")
    except Exception as exc:  # noqa: BLE001
        check("hypercontractive-threshold", False, str(exc))

    w = 0.3 + 0.7j
    w2 = disk_to_strip(0.37, strip_to_disk(0.37, w))
    check("strip-disk-round-trip", abs(w - w2) <= 1e-12)

    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name:<{width}} {detail}".rstrip())
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semisplit",
        description="split analytic semigroup operators with certified bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("split", "run the splitting construction over an epsilon sweep"),
        ("dimsweep", "run the same split across cube sizes"),
        ("corollary", "build subspace projections across cube sizes"),
        ("checks", "run the cross-module invariant suite"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides"
        )
        sp.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides, args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = {
        "split": run_split,
        "dimsweep": run_dimsweep,
        "corollary": run_corollary,
        "checks": run_checks,
    }[args.command]
    try:
        return runner(cfg)
    except Exception as exc:  # noqa: BLE001
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        diag = out / "diagnostics.txt"
        diag.write_text(
            f"command: {args.command}\nerror: {exc!r}\n\n{traceback.format_exc()}"
        )
        print(f"numerical failure: {exc} (diagnostics in {diag})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
