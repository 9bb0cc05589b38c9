"""Operator-ideal norms compatible with composition, and the split generalized over them.

An ideal norm gamma satisfies gamma(T o x) <= C ||x|| gamma(T): composing an
ideal element with a bounded operator acting first stays in the ideal.  That is
the composition order the semigroup factorization T(s+t) = T(t) o T(s) uses,
with the ideal element applied last.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .geometry import HarmonicMeasure, TriangleDomain
from .opnorm import DEFAULT_RESTARTS, _check_p, opnorm_lower
from .spaces import OperatorMatrix, compose
from .splitter import SplitCertificate, _split_engine, _validated_epsilons

__all__ = [
    "IdealNorm",
    "make_gamma2",
    "make_schatten_like",
    "spectral_norm",
    "generic_split",
    "measure_compatibility",
]


@dataclass(frozen=True)
class IdealNorm:
    """A Banach norm on operators with a declared compatibility constant."""

    name: str
    gamma: Callable[[OperatorMatrix], float]
    C: float


def make_gamma2(p: float, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> IdealNorm:
    """The norm of an operator viewed from L_p into L_2; C = 1."""
    _check_p(p)

    def gamma(A: OperatorMatrix) -> float:
        return opnorm_lower(A, p, 2.0, restarts=restarts, seed=seed).value

    return IdealNorm(f"into-hilbert(p={p})", gamma, 1.0)


def _require_square(A: OperatorMatrix) -> np.ndarray:
    if A.domain.size != A.codomain.size:
        raise ShapeError("this ideal norm needs operators on a single space")
    return A.entries


def make_schatten_like(kind: str) -> IdealNorm:
    """Entrywise ideal norms on a single space: 'trace-norm' or 'hilbert-schmidt'."""
    if kind == "trace-norm":

        def gamma(A: OperatorMatrix) -> float:
            return float(np.linalg.svd(_require_square(A), compute_uv=False).sum())

    elif kind == "hilbert-schmidt":

        def gamma(A: OperatorMatrix) -> float:
            return float(np.sqrt((np.abs(_require_square(A)) ** 2).sum()))

    else:
        raise DomainError(f"unknown kind {kind!r}")
    return IdealNorm(kind, gamma, 1.0)


def spectral_norm(A: OperatorMatrix) -> float:
    """Largest singular value of the entry matrix."""
    return float(np.linalg.norm(A.entries, 2))


def generic_split(
    semigroup,
    domain: TriangleDomain,
    hm: HarmonicMeasure,
    gamma: IdealNorm,
    op_norm: Callable[[OperatorMatrix], float],
    epsilon: float | Sequence[float],
) -> SplitCertificate | list[SplitCertificate]:
    """The splitting pipeline with gamma on the vertical part and op_norm elsewhere.

    Identical nodes, reductions and ``epsilon`` forms as :func:`semisplit.split`;
    the certificate fields norm_T1_p2 / C1_measured carry gamma values and
    norm_T0_pp / C0_measured / recon_error_pp carry op_norm values.  Ideal
    norms need not multiply over tensor factors, so each node norm is taken
    on the full node operator T(z).  ``gamma`` and ``op_norm`` are norms,
    deterministic functions of the operator, so the eps-free node values are
    memoised on (semigroup, hm, gamma, op_norm): calls that share them, one
    per eps for instance, evaluate the nodes once.
    """
    epsilons = _validated_epsilons(domain, hm, epsilon)
    certs = _split_engine(
        semigroup, hm, epsilons, _node_values(semigroup, hm, gamma, op_norm),
        lambda ops, vertical: [(gamma.gamma if vertical else op_norm)(A) for A in ops])
    return certs[0] if np.ndim(epsilon) == 0 else certs


# a sweep uses one key per ideal; a small cache bounds the semigroups and
# measures it keeps alive
@functools.lru_cache(maxsize=4)
def _node_values(semigroup, hm: HarmonicMeasure, gamma: IdealNorm,
                 op_norm: Callable[[OperatorMatrix], float]) -> tuple[float, ...]:
    return tuple(
        (gamma.gamma if on_v1 else op_norm)(semigroup.evaluate(complex(z)))
        for z, on_v1 in zip(hm.z, hm.is_v1)
    )


def measure_compatibility(
    ideal: IdealNorm,
    op_norm: Callable[[OperatorMatrix], float],
    pairs,
) -> float:
    """Largest observed ratio gamma(T o x) / (gamma(T) ||x||) over (x, T) pairs.

    Reported next to the declared constant; a ratio well above it signals a
    composition-order or convention error.
    """
    worst = 0.0
    for x, T in pairs:
        denom = ideal.gamma(T) * op_norm(x)
        if denom == 0:
            continue
        worst = max(worst, ideal.gamma(compose(T, x)) / denom)
    return worst
