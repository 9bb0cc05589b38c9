"""Split T(t) into boundary-averaged parts T0, T1 and certify the norm bounds.

T0 averages damping * T(z) against the harmonic measure restricted to the
slanted boundary part (where the damping has modulus epsilon), T1 against the
vertical part (where it has modulus epsilon^((theta-1)/theta)); the measure's
mean-value property makes (1-theta) T0 + theta T1 reconstruct T(t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    CostGuardError,
    DomainError,
    IllConditionedSplitError,
)
from .geometry import HarmonicMeasure, TriangleDomain, strip_damping
from .opnorm import (
    DEFAULT_RESTARTS,
    ORACLE_DIM_LIMIT,
    NormEstimate,
    _check_p,
    opnorm_lower,
    opnorm_lower_many,
    opnorm_oracle,
)
from .semigroups import _MAX_CUBE_N, CubeNoiseSemigroup
from .spaces import OperatorMatrix

__all__ = [
    "SplitCertificate",
    "node_constants",
    "split",
    "approximant",
    "ApproximantResult",
    "dimension_sweep",
    "SweepRow",
    "certificate_text",
    "PADDING",
]

PADDING = 1e-3


@dataclass(frozen=True)
class SplitCertificate:
    """Record of one run of the construction and its certified inequalities.

    ``C0_node`` and ``C1_node`` are the indices in ``hm.z`` of the first
    slanted and the first vertical node whose norm attains C0 and C1.
    """

    epsilon: float
    theta: float
    T0: OperatorMatrix
    T1: OperatorMatrix
    C0_measured: float
    C1_measured: float
    norm_T0_pp: float
    norm_T1_p2: float
    recon_error_pp: float
    exponent: float
    bound_T0_ok: bool
    bound_T1_ok: bool
    C0_node: int
    C1_node: int


def node_constants(
    semigroup,
    hm: HarmonicMeasure,
    p: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> tuple[NormEstimate, ...]:
    """The norm of ``semigroup.factor`` at every node of ``hm``, in node order.

    Entry i is the lower bound, with its witness, on the norm of
    ``factor.evaluate(hm.z[i])``: p -> p on a slanted node, p -> 2 on a
    vertical one.  The estimates depend on (factor, hm, p, restarts, seed)
    only, so they are memoised on that key, with ``hm`` matched by identity:
    every cube shares the one-bit factor, whatever its power.  The estimates
    are shared between callers, so their witness arrays are read-only.
    """
    _check_p(p)
    return _node_estimates(semigroup.factor, hm, p, restarts, seed)


# a run uses at most two keys at a time; a small cache bounds the harmonic
# measures and factors it keeps alive
@functools.lru_cache(maxsize=4)
def _node_estimates(factor, hm: HarmonicMeasure, p: float, restarts: int,
                    seed: int) -> tuple[NormEstimate, ...]:
    # the slanted nodes (p -> p) and the vertical ones (p -> 2) are each
    # measured as one stack
    ops = [factor.evaluate(complex(z)) for z in hm.z]
    estimates = [None] * len(ops)
    for part, q in ((np.flatnonzero(~hm.is_v1), p), (np.flatnonzero(hm.is_v1), 2.0)):
        stack = opnorm_lower_many([ops[i] for i in part], p, q, restarts, seed)
        for i, est in zip(part, stack):
            est.witness.values.flags.writeable = False
            estimates[i] = est
    return tuple(estimates)


def _validated_epsilons(domain: TriangleDomain, hm: HarmonicMeasure,
                        epsilon: float | Sequence[float]) -> list[float]:
    """The damping levels as floats; raises unless ``hm`` is the measure of
    ``domain``, ``epsilon`` is one level or a non-empty flat sequence of them,
    and each level can be split at ``hm.theta``."""
    if hm.domain != domain:
        raise DomainError(f"the measure belongs to {hm.domain}, not to {domain}")
    levels = np.atleast_1d(epsilon)
    if levels.ndim != 1 or levels.size == 0:
        raise DomainError(f"epsilon must be a level or a non-empty flat sequence, got {epsilon!r}")
    epsilons = [float(e) for e in levels]
    theta = hm.theta
    if theta < 1e-6 or theta > 1.0 - 1e-6:
        raise IllConditionedSplitError(
            f"theta = {theta} makes one side of the split carry a 1/theta-scale factor"
        )
    for epsilon in epsilons:
        if not (0.0 < epsilon <= 1.0):
            raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
        if (1.0 - theta) / theta * math.log(1.0 / epsilon) > 600.0:
            raise IllConditionedSplitError(
                f"damping magnitude epsilon^((theta-1)/theta) with theta = {theta} and "
                f"epsilon = {epsilon} exceeds double-precision range"
            )
    return epsilons


def _largest_node(powered: list[float], on_part: np.ndarray) -> tuple[float, int]:
    """Largest value over one boundary part, and the first node in it attaining that."""
    best, node = 0.0, -1
    for i in np.flatnonzero(on_part):
        if node < 0 or powered[i] > best:
            best, node = powered[i], int(i)
    return best, node


def _split_engine(
    semigroup,
    domain: TriangleDomain,
    hm: HarmonicMeasure,
    epsilons: list[float],
    norms: tuple[Callable, Callable],
    residual_norm: Callable,
    node_values: Sequence[float],
    power: int,
) -> list[SplitCertificate]:
    """One certificate per validated eps.

    The (slanted, vertical) ``norms`` take the list of every eps's T0,
    respectively T1, and return their norms in that order; ``residual_norm``
    measures one reconstruction residual.  C0 is the largest
    ``node_values[i] ** power`` over the slanted nodes, C1 the same over the
    vertical nodes.  T0 and T1 are assembled in the spectral domain: their
    multipliers are the damped quadrature sums of exp(-z_i * spectrum), so
    no node operator is formed.
    """
    theta = hm.theta
    powered = [v**power for v in node_values]
    c0, c0_node = _largest_node(powered, ~hm.is_v1)
    c1, c1_node = _largest_node(powered, hm.is_v1)
    Tt = semigroup.evaluate(domain.t).entries
    node_mults = np.exp(-np.outer(hm.z, semigroup.spectrum))
    slanted, vertical = ~hm.is_v1, hm.is_v1
    exponent = (theta - 1.0) / theta
    T0s, T1s = [], []
    for epsilon in epsilons:
        coeff = hm.weights * strip_damping(theta, epsilon, hm.w_strip)
        T0s.append(semigroup.operator((coeff[slanted] / (1.0 - theta)) @ node_mults[slanted]))
        T1s.append(semigroup.operator((coeff[vertical] / theta) @ node_mults[vertical]))
    certs = []
    for epsilon, T0, T1, norm_T0, norm_T1 in zip(
        epsilons, T0s, T1s, norms[0](T0s), norms[1](T1s)
    ):
        recon = residual_norm(
            OperatorMatrix.on(
                semigroup.space, Tt - ((1.0 - theta) * T0.entries + theta * T1.entries)
            )
        )
        certs.append(SplitCertificate(
            epsilon=epsilon,
            theta=float(theta),
            T0=T0,
            T1=T1,
            C0_measured=float(c0),
            C1_measured=float(c1),
            norm_T0_pp=float(norm_T0),
            norm_T1_p2=float(norm_T1),
            recon_error_pp=float(recon),
            exponent=float(exponent),
            bound_T0_ok=bool(norm_T0 <= c0 * epsilon * (1.0 + PADDING)),
            bound_T1_ok=bool(norm_T1 <= c1 * epsilon**exponent * (1.0 + PADDING)),
            C0_node=c0_node,
            C1_node=c1_node,
        ))
    return certs


def split(
    semigroup,
    domain: TriangleDomain,
    hm: HarmonicMeasure,
    p: float,
    epsilon: float | Sequence[float],
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    oracle_check: bool = True,
) -> SplitCertificate | list[SplitCertificate]:
    """Build T0, T1 for each damping level and certify both norm bounds.

    One float ``epsilon`` gives one certificate, a sequence a list of them;
    C0, C1 and T(t) are computed once per call.  The slanted part is measured
    in the p -> p norm, the vertical part in the p -> 2 norm.  A node norm is
    that of the semigroup's tensor ``factor`` raised to its ``power``: for
    p <= q the p -> q norm is multiplicative over tensor products (Beckner),
    and the tensor power of the factor's witness attains the product, so the
    value stays a certified lower bound.  The factor norms come from
    :func:`node_constants`, so splits that share them measure them once.  On
    spaces small enough for the dense oracle, the norms of the assembled
    operators are cross-checked against it.
    """
    _check_p(p)
    epsilons = _validated_epsilons(domain, hm, epsilon)
    nodes = node_constants(semigroup, hm, p, restarts, seed)
    certs = _split_engine(
        semigroup, domain, hm, epsilons,
        (
            lambda ops: [est.value for est in opnorm_lower_many(ops, p, p, restarts, seed)],
            lambda ops: [est.value for est in opnorm_lower_many(ops, p, 2.0, restarts, seed)],
        ),
        lambda A: opnorm_lower(A, p, p, restarts=restarts, seed=seed).value,
        [est.value for est in nodes],
        semigroup.power,
    )
    if oracle_check and semigroup.space.size <= ORACLE_DIM_LIMIT:
        # both routes certify lower bounds, so only an oracle value above the
        # ascent estimate signals a missed witness
        for cert in certs:
            for A, val, q in ((cert.T0, cert.norm_T0_pp, p), (cert.T1, cert.norm_T1_p2, 2.0)):
                ref = opnorm_oracle(A, p, q, seed=seed)
                if ref > val * (1 + 1e-3) + 1e-30:
                    raise ConvergenceError(
                        f"dense oracle found {ref}, above the ascent estimate {val}"
                    )
    return certs[0] if np.ndim(epsilon) == 0 else certs


class ApproximantResult(NamedTuple):
    tprime: OperatorMatrix
    approx_error: float
    gamma2_norm: float
    unscaled_gap: float


def approximant(
    semigroup,
    domain: TriangleDomain,
    cert: SplitCertificate,
    p: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> ApproximantResult:
    """The near-approximant theta*T1 of T(t), read off a :func:`split` certificate.

    ``cert`` is a certificate of ``semigroup`` on ``domain`` at exponent p.
    Returns (T', ||T(t) - T'||_{p->p}, ||T'||_{p->2}, ||T(t) - T1||_{p->p});
    the last entry records the gap to the unscaled vertical part as well.
    """
    space = semigroup.space
    theta = cert.theta
    Tt = semigroup.evaluate(domain.t).entries
    tprime_entries = theta * cert.T1.entries
    tprime = OperatorMatrix.on(space, tprime_entries)
    approx_error, unscaled = (
        est.value
        for est in opnorm_lower_many(
            [OperatorMatrix.on(space, Tt - tprime_entries),
             OperatorMatrix.on(space, Tt - cert.T1.entries)],
            p, p, restarts, seed,
        )
    )
    gamma2_norm = opnorm_lower(tprime, p, 2.0, restarts=restarts, seed=seed).value
    budget = (1.0 - theta) * cert.C0_measured * cert.epsilon * (1.0 + PADDING)
    if approx_error > budget:
        raise ConvergenceError(
            f"approximation error {approx_error} exceeds its budget {budget}"
        )
    return ApproximantResult(tprime, float(approx_error), float(gamma2_norm), float(unscaled))


class SweepRow(NamedTuple):
    n: int
    theta: float
    C0_measured: float
    C1_measured: float
    norm_T0_pp: float
    norm_T1_p2: float


def dimension_sweep(
    domain: TriangleDomain,
    hm: HarmonicMeasure,
    p: float,
    epsilon: float,
    n_range,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> list[SweepRow]:
    """Run the same split across cube sizes with identical geometry.

    The geometry (hence theta) does not depend on the space; the interesting
    columns are the measured constants, which must stay dimension-stable.
    Every cube is a tensor power of the one-bit cube, so the splits share
    one set of one-bit node norms (see :func:`node_constants`).
    """
    n_range = list(n_range)
    if not n_range:
        raise DomainError("need at least one cube size")
    if any(n > _MAX_CUBE_N for n in n_range):
        raise CostGuardError(f"cube size capped at n = {_MAX_CUBE_N} (matrix size 2^n)")
    if any(n < 1 for n in n_range):
        raise DomainError("cube size must be at least 1")
    rows = []
    for n in n_range:
        cert = split(
            CubeNoiseSemigroup(n), domain, hm, p, epsilon,
            restarts=restarts, seed=seed, oracle_check=False,
        )
        rows.append(
            SweepRow(
                n=n,
                theta=cert.theta,
                C0_measured=cert.C0_measured,
                C1_measured=cert.C1_measured,
                norm_T0_pp=cert.norm_T0_pp,
                norm_T1_p2=cert.norm_T1_p2,
            )
        )
    return rows


def certificate_text(cert: SplitCertificate, include_matrices: bool = False) -> str:
    """Serialize a certificate as a key-value document; matrices elided by default."""
    lines = [
        f"epsilon: {cert.epsilon!r}",
        f"theta: {cert.theta!r}",
        f"exponent: {cert.exponent!r}",
        f"C0_measured: {cert.C0_measured!r}",
        f"C1_measured: {cert.C1_measured!r}",
        f"norm_T0_pp: {cert.norm_T0_pp!r}",
        f"norm_T1_p2: {cert.norm_T1_p2!r}",
        f"recon_error_pp: {cert.recon_error_pp!r}",
        f"bound_T0_ok: {str(cert.bound_T0_ok).lower()}",
        f"bound_T1_ok: {str(cert.bound_T1_ok).lower()}",
    ]
    for name, op in (("T0", cert.T0), ("T1", cert.T1)):
        if include_matrices:
            lines.append(f"{name}:")
            for row in op.entries:
                lines.append("  " + " ".join(f"{v.real:+.16e}{v.imag:+.16e}j" for v in row))
        else:
            lines.append(f"{name}: elided ({op.entries.shape[0]}x{op.entries.shape[1]} complex)")
    return "\n".join(lines) + "\n"
