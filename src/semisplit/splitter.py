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

from .errors import ConvergenceError, DomainError, IllConditionedSplitError
from .geometry import HarmonicMeasure, TriangleDomain, _check_epsilon, strip_damping
from .opnorm import (
    DEFAULT_RESTARTS,
    ORACLE_DIM_LIMIT,
    PADDING,
    NormEstimate,
    _check_p,
    _check_restarts,
    opnorm_lower,
    opnorm_lower_many,
    opnorm_oracle,
)
from .semigroups import CubeNoiseSemigroup, _check_cube_size
from .spaces import OperatorMatrix

__all__ = [
    "SplitCertificate",
    "node_constants",
    "split",
    "dimension_sweep",
    "SweepRow",
    "certificate_text",
]


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
    only, so they are memoised on that key, with ``hm`` matched by identity
    (:func:`harmonic_measure` shares one measure per domain and node count):
    every cube shares the one-bit factor, whatever its power.  The estimates
    are shared between callers, so their witness arrays are read-only.
    """
    _check_p(p)
    _check_restarts(restarts)
    return _node_estimates(semigroup.factor, hm, p, restarts, seed)


# hm is matched by identity, and harmonic_measure hands every caller of one
# (domain, nodes_per_edge) the same memoised measure, so splits in one process
# share these estimates, CLI runs included.  A run uses at most two keys at a
# time; a small cache bounds the factors and measures it keeps alive.
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
        _check_epsilon(epsilon)
        if (1.0 - theta) / theta * math.log(1.0 / epsilon) > 600.0:
            raise IllConditionedSplitError(
                f"damping magnitude epsilon^((theta-1)/theta) with theta = {theta} and "
                f"epsilon = {epsilon} exceeds double-precision range"
            )
    return epsilons


def _largest_node(values: np.ndarray, on_part: np.ndarray) -> tuple[float, int]:
    """Largest value over one boundary part, and the first node in it attaining that."""
    part = np.flatnonzero(on_part)
    node = int(part[np.argmax(values[part])])
    return values[node], node


def _split_engine(
    semigroup,
    hm: HarmonicMeasure,
    epsilons: list[float],
    node_values: Sequence[float],
    measure: Callable[[list[OperatorMatrix], bool], list[float]],
    reconstruction: bool = True,
) -> list[SplitCertificate]:
    """One certificate per validated eps.

    ``measure(ops, vertical)`` lists the norms of ``ops``: the vertical part's
    norm if ``vertical``, else the slanted part's.  It measures every eps's
    T0 at once, then every T1, then, if ``reconstruction``, each residual
    alone; without it no residual is formed and ``recon_error_pp`` is NaN.
    C0 is the largest of ``node_values`` over the slanted nodes, C1 the same
    over the vertical nodes.  T0, T1 and the residual are assembled in the
    spectral domain: the parts' multipliers are the damped quadrature sums of
    exp(-z_i * spectrum), and the residual's is exp(-t * spectrum) minus
    the whole sum, so no node operator and no T(t) is formed.
    """
    theta = hm.theta
    values = np.asarray(node_values)
    slanted, vertical = ~hm.is_v1, hm.is_v1
    c0, c0_node = _largest_node(values, slanted)
    c1, c1_node = _largest_node(values, vertical)
    node_mults = np.exp(-np.outer(hm.z, semigroup.spectrum))
    exponent = (theta - 1.0) / theta
    coeffs = [hm.weights * strip_damping(theta, epsilon, hm.w_strip) for epsilon in epsilons]
    T0s = [semigroup.operator((c[slanted] / (1.0 - theta)) @ node_mults[slanted]) for c in coeffs]
    T1s = [semigroup.operator((c[vertical] / theta) @ node_mults[vertical]) for c in coeffs]
    norms_T0, norms_T1 = measure(T0s, False), measure(T1s, True)
    if reconstruction:
        exact_mult = np.exp(-hm.domain.t * semigroup.spectrum)
        recons = [measure([semigroup.operator(exact_mult - c @ node_mults)], False)[0]
                  for c in coeffs]
    else:
        recons = [math.nan] * len(epsilons)
    certs = []
    for epsilon, T0, T1, norm_T0, norm_T1, recon in zip(
        epsilons, T0s, T1s, norms_T0, norms_T1, recons
    ):
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
    *,
    reconstruction: bool = True,
) -> SplitCertificate | list[SplitCertificate]:
    """Build T0, T1 for each damping level and certify both norm bounds.

    One float ``epsilon`` gives one certificate, a sequence a list of them;
    C0, C1 and the node multipliers are computed once per call.  The
    reconstruction residual is measured in the p -> p norm, as the operator of
    its quadrature-residual multiplier; with ``reconstruction=False`` it is
    neither formed nor measured, and ``recon_error_pp`` is NaN.  The slanted
    part is measured in the p -> p norm, the vertical part in the p -> 2
    norm.  A node norm is that of the semigroup's tensor ``factor`` raised
    to its ``power``: for p <= q the p -> q norm is multiplicative over
    tensor products (Beckner), and the tensor power of the factor's witness
    attains the product, so the value stays a certified lower bound.  The
    factor norms come from :func:`node_constants`, so splits that share them
    measure them once.  On spaces small enough for the dense oracle, the
    norms of the assembled operators are cross-checked against it.
    """
    _check_p(p)
    epsilons = _validated_epsilons(domain, hm, epsilon)
    nodes = node_constants(semigroup, hm, p, restarts, seed)

    def measure(ops, vertical):
        # a lone operator goes to opnorm_lower (the same bits as a stack of
        # one), the call that the benchmark's trace baseline counts on a split
        q = 2.0 if vertical else p
        if len(ops) == 1:
            return [opnorm_lower(ops[0], p, q, restarts, seed).value]
        return [est.value for est in opnorm_lower_many(ops, p, q, restarts, seed)]

    certs = _split_engine(
        semigroup, hm, epsilons, [est.value ** semigroup.power for est in nodes], measure,
        reconstruction)
    if oracle_check and semigroup.space.size <= ORACLE_DIM_LIMIT:
        # both routes certify lower bounds, so only an oracle value above the
        # ascent estimate signals a missed witness
        for cert in certs:
            for A, val, q in ((cert.T0, cert.norm_T0_pp, p), (cert.T1, cert.norm_T1_p2, 2.0)):
                ref = opnorm_oracle(A, p, q, seed=seed)
                if ref > val * (1 + PADDING) + 1e-30:
                    raise ConvergenceError(
                        f"dense oracle found {ref}, above the ascent estimate {val}"
                    )
    return certs[0] if np.ndim(epsilon) == 0 else certs


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
    one set of one-bit node norms (see :func:`node_constants`).  A row has
    no reconstruction column, so the splits form and measure no residual.
    """
    if np.ndim(epsilon) != 0:
        raise DomainError(f"a sweep runs at one damping level, got {epsilon!r}")
    n_range = [_check_cube_size(n) for n in n_range]
    if not n_range:
        raise DomainError("need at least one cube size")
    rows = []
    for n in n_range:
        cert = split(
            CubeNoiseSemigroup(n), domain, hm, p, epsilon,
            restarts=restarts, seed=seed, oracle_check=False, reconstruction=False,
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


def certificate_text(cert: SplitCertificate) -> str:
    """Serialize a certificate as a key-value document; the matrices are elided."""
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
        lines.append(f"{name}: elided ({op.entries.shape[0]}x{op.entries.shape[1]} complex)")
    return "\n".join(lines) + "\n"
