"""Subspace restrictions and the bounded projection built from a Hilbert-factoring operator.

When T restricted to a subspace X is an isomorphism onto its image, the
weighted-L2 orthogonal projection onto T(X) composed with the inverse of the
restriction gives a projection of the whole space onto X; its p -> p norm and
idempotence are the measurable content.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, ConvergenceError, DomainError
from .opnorm import DEFAULT_RESTARTS, opnorm_lower
from .spaces import FiniteProbabilitySpace, FunctionVector, OperatorMatrix

__all__ = [
    "Subspace",
    "restricted_isomorphism_check",
    "build_projection",
    "first_level_subspace",
]

_COND_LIMIT = 1e10


@dataclass(frozen=True)
class Subspace:
    """A subspace given by a linearly independent basis of functions."""

    basis: tuple[FunctionVector, ...]
    gram_condition: float = field(init=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        if not basis:
            raise ConditioningError("a subspace needs at least one basis function")
        space = basis[0].space
        if any(f.space != space for f in basis):
            raise ConditioningError("basis functions live on different spaces")
        object.__setattr__(self, "basis", basis)
        B = self.matrix
        w = space.weights
        gram = B.conj().T @ (w[:, None] * B)
        cond = float(np.linalg.cond(gram))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise ConditioningError(f"basis Gram matrix has condition number {cond}")
        object.__setattr__(self, "gram_condition", cond)

    @property
    def space(self) -> FiniteProbabilitySpace:
        return self.basis[0].space

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> np.ndarray:
        return np.stack([f.values for f in self.basis], axis=1)


def _ratio_extremum(T: OperatorMatrix, X: Subspace, p: float, maximize: bool,
                    restarts: int, seed: int) -> float:
    # imported here, not with the package: no other code needs scipy.optimize,
    # which loads over 200 modules
    from scipy.optimize import minimize

    B = X.matrix
    TB = T.entries @ B
    w_in = X.space.weights
    w_out = T.codomain.weights
    k = X.dim
    sign = -1.0 if maximize else 1.0
    inv_p = 1 / p

    # Nelder-Mead calls this tens of thousands of times; np.add.reduce sums in
    # the same order as np.sum without its Python-level wrapper
    def ratio(x):
        c = x[:k] + 1j * x[k:]
        f = B @ c
        g = TB @ c
        den = float(np.add.reduce(w_in * np.abs(f) ** p) ** inv_p)
        if den < 1e-14:
            return 0.0 if maximize else np.inf
        num = float(np.add.reduce(w_out * np.abs(g) ** p) ** inv_p)
        r = num / den
        if not math.isfinite(r):
            raise ConvergenceError(
                f"||Tf||_p / ||f||_p is {r}: T has non-finite or overflowing entries"
            )
        return r

    rng = np.random.default_rng(seed)
    starts = [np.eye(2 * k)[j] for j in range(k)]
    starts += [rng.standard_normal(2 * k) for _ in range(restarts)]
    # fatol is absolute, so a ratio far from 1 is brought to [1/2, 1) by an
    # exact power of two 2^e (ldexp on the real and imaginary parts), taken
    # back out of the extremum at the end; where |Tf|^p underflows, the
    # ratio reads 0 and the entries give the scale instead
    scale = ratio(starts[0]) or float(np.abs(TB).max() / np.abs(B).max())
    e = 0 if 2.0**-8 <= scale <= 2.0**8 else math.frexp(scale)[1]
    if e:
        TB = np.ldexp(TB.view(np.float64), -e).view(np.complex128)
    best = -np.inf if maximize else np.inf
    # only the extremum's value is returned, never its argmin, so the search
    # stops once the simplex values agree (fatol) however wide the simplex
    # still is: xatol=inf, since scipy's default 1e-4 would keep shrinking it
    # along the ratio's flat directions (the scale and phase of c, and all of
    # them when T is a scalar on X)
    for x0 in starts:
        res = minimize(lambda x: sign * ratio(x), x0, method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": np.inf, "fatol": 1e-14})
        if not res.success:
            raise ConvergenceError(f"restricted-isomorphism search: {res.message}")
        val = sign * res.fun
        best = max(best, val) if maximize else min(best, val)
        direct = ratio(x0)
        best = max(best, direct) if maximize else min(best, direct)
    return math.ldexp(float(best), e)


def restricted_isomorphism_check(
    T: OperatorMatrix,
    X: Subspace,
    p: float,
    restarts: int = 12,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate inf and sup of ||Tf||_p / ||f||_p over f in X.

    Multistart optimization over the coordinate sphere of X; the restriction is
    an isomorphism exactly when the lower bound is positive.
    """
    lower = _ratio_extremum(T, X, p, maximize=False, restarts=restarts, seed=seed)
    upper = _ratio_extremum(T, X, p, maximize=True, restarts=restarts, seed=seed + 1)
    return lower, upper


def build_projection(
    T: OperatorMatrix,
    X: Subspace,
    p: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> tuple[OperatorMatrix, float]:
    """Projection onto X through T: invert the restriction after projecting onto T(X).

    P = (T|_X)^{-1} o Q o T with Q the weighted-L2 orthogonal projection onto
    T(X).  Postconditions checked here: P^2 = P within 1e-9 and P fixes X.
    Returns (P, ||P||_{p->p}).
    """
    lower, _ = restricted_isomorphism_check(T, X, p, restarts=4, seed=seed)
    # every guard below is written so that a NaN fails it
    if not lower > 1e-8:
        raise ConditioningError(
            f"restriction of T to X is numerically singular (lower bound {lower})"
        )
    B = X.matrix
    TB = T.entries @ B
    w = T.codomain.weights
    gram = TB.conj().T @ (w[:, None] * TB)
    if not np.isfinite(gram).all():
        raise ConditioningError("image Gram matrix has non-finite entries")
    cond = float(np.linalg.cond(gram))
    if not cond <= _COND_LIMIT:
        raise ConditioningError(f"image Gram matrix has condition number {cond}")
    coeff = np.linalg.solve(gram, TB.conj().T @ (w[:, None] * T.entries))
    P_entries = B @ coeff
    P = OperatorMatrix.on(X.space, P_entries)
    idem = float(np.abs(P_entries @ P_entries - P_entries).max())
    if not idem <= 1e-9:
        raise ConvergenceError(f"projection is not idempotent: residual {idem}")
    fix = float(np.abs(P_entries @ B - B).max())
    if not fix <= 1e-9:
        raise ConvergenceError(f"projection does not fix the subspace: residual {fix}")
    norm_pp = opnorm_lower(P, p, p, restarts=restarts, seed=seed).value
    return P, float(norm_pp)


def first_level_subspace(n: int) -> Subspace:
    """Span of the n degree-one sign characters on the cube of 2^n points."""
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"need a whole number of variables; got {n!r}")
    space = FiniteProbabilitySpace.uniform(2**n)
    idx = np.arange(2**n)
    basis = []
    for i in range(n):
        values = np.where((idx >> i) & 1, -1.0, 1.0).astype(complex)
        basis.append(FunctionVector(values, space))
    return Subspace(tuple(basis))
