"""Subspace restrictions and the bounded projection built from a Hilbert-factoring operator.

When T restricted to a subspace X is an isomorphism onto its image, the
weighted-L2 orthogonal projection onto T(X) composed with the inverse of the
restriction gives a projection of the whole space onto X; its p -> p norm and
idempotence are the measurable content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .errors import ConditioningError, ConvergenceError, _check_whole
from .opnorm import DEFAULT_RESTARTS, _check_exponent, _check_restarts, opnorm_lower
from .spaces import FiniteProbabilitySpace, FunctionVector, OperatorMatrix

__all__ = [
    "Subspace",
    "restricted_isomorphism_check",
    "build_projection",
    "first_level_subspace",
    "INJECTIVITY_LIMIT",
    "PROJECTION_RESIDUAL_LIMIT",
]

_COND_LIMIT = 1e10
# build_projection's limits: the least ratio of the lower to the upper
# restricted bound, a rule that no scaling of T moves, and the largest
# entry of P^2 - P and of PB - B
INJECTIVITY_LIMIT = 1e-8
PROJECTION_RESIDUAL_LIMIT = 1e-9


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


def _nelder_mead(func, x0, maxiter: int, fatol: float) -> tuple[float, int, bool]:
    """Minimize func from x0 by Nelder-Mead; return (best value, evaluations, converged).

    A step-for-step port of ``_minimize_neldermead`` from scipy 1.17.1
    (scipy/optimize/_optimize.py; BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. and 2003-2024 SciPy Developers) for the options this
    module uses: no bounds, the non-adaptive coefficients, scipy's initial
    simplex (each coordinate times 1.05, a zero one set to 0.00025), no cap
    on evaluations and ``xatol=inf``.  It gives the same value, evaluation
    count and success as ``scipy.optimize.minimize(func, x0,
    method="Nelder-Mead", options={"maxiter": maxiter, "xatol": np.inf,
    "fatol": fatol})``.  The stop test is scipy's, width clause included, so a
    NaN in the simplex keeps the search going as it does there; func gets a
    copy of each point and must return a float.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    xatol = np.inf
    x0 = np.asarray(x0, dtype=np.float64).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return func(np.copy(x))

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = f(sim[k])
    # scipy sorts twice here; the second sort can reorder equal values
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        doshrink = 0
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:
                # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return np.min(fsim), nfev, iterations < maxiter


def _ratio_extremum(T: OperatorMatrix, X: Subspace, p: float, maximize: bool,
                    restarts: int, seed: int) -> float:
    _check_exponent(p)
    _check_restarts(restarts)
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

    rng = default_rng(seed)
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
    # still is: no width test, since one would keep shrinking the simplex
    # along the ratio's flat directions (the scale and phase of c, and all of
    # them when T is a scalar on X)
    for x0 in starts:
        fun, _, converged = _nelder_mead(lambda x: sign * ratio(x), x0,
                                         maxiter=4000, fatol=1e-14)
        if not converged:
            raise ConvergenceError(
                "restricted-isomorphism search: "
                "Maximum number of iterations has been exceeded."
            )
        val = sign * fun
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

    Multistart Nelder-Mead over the coordinates of X, run by this module's
    ``_nelder_mead`` (a port of scipy's, with the same values); the restriction
    is an isomorphism exactly when the lower bound is positive.
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
    T(X).  T|_X must be injective: its lower restricted ratio must exceed
    INJECTIVITY_LIMIT times its upper one.  Postconditions checked here:
    P^2 = P and PB = B for the basis B of X, each to PROJECTION_RESIDUAL_LIMIT
    entrywise.  Returns (P, ||P||_{p->p}).
    """
    _check_restarts(restarts)
    lower, upper = restricted_isomorphism_check(T, X, p, restarts=4, seed=seed)
    # every guard below is written so that a NaN fails it
    if not lower > INJECTIVITY_LIMIT * upper:
        raise ConditioningError(
            f"restriction of T to X is numerically singular (lower bound {lower}, upper {upper})"
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
    if not idem <= PROJECTION_RESIDUAL_LIMIT:
        raise ConvergenceError(f"projection is not idempotent: residual {idem}")
    fix = float(np.abs(P_entries @ B - B).max())
    if not fix <= PROJECTION_RESIDUAL_LIMIT:
        raise ConvergenceError(f"projection does not fix the subspace: residual {fix}")
    norm_pp = opnorm_lower(P, p, p, restarts=restarts, seed=seed).value
    return P, float(norm_pp)


def first_level_subspace(n: int) -> Subspace:
    """Span of the n degree-one sign characters on the cube of 2^n points."""
    n = _check_whole(n, "variables", 1)
    space = FiniteProbabilitySpace.uniform(2**n)
    idx = np.arange(2**n)
    basis = []
    for i in range(n):
        values = np.where((idx >> i) & 1, -1.0, 1.0).astype(complex)
        basis.append(FunctionVector(values, space))
    return Subspace(tuple(basis))
