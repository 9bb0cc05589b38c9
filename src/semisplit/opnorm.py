"""Lower-bound estimation of weighted L_p -> L_q operator norms.

Every reported value is certified by a witness function attaining the ratio;
upper-bound confidence comes from oracle agreement on small instances and from
the (1 + 1e-3) padding used by downstream inequality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CostGuardError, ConvergenceError, DomainError, InvalidExponentError
from .spaces import FunctionVector, OperatorMatrix, apply, lp_norm

__all__ = [
    "NormEstimate",
    "opnorm_lower",
    "opnorm_oracle",
    "hypercontractive_time",
    "DEFAULT_RESTARTS",
    "ORACLE_DIM_LIMIT",
]

DEFAULT_RESTARTS = 32
ORACLE_DIM_LIMIT = 6
_ORACLE_RANDOM_DIRECTIONS = 100_000
_ASCENT_MAX_ITER = 500
_ASCENT_TOL = 1e-12


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound on an operator norm."""

    value: float
    witness: FunctionVector


def _colnorms(
    F: np.ndarray, p: float, w: np.ndarray, absF: np.ndarray | None = None
) -> np.ndarray:
    # np.abs(F) inline stays an unnamed temporary, which numpy reuses for the power
    return (w @ (np.abs(F) if absF is None else absF) ** p) ** (1.0 / p)


def _phase(Z: np.ndarray, absz: np.ndarray | None = None) -> np.ndarray:
    """Entrywise z/|z|; 0 where z is 0 or z/|z| overflows (non-finite z, subnormal |z|)."""
    absz = np.abs(Z) if absz is None else absz
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        ph = np.divide(Z, absz, out=np.zeros_like(Z), where=absz > 0)
    if np.isfinite(ph).all():
        return ph
    return np.nan_to_num(ph, nan=0.0, posinf=0.0, neginf=0.0, copy=False)


def _dual_image(Z: np.ndarray, expo: float) -> np.ndarray:
    """Entrywise |z|^expo * phase(z); expo >= 0."""
    absz = np.abs(Z)
    with np.errstate(invalid="ignore"):
        mag = absz**expo if expo != 1.0 else absz
    return mag * _phase(Z, absz)


def _check_exponent(p: float) -> None:
    if not (p >= 1.0) or p == math.inf:
        raise InvalidExponentError(f"exponent must be a finite real >= 1, got {p}")


def opnorm_lower(
    A: OperatorMatrix,
    p: float,
    q: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> NormEstimate:
    """Best ratio ||Af||_q / ||f||_p found by multistart alternating dual ascent.

    Starts: `restarts` random complex functions (half folded positive), the
    constant function, every atom indicator (scored directly; the best one
    joins the ascent batch), the top singular vector of the weighted 2->2
    problem, and bifurcation mixes of the two leading singular directions.
    The returned value is always a certified lower bound, re-evaluated from
    the witness.
    """
    _check_exponent(p)
    _check_exponent(q)
    M = A.entries
    win = A.domain.weights
    wout = A.codomain.weights
    d = A.domain.size

    if not np.any(M):
        witness = FunctionVector(np.ones(d), A.domain)
        return NormEstimate(0.0, witness)

    # all atom indicators, scored in one vectorized pass
    ind_ratios = _colnorms(M, q, wout) / win ** (1.0 / p)
    best_ind = int(np.argmax(ind_ratios))

    rng = np.random.default_rng(seed)
    cols = [np.ones((d, 1), dtype=complex)]
    e = np.zeros((d, 1), dtype=complex)
    e[best_ind, 0] = 1.0
    cols.append(e)
    try:
        B = (np.sqrt(wout)[:, None] * M) / np.sqrt(win)[None, :]
        _, _, vh = np.linalg.svd(B)
        cols.append((vh[0].conj() / np.sqrt(win))[:, None])
        if d >= 2:
            # maximizers often bifurcate from a dominant mode along the next
            # singular direction; seed that family explicitly
            v2 = vh[1].conj() / np.sqrt(win)
            v2 = v2 / max(np.abs(v2).max(), 1e-300)
            v1 = vh[0].conj() / np.sqrt(win)
            v1 = v1 / max(np.abs(v1).max(), 1e-300)
            for c in (0.5, 1.5):
                cols.append((v1 + c * v2)[:, None])
                cols.append((v1 - c * v2)[:, None])
    except np.linalg.LinAlgError:
        pass
    if restarts > 0:
        R = rng.standard_normal((d, restarts)) + 1j * rng.standard_normal((d, restarts))
        # positive profiles seed the basins of positivity-preserving operators,
        # whose maximizers are often signless and far from mean-zero noise
        half = restarts // 2
        if half:
            R[:, :half] = np.abs(R[:, :half])
        cols.append(R)
    F = np.concatenate(cols, axis=1)

    pconj = math.inf if p == 1.0 else p / (p - 1.0)

    def ratios_of(F, absF=None):
        fp = _colnorms(F, p, win, absF)
        G = M @ F
        gq = _colnorms(G, q, wout)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(fp > 0, gq / np.where(fp > 0, fp, 1.0), 0.0)
        return r, G, fp

    best_val = float(np.max(ind_ratios))
    witness_vec = np.zeros(d, dtype=complex)
    witness_vec[best_ind] = 1.0

    r, G, fp = ratios_of(F)
    if r.max() > best_val:
        best_val = float(r.max())
        witness_vec = F[:, int(np.argmax(r))].copy()

    MH = M.conj().T
    stall = 0
    for _ in range(_ASCENT_MAX_ITER):
        U = _dual_image(G, q - 1.0)
        H = (MH @ (wout[:, None] * U)) / win[:, None]
        if pconj == math.inf:
            # dual of L_1: concentrate on the largest coordinate
            F = np.zeros_like(H)
            idx = np.argmax(np.abs(H), axis=0)
            F[idx, np.arange(H.shape[1])] = _phase(H[idx, np.arange(H.shape[1])])
        else:
            F = _dual_image(H, pconj - 1.0)
        norms = _colnorms(F, p, win)
        dead = norms == 0
        if np.any(dead):
            F[:, dead] = 1.0
            norms = _colnorms(F, p, win)
        F = F / norms[None, :]
        absF = np.abs(F)
        # components decaying double-exponentially toward an indicator limit
        # reach denormal range within a few iterations; flush them
        tiny = absF < 1e-250
        F[tiny] = 0.0
        absF[tiny] = 0.0
        r, G, fp = ratios_of(F, absF)
        new_best = float(r.max())
        if new_best > best_val + _ASCENT_TOL * max(1.0, best_val):
            best_val = new_best
            witness_vec = F[:, int(np.argmax(r))].copy()
            stall = 0
        else:
            stall += 1
            if stall >= 3:
                break

    witness = FunctionVector(witness_vec, A.domain)
    value = lp_norm(apply(A, witness), q) / lp_norm(witness, p)
    return NormEstimate(float(value), witness)


def _fibonacci_sphere(n_points: int) -> np.ndarray:
    i = np.arange(n_points) + 0.5
    phi = np.arccos(1 - 2 * i / n_points)
    golden = math.pi * (1 + 5**0.5)
    theta = golden * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def opnorm_oracle(A: OperatorMatrix, p: float, q: float, seed: int = 0) -> float:
    """Dense search over the L_p unit sphere; a slow independent lower-bound oracle.

    Structured angular grids for real matrices of dimension <= 3, plus 1e5
    random real and complex directions, plus derivative-free local polish of
    the 30 best.  The polish walks all 30 candidates at once: at each of its
    12 x 4 (sigma, repeat) steps one product scores 24 random perturbations of
    every candidate, and a candidate moves to its best trial when that beats
    its value.  The noise is drawn up front in the order a one-candidate-at-a-
    time walk would draw it, so the search set is unchanged.  Guarded to input
    dimension <= ORACLE_DIM_LIMIT.
    """
    _check_exponent(p)
    _check_exponent(q)
    d = A.domain.size
    if d > ORACLE_DIM_LIMIT:
        raise CostGuardError(f"oracle is limited to dimension {ORACLE_DIM_LIMIT}, got {d}")
    M = A.entries
    if not np.any(M):
        return 0.0
    win = A.domain.weights
    wout = A.codomain.weights
    rng = np.random.default_rng(seed)

    def ratio(F):
        return _colnorms(M @ F, q, wout) / _colnorms(F, p, win)

    grid = np.empty((d, 0))
    if np.isrealobj(M) or not np.any(M.imag):
        if d == 1:
            grid = np.ones((1, 1))
        elif d == 2:
            ang = np.linspace(0, 2 * math.pi, 20_000, endpoint=False)
            grid = np.stack([np.cos(ang), np.sin(ang)])
        elif d == 3:
            grid = _fibonacci_sphere(40_000)
    g = grid.shape[1]
    half = _ORACLE_RANDOM_DIRECTIONS // 2
    F = np.zeros((d, g + 2 * half), dtype=complex)
    F.real[:, :g] = grid
    F.real[:, g : g + half] = rng.standard_normal((d, half))
    F.real[:, g + half :] = rng.standard_normal((d, half))
    F.imag[:, g + half :] = rng.standard_normal((d, half))

    # the ratio is scale-invariant, so the raw directions are scored as drawn
    r = ratio(F)
    top = np.argsort(r)[::-1][:30]
    best = float(r[top[0]])
    best_f = F[:, top[0]].copy()
    f = (F[:, top] / _colnorms(F[:, top], p, win)[None, :]).T  # one row per candidate
    del F, r

    # derivative-free polish: shrinking random perturbations around each candidate
    sigmas = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
    noise = rng.standard_normal((len(f), len(sigmas), 4, 2, d, 24))
    val = ratio(f.T)
    rows = np.arange(len(f))
    for s, sigma in enumerate(sigmas):
        for rep in range(4):
            trials = f[:, :, None] + sigma * (noise[:, s, rep, 0] + 1j * noise[:, s, rep, 1])
            rt = ratio(trials)
            k = np.argmax(rt, axis=1)
            top_rt = rt[rows, k]
            up = top_rt > val
            if np.any(up):
                val[up] = top_rt[up]
                moved = trials[rows[up], :, k[up]]
                f[up] = moved / _colnorms(moved.T, p, win)[:, None]
    j = int(np.argmax(val))
    if val[j] > best:
        best_f = f[j]
    fr = best_f / _colnorms(best_f[:, None], p, win)[0]
    return float(ratio(fr[:, None])[0])


def hypercontractive_time(p: float, semigroup) -> float:
    """Smallest time at which the cube noise semigroup maps L_p into L_2 contractively.

    Returns s* = -(1/2) log(p-1) and verifies the threshold numerically: the
    p->2 norm at s* must not exceed 1 + 1e-3, and at 0.9 s* it must exceed
    1 + 1e-3 (the latter checked for n >= 2 where the excess is comfortable).
    """
    if not (1.0 < p < 2.0):
        raise DomainError(f"need 1 < p < 2, got {p}")
    s_star = -0.5 * math.log(p - 1.0)
    at = opnorm_lower(semigroup.evaluate(s_star), p, 2.0, seed=7)
    if at.value > 1.0 + 1e-3:
        raise ConvergenceError(
            f"norm at the threshold came out {at.value}, above 1 + 1e-3"
        )
    if getattr(semigroup, "n", 0) >= 2:
        below = opnorm_lower(semigroup.evaluate(0.9 * s_star), p, 2.0, seed=7)
        if not below.value > 1.0 + 1e-3:
            raise ConvergenceError(
                f"norm below the threshold came out {below.value}, "
                "not above 1 + 1e-3; estimator missed the witness"
            )
    return s_star
