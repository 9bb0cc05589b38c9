"""Lower-bound estimation of weighted L_p -> L_q operator norms.

Every reported value is certified by a witness function attaining the ratio;
upper-bound confidence comes from oracle agreement on small instances and from
the relative ``PADDING`` that downstream inequality checks allow.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .errors import (
    ConvergenceError,
    CostGuardError,
    DomainError,
    InvalidExponentError,
    ShapeError,
    _check_whole,
)
from .spaces import FunctionVector, OperatorMatrix, apply, hadamard_transform, lp_norm

__all__ = [
    "NormEstimate",
    "opnorm_lower",
    "opnorm_lower_many",
    "opnorm_oracle",
    "hypercontractive_time",
    "DEFAULT_RESTARTS",
    "ORACLE_DIM_LIMIT",
    "PADDING",
]

DEFAULT_RESTARTS = 32
ORACLE_DIM_LIMIT = 6
# relative slack of every inequality checked against lower-bound estimates
PADDING = 1e-3
_ORACLE_RANDOM_DIRECTIONS = 100_000
# the oracle polishes its best _ORACLE_CANDIDATES directions, each for
# _POLISH_REPEATS steps at every sigma, scoring _POLISH_TRIALS trials a step
_ORACLE_CANDIDATES = 30
_POLISH_SIGMAS = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
_POLISH_REPEATS = 4
_POLISH_TRIALS = 24
# columns per pass of the oracle's scan, which bounds its transient memory
_ORACLE_CHUNK = 4096
_ASCENT_MAX_ITER = 500
_ASCENT_TOL = 1e-12
# weight of the extrapolation past each dual image in the ascent step
_ASCENT_BETA = 0.8
# from this many atoms on, a stack of Walsh multipliers is applied by the fast
# transform; below it the dense product is faster (measured crossover)
_WALSH_MIN_ATOMS = 128
# the ascent raises moduli to powers up to q p/(p-1), which overflow or
# underflow far from 1, so an operator whose largest entry part lies outside
# [2^-64, 2^64] ascends scaled by a power of two.  The window leaves every
# operator of the default runs and of the tests as it is (measured: largest
# entry parts from 2^-46 to 2^5, bar the tests' deliberate extremes): inside
# it the stall rule's absolute floor sets where a small operator's ascent
# stops, and those values must not move.
_ASCENT_SCALE_WINDOW = 64
# the oracle's scan squares moduli, so it rescales from a narrower window
_ORACLE_SCALE_WINDOW = 8


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound on an operator norm.

    ``steps`` counts the ascent steps run for the operator (0 for the zero
    operator and at p = 1), each one product with the operator and one with
    its adjoint, steps whose extrapolated point was rejected included; below
    ``_ASCENT_MAX_ITER`` the ascent stopped on its stall rule.
    ``start`` names the kind of start the witness ascended from: "atom",
    "constant", "svd", "bifurcation" or "random" (the zero operator's witness
    is the constant function).
    """

    value: float
    witness: FunctionVector
    steps: int
    start: str


def _colnorms(
    F: np.ndarray, p: float, w: np.ndarray, absF: np.ndarray | None = None
) -> np.ndarray:
    # np.abs(F) inline stays an unnamed temporary, which numpy reuses for the power
    return (w @ (np.abs(F) if absF is None else absF) ** p) ** (1.0 / p)


def _phase(Z: np.ndarray, absz: np.ndarray | None = None) -> np.ndarray:
    """Entrywise z/|z|; 0 where z is 0 or z/|z| overflows (non-finite z, subnormal |z|)."""
    absz = np.abs(Z) if absz is None else absz
    # 0/0 is NaN, so a zero entry takes the non-finite rule too
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        ph = Z / absz
    if np.isfinite(ph).all():
        return ph
    return np.nan_to_num(ph, nan=0.0, posinf=0.0, neginf=0.0, copy=False)


def _dual_image(Z: np.ndarray, expo: float) -> np.ndarray:
    """Entrywise |z|^expo * phase(z); expo >= 0."""
    absz = np.abs(Z)
    ph = _phase(Z, absz)
    if expo != 1.0:
        with np.errstate(invalid="ignore"):
            np.power(absz, expo, out=absz)
    ph *= absz
    return ph


def _dual_step(H: np.ndarray, pconj: float, p: float, w: np.ndarray):
    """The dual image of H into L_p (exponent pconj - 1) and its L_p column norms.

    ||F||_p^p = w @ |H|^pconj, so the norms take no pass over |F|.
    """
    absH = np.abs(H)
    F = _phase(H, absH)
    mag = absH ** (pconj - 1.0)
    F *= mag
    mag *= absH
    return F, (w @ mag) ** (1.0 / p)


def _check_exponent(p: float) -> None:
    if not (p >= 1.0) or p == math.inf:
        raise InvalidExponentError(f"exponent must be a finite real >= 1, got {p}")


def _check_p(p: float) -> None:
    """Reject p outside 1 < p < 2, the range of the splitting construction."""
    if not (1.0 < p < 2.0):
        raise DomainError(f"need 1 < p < 2, got {p}")


def _check_restarts(restarts: int) -> None:
    _check_whole(restarts, "restarts", 0)


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
    Each step takes the dual (Boyd/Higham) power step of every start and
    scores only its extrapolation ``_ASCENT_BETA`` past the previous dual
    image; a start whose extrapolated ratio falls keeps its iterate, so its
    ratio never falls (see :func:`_ascent`).  The ascent stops after three
    steps that raise the best ratio by at most ``_ASCENT_TOL * max(1, best)``,
    or at ``_ASCENT_MAX_ITER`` steps.  The returned value is always a
    certified lower bound, re-evaluated from the witness; at p = 1 it is the
    exact norm, the best atom's ratio, and no ascent runs.  This is
    :func:`opnorm_lower_many` on a stack of one.
    """
    return opnorm_lower_many([A], p, q, restarts, seed)[0]


def opnorm_lower_many(
    ops: Sequence[OperatorMatrix],
    p: float,
    q: float,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> list[NormEstimate]:
    """:func:`opnorm_lower` of each operator, run as one ascent on their stack.

    The operators share a domain and a codomain.  Each one gets the starts,
    steps and stall rule of its own call, on the same random block, and each
    of its columns keeps its own iterate, image, ratio and last dual image, so
    each estimate equals ``opnorm_lower(A, p, q, restarts, seed)`` bit for
    bit, ``steps`` and ``start`` included; an operator leaves the stack, with
    that state, as soon as its ascent stops.

    When every operator carries a Walsh multiplier (``OperatorMatrix.walsh``)
    and the space has at least ``_WALSH_MIN_ATOMS`` atoms, the ascent steps
    apply them by :func:`hadamard_transform`; the atom scores, the SVD starts
    and each value still come from the dense entries.  An operator whose
    largest entry part lies outside [2^-64, 2^64] ascends scaled by a power
    of two 2^-e, and its value is scaled back exactly.  Non-finite entries
    and a seed that is not a whole number at least 0 raise DomainError, a
    non-finite value ConvergenceError.
    """
    seed = _check_whole(seed, "seed", 0)
    _check_exponent(p)
    _check_exponent(q)
    _check_restarts(restarts)
    ops = list(ops)
    if not ops:
        return []
    domain, codomain = ops[0].domain, ops[0].codomain
    if any(A.domain != domain or A.codomain != codomain for A in ops):
        raise ShapeError("stacked operators must share a domain and a codomain")
    _check_finite(ops)
    win = domain.weights
    wout = codomain.weights
    estimates: list[NormEstimate | None] = [None] * len(ops)
    nonzero = []
    for i, A in enumerate(ops):
        if np.any(A.entries):
            nonzero.append(i)
        else:
            estimates[i] = NormEstimate(
                0.0, FunctionVector(np.ones(domain.size), domain), 0, "constant"
            )
    if not nonzero:
        return estimates
    if len(nonzero) == 1:
        M = ops[nonzero[0]].entries[None]  # a view: one large operator is not copied
    else:
        M = np.stack([ops[i].entries for i in nonzero])
    exps = _binary_scale(M, _ASCENT_SCALE_WINDOW)
    if exps.any():
        M = _ldexp(M, -exps[:, None, None])
    if p == 1.0:
        # ||A||_(1->q) = max_j ||A e_j||_q / w_j exactly: the L_1 unit ball is
        # the convex hull of the phased atoms e_j / w_j, and f -> ||Af||_q is convex
        witnesses = np.zeros((len(nonzero), domain.size), dtype=complex)
        witnesses[np.arange(len(nonzero)), np.argmax(_colnorms(M, q, wout) / win, axis=1)] = 1.0
        steps, starts = [0] * len(nonzero), ["atom"] * len(nonzero)
    else:
        try:
            # only the two leading right singular vectors outlive the SVD
            lead = np.linalg.svd(
                (np.sqrt(wout)[:, None] * M) / np.sqrt(win)[None, :])[2][:, :2].copy()
        except np.linalg.LinAlgError:
            if len(nonzero) > 1:
                # one operator at a time, so only the failing one loses its SVD starts
                for i in nonzero:
                    estimates[i] = opnorm_lower_many([ops[i]], p, q, restarts, seed)[0]
                return estimates
            lead = None
        mult = None
        if domain.size >= _WALSH_MIN_ATOMS and all(ops[i].walsh is not None for i in nonzero):
            mult = np.stack([ops[i].walsh for i in nonzero]) / domain.size
            if exps.any():
                mult = _ldexp(mult, -exps[:, None])
        witnesses, steps, starts = _ascent(M, mult, win, wout, p, q, restarts, seed, lead)
    for k, (i, f, n, start) in enumerate(zip(nonzero, witnesses, steps, starts)):
        witness = FunctionVector(f, domain)
        A = OperatorMatrix(M[k], domain, codomain) if exps[k] else ops[i]
        value = _scaled_back(lp_norm(apply(A, witness), q) / lp_norm(witness, p), int(exps[k]))
        if not math.isfinite(value):
            raise ConvergenceError(f"the ascent's witness gives a non-finite ratio {value}")
        estimates[i] = NormEstimate(float(value), witness, int(n), start)
    return estimates


def _check_finite(ops: Sequence[OperatorMatrix]) -> None:
    for A in ops:
        if not np.isfinite(A.entries).all():
            raise DomainError("operator entries must be finite")


def _binary_scale(M: np.ndarray, window: int) -> np.ndarray:
    """Per matrix of the last two axes of a nonzero M: 0 when its largest
    entry part lies in [2^-window, 2^window], else that part's binary exponent."""
    big = np.maximum(np.abs(M.real).max(axis=(-2, -1)), np.abs(M.imag).max(axis=(-2, -1)))
    return np.where((2.0**-window <= big) & (big <= 2.0**window), 0, np.frexp(big)[1])


def _ldexp(M: np.ndarray, e) -> np.ndarray:
    """M times 2^e on the real and imaginary parts, exact while they stay normal;
    e broadcasts against M."""
    return np.ldexp(M.real, e) + 1j * np.ldexp(M.imag, e)


def _scaled_back(value: float, e: int) -> float:
    """value times 2^e; inf where that overflows."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def _walsh_product(mult: np.ndarray, F: np.ndarray) -> np.ndarray:
    """H diag(mult[l]) H @ F[l] for each l: (L, d) multipliers on an (L, d, k) block."""
    G = hadamard_transform(F)
    G *= mult[:, :, None]
    return hadamard_transform(G)


def _ascent(M, mult, win, wout, p, q, restarts, seed, lead):
    """Multistart dual ascent on a stack M of nonzero operators (L, d_out, d), p > 1.

    ``mult`` is None, or the (L, d) stack of Walsh multipliers divided by d
    whose operators M holds: the steps then apply each operator as
    H diag(mult) H by :func:`_walsh_product`, its adjoint with conj(mult), and
    use M only for the atom scores.  ``lead`` holds the (at most two) leading
    right singular vectors of the weighted stack, or None when its SVD failed.
    Returns the best function found for each operator, one row each, the
    number of steps each one ran and the kind of start each best function
    ascended from.

    Each step takes the dual power step x^_k of every column from its
    accepted iterate (one product with the adjoint) and scores only
    y = x^_k + _ASCENT_BETA (x^_k - x^_(k-1)) (one product with the
    operator), an extrapolation with adaptive restart (O'Donoghue and
    Candes, Found. Comput. Math. 15, 2015).  The first step is plain.  When
    y scores below the column's accepted ratio, the column keeps its iterate,
    image and ratio; its next dual image then repeats x^_k, so its next step
    is plain.  Accepted ratios never fall, and the stall rule counts steps,
    rejected ones included.
    """
    L, _, d = M.shape
    rows = np.arange(L)

    # all atom indicators, scored in one vectorized pass
    ind_ratios = _colnorms(M, q, wout) / win ** (1.0 / p)
    best_ind = np.argmax(ind_ratios, axis=1)

    rng = default_rng(seed)
    cols = [np.ones((L, d, 1), dtype=complex)]
    e = np.zeros((L, d, 1), dtype=complex)
    e[rows, best_ind, 0] = 1.0
    cols.append(e)
    kinds = ["constant", "atom"]
    if lead is not None:
        v1 = lead[:, 0].conj() / np.sqrt(win)
        cols.append(v1[:, :, None])
        kinds.append("svd")
        if d >= 2:
            # maximizers often bifurcate from a dominant mode along the next
            # singular direction; seed that family explicitly
            v2 = lead[:, 1].conj() / np.sqrt(win)
            v2 = v2 / np.maximum(np.abs(v2).max(axis=1), 1e-300)[:, None]
            v1 = v1 / np.maximum(np.abs(v1).max(axis=1), 1e-300)[:, None]
            for c in (0.5, 1.5):
                cols.append((v1 + c * v2)[:, :, None])
                cols.append((v1 - c * v2)[:, :, None])
            kinds += ["bifurcation"] * 4
    if restarts > 0:
        R = rng.standard_normal((d, restarts)) + 1j * rng.standard_normal((d, restarts))
        # positive profiles seed the basins of positivity-preserving operators,
        # whose maximizers are often signless and far from mean-zero noise
        half = restarts // 2
        if half:
            R[:, :half] = np.abs(R[:, :half])
        cols.append(np.broadcast_to(R, (L, d, restarts)))
        kinds += ["random"] * restarts
    F = np.concatenate(cols, axis=2)

    pconj = p / (p - 1.0)

    def ratios_of(F, absF=None):
        fp = _colnorms(F, p, win, absF)
        G = M @ F if mult is None else _walsh_product(mult, F)
        gq = _colnorms(G, q, wout)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(fp > 0, gq / np.where(fp > 0, fp, 1.0), 0.0)
        return r, G

    # live: stack positions still ascending; best, stall and the column state
    # below are aligned with it
    live = rows
    best = ind_ratios.max(axis=1)
    witness = np.zeros((L, d), dtype=complex)
    witness[rows, best_ind] = 1.0
    # column of the start each witness ascended from; the ascent is column-wise
    won = np.ones(L, dtype=int)
    steps = np.zeros(L, dtype=int)

    # X, G, ratio: each column's accepted iterate, its image and its ratio
    ratio, G = ratios_of(F)
    X = F
    top = ratio.max(axis=1)
    up = np.flatnonzero(top > best)
    best[up] = top[up]
    won[up] = ratio[up].argmax(axis=1)
    witness[up] = F[up, :, won[up]]

    prev = None  # each column's last dual image
    stall = np.zeros(L, dtype=int)
    for step in range(1, _ASCENT_MAX_ITER + 1):
        U = _dual_image(G, q - 1.0)
        U *= wout[:, None]
        if mult is None:
            # M^H U as conj(M^T conj(U)): the same products, so no conjugate copy of M
            H = M.transpose(0, 2, 1) @ np.conj(U, out=U)
            del U
            np.conj(H, out=H)
        else:
            H = _walsh_product(mult.conj(), U)
            del U
        H /= win[:, None]
        F, norms = _dual_step(H, pconj, p, win)
        del H
        dead = norms == 0
        if np.any(dead):
            F.transpose(0, 2, 1)[dead] = 1.0
            norms = _colnorms(F, p, win)
        F /= norms[:, None, :]
        if prev is None:
            # the first step is plain
            Y = F
        else:
            # extrapolate past the new dual image, away from the last one.  A
            # column whose last point was rejected kept its iterate, so its
            # dual image repeats the last one and its step is plain.
            Y = F - prev
            Y *= _ASCENT_BETA
            Y += F
        prev = F
        absY = np.abs(Y)
        # components decaying double-exponentially toward an indicator limit
        # reach denormal range within a few iterations; flush them
        tiny = absY < 1e-250
        Y[tiny] = 0.0
        absY[tiny] = 0.0
        r, GY = ratios_of(Y, absY)
        # safeguard: a column whose ratio fell keeps its iterate, image and ratio
        fell = r < ratio
        if fell.any():
            Y = np.where(fell[:, None, :], X, Y)
            GY = np.where(fell[:, None, :], G, GY)
            r = np.where(fell, ratio, r)
        X, G, ratio = Y, GY, r
        top = ratio.max(axis=1)
        up = np.flatnonzero(top > best + _ASCENT_TOL * np.maximum(1.0, best))
        stall += 1
        if up.size:
            best[up] = top[up]
            arg = ratio[up].argmax(axis=1)
            witness[live[up]] = X[up, :, arg]
            won[live[up]] = arg
            stall[up] = 0
        if stall.max() >= 3:
            going = stall < 3
            steps[live[~going]] = step
            live, best, stall = live[going], best[going], stall[going]
            if not live.size:
                break
            X, G, ratio, prev = X[going], G[going], ratio[going], prev[going]
            if mult is None:
                M = M[going]
            else:
                mult = mult[going]
    # operators still ascending ran every step
    steps[live] = _ASCENT_MAX_ITER
    return witness, steps, [kinds[j] for j in won]


def _fibonacci_sphere(n_points: int) -> np.ndarray:
    i = np.arange(n_points) + 0.5
    phi = np.arccos(1 - 2 * i / n_points)
    golden = math.pi * (1 + 5**0.5)
    theta = golden * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def _oracle_normals(d: int, seed: int):
    """The oracle's normals as views of one ``default_rng(seed)`` draw.

    Returns the (d, 5e4) real block, the (2d, 5e4) complex block in real form
    (real parts over imaginary parts) and the polish noise: the slices of the
    stream that consecutive draws of these shapes would take.
    """
    half = _ORACLE_RANDOM_DIRECTIONS // 2
    shape = (_ORACLE_CANDIDATES, len(_POLISH_SIGMAS), _POLISH_REPEATS, 2, d, _POLISH_TRIALS)
    z = default_rng(seed).standard_normal(3 * d * half + math.prod(shape))
    return (
        z[: d * half].reshape(d, half),
        z[d * half : 3 * d * half].reshape(2 * d, half),
        z[3 * d * half :].reshape(shape),
    )


# opnorm_oracle's last draw: its (d, seed), a weak reference to the domain
# that asked for it, and the draw.  Collecting that domain empties the slot,
# so at most one draw (10.5 MB at d = 6) outlives a call, and none outlives
# its space.
_oracle_slot: list = []


def _memo_normals(domain, seed: int):
    """:func:`_oracle_normals` of ``(domain.size, seed)``, read-only, from the slot."""
    key = (domain.size, seed)
    if _oracle_slot and _oracle_slot[0][0] == key:
        return _oracle_slot[0][2]
    # drop the old draw first, so two are never alive at once
    _oracle_slot.clear()
    draw = _oracle_normals(*key)
    for z in draw:
        z.flags.writeable = False

    def forget(ref):
        if _oracle_slot and _oracle_slot[0][1] is ref:
            _oracle_slot.clear()

    _oracle_slot.append((key, weakref.ref(domain, forget), draw))
    return draw


def _power_sums(w: np.ndarray, Z2: np.ndarray, expo: float) -> np.ndarray:
    """w @ |z|^expo over the columns z whose squared real form is Z2 (overwritten).

    The real form of a column holds its real parts over its imaginary parts
    (2 w.size rows), or its real parts alone (w.size rows) when it is real;
    |z|^expo = (x^2 + y^2)^(expo/2) takes one power pass, and none at 2.
    """
    n = w.size
    S = Z2[..., :n, :]
    if Z2.shape[-2] > n:
        S += Z2[..., n:, :]
    if expo != 2.0:
        np.power(S, expo / 2, out=S)
    return w @ S


def _top_positions(r: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Positions of the n largest r in descending order, ties to the smaller j."""
    pos = np.flatnonzero(r >= np.partition(r, -n)[-n]) if r.size > n else np.arange(r.size)
    return pos[np.lexsort((j[pos], -r[pos]))][:n]


def opnorm_oracle(A: OperatorMatrix, p: float, q: float, seed: int = 0) -> float:
    """Dense search over the L_p unit sphere; a slow independent lower-bound oracle.

    Structured angular grids for real matrices of dimension <= 3, plus 1e5
    random real and complex directions, plus derivative-free local polish of
    the 30 best.  The polish walks all 30 candidates at once: at each of its
    12 x 4 (sigma, repeat) steps one product scores 24 random perturbations of
    every candidate, and a candidate moves to its best trial when that beats
    its value.  The noise is drawn up front in the order a one-candidate-at-a-
    time walk would draw it, so the search set is unchanged.

    The random directions and the noise are read-only views of one draw
    (:func:`_oracle_normals`), which a one-draw memo keyed on (d, seed)
    keeps until a call with another key or until the domain that asked for it
    is collected: calls on one space share a draw, and at most one draw
    (10.5 MB at d = 6) outlives a call.  ``seed`` is a whole number at least
    0, else DomainError.  The scan scores the directions in chunks of
    ``_ORACLE_CHUNK`` columns, in real arithmetic on their real and imaginary
    parts, and keeps a running top 30 (ties to the earlier direction); the
    polish runs in the same arithmetic, and the value is the complex ratio at
    the best direction.  An operator whose largest entry part lies outside
    [2^-8, 2^8] is searched scaled by a power of two 2^-e, and its value
    scaled back exactly.  Guarded to input dimension <= ORACLE_DIM_LIMIT;
    non-finite entries raise DomainError, a non-finite value ConvergenceError.
    """
    seed = _check_whole(seed, "seed", 0)
    _check_exponent(p)
    _check_exponent(q)
    d = A.domain.size
    if d > ORACLE_DIM_LIMIT:
        raise CostGuardError(f"oracle is limited to dimension {ORACLE_DIM_LIMIT}, got {d}")
    _check_finite([A])
    M = A.entries
    if not np.any(M):
        return 0.0
    win = A.domain.weights
    wout = A.codomain.weights
    e = int(_binary_scale(M, _ORACLE_SCALE_WINDOW))
    if e:
        M = _ldexp(M, -e)
    Mr, Mi = M.real, M.imag
    real = not np.any(Mi)
    # M acting on the real form of real columns and of complex columns
    K_real = Mr if real else np.vstack([Mr, Mi])
    K_complex = np.block([[Mr, -Mi], [Mi, Mr]])

    def ratios(K, Z):
        G = K @ Z
        num = _power_sums(wout, np.square(G, out=G), q)
        del G
        return num ** (1.0 / q) / _power_sums(win, np.square(Z), p) ** (1.0 / p)

    grid = np.empty((d, 0))
    if real:
        if d == 1:
            grid = np.ones((1, 1))
        elif d == 2:
            ang = np.linspace(0, 2 * math.pi, 20_000, endpoint=False)
            grid = np.stack([np.cos(ang), np.sin(ang)])
        elif d == 3:
            grid = _fibonacci_sphere(40_000)
    R, XY, noise = _memo_normals(A.domain, seed)
    blocks = ((grid, K_real), (R, K_real), (XY, K_complex))

    # the ratio is scale-invariant, so the raw directions are scored as drawn
    top_r, top_j = np.empty(0), np.empty(0, dtype=np.intp)
    start = 0
    for Z, K in blocks:
        n = Z.shape[1]
        for c in range(0, n, _ORACLE_CHUNK):
            r = np.concatenate([top_r, ratios(K, Z[:, c : c + _ORACLE_CHUNK])])
            j = np.concatenate([top_j, np.arange(start + c, start + min(c + _ORACLE_CHUNK, n))])
            keep = _top_positions(r, j, _ORACLE_CANDIDATES)
            top_r, top_j = r[keep], j[keep]
        start += n
    # the winners in real form, one column each
    f = np.zeros((2 * d, len(top_j)))
    for i, j in enumerate(top_j):
        for Z, _ in blocks:
            if j < Z.shape[1]:
                break
            j -= Z.shape[1]
        f[: len(Z), i] = Z[:, j]
    best = float(top_r[0])
    best_f = f[:, 0].copy()
    f /= _power_sums(win, np.square(f), p) ** (1.0 / p)

    # derivative-free polish: shrinking random perturbations around each
    # candidate; a step scores the trials of all candidates as one block
    n_f = f.shape[1]
    val = ratios(K_complex, f)
    cols = np.arange(n_f)
    trials = np.empty((2, d, n_f, _POLISH_TRIALS))
    by_col = trials.reshape(2 * d, n_f, _POLISH_TRIALS)
    for s, sigma in enumerate(_POLISH_SIGMAS):
        for rep in range(_POLISH_REPEATS):
            np.multiply(noise[:, s, rep].transpose(1, 2, 0, 3), sigma, out=trials)
            trials += f.reshape(2, d, n_f, 1)
            rt = ratios(K_complex, trials.reshape(2 * d, -1)).reshape(n_f, -1)
            k = np.argmax(rt, axis=1)
            top_rt = rt[cols, k]
            up = top_rt > val
            if np.any(up):
                val[up] = top_rt[up]
                moved = by_col[:, cols[up], k[up]]
                f[:, up] = moved / _power_sums(win, np.square(moved), p) ** (1.0 / p)
    j = int(np.argmax(val))
    if val[j] > best:
        best_f = f[:, j]
    best_f = best_f[:d] + 1j * best_f[d:]
    fr = best_f / _colnorms(best_f[:, None], p, win)[0]
    value = float(_colnorms(M @ fr[:, None], q, wout)[0] / _colnorms(fr[:, None], p, win)[0])
    value = _scaled_back(value, e)
    if not math.isfinite(value):
        raise ConvergenceError(f"the oracle's best direction gives a non-finite ratio {value}")
    return value


def hypercontractive_time(p: float, semigroup) -> float:
    """Smallest time at which the cube noise semigroup maps L_p into L_2 contractively.

    Returns s* = -(1/2) log(p-1) and verifies the threshold numerically: the
    p->2 norm at s* must not exceed 1 + PADDING, and at 0.9 s* it must exceed
    1 + PADDING (the latter checked for power >= 2 where the excess is comfortable).
    """
    _check_p(p)
    s_star = -0.5 * math.log(p - 1.0)
    at = opnorm_lower(semigroup.evaluate(s_star), p, 2.0, seed=7)
    if at.value > 1.0 + PADDING:
        raise ConvergenceError(
            f"norm at the threshold came out {at.value}, above 1 + {PADDING}"
        )
    if semigroup.power >= 2:
        below = opnorm_lower(semigroup.evaluate(0.9 * s_star), p, 2.0, seed=7)
        if not below.value > 1.0 + PADDING:
            raise ConvergenceError(
                f"norm below the threshold came out {below.value}, "
                f"not above 1 + {PADDING}; estimator missed the witness"
            )
    return s_star
