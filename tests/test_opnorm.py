import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import hadamard

from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    FunctionVector,
    OperatorMatrix,
    apply,
    compose,
    hypercontractive_time,
    lp_norm,
    make_gamma2,
    node_constants,
    opnorm_lower,
    opnorm_lower_many,
    opnorm_oracle,
    split,
)
from semisplit.errors import (
    ConvergenceError,
    CostGuardError,
    DomainError,
    InvalidExponentError,
    ShapeError,
)
from semisplit.opnorm import (
    _ASCENT_BETA,
    _ASCENT_MAX_ITER,
    _ASCENT_TOL,
    _ORACLE_RANDOM_DIRECTIONS,
    _WALSH_MIN_ATOMS,
    _colnorms,
    _fibonacci_sphere,
    _memo_normals,
    _oracle_normals,
    _phase,
    _walsh_product,
)


def test_identity_norm_on_uniform_space():
    for n in (2, 3):
        sp = FiniteProbabilitySpace.uniform(2**n)
        I = OperatorMatrix.identity(sp)
        for p, q in ((1.5, 2.0), (1.2, 3.0)):
            est = opnorm_lower(I, p, q, seed=0)
            assert est.value == pytest.approx(2 ** (n * (1 / p - 1 / q)), rel=1e-9)


def test_rank_one_matches_duality():
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(5))
    sp = FiniteProbabilitySpace(w)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    # f -> <v, f> u with the weighted pairing
    A = OperatorMatrix.on(sp, np.outer(u, np.conj(v) * w))
    p, q = 1.5, 2.0
    pc = p / (p - 1)
    expected = (w @ np.abs(u) ** q) ** (1 / q) * (w @ np.abs(v) ** pc) ** (1 / pc)
    assert opnorm_lower(A, p, q, seed=0).value == pytest.approx(expected, rel=1e-10)


def test_cube_two_norm_is_one():
    S = CubeNoiseSemigroup(3)
    assert opnorm_lower(S.evaluate(0.4), 2.0, 2.0, seed=0).value == pytest.approx(1.0, abs=1e-12)


def test_zero_matrix():
    sp = FiniteProbabilitySpace.uniform(3)
    Z = OperatorMatrix.on(sp, np.zeros((3, 3)))
    assert opnorm_lower(Z, 1.5, 2.0).value == 0.0
    assert opnorm_oracle(Z, 1.5, 2.0) == 0.0


def test_witness_certifies_value():
    rng = np.random.default_rng(9)
    sp = FiniteProbabilitySpace.uniform(6)
    A = OperatorMatrix.on(sp, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    est = opnorm_lower(A, 1.5, 2.0, seed=1)
    ratio = lp_norm(apply(A, est.witness), 2.0) / lp_norm(est.witness, 1.5)
    assert abs(ratio - est.value) <= 1e-10 * max(1.0, est.value)


def test_rotation_invariance():
    rng = np.random.default_rng(10)
    sp = FiniteProbabilitySpace.uniform(5)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = opnorm_lower(OperatorMatrix.on(sp, M), 1.5, 2.0, seed=2).value
    b = opnorm_lower(OperatorMatrix.on(sp, np.exp(0.7j) * M), 1.5, 2.0, seed=2).value
    assert a == pytest.approx(b, abs=1e-10)


def test_submultiplicative_across_middle_exponent():
    rng = np.random.default_rng(12)
    sp = FiniteProbabilitySpace.uniform(5)
    p, q = 1.5, 2.0
    for _ in range(5):
        A = OperatorMatrix.on(sp, rng.standard_normal((5, 5)))
        B = OperatorMatrix.on(sp, rng.standard_normal((5, 5)))
        lhs = opnorm_lower(compose(A, B), p, q, restarts=16, seed=0).value
        for r in (p, 2.0, q):
            rhs = (
                opnorm_lower(A, r, q, restarts=16, seed=0).value
                * opnorm_lower(B, p, r, restarts=16, seed=0).value
            )
            assert lhs <= rhs * (1 + 1e-3)


def test_monotone_in_exponents():
    rng = np.random.default_rng(13)
    sp = FiniteProbabilitySpace.uniform(4)
    for _ in range(4):
        A = OperatorMatrix.on(sp, rng.standard_normal((4, 4)))
        v_low_q = opnorm_lower(A, 1.5, 1.7, restarts=16, seed=0).value
        v_high_q = opnorm_lower(A, 1.5, 2.5, restarts=16, seed=0).value
        assert v_low_q <= v_high_q * (1 + 1e-9)
        v_low_p = opnorm_lower(A, 1.3, 2.0, restarts=16, seed=0).value
        v_high_p = opnorm_lower(A, 1.8, 2.0, restarts=16, seed=0).value
        assert v_high_p <= v_low_p * (1 + 1e-9)


def test_oracle_identity_two_point():
    sp = FiniteProbabilitySpace.uniform(2)
    I = OperatorMatrix.identity(sp)
    assert opnorm_oracle(I, 1.5, 2.0, seed=0) == pytest.approx(2 ** (1 / 1.5 - 1 / 2), rel=1e-6)


def test_oracle_cost_guard():
    sp = FiniteProbabilitySpace.uniform(7)
    with pytest.raises(CostGuardError):
        opnorm_oracle(OperatorMatrix.identity(sp), 1.5, 2.0)


def test_oracle_agrees_with_ascent_on_random_3x3():
    rng = np.random.default_rng(21)
    sp = FiniteProbabilitySpace.uniform(3)
    for k in range(8):
        A = OperatorMatrix.on(sp, rng.standard_normal((3, 3)))
        lo = opnorm_lower(A, 1.5, 2.0, seed=k).value
        orc = opnorm_oracle(A, 1.5, 2.0, seed=100 + k)
        assert abs(lo - orc) / max(lo, orc) <= 1e-3


def _oracle_one_candidate_at_a_time(A, p, q, seed=0):
    """The dense oracle with its polish walking one candidate at a time.

    Reference for the batched polish in `opnorm_oracle`: same scan, same
    candidates, same noise in the same order.
    """
    d = A.domain.size
    M = A.entries
    win = A.domain.weights
    wout = A.codomain.weights
    rng = np.random.default_rng(seed)

    blocks = []
    if np.isrealobj(M) or not np.any(M.imag):
        if d == 1:
            blocks.append(np.ones((1, 1)))
        elif d == 2:
            ang = np.linspace(0, 2 * math.pi, 20_000, endpoint=False)
            blocks.append(np.stack([np.cos(ang), np.sin(ang)]))
        elif d == 3:
            blocks.append(_fibonacci_sphere(40_000))
    half = _ORACLE_RANDOM_DIRECTIONS // 2
    blocks.append(rng.standard_normal((d, half)))
    blocks.append(rng.standard_normal((d, half)) + 1j * rng.standard_normal((d, half)))
    F = np.concatenate([b.astype(complex) for b in blocks], axis=1)
    F = F / _colnorms(F, p, win)[None, :]

    def ratio(Fc):
        return _colnorms(M @ Fc, q, wout) / _colnorms(Fc, p, win)

    r = ratio(F)
    order = np.argsort(r)[::-1]
    candidates = F[:, order[:30]].copy()
    best = float(r.max())
    best_f = F[:, order[0]].copy()
    for j in range(candidates.shape[1]):
        f = candidates[:, j].copy()
        val = float(ratio(f[:, None])[0])
        for sigma in (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6):
            for _ in range(4):
                trials = f[:, None] + sigma * (
                    rng.standard_normal((d, 24)) + 1j * rng.standard_normal((d, 24))
                )
                rt = ratio(trials)
                k = int(np.argmax(rt))
                if rt[k] > val:
                    val = float(rt[k])
                    f = trials[:, k] / _colnorms(trials[:, k : k + 1], p, win)[0]
        if val > best:
            best = val
            best_f = f
    fr = best_f / _colnorms(best_f[:, None], p, win)[0]
    return float(ratio(fr[:, None])[0])


@pytest.mark.parametrize("d", range(1, 7))
def test_batched_oracle_polish_matches_one_candidate_walk(d):
    rng = np.random.default_rng(40 + d)
    spaces = (FiniteProbabilitySpace.uniform(d), FiniteProbabilitySpace(rng.dirichlet(np.ones(d))))
    for sp in spaces:
        for complex_entries in (False, True):
            M = rng.standard_normal((d, d))
            if complex_entries:
                M = M + 1j * rng.standard_normal((d, d))
            A = OperatorMatrix.on(sp, M)
            for seed, (p, q) in enumerate(((1.5, 1.5), (1.5, 2.0), (2.0, 2.0), (1.2, 3.0))):
                ref = _oracle_one_candidate_at_a_time(A, p, q, seed=seed)
                assert opnorm_oracle(A, p, q, seed=seed) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_oracle_normals_are_four_consecutive_draws(d):
    # the random real block, the complex block's real and imaginary parts and
    # the polish noise, each as its own draw from one generator
    half = _ORACLE_RANDOM_DIRECTIONS // 2
    for seed in (0, 1017):
        rng = np.random.default_rng(seed)
        real, re, im = (rng.standard_normal((d, half)) for _ in range(3))
        noise = rng.standard_normal((30, 12, 4, 2, d, 24))
        R, XY, polish = _oracle_normals(d, seed)
        assert np.array_equal(R, real)
        assert np.array_equal(XY[:d], re) and np.array_equal(XY[d:], im)
        assert np.array_equal(polish, noise)


@pytest.fixture
def oracle_draws(monkeypatch):
    """An empty oracle memo, and the (d, seed) of each draw made into it."""
    slot, draws = [], []

    def counted(d, seed):
        draws.append((d, seed))
        return _oracle_normals(d, seed)

    monkeypatch.setattr("semisplit.opnorm._oracle_slot", slot)
    monkeypatch.setattr("semisplit.opnorm._oracle_normals", counted)
    return slot, draws


def test_oracle_calls_on_one_space_share_one_draw(oracle_draws):
    # criterion 7's exponent pairs on one operator, as a soundness check makes them
    slot, draws = oracle_draws
    rng = np.random.default_rng(8)
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(6), rng.standard_normal((6, 6)))
    pairs = ((1.5, 1.5), (1.5, 2.0), (2.0, 2.0))
    cold = []
    for p, q in pairs:
        slot.clear()
        cold.append(opnorm_oracle(A, p, q, seed=3))
    slot.clear()
    draws.clear()
    assert [opnorm_oracle(A, p, q, seed=3) for p, q in pairs] == cold
    assert draws == [(6, 3)]


def test_oracle_draws_again_for_a_new_seed_or_size(oracle_draws):
    slot, draws = oracle_draws
    rng = np.random.default_rng(9)
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(3), rng.standard_normal((3, 3)))
    B = OperatorMatrix.on(FiniteProbabilitySpace.uniform(4), rng.standard_normal((4, 4)))
    for op, seed in ((A, 0), (A, 0), (A, 1), (B, 1), (B, 1), (A, 1)):
        opnorm_oracle(op, 1.5, 2.0, seed=seed)
    assert draws == [(3, 0), (3, 1), (4, 1), (3, 1)]
    assert len(slot) == 1


def test_oracle_checked_splits_on_one_cube_draw_once(oracle_draws, default_domain,
                                                     default_measure):
    # each split checks its T0 and T1 against the oracle on the cube's space
    _, draws = oracle_draws
    cube = CubeNoiseSemigroup(2)
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        split(cube, default_domain, default_measure, 1.5, eps, seed=0, oracle_check=True)
    assert draws == [(4, 0)]


def test_oracle_memo_lets_its_domain_go(oracle_draws):
    slot, _ = oracle_draws
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(5), np.arange(25.0).reshape(5, 5))
    opnorm_oracle(A, 1.5, 2.0)
    assert len(slot) == 1
    del A
    gc.collect()
    assert slot == []


def test_oracle_memo_arrays_are_read_only(oracle_draws):
    sp = FiniteProbabilitySpace.uniform(2)
    for _ in range(2):  # the draw, then the memo's hit
        for z in _memo_normals(sp, 0):
            with pytest.raises(ValueError, match="read-only"):
                z[...] = 0.0


@pytest.mark.parametrize("d", (2, 3, 6))
def test_oracle_value_does_not_depend_on_the_chunk(d, monkeypatch):
    rng = np.random.default_rng(60 + d)
    A = OperatorMatrix.on(FiniteProbabilitySpace(rng.dirichlet(np.ones(d))),
                          rng.standard_normal((d, d)))
    default = opnorm_oracle(A, 1.5, 2.0, seed=d)
    for chunk in (7, 10**6):
        monkeypatch.setattr("semisplit.opnorm._ORACLE_CHUNK", chunk)
        assert opnorm_oracle(A, 1.5, 2.0, seed=d) == pytest.approx(default, rel=1e-13)


@pytest.mark.parametrize("k", (-600, 600))
def test_oracle_scales_with_the_operator(k):
    # squared moduli of entries near 2^600 overflow, near 2^-600 underflow
    rng = np.random.default_rng(77)
    sp = FiniteProbabilitySpace(rng.dirichlet(np.ones(3)))
    for M in (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))):
        for p, q in ((1.5, 1.5), (1.5, 2.0), (2.0, 2.0)):
            base = opnorm_oracle(OperatorMatrix.on(sp, M), p, q)
            scaled = opnorm_oracle(OperatorMatrix.on(sp, math.ldexp(1.0, k) * M), p, q)
            assert scaled == pytest.approx(math.ldexp(base, k), rel=1e-13)


def test_oracle_scan_memory(oracle_draws):
    # a cold call keeps only one chunk of products and squares beside the draw
    # of 1.3e6 normals (10.5 MB at d = 6); a warm call on the same space
    # allocates no draw (the smallest block of one, R, is 2.4 MB).  Measured:
    # 11.1 MB cold, 0.6 MB warm.
    _, draws = oracle_draws
    rng = np.random.default_rng(6)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # the warm-up's space is collected when its call returns
    opnorm_oracle(OperatorMatrix.on(FiniteProbabilitySpace.uniform(6), M), 1.5, 2.0)
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(6), M)
    # each call's peak above what was traced when it began: the cold call's
    # draw stays traced in the memo
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            opnorm_oracle(A, 1.5, 2.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    cold, warm = peaks
    assert draws == [(6, 0), (6, 0)]
    assert cold < 12e6
    assert warm < 2e6


def _ref_colnorms(F, p, w, absF=None):
    return (w @ (np.abs(F) if absF is None else absF) ** p) ** (1.0 / p)


def _ref_phase(Z, absz=None):
    absz = np.abs(Z) if absz is None else absz
    with np.errstate(invalid="ignore", divide="ignore", over="ignore", under="ignore"):
        ph = np.divide(Z, absz, out=np.zeros_like(Z), where=absz > 0)
    if np.isfinite(ph).all():
        return ph
    return np.nan_to_num(ph, nan=0.0, posinf=0.0, neginf=0.0, copy=False)


def _ref_dual_image(Z, expo):
    absz = np.abs(Z)
    with np.errstate(invalid="ignore"):
        mag = absz**expo if expo != 1.0 else absz
    return mag * _ref_phase(Z, absz)


def _ref_dual_step(H, pconj, p, w):
    absH = np.abs(H)
    mag = absH ** (pconj - 1.0)
    return mag * _ref_phase(H, absH), (w @ (mag * absH)) ** (1.0 / p)


def _ascent_with_per_step_adjoint(A, p, q, restarts=32, seed=0):
    """opnorm_lower on one operator, with M.conj().T formed on every step.

    At p = 1 the best atom is the witness and no step runs.  Each step takes
    the plain dual image of each column's accepted iterate, extrapolates it
    by _ASCENT_BETA past the column's previous dual image (not on a column's
    first step or the step after a rejection) and scores only that point; a
    column whose ratio falls keeps its iterate.  It runs on frozen copies of the column-norm, phase and
    dual-image helpers, so the library's helpers are checked against them
    rather than against themselves.
    """
    M = A.entries
    win = A.domain.weights
    wout = A.codomain.weights
    d = A.domain.size
    if not np.any(M):
        return 0.0, FunctionVector(np.ones(d), A.domain)
    ind_ratios = _ref_colnorms(M, q, wout) / win ** (1.0 / p)
    best_ind = int(np.argmax(ind_ratios))
    if p == 1.0:
        witness = FunctionVector(np.eye(d, dtype=complex)[best_ind], A.domain)
        return float(lp_norm(apply(A, witness), q) / lp_norm(witness, p)), witness
    rng = np.random.default_rng(seed)
    cols = [np.ones((d, 1), dtype=complex)]
    e = np.zeros((d, 1), dtype=complex)
    e[best_ind, 0] = 1.0
    cols.append(e)
    B = (np.sqrt(wout)[:, None] * M) / np.sqrt(win)[None, :]
    _, _, vh = np.linalg.svd(B)
    cols.append((vh[0].conj() / np.sqrt(win))[:, None])
    if d >= 2:
        v2 = vh[1].conj() / np.sqrt(win)
        v2 = v2 / max(np.abs(v2).max(), 1e-300)
        v1 = vh[0].conj() / np.sqrt(win)
        v1 = v1 / max(np.abs(v1).max(), 1e-300)
        for c in (0.5, 1.5):
            cols.append((v1 + c * v2)[:, None])
            cols.append((v1 - c * v2)[:, None])
    if restarts > 0:
        R = rng.standard_normal((d, restarts)) + 1j * rng.standard_normal((d, restarts))
        half = restarts // 2
        if half:
            R[:, :half] = np.abs(R[:, :half])
        cols.append(R)
    F = np.concatenate(cols, axis=1)
    pconj = p / (p - 1.0)

    def ratios_of(F, absF=None):
        fp = _ref_colnorms(F, p, win, absF)
        G = M @ F
        gq = _ref_colnorms(G, q, wout)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(fp > 0, gq / np.where(fp > 0, fp, 1.0), 0.0)
        return r, G

    best_val = float(np.max(ind_ratios))
    witness_vec = np.zeros(d, dtype=complex)
    witness_vec[best_ind] = 1.0
    r, G = ratios_of(F)
    if r.max() > best_val:
        best_val = float(r.max())
        witness_vec = F[:, int(np.argmax(r))].copy()
    # the accepted iterate, image and ratio of each column
    X, R = F, r
    prev, plain = None, np.ones(F.shape[1], dtype=bool)
    stall = 0
    for _ in range(_ASCENT_MAX_ITER):
        U = _ref_dual_image(G, q - 1.0)
        H = (M.conj().T @ (wout[:, None] * U)) / win[:, None]
        F, norms = _ref_dual_step(H, pconj, p, win)
        dead = norms == 0
        if np.any(dead):
            F[:, dead] = 1.0
            norms = _ref_colnorms(F, p, win)
        F = F / norms[None, :]
        if prev is None:
            Y = F
        else:
            Y = np.where(plain[None, :], F, (F - prev) * _ASCENT_BETA + F)
        prev = F
        absY = np.abs(Y)
        tiny = absY < 1e-250
        Y[tiny] = 0.0
        absY[tiny] = 0.0
        r, GY = ratios_of(Y, absY)
        plain = r < R
        X = np.where(plain[None, :], X, Y)
        G = np.where(plain[None, :], G, GY)
        R = np.where(plain, R, r)
        new_best = float(R.max())
        if new_best > best_val + _ASCENT_TOL * max(1.0, best_val):
            best_val = new_best
            witness_vec = X[:, int(np.argmax(R))].copy()
            stall = 0
        else:
            stall += 1
            if stall >= 3:
                break
    witness = FunctionVector(witness_vec, A.domain)
    return float(lp_norm(apply(A, witness), q) / lp_norm(witness, p)), witness


def test_ascent_with_hoisted_adjoint_is_bit_identical():
    # the same zgemm on the same values and strides: value and witness bytes agree
    rng = np.random.default_rng(11)
    hoisted, per_step = hashlib.sha256(), hashlib.sha256()
    for d in range(1, 9):
        spaces = (FiniteProbabilitySpace.uniform(d), FiniteProbabilitySpace(rng.dirichlet(np.ones(d))))
        for sp in spaces:
            for complex_entries in (False, True):
                M = rng.standard_normal((d, d))
                if complex_entries:
                    M = M + 1j * rng.standard_normal((d, d))
                A = OperatorMatrix.on(sp, M)
                for seed, (p, q) in enumerate(((1.5, 1.5), (1.5, 2.0), (2.0, 2.0), (1.2, 3.0))):
                    est = opnorm_lower(A, p, q, seed=seed)
                    value, witness = _ascent_with_per_step_adjoint(A, p, q, seed=seed)
                    hoisted.update(np.float64(est.value).tobytes() + est.witness.values.tobytes())
                    per_step.update(np.float64(value).tobytes() + witness.values.tobytes())
    assert hoisted.hexdigest() == per_step.hexdigest()


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_ascent_matches_one_operator_at_a_time(d):
    # the zero operator never ascends and the identity stalls at once, so the
    # slices of each stack leave it at different steps
    rng = np.random.default_rng(100 + d)
    for sp in (FiniteProbabilitySpace.uniform(d), FiniteProbabilitySpace(rng.dirichlet(np.ones(d)))):
        real = rng.standard_normal((d, d))
        cplx = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops = [OperatorMatrix.on(sp, M) for M in (real, cplx, np.zeros((d, d)), np.eye(d))]
        for seed, (p, q) in enumerate(((1.5, 1.5), (1.5, 2.0), (2.0, 2.0), (1.2, 3.0), (1.0, 2.0))):
            stacked = opnorm_lower_many(ops, p, q, seed=seed)
            for A, est in zip(ops, stacked):
                value, witness = _ascent_with_per_step_adjoint(A, p, q, seed=seed)
                assert np.float64(est.value).tobytes() == np.float64(value).tobytes()
                assert est.witness.values.tobytes() == witness.values.tobytes()
                one = opnorm_lower(A, p, q, seed=seed)
                assert (est.steps, est.start) == (one.steps, one.start)


def test_stacked_ascent_needs_one_domain_and_codomain():
    a, b = FiniteProbabilitySpace.uniform(2), FiniteProbabilitySpace(np.array([0.3, 0.7]))
    assert opnorm_lower_many([], 1.5, 2.0) == []
    with pytest.raises(ShapeError):
        opnorm_lower_many([OperatorMatrix.identity(a), OperatorMatrix.identity(b)], 1.5, 2.0)


def test_failed_stacked_svd_measures_one_operator_at_a_time(monkeypatch):
    # an SVD that fails on any stack holding the second operator; the first
    # keeps its SVD starts, without which its 2 -> 2 witness differs
    sp = FiniteProbabilitySpace.uniform(3)
    good = OperatorMatrix.on(sp, np.random.default_rng(0).standard_normal((3, 3)))
    bad = OperatorMatrix.on(sp, np.ones((3, 3)))
    svd = np.linalg.svd

    def failing_svd(a, *args, **kwargs):
        # the uniform weights cancel exactly on the all-ones operator
        if any(np.array_equal(m, bad.entries) for m in a.reshape(-1, 3, 3)):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    for A, est in zip((good, bad), opnorm_lower_many([good, bad], 2.0, 2.0)):
        one = opnorm_lower(A, 2.0, 2.0)
        assert np.float64(est.value).tobytes() == np.float64(one.value).tobytes()
        assert est.witness.values.tobytes() == one.witness.values.tobytes()


def test_non_finite_operators_raise():
    sp = FiniteProbabilitySpace.uniform(4)
    nan_op = OperatorMatrix.on(sp, np.where(np.eye(4) > 0, np.nan, 0.0))
    with pytest.raises(DomainError):
        opnorm_lower(nan_op, 1.5, 1.5, restarts=2)
    with pytest.raises(DomainError):
        opnorm_lower_many([OperatorMatrix.identity(sp), nan_op], 1.5, 2.0, restarts=2)
    with pytest.raises(DomainError):
        opnorm_oracle(nan_op, 1.5, 1.5)


def test_overflowing_norm_raises():
    # finite entries whose powers overflow: the ascent and the oracle both
    # search a copy scaled by a power of two, so both measure this norm (1e300
    # up to the identity's share), warning-free; only a norm beyond the
    # largest double overflows them
    M = np.eye(4)
    M[0, 1] = 1e300
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(4), M)
    assert opnorm_lower(A, 1.5, 1.5, restarts=2).value == pytest.approx(1e300, rel=1e-6)
    assert opnorm_oracle(A, 1.5, 1.5) == pytest.approx(1e300, rel=1e-6)
    huge = OperatorMatrix.on(FiniteProbabilitySpace.uniform(4), np.full((4, 4), 1e308))
    with pytest.raises(ConvergenceError):
        opnorm_lower(huge, 1.5, 1.5, restarts=2)
    with pytest.raises(ConvergenceError):
        opnorm_oracle(huge, 1.5, 1.5)


@pytest.mark.parametrize("k", (-600, -300, 300, 600))
def test_ascent_scales_with_the_operator(k):
    # far from 1 the ascent's powers of the moduli overflow (RuntimeWarnings
    # are errors here) or its stall rule's absolute floor stops it early; a
    # copy scaled by a power of two measures 2^k times the unit-scale norm
    A = np.random.default_rng(0).standard_normal((4, 4))
    sp = FiniteProbabilitySpace.uniform(4)
    for p, q in ((1.5, 1.5), (1.5, 2.0)):
        base = opnorm_lower(OperatorMatrix.on(sp, A), p, q).value
        scaled = opnorm_lower(OperatorMatrix.on(sp, math.ldexp(1.0, k) * A), p, q)
        assert scaled.value == pytest.approx(math.ldexp(base, k), rel=1e-9)
    # each operator of a stack gets its own power of two
    stack = opnorm_lower_many([OperatorMatrix.on(sp, math.ldexp(1.0, j) * A) for j in (k, 0)],
                              1.5, 1.5)
    assert stack[0].value == pytest.approx(math.ldexp(stack[1].value, k), rel=1e-9)
    assert stack[1].value == opnorm_lower(OperatorMatrix.on(sp, A), 1.5, 1.5).value
    # the ascent steps of a Walsh multiplier scale with its entries
    cube = CubeNoiseSemigroup(7)
    mult = np.exp(-0.3 * cube.spectrum)
    base = opnorm_lower(cube.operator(mult), 1.5, 2.0, restarts=4).value
    scaled = opnorm_lower(cube.operator(math.ldexp(1.0, k) * mult), 1.5, 2.0, restarts=4)
    assert scaled.value == pytest.approx(math.ldexp(base, k), rel=1e-9)


@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_product_matches_dense(n):
    d = 2**n
    rng = np.random.default_rng(n)
    H = hadamard(d)
    mult = (rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))) / d
    M = np.stack([(H * m) @ H for m in mult])
    F = rng.standard_normal((3, d, 5)) + 1j * rng.standard_normal((3, d, 5))
    for got, want in ((_walsh_product(mult, F), M @ F),
                      (_walsh_product(mult.conj(), F), M.conj().transpose(0, 2, 1) @ F)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _spy_walsh_product(monkeypatch):
    calls = []

    def spy(mult, F):
        calls.append(len(mult))
        return _walsh_product(mult, F)

    monkeypatch.setattr("semisplit.opnorm._walsh_product", spy)
    return calls


def test_walsh_stack_matches_each_operator_alone(monkeypatch):
    S = CubeNoiseSemigroup(7)
    # the identity stalls at once, the others run on to different steps
    ops = [S.evaluate(0.02 + 0.1j), S.evaluate(0.05 - 0.6j), S.operator(np.ones(128))]
    calls = _spy_walsh_product(monkeypatch)
    for q in (1.5, 2.0):
        stacked = opnorm_lower_many(ops, 1.5, q, restarts=6, seed=1)
        assert len({est.steps for est in stacked}) == 3
        for A, est in zip(ops, stacked):
            one = opnorm_lower(A, 1.5, q, restarts=6, seed=1)
            assert abs(est.value - one.value) <= 1e-12 * one.value
            assert (est.steps, est.start) == (one.steps, one.start)
            # each value is the dense ratio of its witness
            dense = lp_norm(apply(A, est.witness), q) / lp_norm(est.witness, 1.5)
            assert np.float64(est.value).tobytes() == np.float64(dense).tobytes()
    assert 3 in calls and 2 in calls and 1 in calls


@pytest.mark.parametrize("n", range(1, 7))
def test_cube_below_the_walsh_cutoff_stays_dense(n, monkeypatch):
    assert 2**n < _WALSH_MIN_ATOMS
    A = CubeNoiseSemigroup(n).evaluate(0.2 - 0.5j)
    assert A.walsh is not None
    plain = OperatorMatrix.on(A.domain, A.entries)
    calls = _spy_walsh_product(monkeypatch)
    for q in (1.5, 2.0):
        est, ref = opnorm_lower(A, 1.5, q, restarts=8), opnorm_lower(plain, 1.5, q, restarts=8)
        assert np.float64(est.value).tobytes() == np.float64(ref.value).tobytes()
        assert est.witness.values.tobytes() == ref.witness.values.tobytes()
    assert calls == []


def test_ascent_reports_its_steps(monkeypatch):
    sp = FiniteProbabilitySpace.uniform(5)
    # every ratio of the identity at p = q is 1, so three steps without gain stop it
    assert opnorm_lower(OperatorMatrix.identity(sp), 1.5, 1.5).steps == 3
    assert opnorm_lower(OperatorMatrix.on(sp, np.zeros((5, 5))), 1.5, 2.0).steps == 0
    rng = np.random.default_rng(5)
    A = OperatorMatrix.on(sp, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert 3 < opnorm_lower(A, 1.5, 1.5).steps < _ASCENT_MAX_ITER
    monkeypatch.setattr("semisplit.opnorm._ASCENT_MAX_ITER", 2)
    assert opnorm_lower(A, 1.5, 1.5).steps == 2


def test_ascent_reports_its_start():
    sp = FiniteProbabilitySpace.uniform(5)
    # no start beats the identity's best atom, whose ratio is exactly 1
    assert opnorm_lower(OperatorMatrix.identity(sp), 1.5, 1.5).start == "atom"
    assert opnorm_lower(OperatorMatrix.on(sp, np.zeros((5, 5))), 1.5, 2.0).start == "constant"
    rng = np.random.default_rng(5)
    A = OperatorMatrix.on(sp, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    # the top singular vector is the 2 -> 2 maximizer; no other start beats it by the tolerance
    assert opnorm_lower(A, 2.0, 2.0).start == "svd"
    kinds = {"atom", "constant", "svd", "bifurcation", "random"}
    assert {opnorm_lower(A, p, q, seed=s).start
            for s in range(4) for p, q in ((1.5, 1.5), (1.2, 3.0), (1.0, 2.0))} <= kinds


def test_one_to_q_norm_is_the_best_atom(monkeypatch):
    # ||A||_(1->q) = max_j ||A e_j||_q / w_j: the L_1 unit ball is the convex
    # hull of the phased atoms e_j / w_j and f -> ||Af||_q is convex, so p = 1
    # needs neither the SVD nor the ascent
    def no_search(*args, **kwargs):
        raise AssertionError("searched at p = 1")

    monkeypatch.setattr("semisplit.opnorm._ascent", no_search)
    monkeypatch.setattr(np.linalg, "svd", no_search)
    rng = np.random.default_rng(3)
    d = 5
    weights = (np.full(d, 1.0 / d), rng.dirichlet(np.ones(d)))
    for sp in map(FiniteProbabilitySpace, weights):
        real = rng.standard_normal((d, d))
        for M in (real, real + 1j * rng.standard_normal((d, d))):
            A = OperatorMatrix.on(sp, M)
            for q in (1.0, 1.5, 2.0, 3.0):
                cols = [lp_norm(FunctionVector(M[:, j], sp), q) / sp.weights[j] for j in range(d)]
                j = int(np.argmax(cols))
                est = opnorm_lower(A, 1.0, q)
                assert est.value == cols[j]
                assert np.array_equal(est.witness.values, np.eye(d)[j])
                assert (est.steps, est.start) == (0, "atom")
                # no other function does better
                fs = [FunctionVector(rng.standard_normal(d) + 1j * rng.standard_normal(d), sp)
                      for _ in range(200)]
                best = max(lp_norm(apply(A, f), q) / lp_norm(f, 1.0) for f in fs)
                assert best <= est.value * (1 + 1e-12)
    # a stack answers each operator as its own call would
    ops = [OperatorMatrix.on(sp, m) for m in (real, np.zeros((d, d)), 2.0**300 * real)]
    stacked = opnorm_lower_many(ops, 1.0, 2.0)
    assert [est.value for est in stacked] == [opnorm_lower(A, 1.0, 2.0).value for A in ops]
    assert stacked[2].value == 2.0**300 * stacked[0].value


def test_oracle_one_atom_is_exact():
    sp = FiniteProbabilitySpace.uniform(1)
    w = sp.weights[0]
    for m in (-0.7, 2.5 - 1.5j):
        A = OperatorMatrix.on(sp, np.array([[m]]))
        for p, q in ((1.5, 1.5), (1.2, 3.0)):
            expected = abs(m) * w ** (1 / q) / w ** (1 / p)
            assert opnorm_oracle(A, p, q, seed=0) == pytest.approx(expected, rel=1e-12)


def test_invalid_exponents():
    sp = FiniteProbabilitySpace.uniform(2)
    I = OperatorMatrix.identity(sp)
    with pytest.raises(InvalidExponentError):
        opnorm_lower(I, 0.9, 2.0)
    with pytest.raises(InvalidExponentError):
        opnorm_lower(I, 1.5, math.inf)


@pytest.mark.parametrize("restarts", [2.5, -3])
def test_restarts_must_be_a_whole_number_at_least_zero(restarts):
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(2), np.array([[1.0, 0.5], [0.0, 2.0]]))
    with pytest.raises(DomainError, match="whole number of restarts"):
        opnorm_lower(A, 1.5, 2.0, restarts=restarts)
    with pytest.raises(DomainError, match="whole number of restarts"):
        opnorm_lower_many([A, A], 1.5, 1.5, restarts=restarts)
    # any integral type passes, as for the cube's n and the measure's nodes
    assert (opnorm_lower(A, 1.5, 2.0, restarts=np.int64(3)).value
            == opnorm_lower(A, 1.5, 2.0, restarts=3).value)


@pytest.mark.parametrize("seed", [None, -1, 0.0, "0"])
def test_seed_must_be_a_whole_number_at_least_zero(seed, oracle_draws):
    # seed=None would draw from OS entropy, which no memo may key on
    slot, draws = oracle_draws
    A = OperatorMatrix.on(FiniteProbabilitySpace.uniform(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    calls = (
        lambda: opnorm_lower(A, 1.5, 2.0, seed=seed),
        lambda: opnorm_lower_many([A, A], 1.5, 1.5, seed=seed),
        lambda: opnorm_oracle(A, 1.5, 2.0, seed=seed),
    )
    value = opnorm_oracle(A, 1.5, 2.0, seed=0)
    for _ in range(2):  # a draw in the memo, then none
        for call in calls:
            with pytest.raises(DomainError, match="whole number of seed"):
                call()
        slot.clear()
    assert draws == [(2, 0)]
    # any integral type passes, and keys the memo as its int
    assert opnorm_oracle(A, 1.5, 2.0, seed=np.int64(0)) == value
    assert opnorm_oracle(A, 1.5, 2.0, seed=0) == value
    assert draws == [(2, 0), (2, 0)]


def test_hypercontractive_time_values():
    S = CubeNoiseSemigroup(3)
    assert hypercontractive_time(1.5, S) == pytest.approx(-0.5 * math.log(0.5), rel=1e-12)
    assert hypercontractive_time(1.25, S) == pytest.approx(-0.5 * math.log(0.25), rel=1e-12)
    # p -> 2 limit of the formula
    assert -0.5 * math.log(1.999 - 1.0) == pytest.approx(0.0, abs=1e-3)


def test_hypercontractive_time_rejects_bad_p(default_domain, default_measure):
    # every entry point that needs 1 < p < 2 shares one guard and one message
    S = CubeNoiseSemigroup(2)
    V, hm = default_domain, default_measure
    entry_points = (
        lambda p: hypercontractive_time(p, S),
        lambda p: split(S, V, hm, p, 0.1),
        lambda p: node_constants(S, hm, p),
        make_gamma2,
    )
    for p in (1.0, 2.0, 2.5, 0.7):
        for call in entry_points:
            with pytest.raises(DomainError, match=f"need 1 < p < 2, got {p}"):
                call(p)


def test_phase_maps_zero_and_non_finite_entries_to_zero():
    inf, nan = math.inf, math.nan
    regular = np.array([3 - 4j, -2j, 1e-300 + 1e-300j, 0.7])
    # finite quotients only (the one-pass route), then non-finite entries too
    for bad in ([0j], [0j, inf, -inf, nan, complex(inf, 1.0), complex(1.0, nan)]):
        Z = np.concatenate([regular, np.array(bad, dtype=complex)])
        ph = _phase(Z)
        assert np.array_equal(ph[regular.size:], np.zeros(len(bad), dtype=complex))
        assert np.array_equal(ph[: regular.size], regular / np.abs(regular))


def test_phase_maps_subnormal_entries_to_zero():
    # complex division by a subnormal modulus overflows to inf/nan; such
    # entries get the non-finite rule, not an infinite phase
    Z = np.array([7.9e-323 + 0j, -2.9565e-319 + 3.67502e-318j, 1 + 1j])
    assert np.array_equal(_phase(Z), np.array([0, 0, (1 + 1j) / abs(1 + 1j)]))
