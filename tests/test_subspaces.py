import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    FunctionVector,
    OperatorMatrix,
    build_projection,
    first_level_subspace,
    restricted_isomorphism_check,
)
from semisplit.errors import ConditioningError, ConvergenceError, DomainError
from semisplit.subspaces import Subspace

P = 1.5


def _random_subspace(space, dim, rng):
    vecs = rng.standard_normal((space.size, dim)) + 1j * rng.standard_normal((space.size, dim))
    return Subspace(tuple(FunctionVector(vecs[:, j], space) for j in range(dim)))


def _non_normal_case():
    # an upper-triangular, hence non-normal, operator on a non-uniform 8-point space
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, 8)
    space = FiniteProbabilitySpace(w / w.sum())
    A = np.diag(rng.uniform(0.5, 1.5, 8)) + np.triu(
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), 1
    )
    return OperatorMatrix.on(space, A), _random_subspace(space, 3, rng)


def test_eigenspace_restriction_is_scalar():
    n, t = 3, 0.3
    S = CubeNoiseSemigroup(n)
    X = first_level_subspace(n)
    lo, hi = restricted_isomorphism_check(S.evaluate(t), X, P, restarts=6, seed=0)
    assert lo == pytest.approx(math.exp(-t), abs=1e-6)
    assert hi == pytest.approx(math.exp(-t), abs=1e-6)


def test_full_space_identity_restriction():
    sp = FiniteProbabilitySpace.uniform(4)
    basis = tuple(FunctionVector(np.eye(4)[i], sp) for i in range(4))
    X = Subspace(basis)
    lo, hi = restricted_isomorphism_check(OperatorMatrix.identity(sp), X, P, restarts=6, seed=0)
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_random_subspace_lower_bound():
    n, t = 4, 0.25
    S = CubeNoiseSemigroup(n)
    X = _random_subspace(S.space, 2, np.random.default_rng(8))
    lo, hi = restricted_isomorphism_check(S.evaluate(t), X, P, restarts=10, seed=0)
    # the smallest multiplier on the cube bounds the restriction from below
    assert lo >= math.exp(-n * t) * (1 - 1e-6)
    assert hi <= 1.0 + 1e-9


def test_first_level_projection_is_walsh_projection():
    n = 3
    S = CubeNoiseSemigroup(n)
    X = first_level_subspace(n)
    Pmat, norm_pp = build_projection(S.evaluate(0.3), X, P, restarts=12, seed=0)
    H = hadamard(2**n)
    lvl = np.array([bin(i).count("1") == 1 for i in range(2**n)])
    rademacher = (H * lvl) @ H / 2**n
    np.testing.assert_allclose(Pmat.entries, rademacher, atol=1e-10)
    E = Pmat.entries
    assert np.abs(E @ E - E).max() <= 1e-9
    assert np.abs(E @ X.matrix - X.matrix).max() <= 1e-10
    assert norm_pp >= 1.0


def test_projection_on_random_admissible_subspace():
    n = 3
    S = CubeNoiseSemigroup(n)
    rng = np.random.default_rng(9)
    X = _random_subspace(S.space, 2, rng)
    Pmat, _ = build_projection(S.evaluate(0.4), X, P, restarts=12, seed=0)
    E = Pmat.entries
    assert np.abs(E @ E - E).max() <= 1e-9
    assert np.abs(E @ X.matrix - X.matrix).max() <= 1e-9
    # range is X: applying to arbitrary vectors lands in the span
    g = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    img = E @ g
    coeff, *_ = np.linalg.lstsq(X.matrix, img, rcond=None)
    assert np.abs(X.matrix @ coeff - img).max() <= 1e-9


def test_projection_norm_monotone_toward_two():
    n = 4
    S = CubeNoiseSemigroup(n)
    X = first_level_subspace(n)
    T = S.evaluate(0.3)
    norms = [build_projection(T, X, p, restarts=12, seed=0)[1] for p in (1.5, 1.7, 1.9)]
    assert norms[0] >= norms[1] - 1e-9
    assert norms[1] >= norms[2] - 1e-9
    assert norms[0] <= 3.0


def test_degenerate_basis_raises():
    sp = FiniteProbabilitySpace.uniform(4)
    v = np.array([1.0, 2.0, -1.0, 0.5], dtype=complex)
    with pytest.raises(ConditioningError):
        Subspace((FunctionVector(v, sp), FunctionVector(v, sp)))


def test_basis_on_different_spaces_raises():
    # same size, different weights: the Gram matrix has no single weighting
    a = FiniteProbabilitySpace(np.array([0.5, 0.5]))
    b = FiniteProbabilitySpace(np.array([0.25, 0.75]))
    with pytest.raises(ConditioningError):
        Subspace((FunctionVector(np.array([1.0, 0.0]), a),
                  FunctionVector(np.array([0.0, 1.0]), b)))


def test_first_level_subspace_needs_a_whole_number_of_variables():
    with pytest.raises(DomainError):
        first_level_subspace(2.5)
    assert first_level_subspace(np.int64(2)).dim == 2


def test_singular_restriction_raises():
    n = 2
    S = CubeNoiseSemigroup(n)
    X = first_level_subspace(n)
    Z = OperatorMatrix.on(S.space, np.zeros((4, 4)))
    with pytest.raises(ConditioningError):
        build_projection(Z, X, P)


def test_flat_ratio_costs_one_simplex(monkeypatch):
    # T(t) is the scalar e^-t on the first Walsh level, so the ratio is flat and
    # each Nelder-Mead search should stop on its first simplex (2k + 1 values)
    import scipy.optimize

    nfev = []
    minimize = scipy.optimize.minimize

    def counting_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", counting_minimize)
    n, t = 8, 0.3
    X = first_level_subspace(n)
    lo, hi = restricted_isomorphism_check(CubeNoiseSemigroup(n).evaluate(t), X, P)
    assert lo == pytest.approx(math.exp(-t), rel=1e-12)
    assert hi == pytest.approx(math.exp(-t), rel=1e-12)
    assert nfev and max(nfev) <= 2 * (2 * X.dim + 1)


def _random_cube_case(n, t, seed):
    S = CubeNoiseSemigroup(n)
    return S.evaluate(t), _random_subspace(S.space, 2, np.random.default_rng(seed))


# values recorded with the search that stopped only once the simplex was 1e-12 wide
@pytest.mark.parametrize(
    "case, restarts, expected",
    [
        (lambda: _random_cube_case(4, 0.25, 8), 10, (0.5652284713282737, 0.6966960997156034)),
        (lambda: _random_cube_case(3, 0.4, 9), 4, (0.6179596027859923, 0.674465599340129)),
        (_non_normal_case, 6, (0.9106716433534708, 4.085387180126813)),
    ],
    ids=["cube-n4", "cube-n3", "non-normal"],
)
def test_restricted_isomorphism_values_pinned(case, restarts, expected):
    T, X = case()
    got = restricted_isomorphism_check(T, X, P, restarts=restarts, seed=0)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, 1e300], ids=["nan", "overflow"])
def test_non_finite_operator_raises(entry):
    n = 3
    S = CubeNoiseSemigroup(n)
    X = first_level_subspace(n)
    E = S.evaluate(0.3).entries.copy()
    E[2, 5] = entry
    T = OperatorMatrix.on(S.space, E)
    with pytest.raises(ConvergenceError):
        restricted_isomorphism_check(T, X, P, restarts=2, seed=0)
    with pytest.raises(ConvergenceError):
        build_projection(T, X, P)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_image_gram_raises():
    # at p = 1 the ratio stays finite at entries of 1e300 but the image Gram
    # matrix overflows; the guard must fail before np.linalg.cond sees it
    n = 3
    S = CubeNoiseSemigroup(n)
    X = first_level_subspace(n)
    T = OperatorMatrix.on(S.space, S.evaluate(0.3).entries * 1e300)
    with pytest.raises(ConditioningError):
        build_projection(T, X, 1.0)


def _recording_minimize(monkeypatch, **forced_options):
    import scipy.optimize

    statuses = []
    minimize = scipy.optimize.minimize

    def recording(*args, **kwargs):
        kwargs["options"] = {**kwargs["options"], **forced_options}
        res = minimize(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    return statuses


@pytest.mark.parametrize(
    "case, p",
    [(lambda: (CubeNoiseSemigroup(3).evaluate(0.3), first_level_subspace(3)), 1.0),
     (_non_normal_case, P)],
    ids=["first-level", "non-normal"],
)
def test_search_is_scale_free(monkeypatch, case, p):
    # the stop rule compares ratio values, so an exact power-of-two scaling
    # of T scales the extrema and leaves every search converged
    T, X = case()
    statuses = _recording_minimize(monkeypatch)
    base = restricted_isomorphism_check(T, X, p, restarts=4, seed=0)
    scaled = restricted_isomorphism_check(
        OperatorMatrix(T.entries * 2.0**40, T.domain, T.codomain), X, p, restarts=4, seed=0
    )
    np.testing.assert_allclose(scaled, np.multiply(base, 2.0**40), rtol=1e-12)
    assert statuses and set(statuses) == {0}


def test_underflowing_ratio_is_rescaled():
    # at 2^-997 the powers |Tf|^p underflow, so the ratio at the first start
    # reads 0; the entries still set the power of two, which is exact here
    T, X = CubeNoiseSemigroup(3).evaluate(0.3), first_level_subspace(3)
    base = restricted_isomorphism_check(T, X, P)
    tiny = restricted_isomorphism_check(
        OperatorMatrix(T.entries * 2.0**-997, T.domain, T.codomain), X, P
    )
    assert tiny == (base[0] * 2.0**-997, base[1] * 2.0**-997)


def test_unconverged_search_raises(monkeypatch):
    T, X = _non_normal_case()
    _recording_minimize(monkeypatch, maxiter=2)
    with pytest.raises(ConvergenceError, match="restricted-isomorphism search"):
        restricted_isomorphism_check(T, X, P, restarts=1, seed=0)
