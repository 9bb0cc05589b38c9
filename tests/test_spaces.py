import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    FunctionVector,
    OperatorMatrix,
    apply,
    compose,
    lp_norm,
)
from semisplit.errors import DomainError, InvalidExponentError, ShapeError
from semisplit.spaces import _sylvester


def test_space_validation():
    with pytest.raises(DomainError):
        FiniteProbabilitySpace(np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        FiniteProbabilitySpace(np.array([1.0, 0.0]))
    # NaN fails both the positivity and the sum comparison
    with pytest.raises(DomainError):
        FiniteProbabilitySpace(np.array([math.nan, 0.5]))
    sp = FiniteProbabilitySpace.uniform(4)
    assert sp.size == 4
    np.testing.assert_allclose(sp.weights.sum(), 1.0, rtol=0, atol=1e-15)


def test_uniform_space_needs_a_whole_number_of_atoms():
    for n in (2.5, 4.0, 0, -1):
        with pytest.raises(DomainError):
            FiniteProbabilitySpace.uniform(n)
    assert FiniteProbabilitySpace.uniform(np.int64(3)).size == 3


def test_function_shape_checks():
    sp = FiniteProbabilitySpace.uniform(4)
    with pytest.raises(ShapeError):
        FunctionVector(np.ones(3), sp)
    with pytest.raises(ShapeError):
        OperatorMatrix.on(sp, np.ones((3, 4)))


def test_lp_norm_constant_is_one():
    sp = FiniteProbabilitySpace(np.array([0.2, 0.3, 0.5]))
    one = FunctionVector(np.ones(3), sp)
    for p in (1.0, 1.5, 2.0, 7.0, math.inf):
        assert lp_norm(one, p) == pytest.approx(1.0, abs=1e-15)


def test_lp_norm_indicator_half_weight():
    sp = FiniteProbabilitySpace(np.array([0.5, 0.5]))
    ind = FunctionVector(np.array([1.0, 0.0]), sp)
    assert lp_norm(ind, 2.0) == pytest.approx(0.5**0.5, abs=1e-15)


def test_lp_norm_signs():
    sp = FiniteProbabilitySpace.uniform(2)
    f = FunctionVector(np.array([1.0, -1.0]), sp)
    assert lp_norm(f, 3.0) == pytest.approx(1.0, abs=1e-15)


def test_lp_norm_rejects_small_exponent():
    sp = FiniteProbabilitySpace.uniform(2)
    f = FunctionVector(np.ones(2), sp)
    with pytest.raises(InvalidExponentError):
        lp_norm(f, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    c=st.floats(-5, 5),
    p=st.floats(1.0, 8.0),
)
def test_lp_norm_homogeneous(vals, c, p):
    sp = FiniteProbabilitySpace.uniform(len(vals))
    f = FunctionVector(np.array(vals, dtype=complex), sp)
    cf = FunctionVector(c * f.values, sp)
    assert lp_norm(cf, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    p=st.floats(1.0, 6.0),
    dq=st.floats(0.0, 6.0),
)
def test_lp_norm_monotone_in_exponent(vals, p, dq):
    sp = FiniteProbabilitySpace.uniform(len(vals))
    f = FunctionVector(np.array(vals, dtype=complex), sp)
    assert lp_norm(f, p) <= lp_norm(f, p + dq) * (1 + 1e-12) + 1e-15


def test_apply_identity_and_zero():
    sp = FiniteProbabilitySpace.uniform(4)
    rng = np.random.default_rng(0)
    f = FunctionVector(rng.standard_normal(4) + 1j * rng.standard_normal(4), sp)
    I = OperatorMatrix.identity(sp)
    np.testing.assert_allclose(apply(I, f).values, f.values, atol=1e-15)
    Z = OperatorMatrix.on(sp, np.zeros((4, 4)))
    np.testing.assert_allclose(apply(Z, f).values, 0, atol=0)


def test_apply_cube_noise_on_character():
    S = CubeNoiseSemigroup(1)
    t = 0.37
    f = FunctionVector(np.array([1.0, -1.0]), S.space)
    out = apply(S.evaluate(t), f)
    np.testing.assert_allclose(out.values, [math.exp(-t), -math.exp(-t)], atol=1e-14)


def test_apply_shape_mismatch():
    sp2, sp4 = FiniteProbabilitySpace.uniform(2), FiniteProbabilitySpace.uniform(4)
    A = OperatorMatrix.identity(sp4)
    with pytest.raises(ShapeError):
        apply(A, FunctionVector(np.ones(2), sp2))


def _cube_entry_matrix(n, t):
    # independent oracle: direct double sum over subsets for the noise kernel
    d = 2**n
    M = np.zeros((d, d), dtype=complex)
    for x in range(d):
        for y in range(d):
            M[x, y] = sum(
                math.exp(-t * bin(S).count("1")) * (-1) ** bin(S & (x ^ y)).count("1")
                for S in range(d)
            ) / d
    return M


def test_compose_matches_semigroup_sum():
    S = CubeNoiseSemigroup(2)
    t1, t2 = 0.3, 0.45
    joint = _cube_entry_matrix(2, t1 + t2)
    chained = compose(S.evaluate(t1), S.evaluate(t2))
    np.testing.assert_allclose(chained.entries, joint, atol=1e-12)


def test_compose_identity_and_zero():
    sp = FiniteProbabilitySpace.uniform(3)
    rng = np.random.default_rng(1)
    A = OperatorMatrix.on(sp, rng.standard_normal((3, 3)))
    I = OperatorMatrix.identity(sp)
    np.testing.assert_allclose(compose(A, I).entries, A.entries, atol=0)
    Z = OperatorMatrix.on(sp, np.zeros((3, 3)))
    assert not np.any(compose(A, Z).entries)


def test_compose_associative():
    rng = np.random.default_rng(2)
    sp = FiniteProbabilitySpace.uniform(5)
    mats = [
        OperatorMatrix.on(sp, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        for _ in range(3)
    ]
    left = compose(compose(mats[0], mats[1]), mats[2])
    right = compose(mats[0], compose(mats[1], mats[2]))
    np.testing.assert_allclose(left.entries, right.entries, atol=1e-12)


def test_compose_shape_mismatch():
    A = OperatorMatrix.identity(FiniteProbabilitySpace.uniform(2))
    B = OperatorMatrix.identity(FiniteProbabilitySpace.uniform(3))
    with pytest.raises(ShapeError):
        compose(A, B)


@pytest.mark.parametrize("k", range(11))
def test_sylvester_matrix_matches_scipy_hadamard(k):
    from scipy.linalg import hadamard

    H = _sylvester(2**k)
    assert H.dtype == np.float64
    assert np.array_equal(H, hadamard(2**k, dtype=float))
