import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from semisplit import (
    CubeNoiseSemigroup,
    DiagonalMultiplierSemigroup,
    FiniteProbabilitySpace,
    FunctionVector,
    OperatorMatrix,
    inverse_walsh_transform,
    semigroup_property_check,
    walsh_transform,
)
from semisplit.errors import CostGuardError, DomainError, ShapeError
from semisplit.semigroups import subset_sizes


def test_cube_size_above_cap_raises_cost_guard():
    with pytest.raises(CostGuardError):
        CubeNoiseSemigroup(11)


def test_evaluate_at_zero_is_identity():
    for n in (1, 2, 3):
        S = CubeNoiseSemigroup(n)
        np.testing.assert_allclose(S.evaluate(0.0).entries, np.eye(2**n), atol=1e-14)


def test_evaluate_one_bit_formula():
    S = CubeNoiseSemigroup(1)
    t = 0.8
    e = math.exp(-t)
    expected = np.array([[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]])
    np.testing.assert_allclose(S.evaluate(t).entries, expected, atol=1e-15)


def test_evaluate_imaginary_time_multipliers():
    S = CubeNoiseSemigroup(2)
    M = S.evaluate(1j * math.pi)
    # recover the multiplier on each character: sizes (0,1,1,2) -> (1,-1,-1,1)
    for idx, expect in zip(range(4), (1, -1, -1, 1)):
        char = inverse_walsh_transform(FunctionVector(np.eye(4)[idx], S.space))
        out = M.entries @ char.values
        np.testing.assert_allclose(out, expect * char.values, atol=1e-13)


def test_evaluate_rejects_negative_real_part():
    S = CubeNoiseSemigroup(2)
    with pytest.raises(DomainError):
        S.evaluate(-0.1)


def test_walsh_normalization_and_characters():
    sp = FiniteProbabilitySpace.uniform(4)
    one = FunctionVector(np.ones(4), sp)
    np.testing.assert_allclose(walsh_transform(one).values, [1, 0, 0, 0], atol=1e-15)
    sp1 = FiniteProbabilitySpace.uniform(2)
    x1 = FunctionVector(np.array([1.0, -1.0]), sp1)
    np.testing.assert_allclose(walsh_transform(x1).values, [0, 1], atol=1e-15)


def test_walsh_round_trip_against_direct_sum():
    rng = np.random.default_rng(7)
    n = 3
    d = 2**n
    sp = FiniteProbabilitySpace.uniform(d)
    f = FunctionVector(rng.standard_normal(d) + 1j * rng.standard_normal(d), sp)
    # direct O(4^n) summation oracle
    direct = np.array(
        [sum((-1) ** bin(S & x).count("1") * f.values[x] for x in range(d)) / d
         for S in range(d)]
    )
    np.testing.assert_allclose(walsh_transform(f).values, direct, atol=1e-13)
    back = inverse_walsh_transform(walsh_transform(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_walsh_rejects_non_power_of_two():
    sp = FiniteProbabilitySpace.uniform(3)
    with pytest.raises(ShapeError):
        walsh_transform(FunctionVector(np.ones(3), sp))


def test_semigroup_property_cube():
    S = CubeNoiseSemigroup(3)
    assert semigroup_property_check(S, 0.4, 0.0) <= 1e-13
    assert semigroup_property_check(S, 0.3, 0.2 + 0.1j) <= 1e-12


def _random_diagonal_semigroup(seed, d=6):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spectrum = rng.uniform(0.0, 3.0, d)
    sp = FiniteProbabilitySpace.uniform(d)
    return DiagonalMultiplierSemigroup(OperatorMatrix.on(sp, basis), spectrum)


def test_semigroup_property_diagonal():
    rng = np.random.default_rng(11)
    for seed in range(4):
        S = _random_diagonal_semigroup(seed)
        z1 = complex(rng.uniform(0, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(0, 1), rng.uniform(-1, 1))
        assert semigroup_property_check(S, z1, z2) <= 1e-10


def test_diagonal_semigroup_validation():
    sp = FiniteProbabilitySpace.uniform(3)
    with pytest.raises(DomainError):
        DiagonalMultiplierSemigroup(OperatorMatrix.identity(sp), [-1.0, 0.0, 1.0])
    with pytest.raises(ShapeError):
        DiagonalMultiplierSemigroup(OperatorMatrix.identity(sp), [1.0, 2.0])
    S = _random_diagonal_semigroup(3)
    assert S.condition_number >= 1.0


def test_cube_matrix_is_stochastic_for_real_time():
    S = CubeNoiseSemigroup(3)
    for t in (0.1, 0.7, 2.0):
        M = S.evaluate(t).entries
        assert M.real.min() >= -1e-15
        assert np.abs(M.imag).max() <= 1e-15
        np.testing.assert_allclose(M.sum(axis=1).real, 1.0, atol=1e-13)


def test_evaluate_is_analytic_in_z():
    S = _random_diagonal_semigroup(5)
    z0 = 0.6 + 0.2j
    exact = -(S._basis * (S.spectrum * np.exp(-z0 * S.spectrum))) @ S._basis_inv
    errs = []
    for h in (1e-3, 1e-4):
        fd = (S.evaluate(z0 + h).entries - S.evaluate(z0 - h).entries) / (2 * h)
        errs.append(np.abs(fd - exact).max())
    assert errs[0] <= 1e-4
    ratio = errs[0] / errs[1]
    assert 50 <= ratio <= 200  # central differences are second order


def test_evaluate_is_operator_of_exponential_spectrum():
    # evaluate(z) is operator(exp(-z * spectrum)) to the last bit
    semigroups = [CubeNoiseSemigroup(n) for n in (1, 2, 3, 4)] + [_random_diagonal_semigroup(3)]
    for S in semigroups:
        for z in (0.0, 0.35, 0.2 - 1.3j, 2.0 + 0.5j):
            expected = S.operator(np.exp(-z * S.spectrum)).entries
            assert np.array_equal(S.evaluate(z).entries, expected)


def test_cube_is_the_diagonal_semigroup_on_the_hadamard_basis():
    for n in range(1, 9):
        S = CubeNoiseSemigroup(n)
        assert isinstance(S, DiagonalMultiplierSemigroup)
        assert S.condition_number == 1.0
        general = DiagonalMultiplierSemigroup(
            OperatorMatrix.on(S.space, hadamard(2**n)), subset_sizes(n)
        )
        for z in (0.0, 0.35, 0.2 - 1.3j, 2.0 + 0.5j):
            assert np.array_equal(S.evaluate(z).entries, general.evaluate(z).entries)


def test_cube_builds_without_inverting_its_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cube's basis inverse is known exactly")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    S = CubeNoiseSemigroup(10)
    assert S.space.size == 1024 and S.condition_number == 1.0


def test_cube_is_tensor_power_of_one_bit_factor():
    for n in (1, 2, 3, 4):
        S = CubeNoiseSemigroup(n)
        assert S.power == n
        assert S.factor.n == 1 and S.factor.power == 1
        for z in (0.35, 0.2 - 1.3j):
            one_bit = S.factor.evaluate(z).entries
            kron = one_bit
            for _ in range(n - 1):
                kron = np.kron(kron, one_bit)
            np.testing.assert_allclose(S.evaluate(z).entries, kron, rtol=0, atol=1e-15)
    D = _random_diagonal_semigroup(3)
    assert D.factor is D and D.power == 1
