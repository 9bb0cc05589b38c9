import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    HarmonicMeasure,
    IdealNorm,
    OperatorMatrix,
    TriangleDomain,
    certificate_text,
    dimension_sweep,
    generic_split,
    harmonic_measure,
    node_constants,
    opnorm_lower,
    opnorm_lower_many,
    opnorm_oracle,
    split,
    strip_damping,
)
from semisplit.cli import GATES
from semisplit.errors import CostGuardError, DomainError, IllConditionedSplitError
from semisplit.opnorm import _ASCENT_MAX_ITER, _WALSH_MIN_ATOMS
from semisplit.splitter import PADDING

P = 1.5


def test_split_identity_case_eps_one(default_domain, default_measure, cube3):
    cert = split(cube3, default_domain, default_measure, P, 1.0, seed=0)
    assert cert.recon_error_pp <= 1e-7
    assert cert.bound_T0_ok and cert.bound_T1_ok
    # damping is identically one, so the two parts average the semigroup itself
    assert cert.norm_T0_pp <= cert.C0_measured * (1 + PADDING)


def test_split_small_cube_certifies(default_domain, default_measure):
    S = CubeNoiseSemigroup(1)
    cert = split(S, default_domain, default_measure, P, 1e-2, seed=0)
    assert cert.bound_T0_ok and cert.bound_T1_ok
    assert cert.recon_error_pp <= GATES["recon_error"]
    assert cert.exponent == pytest.approx((cert.theta - 1) / cert.theta, rel=1e-14)
    assert cert.exponent < 0


def test_split_reconstruction_scales_with_scalar_error(
    default_domain, default_measure, cube3, level_residuals
):
    # the residual operator is -sum_k r_k P_k (see level_residuals): a level-k
    # Walsh character is sent to -r_k times itself (lower side), and Young's
    # inequality on Z_2^n gives ||P_k||_{p->p} <= C(n, k) (upper side); the
    # floor is the cancellation error of double precision at the damping's
    # magnitude scale
    n = cube3.n
    eps_set = (1.0, 1e-1, 1e-2)
    certs = split(cube3, default_domain, default_measure, P, eps_set, seed=0)
    for eps, cert in zip(eps_set, certs):
        r = level_residuals(eps, n)
        floor = 1e-13 * eps ** cert.exponent
        upper = sum(math.comb(n, k) * r[k] for k in range(n + 1))
        assert r.max() - floor <= cert.recon_error_pp <= upper + floor


def _fsum_level_residuals(hm, eps, n):
    """r_k = sum_i c_i e^(-k z_i) - e^(-k t) for k = 0..n, each level summed exactly."""
    coeff = hm.weights * strip_damping(hm.theta, eps, hm.w_strip)
    r = []
    for k in range(n + 1):
        terms = [*(coeff * np.exp(-k * hm.z)), -math.exp(-k * hm.domain.t)]
        r.append(complex(math.fsum(x.real for x in terms), math.fsum(x.imag for x in terms)))
    return np.array(r)


def test_split_residual_is_the_quadrature_residual_multiplier(
    monkeypatch, default_domain, default_measure, cube3
):
    # T(t) - (1-theta) T0 - theta T1 sends the Walsh character of S to -r_|S|
    import semisplit.splitter

    residuals = []

    def capturing(A, *args, **kwargs):
        residuals.append(A)
        return opnorm_lower(A, *args, **kwargs)

    monkeypatch.setattr(semisplit.splitter, "opnorm_lower", capturing)
    eps_set = (1e-1, 1e-2)
    split(cube3, default_domain, default_measure, P, eps_set, seed=0, oracle_check=False)
    assert len(residuals) == len(eps_set)
    sizes = np.array([bin(i).count("1") for i in range(2**cube3.n)])
    H = hadamard(2**cube3.n)
    for eps, A in zip(eps_set, residuals):
        expected = -_fsum_level_residuals(default_measure, eps, cube3.n)[sizes]
        np.testing.assert_allclose(A.walsh, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.diag(H @ A.entries @ H) / H.shape[0], expected,
                                   rtol=0, atol=1e-14)


def test_split_residual_ascent_takes_the_walsh_path(monkeypatch, default_domain, default_measure):
    import semisplit.opnorm
    import semisplit.splitter

    products = []
    walsh_product = semisplit.opnorm._walsh_product

    def counting_product(mult, F):
        products.append(mult.shape)
        return walsh_product(mult, F)

    lone = []

    def lone_norm(A, *args, **kwargs):
        before = len(products)
        est = opnorm_lower(A, *args, **kwargs)
        lone.append((A, len(products) - before))
        return est

    monkeypatch.setattr(semisplit.opnorm, "_walsh_product", counting_product)
    monkeypatch.setattr(semisplit.splitter, "opnorm_lower", lone_norm)
    split(CubeNoiseSemigroup(7), default_domain, default_measure, P, 1e-2, seed=0)
    # at one eps, T0 and T1 are lone operators too; the residual comes last
    assert len(lone) == 3
    A, walsh_calls = lone[-1]
    assert A.walsh is not None and A.walsh.shape == (2**7,)
    assert walsh_calls > 0


def test_split_evaluates_only_the_one_bit_factor(monkeypatch, default_domain, cold_measure):
    from semisplit import DiagonalMultiplierSemigroup

    sizes = []
    evaluate = DiagonalMultiplierSemigroup.evaluate

    def spy(self, z):
        sizes.append(self.space.size)
        return evaluate(self, z)

    monkeypatch.setattr(DiagonalMultiplierSemigroup, "evaluate", spy)
    monkeypatch.setattr(CubeNoiseSemigroup, "evaluate", spy)
    split(CubeNoiseSemigroup(4), default_domain, cold_measure, P, (1e-1, 1e-2), restarts=4,
          seed=0)
    assert sizes and set(sizes) == {2}


def test_split_bounds_padding_tracks_node_maxima(default_domain, default_measure, cube3):
    cert = split(cube3, default_domain, default_measure, P, 1e-3, seed=0)
    assert cert.norm_T0_pp <= cert.C0_measured * 1e-3 * (1 + PADDING)
    assert cert.norm_T1_p2 <= cert.C1_measured * 1e-3**cert.exponent * (1 + PADDING)


def test_split_rejects_bad_inputs(default_domain, default_measure, cube3):
    with pytest.raises(DomainError):
        split(cube3, default_domain, default_measure, 2.5, 1e-2)
    with pytest.raises(DomainError):
        split(cube3, default_domain, default_measure, P, 0.0)
    with pytest.raises(DomainError):
        split(cube3, default_domain, default_measure, P, 1.5)


def test_split_guards_degenerate_theta():
    # flat triangle with t deep in the apex wedge: theta ~ 1.7e-4, so the
    # damping magnitude for any interesting epsilon leaves double range
    V = TriangleDomain(0.3466, 0.3466, 0.1733, 0.1733)
    hm = harmonic_measure(V, 256)
    S = CubeNoiseSemigroup(1)
    with pytest.raises(IllConditionedSplitError):
        split(S, V, hm, P, 1e-2)


def test_eq1_chain_at_nodes(default_measure):
    # every slanted node past the shift splits as T(z) = T(w) T(a + i w')
    hm = default_measure
    V = hm.domain
    S = CubeNoiseSemigroup(2)
    tested = 0
    for z, on_v1 in zip(hm.z[:: 6].tolist(), hm.is_v1[:: 6]):
        if on_v1:
            continue
        w = z.real - V.a
        if w <= 1e-6:
            continue
        lhs = opnorm_lower(S.evaluate(z), P, P, restarts=8, seed=0).value
        rhs = (
            opnorm_lower(S.evaluate(w), P, P, restarts=8, seed=0).value
            * opnorm_lower(S.evaluate(complex(V.a, z.imag)), P, P, restarts=8, seed=0).value
        )
        assert lhs <= rhs * (1 + 1e-3)
        tested += 1
    assert tested >= 10


def test_eq2_chain_at_nodes(default_measure):
    hm = default_measure
    V = hm.domain
    S = CubeNoiseSemigroup(2)
    s_norm = opnorm_lower(S.evaluate(V.s), P, 2.0, restarts=8, seed=0).value
    for z, on_v1 in zip(hm.z[:: 8].tolist(), hm.is_v1[:: 8]):
        if not on_v1:
            continue
        lhs = opnorm_lower(S.evaluate(z), P, 2.0, restarts=8, seed=0).value
        rhs = s_norm * opnorm_lower(S.evaluate(z - V.s), P, P, restarts=8, seed=0).value
        assert lhs <= rhs * (1 + 1e-3)


def test_damping_power_relation_at_nodes(default_measure):
    # psi at level eps equals psi at level eps' raised to ln(eps)/ln(eps'),
    # through the analytic branch carried by the strip coordinate
    hm = default_measure
    eps, eps2 = 1e-2, 1e-3
    r = math.log(eps) / math.log(eps2)
    psi1 = strip_damping(hm.theta, eps, hm.w_strip)
    log_psi2 = (hm.theta - hm.w_strip) / hm.theta * math.log(eps2)
    np.testing.assert_allclose(psi1, np.exp(r * log_psi2), atol=1e-10)


def _approximation_error(S, domain, cert):
    """||T(t) - theta T1||_{p->p}, measured on the dense difference."""
    diff = S.evaluate(domain.t).entries - cert.theta * cert.T1.entries
    return opnorm_lower(OperatorMatrix.on(S.space, diff), P, P, seed=0).value


def test_approximant_contract(default_domain, default_measure, cube3):
    # the paper's approximant theta T1 of T(t): its p -> p error is (1 - theta)
    # ||T0|| up to the reconstruction residual, so it stays within
    # (1 - theta) C0 eps, and its p -> 2 norm is theta ||T1||
    for eps in (1.0, 1e-3):
        cert = split(cube3, default_domain, default_measure, P, eps, seed=0)
        budget = (1 - cert.theta) * cert.C0_measured * eps * (1 + PADDING)
        assert _approximation_error(cube3, default_domain, cert) <= budget
        assert cert.bound_T1_ok


def test_approximant_error_decreases_with_eps(default_domain, default_measure):
    S = CubeNoiseSemigroup(2)
    certs = split(S, default_domain, default_measure, P, (1e-1, 1e-2, 1e-3), seed=0,
                  oracle_check=False)
    errs = [_approximation_error(S, default_domain, cert) for cert in certs]
    assert errs[0] >= errs[1] >= errs[2] * (1 - 1e-6)


def test_split_on_irregular_geometry():
    # irrational corner exponents exercise the non-integer grading path
    s = -0.5 * math.log(P - 1.0)
    sa = 1.2 * s
    V = TriangleDomain(s, 0.2 * s, 1.3 * sa, 0.85 * sa)
    hm = harmonic_measure(V, 64)
    S = CubeNoiseSemigroup(2)
    for cert in split(S, V, hm, P, (1e-1, 1e-2), seed=0, oracle_check=False):
        assert cert.recon_error_pp <= GATES["recon_error"]
        assert cert.bound_T0_ok and cert.bound_T1_ok


def _diagonal_semigroup():
    from semisplit import DiagonalMultiplierSemigroup, FiniteProbabilitySpace, OperatorMatrix

    rng = np.random.default_rng(3)
    d = 6
    sp = FiniteProbabilitySpace(rng.dirichlet(np.ones(d) * 5))
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spectrum = np.sort(rng.uniform(0.0, 4.0, d))
    spectrum[0] = 0.0
    return DiagonalMultiplierSemigroup(OperatorMatrix.on(sp, basis), spectrum)


def test_split_diagonal_semigroup(default_domain, default_measure):
    S = _diagonal_semigroup()
    for cert in split(S, default_domain, default_measure, P, (1.0, 1e-2), seed=0,
                      oracle_check=True):
        assert cert.recon_error_pp <= GATES["recon_error"]
        assert cert.bound_T0_ok and cert.bound_T1_ok


def test_split_sequence_matches_per_eps_cube(
    default_domain, default_measure, cube3, assert_same_certificate
):
    # a non-default budget, shared by the node, T0/T1 and residual ascents
    eps_set = (1.0, 1e-2, 1e-4)
    kw = dict(restarts=16, seed=0, oracle_check=False)
    certs = split(cube3, default_domain, default_measure, P, eps_set, **kw)
    assert len(certs) == len(eps_set)
    for eps, cert in zip(eps_set, certs):
        assert_same_certificate(cert, split(cube3, default_domain, default_measure, P, eps, **kw))


def test_split_sequence_matches_per_eps_diagonal(
    default_domain, default_measure, assert_same_certificate
):
    # the three splits share one memoised set of node norms
    S = _diagonal_semigroup()
    eps_set = (1.0, 1e-2)
    kw = dict(seed=0, oracle_check=False)
    certs = split(S, default_domain, default_measure, P, eps_set, **kw)
    for eps, cert in zip(eps_set, certs):
        assert_same_certificate(cert, split(S, default_domain, default_measure, P, eps, **kw))


@pytest.fixture
def cold_measure(default_domain):
    """A harmonic measure of its own, so no split has memoised its node norms yet.

    Built directly: :func:`harmonic_measure` hands out the shared, memoised one.
    """
    return HarmonicMeasure(default_domain, 64)


def _count_ascents(monkeypatch):
    import semisplit.splitter

    calls = []

    def counting(A, *args, **kwargs):
        calls.append(A.entries.shape)
        return opnorm_lower(A, *args, **kwargs)

    def counting_many(ops, *args, **kwargs):
        ops = list(ops)
        calls.extend(A.entries.shape for A in ops)
        return opnorm_lower_many(ops, *args, **kwargs)

    monkeypatch.setattr(semisplit.splitter, "opnorm_lower", counting)
    monkeypatch.setattr(semisplit.splitter, "opnorm_lower_many", counting_many)
    return calls


def test_split_sweep_runs_node_norms_once(monkeypatch, default_domain, cold_measure):
    calls = _count_ascents(monkeypatch)
    eps_set = (1e-1, 1e-2, 1e-3, 1e-4)
    S = CubeNoiseSemigroup(1)
    split(S, default_domain, cold_measure, P, eps_set, restarts=4, seed=0)
    # one ascent per node, then T0, T1 and the reconstruction residual per eps
    assert len(calls) == cold_measure.z.size + 3 * len(eps_set)


@pytest.mark.parametrize("restarts", [2.5, -3])
def test_bad_restarts_raise_before_any_ascent(monkeypatch, default_domain, default_measure,
                                              restarts):
    S = CubeNoiseSemigroup(1)
    # a rejected value leaves no node-constant cache entry behind
    calls = _count_ascents(monkeypatch)
    for _ in range(2):
        with pytest.raises(DomainError, match="whole number of restarts"):
            split(S, default_domain, default_measure, P, 1e-2, restarts=restarts)
        with pytest.raises(DomainError, match="whole number of restarts"):
            node_constants(S, default_measure, P, restarts=restarts)
    assert calls == []


def test_split_validates_every_eps_before_any_ascent(
    monkeypatch, default_domain, default_measure, cube3
):
    calls = _count_ascents(monkeypatch)
    for eps_set in ((1e-1, 0.0), (1.5, 1e-2), (1e-2, 1e-3, float("nan"))):
        with pytest.raises(DomainError):
            split(cube3, default_domain, default_measure, P, eps_set)
    assert calls == []


def test_split_node_ascents_run_on_one_bit_factor(
    monkeypatch, default_domain, cold_measure, cube3
):
    calls = _count_ascents(monkeypatch)
    eps_set = (1e-1, 1e-2)
    split(cube3, default_domain, cold_measure, P, eps_set, restarts=4, seed=0,
          oracle_check=False)
    nodes = cold_measure.z.size
    assert calls[:nodes] == [(2, 2)] * nodes
    assert calls[nodes:] == [(8, 8)] * (3 * len(eps_set))


def test_dimension_sweep_measures_node_norms_once(monkeypatch, default_domain, cold_measure):
    calls = _count_ascents(monkeypatch)
    dimension_sweep(default_domain, cold_measure, P, 1e-2, [1, 2, 3], restarts=4, seed=0)
    nodes = cold_measure.z.size
    # the one-bit node norms once, then T0 and T1 per cube size
    assert len(calls) == nodes + 2 * 3
    assert calls[:nodes] == [(2, 2)] * nodes


def test_dimension_sweep_measures_no_reconstruction_residual(
    monkeypatch, default_domain, cold_measure, cube3
):
    import semisplit.splitter

    ascents, builds = [], []

    def one(A, p, q, *args, **kwargs):
        ascents.append((A.entries.shape[0], q))
        return opnorm_lower(A, p, q, *args, **kwargs)

    def many(ops, p, q, *args, **kwargs):
        ops = list(ops)
        ascents.extend((A.entries.shape[0], q) for A in ops)
        return opnorm_lower_many(ops, p, q, *args, **kwargs)

    operator = CubeNoiseSemigroup.operator

    def building(self, multiplier):
        builds.append(self.space.size)
        return operator(self, multiplier)

    hm = cold_measure
    node_constants(CubeNoiseSemigroup(1), hm, P, restarts=8, seed=0)
    monkeypatch.setattr(semisplit.splitter, "opnorm_lower", one)
    monkeypatch.setattr(semisplit.splitter, "opnorm_lower_many", many)
    monkeypatch.setattr(CubeNoiseSemigroup, "operator", building)
    dimension_sweep(default_domain, hm, P, 1e-2, [1, 2, 3], restarts=8, seed=0)
    # per size one p -> p ascent on T0 and one p -> 2 on T1; T0 and T1 are
    # the only operators built, so no residual is formed
    assert ascents == [(d, q) for d in (2, 4, 8) for q in (P, 2.0)]
    assert builds == [2, 2, 4, 4, 8, 8]

    ascents.clear()
    builds.clear()
    eps_set = (1e-1, 1e-2, 1e-3)
    certs = split(cube3, default_domain, hm, P, eps_set, restarts=8, seed=0, oracle_check=False)
    # a plain split still forms and measures one residual per eps
    k = len(eps_set)
    assert ascents == [(8, P)] * k + [(8, 2.0)] * k + [(8, P)] * k
    assert builds == [8] * (3 * k)
    assert all(math.isfinite(cert.recon_error_pp) for cert in certs)
    cert = split(cube3, default_domain, hm, P, 1e-2, restarts=8, seed=0, oracle_check=False,
                 reconstruction=False)
    assert math.isnan(cert.recon_error_pp)


@pytest.mark.parametrize(
    "make", [lambda: CubeNoiseSemigroup(3), _diagonal_semigroup], ids=["cube3", "diagonal"]
)
def test_split_stacks_t0_and_t1_over_its_damping_levels(
    monkeypatch, default_domain, cold_measure, assert_same_certificate, make
):
    import semisplit.splitter

    calls = []

    def one(A, p, q, *args, **kwargs):
        calls.append(("one", q))
        return opnorm_lower(A, p, q, *args, **kwargs)

    def many(ops, p, q, *args, **kwargs):
        ops = list(ops)
        calls.append(("many", q, len(ops)))
        return opnorm_lower_many(ops, p, q, *args, **kwargs)

    monkeypatch.setattr(semisplit.splitter, "opnorm_lower", one)
    monkeypatch.setattr(semisplit.splitter, "opnorm_lower_many", many)
    S = make()
    hm = cold_measure
    eps_set = (1e-1, 1e-2, 1e-3, 1e-4)
    kw = dict(restarts=8, seed=0, oracle_check=False)
    certs = split(S, default_domain, hm, P, eps_set, **kw)
    slanted, vertical = int((~hm.is_v1).sum()), int(hm.is_v1.sum())
    # the node stacks, one stack of the T0s, one of the T1s, one residual per eps
    k = len(eps_set)
    assert calls == [("many", P, slanted), ("many", 2.0, vertical),
                     ("many", P, k), ("many", 2.0, k)] + [("one", P)] * k
    for eps, cert in zip(eps_set, certs):
        assert_same_certificate(cert, split(S, default_domain, hm, P, eps, **kw))


@pytest.mark.parametrize(
    "epsilon, n_range, error",
    [(0.0, [1, 2], DomainError), (1.5, [1, 2], DomainError),
     (1e-2, [0, 2], DomainError), (1e-2, [2, 11], CostGuardError),
     (1e-2, [], DomainError), ([1e-1, 1e-2], [1], DomainError), ((1e-2,), [1], DomainError),
     (1e-2, [2, 2.5], DomainError)],
)
def test_dimension_sweep_fails_before_any_ascent(
    monkeypatch, default_domain, default_measure, epsilon, n_range, error
):
    calls = _count_ascents(monkeypatch)
    with pytest.raises(error):
        dimension_sweep(default_domain, default_measure, P, epsilon, n_range)
    assert calls == []


def test_another_domains_measure_fails_before_any_ascent(
    monkeypatch, default_domain, default_measure, cube3
):
    # the measure of the default triangle at another interior point t
    other = TriangleDomain(default_domain.s, default_domain.a, default_domain.b,
                           0.6 * (default_domain.s + default_domain.a))
    calls = _count_ascents(monkeypatch)
    with pytest.raises(DomainError):
        split(CubeNoiseSemigroup(2), other, default_measure, P, 1e-2)
    with pytest.raises(DomainError):
        dimension_sweep(other, default_measure, P, 1e-2, [1, 2])
    norms = []

    def counted(A):
        norms.append(A)
        return 1.0

    with pytest.raises(DomainError):
        generic_split(cube3, other, default_measure, IdealNorm("counted", counted, 1.0),
                      counted, 1e-2)
    assert calls == [] and norms == []


@pytest.mark.parametrize("epsilon", [[], (), np.array([]), [[0.1]], [[0.1, 1e-2]]],
                         ids=["list", "tuple", "array", "2-d", "2-d-pair"])
def test_empty_or_nested_epsilons_fail_before_any_ascent(
    monkeypatch, default_domain, default_measure, cube3, epsilon
):
    from semisplit.splitter import _node_estimates

    memo = _node_estimates.cache_info()
    calls = _count_ascents(monkeypatch)
    with pytest.raises(DomainError):
        split(cube3, default_domain, default_measure, P, epsilon)
    norms = []

    def counted(A):
        norms.append(A)
        return 1.0

    with pytest.raises(DomainError):
        generic_split(cube3, default_domain, default_measure, IdealNorm("counted", counted, 1.0),
                      counted, epsilon)
    assert calls == [] and norms == []
    assert _node_estimates.cache_info() == memo


@pytest.mark.parametrize(
    "make, eps_set",
    [(lambda: CubeNoiseSemigroup(3), (1e-1, 1e-2, 1e-3, 1e-4)), (_diagonal_semigroup, (1.0, 1e-2))],
    ids=["cube3", "diagonal"],
)
def test_split_with_node_constants_matches_split(
    monkeypatch, default_domain, cold_measure, assert_same_certificate, make, eps_set
):
    # a second split on the same inputs reads the memoised node norms: it runs
    # only its T0 and T1 stacks and one residual per eps
    S = make()
    kw = dict(restarts=8, seed=0, oracle_check=False)
    first = split(S, default_domain, cold_measure, P, eps_set, **kw)
    calls = _count_ascents(monkeypatch)
    second = split(S, default_domain, cold_measure, P, eps_set, **kw)
    assert len(calls) == 3 * len(eps_set)
    for a, b in zip(first, second):
        assert_same_certificate(a, b)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "make", [lambda: CubeNoiseSemigroup(3), _diagonal_semigroup], ids=["cube3", "diagonal"]
)
def test_node_constants_match_per_node_ascents(default_measure, make, seed):
    S = make()
    hm = default_measure
    nodes = node_constants(S, hm, P, seed=seed)
    assert len(nodes) == hm.z.size
    for z, on_v1, est in zip(hm.z, hm.is_v1, nodes):
        one = opnorm_lower(S.factor.evaluate(complex(z)), P, 2.0 if on_v1 else P, seed=seed)
        assert np.float64(est.value).tobytes() == np.float64(one.value).tobytes()
        assert est.witness.values.tobytes() == one.witness.values.tobytes()
        assert est.steps == one.steps
        # every caller shares the memoised estimates
        with pytest.raises(ValueError):
            est.witness.values[0] = 0.0


def test_split_rejects_mismatched_node_constants(monkeypatch, default_domain, cold_measure):
    # the memo is keyed on (factor, hm, p, restarts, seed), hm by identity:
    # a split reuses node norms only when all five match; harmonic_measure
    # shares one measure per (domain, count), so its measures match each other
    hm = cold_measure
    diag = _diagonal_semigroup()
    base = dict(semigroup=CubeNoiseSemigroup(2), hm=hm, p=P, restarts=4, seed=0)
    calls = _count_ascents(monkeypatch)

    def node_ascents(**changed):
        args = {**base, **changed}
        calls.clear()
        split(args["semigroup"], default_domain, args["hm"], args["p"], 1e-2,
              restarts=args["restarts"], seed=args["seed"], oracle_check=False)
        return len(calls) - 3

    nodes = hm.z.size
    assert node_ascents() == nodes
    assert node_ascents() == 0
    # every cube shares the one-bit factor, whatever its power
    assert node_ascents(semigroup=CubeNoiseSemigroup(3)) == 0
    for changed in (dict(hm=HarmonicMeasure(default_domain, 64)), dict(p=1.25),
                    dict(restarts=2), dict(seed=1), dict(semigroup=diag)):
        assert node_ascents(**changed) == nodes, changed
    node_ascents(hm=harmonic_measure(default_domain, 64))
    assert node_ascents(hm=harmonic_measure(default_domain, 64)) == 0
    # a diagonal semigroup is its own factor and matches only itself
    assert node_ascents(semigroup=diag) == 0
    assert node_ascents(semigroup=_diagonal_semigroup()) == nodes



@pytest.mark.parametrize(
    "make", [lambda: CubeNoiseSemigroup(3), _diagonal_semigroup], ids=["cube3", "diagonal"]
)
def test_certificate_names_the_nodes_attaining_c0_and_c1(default_domain, default_measure, make):
    S = make()
    hm = default_measure
    values = [est.value for est in node_constants(S, hm, P, restarts=8, seed=0)]
    cert = split(S, default_domain, hm, P, 1e-2, restarts=8, seed=0, oracle_check=False)
    assert values[cert.C0_node] ** S.power == cert.C0_measured
    assert values[cert.C1_node] ** S.power == cert.C1_measured
    assert not hm.is_v1[cert.C0_node]
    assert hm.is_v1[cert.C1_node]
    # the first node attaining each maximum
    assert all(v ** S.power < cert.C0_measured
               for v, on_v1 in zip(values[:cert.C0_node], hm.is_v1) if not on_v1)
    assert all(v ** S.power < cert.C1_measured
               for v, on_v1 in zip(values[:cert.C1_node], hm.is_v1) if on_v1)


@pytest.mark.parametrize(
    "make", [lambda: CubeNoiseSemigroup(3), _diagonal_semigroup], ids=["cube3", "diagonal"]
)
def test_spectral_assembly_matches_dense_node_sum(default_domain, default_measure, make):
    S = make()
    hm = default_measure
    eps_set = (1.0, 1e-2, 1e-4)
    certs = split(S, default_domain, hm, P, eps_set, restarts=4, seed=0, oracle_check=False)
    nodes = [S.evaluate(complex(z)).entries for z in hm.z]
    for eps, cert in zip(eps_set, certs):
        coeff = hm.weights * strip_damping(hm.theta, eps, hm.w_strip)
        T0 = sum(c / (1 - hm.theta) * M for c, M, v1 in zip(coeff, nodes, hm.is_v1) if not v1)
        T1 = sum(c / hm.theta * M for c, M, v1 in zip(coeff, nodes, hm.is_v1) if v1)
        assert np.abs(cert.T0.entries - T0).max() <= 1e-13
        assert np.abs(cert.T1.entries - T1).max() <= 1e-13


def _complex_2x2():
    part = st.floats(-1.0, 1.0)
    return st.lists(st.tuples(part, part), min_size=4, max_size=4).map(
        lambda xs: np.array([complex(a, b) for a, b in xs]).reshape(2, 2)
    )


@settings(max_examples=15)
@given(A=_complex_2x2(), B=_complex_2x2(), q=st.sampled_from((P, 2.0)))
def test_tensor_product_norm_is_product_of_norms(A, B, q):
    # for p <= q the p -> q norm multiplies over tensor factors (Beckner)
    one, two = FiniteProbabilitySpace.uniform(2), FiniteProbabilitySpace.uniform(4)
    lam = (
        opnorm_lower(OperatorMatrix.on(one, A), P, q, seed=0).value
        * opnorm_lower(OperatorMatrix.on(one, B), P, q, seed=0).value
    )
    AB = OperatorMatrix.on(two, np.kron(A, B))
    assert opnorm_oracle(AB, P, q, seed=0) <= lam * (1 + 1e-3)
    assert opnorm_lower(AB, P, q, seed=0).value >= lam * (1 - 1e-3)


def test_cube_node_norms_are_powers_of_one_bit_norms(default_measure):
    # each node in the norm that split measures it in: p -> p slanted, p -> 2 vertical
    hm = default_measure
    one_bit = CubeNoiseSemigroup(1)
    for z, on_v1 in zip(hm.z[::8], hm.is_v1[::8]):
        q = 2.0 if on_v1 else P
        lam = opnorm_lower(one_bit.evaluate(complex(z)), P, q, seed=0).value
        for n in (2, 3, 4):
            dense = opnorm_lower(CubeNoiseSemigroup(n).evaluate(complex(z)), P, q, seed=0)
            assert lam**n * (1 - 1e-9) <= dense.value <= lam**n * (1 + 1e-12)


def test_split_node_constants_match_dense_node_norms():
    # below the hypercontractive time the vertical node norms exceed 1 and grow
    # with n, so C1 depends on raising the one-bit norm to the n-th power
    V = TriangleDomain.with_defaults(0.7 * -0.5 * math.log(P - 1.0))
    hm = harmonic_measure(V, 32)
    S = CubeNoiseSemigroup(3)
    cert = split(S, V, hm, P, 1e-2, restarts=8, seed=0, oracle_check=False)
    dense = [
        max(opnorm_lower(S.evaluate(complex(z)), P, q, restarts=8, seed=0).value
            for z in hm.z[hm.is_v1 == on_v1])
        for q, on_v1 in ((P, False), (2.0, True))
    ]
    assert cert.C1_measured > 1.01
    assert cert.C0_measured == pytest.approx(dense[0], rel=1e-9)
    assert cert.C1_measured == pytest.approx(dense[1], rel=1e-9)


def test_dimension_sweep_theta_constant(default_domain):
    hm = harmonic_measure(default_domain, 48)
    rows = dimension_sweep(default_domain, hm, P, 1e-2, [1, 2, 3], restarts=12, seed=0)
    thetas = {r.theta for r in rows}
    assert max(thetas) - min(thetas) <= 1e-12
    assert [r.n for r in rows] == [1, 2, 3]


def test_dimension_sweep_rows_are_split_fields(default_domain):
    # n = 7 has _WALSH_MIN_ATOMS = 128 atoms, so its ascents take the Walsh path
    hm = harmonic_measure(default_domain, 32)
    rows = dimension_sweep(default_domain, hm, P, 1e-2, [1, 2, 3, 7], restarts=8, seed=0)
    assert [r.n for r in rows] == [1, 2, 3, 7]
    assert 2**7 == _WALSH_MIN_ATOMS
    for row in rows:
        cert = split(CubeNoiseSemigroup(row.n), default_domain, hm, P, 1e-2,
                     restarts=8, seed=0, oracle_check=False)
        assert row == (row.n, cert.theta, cert.C0_measured, cert.C1_measured,
                       cert.norm_T0_pp, cert.norm_T1_p2)
        assert math.isfinite(cert.recon_error_pp)


def test_dimension_sweep_cost_guard(default_domain, default_measure):
    with pytest.raises(CostGuardError):
        dimension_sweep(default_domain, default_measure, P, 1e-2, [2, 12])


# (C0, C1, norm_T0_pp, norm_T1_p2) of the default dimsweep (eps = 0.1) at
# n = 2..8, and (norm_T0_pp, norm_T1_p2) of the default split at n = 3..6 for
# eps = 1e-1..1e-4, as the plain dual ascent measured them.  They stay as
# floors: a step rule that lowers one of these lower bounds is a regression.
_PLAIN_SWEEP = {
    2: (1.0000000000000004, 1.0000000000000004, 0.04123879794518411, 1.3194971051155342),
    3: (1.0000000000000007, 1.0000000000000007, 0.0427935022795348, 1.320237785433192),
    4: (1.0000000000000009, 1.0000000000000009, 0.042942555254031976, 1.3209701127839688),
    5: (1.000000000000001, 1.000000000000001, 0.043158368717638715, 1.3216941302182603),
    6: (1.0000000000000013, 1.0000000000000013, 0.04334370469149161, 1.322409883848082),
    7: (1.0000000000000016, 1.0000000000000016, 0.043343634198230126, 1.3231174227001035),
    8: (1.0000000000000018, 1.0000000000000018, 0.04335029224510629, 1.3238167985630902),
}
_PLAIN_SPLIT = {
    3: ((0.0427935022795348, 1.320237785433192), (0.001530328352765163, 1.3319493927488164),
        (6.824247590559078e-05, 1.3321345428217632), (4.023701962241595e-06, 1.3321386743280352)),
    4: ((0.042942555254031976, 1.3209701127839688), (0.0017900620593947736, 1.3331854141177388),
        (8.63865972495045e-05, 1.3333924186729074), (5.230236184763415e-06, 1.333397563037512)),
    5: ((0.043158368717638715, 1.3216941302182603), (0.0019833164754465733, 1.3344216114414535),
        (0.00010225584733885632, 1.3346514277805093), (6.341215758982865e-06, 1.3346576352728459)),
    6: ((0.04334370469149161, 1.322409883848082), (0.0021117219292749664, 1.3356579569902558),
        (0.00011561099149678927, 1.3359115691357069), (7.340177094675392e-06, 1.335918892119649)),
}


# Run at one BLAS thread, as the benchmark and the byte-identical outputs
# are: with more threads the n = 8 T0 ascent can stop at another witness.
_DEFAULTS_AT_ONE_THREAD = """
import json, math
import semisplit.splitter
from semisplit import CubeNoiseSemigroup, TriangleDomain, dimension_sweep, harmonic_measure, split

one, many = semisplit.splitter.opnorm_lower, semisplit.splitter.opnorm_lower_many
t0_steps = {}

def spy(ops, p, q, estimates):
    if q == p and ops[0].domain.size > 2:
        t0_steps.setdefault(ops[0].domain.size.bit_length() - 1, estimates[0].steps)
    return estimates

# at one eps the split measures its lone T0 with opnorm_lower, else in a stack
semisplit.splitter.opnorm_lower = lambda A, p, q, *args: spy([A], p, q, [one(A, p, q, *args)])[0]
semisplit.splitter.opnorm_lower_many = lambda ops, p, q, *args: spy(ops, p, q, many(ops, p, q, *args))
domain = TriangleDomain.with_defaults(-0.5 * math.log(0.5))
hm = harmonic_measure(domain, 64)
sweep = [list(row) for row in dimension_sweep(domain, hm, 1.5, 0.1, range(2, 9))]
splits = {n: [[c.C0_measured, c.C1_measured, c.norm_T0_pp, c.norm_T1_p2]
              for c in split(CubeNoiseSemigroup(n), domain, hm, 1.5, [1e-1, 1e-2, 1e-3, 1e-4])]
          for n in range(3, 7)}
print(json.dumps({"sweep": sweep, "t0_steps": t0_steps, "splits": splits}))
"""


@pytest.fixture(scope="module")
def defaults_at_one_thread():
    """The default dimsweep rows, the steps of its T0 ascents by n, and the
    (C0, C1, norm_T0_pp, norm_T1_p2) of the default split at n = 3..6 by eps."""
    import semisplit

    src = str(Path(semisplit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    proc = subprocess.run(
        [sys.executable, "-c", _DEFAULTS_AT_ONE_THREAD], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **threads),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return (out["sweep"], {int(n): k for n, k in out["t0_steps"].items()},
            {int(n): v for n, v in out["splits"].items()})


def test_default_sweep_t0_ascents_stop_before_the_cap(defaults_at_one_thread):
    _, t0_steps, _ = defaults_at_one_thread
    assert t0_steps[7] < _ASCENT_MAX_ITER
    assert t0_steps[8] < _ASCENT_MAX_ITER


def test_default_sweep_values_do_not_fall_below_the_plain_ascent(defaults_at_one_thread):
    rows, _, _ = defaults_at_one_thread
    assert [row[0] for row in rows] == list(_PLAIN_SWEEP)
    for n, _theta, *measured in rows:
        for got, plain in zip(measured, _PLAIN_SWEEP[n]):
            assert got >= plain, (n, got, plain)
    # T0 at n = 7 acts as T0 at n = 6 on the functions of the first 6 bits,
    # so the n = 6 lower bound is one at n = 7 too; the plain ascent stopped short of it
    assert rows[5][4] >= _PLAIN_SWEEP[6][2]


def test_default_split_values_do_not_fall_below_the_plain_ascent(defaults_at_one_thread):
    _, _, splits = defaults_at_one_thread
    for n, certs in splits.items():
        c0, c1 = _PLAIN_SWEEP[n][:2]
        for (got_c0, got_c1, t0, t1), (plain_t0, plain_t1) in zip(certs, _PLAIN_SPLIT[n]):
            assert got_c0 >= c0 and got_c1 >= c1
            assert t0 >= plain_t0 and t1 >= plain_t1, (n, t0, plain_t0, t1, plain_t1)


def test_certificate_text_round_trip(default_domain, default_measure, cube3):
    cert = split(cube3, default_domain, default_measure, P, 1e-2, seed=0)
    text = certificate_text(cert)
    assert "epsilon: 0.01" in text
    assert "bound_T0_ok: true" in text
    assert "elided (8x8 complex)" in text
