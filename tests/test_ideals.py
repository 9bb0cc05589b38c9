import numpy as np
import pytest

from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    IdealNorm,
    OperatorMatrix,
    compose,
    generic_split,
    make_gamma2,
    make_schatten_like,
    measure_compatibility,
    opnorm_lower,
    split,
)
from semisplit.cli import GATES
from semisplit.splitter import SplitCertificate
from semisplit.errors import DomainError, ShapeError
from semisplit.ideals import spectral_norm

P = 1.5


def _random_pairs(d, count, seed, complex_entries=False):
    rng = np.random.default_rng(seed)
    sp = FiniteProbabilitySpace.uniform(d)
    out = []
    for _ in range(count):
        def draw():
            m = rng.standard_normal((d, d))
            if complex_entries:
                m = m + 1j * rng.standard_normal((d, d))
            return OperatorMatrix.on(sp, m)
        out.append((draw(), draw()))
    return out


def test_banach_norm_axioms():
    pairs = _random_pairs(6, 30, seed=0, complex_entries=True)
    for ideal in (make_schatten_like("trace-norm"), make_schatten_like("hilbert-schmidt")):
        for A, B in pairs:
            ga, gb = ideal.gamma(A), ideal.gamma(B)
            AB = OperatorMatrix.on(A.domain, A.entries + B.entries)
            assert ideal.gamma(AB) <= ga + gb + 1e-10 * (ga + gb)
            cA = OperatorMatrix.on(A.domain, (-2.5 + 1.5j) * A.entries)
            assert ideal.gamma(cA) == pytest.approx(abs(-2.5 + 1.5j) * ga, rel=1e-10)


def test_gamma_of_zero():
    sp = FiniteProbabilitySpace.uniform(4)
    Z = OperatorMatrix.on(sp, np.zeros((4, 4)))
    for ideal in (
        make_schatten_like("trace-norm"),
        make_schatten_like("hilbert-schmidt"),
        make_gamma2(P),
    ):
        assert ideal.gamma(Z) == 0.0


def test_schatten_values():
    sp = FiniteProbabilitySpace.uniform(8)
    hs = make_schatten_like("hilbert-schmidt")
    assert hs.gamma(OperatorMatrix.identity(sp)) == pytest.approx(8**0.5, rel=1e-12)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    tr = make_schatten_like("trace-norm")
    rank_one = OperatorMatrix.on(sp, np.outer(u, v.conj()))
    assert tr.gamma(rank_one) == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12
    )
    with pytest.raises(DomainError):
        make_schatten_like("frobenius-ish")


def test_schatten_rejects_rectangular():
    sp2, sp3 = FiniteProbabilitySpace.uniform(2), FiniteProbabilitySpace.uniform(3)
    A = OperatorMatrix(np.ones((3, 2)), sp2, sp3)
    with pytest.raises(ShapeError):
        make_schatten_like("trace-norm").gamma(A)


def test_gamma2_at_hypercontractive_threshold():
    S = CubeNoiseSemigroup(3)
    g2 = make_gamma2(P, seed=2)
    s_star = 0.5 * np.log(2.0)
    assert g2.gamma(S.evaluate(s_star)) == pytest.approx(1.0, abs=1e-3)


def test_gamma2_composition_with_semigroup_elements():
    S = CubeNoiseSemigroup(2)
    V_a, V_b = 0.05, 0.2
    g2 = make_gamma2(P, restarts=16, seed=3)
    rng = np.random.default_rng(4)
    s_star = 0.5 * np.log(2.0)
    Ts = S.evaluate(s_star)
    g_Ts = g2.gamma(Ts)
    for _ in range(5):
        tprime = complex(rng.uniform(0, V_a), rng.uniform(-V_b, V_b))
        x = S.evaluate(tprime)
        lhs = g2.gamma(compose(Ts, x))
        rhs = g_Ts * opnorm_lower(x, P, P, restarts=16, seed=3).value
        assert lhs <= rhs * (1 + 1e-3)


def test_composition_inequality_on_random_corpus():
    pairs = _random_pairs(8, 60, seed=5)
    hs = make_schatten_like("hilbert-schmidt")
    tr = make_schatten_like("trace-norm")
    assert measure_compatibility(hs, spectral_norm, pairs) <= 1.0 + 1e-9
    assert measure_compatibility(tr, spectral_norm, pairs) <= 1.0 + 1e-9
    g2 = make_gamma2(P, restarts=12, seed=6)

    def pp_norm(A):
        return opnorm_lower(A, P, P, restarts=12, seed=6).value

    assert measure_compatibility(g2, pp_norm, pairs[:20]) <= 1.0 + 1e-3


def test_generic_split_matches_p_split(default_domain, default_measure, cube3):
    g2 = make_gamma2(P, seed=0)

    def pp_norm(A):
        return opnorm_lower(A, P, P, seed=0).value

    cert_g = generic_split(cube3, default_domain, default_measure, g2, pp_norm, 1e-2)
    cert_p = split(cube3, default_domain, default_measure, P, 1e-2, seed=0, oracle_check=False)
    for field in ("theta", "C0_measured", "C1_measured", "recon_error_pp", "exponent"):
        assert getattr(cert_g, field) == pytest.approx(getattr(cert_p, field), abs=1e-10)
    assert cert_g.norm_T1_p2 == pytest.approx(cert_p.norm_T1_p2, abs=1e-10)
    np.testing.assert_allclose(cert_g.T0.entries, cert_p.T0.entries, atol=1e-14)


def test_generic_split_hilbert_schmidt(default_domain, default_measure, cube3):
    hs = make_schatten_like("hilbert-schmidt")
    cert = generic_split(cube3, default_domain, default_measure, hs, spectral_norm, 1e-2)
    assert cert.bound_T0_ok and cert.bound_T1_ok
    assert cert.recon_error_pp <= GATES["recon_error"]
    cert1 = generic_split(cube3, default_domain, default_measure, hs, spectral_norm, 1.0)
    assert cert1.recon_error_pp <= 1e-7


def test_generic_split_scales_homogeneously(default_domain, default_measure, cube3):
    hs = make_schatten_like("hilbert-schmidt")

    class Scaled:
        def __init__(self, base, c):
            self.base, self.c, self.space = base, c, base.space
            self.spectrum = base.spectrum

        def operator(self, multiplier):
            M = self.base.operator(multiplier)
            return OperatorMatrix.on(self.space, self.c * M.entries)

        def evaluate(self, z):
            M = self.base.evaluate(z)
            return OperatorMatrix.on(self.space, self.c * M.entries)

    c = 0.37 - 1.1j
    cert = generic_split(cube3, default_domain, default_measure, hs, spectral_norm, 1e-2)
    cert_c = generic_split(
        Scaled(cube3, c), default_domain, default_measure, hs, spectral_norm, 1e-2
    )
    assert cert_c.norm_T1_p2 == pytest.approx(abs(c) * cert.norm_T1_p2, rel=1e-12)
    assert cert_c.C1_measured == pytest.approx(abs(c) * cert.C1_measured, rel=1e-12)


def test_generic_split_sequence_matches_per_eps(
    default_domain, default_measure, cube3, assert_same_certificate
):
    hs = make_schatten_like("hilbert-schmidt")
    eps_set = (1.0, 1e-2, 1e-4)
    certs = generic_split(cube3, default_domain, default_measure, hs, spectral_norm, eps_set)
    assert len(certs) == len(eps_set)
    for eps, cert in zip(eps_set, certs):
        one = generic_split(cube3, default_domain, default_measure, hs, spectral_norm, eps)
        assert isinstance(one, SplitCertificate)
        assert_same_certificate(cert, one)


def _counted(norm, calls):
    def counted(A):
        calls.append(A)
        return norm(A)

    return counted


def test_generic_split_evaluates_its_nodes_once_per_ideal(
    default_domain, default_measure, cube3, assert_same_certificate
):
    # gamma and op_norm are norms, so the node values are memoised on
    # (semigroup, hm, gamma, op_norm): per-eps calls make one pass over the
    # nodes, then measure T0, T1 and the residual of each eps
    hs = make_schatten_like("hilbert-schmidt")
    eps_set = (1e-1, 1e-2, 1e-3, 1e-4)
    nodes, k = default_measure.z.size, len(eps_set)
    per_eps, listed = [], []
    ideal = IdealNorm("per-eps", _counted(hs.gamma, per_eps), 1.0)
    op_norm = _counted(spectral_norm, per_eps)
    certs = [generic_split(cube3, default_domain, default_measure, ideal, op_norm, eps)
             for eps in eps_set]
    assert len(per_eps) == nodes + 3 * k
    # another pair of norms is another key, with a pass of its own
    other = IdealNorm("listed", _counted(hs.gamma, listed), 1.0)
    together = generic_split(cube3, default_domain, default_measure, other,
                             _counted(spectral_norm, listed), eps_set)
    assert len(listed) == nodes + 3 * k
    for a, b in zip(certs, together):
        assert_same_certificate(a, b)
