"""Acceptance suite: one test per certified criterion, at its stated tolerance.

Each test prints a PASS/FAIL line through the session log (shown in the
terminal summary).  Criteria 3 and the scaling part of criterion 9 check the
epsilon law of the vertical part's norm, which the theorem states as an upper
bound: the fitted slope of log ||T1|| against log eps must not fall below
(theta-1)/theta - 0.05.  On any finite-dimensional instance the identity
theta T1 = T(t) - (1-theta) T0 - R pins ||T1|| near ||T(t)|| / theta as eps
shrinks, so the slope saturates towards 0; both checks also assert that
saturation at every eps, with ||R|| bounded from the harmonic measure's
per-level quadrature residuals rather than from the assembled operators.
"""

import math

import numpy as np

from semisplit import (
    CubeNoiseSemigroup,
    FiniteProbabilitySpace,
    OperatorMatrix,
    TriangleDomain,
    brownian_exit_theta,
    dimension_sweep,
    first_level_subspace,
    build_projection,
    generic_split,
    harmonic_measure,
    hypercontractive_time,
    make_gamma2,
    make_schatten_like,
    measure_compatibility,
    opnorm_lower,
    opnorm_oracle,
    split,
    strip_damping,
    strip_to_disk,
    walker_gap,
)
from semisplit.cli import GATES
from semisplit.ideals import spectral_norm
from semisplit.splitter import PADDING
from semisplit.subspaces import PROJECTION_RESIDUAL_LIMIT
from triangle_reference import triangle_damping

P = 1.5
S_STAR = -0.5 * math.log(P - 1.0)
EPS_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)


def record(log, num, ok, detail):
    log.append(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_reconstruction(acceptance_log, default_domain, default_measure):
    worst = 0.0
    for n in (1, 2, 3, 4):
        S = CubeNoiseSemigroup(n)
        for cert in split(S, default_domain, default_measure, P, (1.0, 1e-2),
                          seed=0, oracle_check=False):
            worst = max(worst, cert.recon_error_pp)
    ok = worst <= GATES["recon_error"]
    assert record(
        acceptance_log, 1, ok,
        f"reconstruction error over n=1..4, eps in (1, 1e-2): worst {worst:.2e} "
        f"(limit {GATES['recon_error']})",
    )


def test_criterion_2_bound_certification(acceptance_log, default_domain, default_measure, cube3):
    certs = split(cube3, default_domain, default_measure, P, EPS_SWEEP, seed=0, oracle_check=False)
    flags = [(cert.bound_T0_ok, cert.bound_T1_ok) for cert in certs]
    ok = all(a and b for a, b in flags)
    assert record(
        acceptance_log, 2, ok,
        f"both certified bounds hold over the epsilon sweep: {flags}",
    )


def _fit_slope(norms):
    """Least-squares slope of log(norm) against log(eps) over EPS_SWEEP."""
    xs = np.log(EPS_SWEEP)
    A = np.stack([xs, np.ones(xs.size)], axis=1)
    return float(np.linalg.lstsq(A, np.log(norms), rcond=None)[0][0])


def _saturation_ratios(certs, Tt, norm, residual_norm, pad):
    """gap / bound of |theta ||T1|| - ||T(t)||| <= ((1-theta) ||T0|| + rho) * pad.

    theta T1 = T(t) - (1-theta) T0 - R, so the triangle inequality pins
    theta ||T1|| to ||T(t)||.  rho = residual_norm(eps) bounds ||R|| from the
    harmonic measure's quadrature alone, never from the assembled T1, so a
    wrongly scaled T1 cannot hide in R.  ``norm`` is the norm T1 is measured in.
    """
    norm_Tt = norm(Tt)
    ratios = []
    for cert in certs:
        theta = cert.theta
        gap = abs(theta * cert.norm_T1_p2 - norm_Tt)
        bound = ((1.0 - theta) * norm(cert.T0) + residual_norm(cert.epsilon)) * pad
        ratios.append(gap / bound)
    return ratios


def test_criterion_3_exponent_law(
    acceptance_log, default_domain, default_measure, cube3, level_residuals
):
    # the theorem bounds ||T1||_{p->2} by C1 eps^((theta-1)/theta) from above
    # only: ||T1|| grows no faster than the law, and stays as close to
    # ||T(t)|| / theta as the reconstruction identity forces
    certs = split(cube3, default_domain, default_measure, P, EPS_SWEEP, seed=0, oracle_check=False)
    slope = _fit_slope([c.norm_T1_p2 for c in certs])
    target = (default_measure.theta - 1.0) / default_measure.theta
    n = cube3.n

    def p2_norm(A):
        return opnorm_lower(A, P, 2.0, seed=0).value

    def residual_p2(eps):
        # R = -sum_k r_k P_k, and Young's inequality on Z_2^n (kernel exponent
        # at most 2) gives ||P_k||_{p->2} <= sqrt(C(n, k))
        r = level_residuals(eps, n)
        return sum(math.sqrt(math.comb(n, k)) * r[k] for k in range(n + 1))

    # ascents give lower bounds, so the right-hand side carries the padding
    ratios = _saturation_ratios(
        certs, cube3.evaluate(default_domain.t), p2_norm, residual_p2, 1.0 + PADDING
    )
    ok = slope >= target - 0.05 and max(ratios) <= 1.0
    assert record(
        acceptance_log, 3, ok,
        f"p->2 slope {slope:.4f} >= (theta-1)/theta - 0.05 = {target - 0.05:.4f} "
        f"(law {target:.4f}); worst gap/bound of |theta||T1|| - ||T(t)||| <= "
        f"(1-theta)||T0|| + ||R|| over the sweep {max(ratios):.3f} (limit 1)",
    )


def test_criterion_4_harmonic_measure(acceptance_log, default_domain, default_measure):
    hm = default_measure
    mass_err = abs(float(hm.weights.sum()) - 1.0)
    mean_err = abs(hm.integrate(hm.z) - default_domain.t)
    flat = TriangleDomain(0.3466, 0.3466, 0.1733, 0.1733)
    flat_hm = harmonic_measure(flat, 256)
    est, _ = brownian_exit_theta(flat, walkers=100_000, seed=0)
    gap = walker_gap(flat_hm.theta, est, 100_000)
    mc_ok = gap <= GATES["theta_vs_walkers_se"]
    # strip sanity: harmonic measure of the Re = 1 line at w equals Re(w);
    # reproduce it through the disk equivalence and a Moebius recentering
    strip_worst = 0.0
    for theta in (0.3, 0.62):
        for w0 in (0.25 + 0.4j, 0.7 - 1.2j, 0.5 + 0j):
            om0 = strip_to_disk(theta, w0)
            ends = np.array([1.0 + 0j, np.exp(2j * math.pi * theta)])
            moved = (ends - om0) / (1.0 - np.conj(om0) * ends)
            measure = float(np.mod(np.angle(moved[1]) - np.angle(moved[0]), 2 * math.pi)) / (
                2 * math.pi
            )
            strip_worst = max(strip_worst, abs(measure - w0.real))
    ok = (mass_err <= GATES["measure_mass"] and mean_err <= GATES["measure_mean_value"]
          and mc_ok and strip_worst <= 1e-8)
    assert record(
        acceptance_log, 4, ok,
        f"mass err {mass_err:.1e} ({GATES['measure_mass']}), "
        f"mean-value err {mean_err:.1e} ({GATES['measure_mean_value']}), "
        f"theta {flat_hm.theta:.3e} vs walkers {est:.3e}, {gap:.2f} standard errors of theta "
        f"({GATES['theta_vs_walkers_se']}), "
        f"strip closed form dev {strip_worst:.1e} (1e-8)",
    )


def test_criterion_5_damping_exactness(acceptance_log, default_domain, default_measure):
    hm = default_measure
    eps = 1e-2
    psi = strip_damping(hm.theta, eps, hm.w_strip)
    v0_err = float(np.abs(np.abs(psi[~hm.is_v1]) - eps).max())
    target = eps ** ((hm.theta - 1) / hm.theta)
    v1_err = float(np.abs(np.abs(psi[hm.is_v1]) / target - 1.0).max())
    at_t = abs(triangle_damping(hm, eps, default_domain.t) - 1.0)
    ok = v0_err <= GATES["damping_v0"] and v1_err <= GATES["damping_v1_rel"] and at_t <= 1e-10
    assert record(
        acceptance_log, 5, ok,
        f"|psi| on V0 err {v0_err:.1e} ({GATES['damping_v0']}), "
        f"on V1 rel {v1_err:.1e} ({GATES['damping_v1_rel']}), "
        f"psi(t)-1 {at_t:.1e} (1e-10)",
    )


def test_criterion_6_hypercontractive_threshold(acceptance_log):
    results = []
    ok = True
    for p in (1.25, 1.5, 1.75):
        for n in (2, 3, 4):
            S = CubeNoiseSemigroup(n)
            try:
                s_star = hypercontractive_time(p, S)
            except Exception:  # noqa: BLE001
                ok = False
                results.append((p, n, "check failed"))
                continue
            at = opnorm_lower(S.evaluate(s_star), p, 2.0, seed=1).value
            below = opnorm_lower(S.evaluate(0.9 * s_star), p, 2.0, seed=1).value
            good = abs(at - 1.0) <= PADDING and below > 1.0 + PADDING
            ok = ok and good
            results.append((p, n, f"{at:.5f}/{below:.5f}"))
    assert record(
        acceptance_log, 6, ok,
        f"threshold norms (at s*, at 0.9 s*) per (p, n): {results}",
    )


def test_criterion_7_estimator_soundness(acceptance_log):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(2, 7))
        sp = FiniteProbabilitySpace.uniform(d)
        A = OperatorMatrix.on(sp, rng.standard_normal((d, d)))
        for p, q in ((1.5, 1.5), (1.5, 2.0), (2.0, 2.0)):
            lo = opnorm_lower(A, p, q, seed=k).value
            orc = opnorm_oracle(A, p, q, seed=1000 + k)
            worst = max(worst, abs(lo - orc) / max(lo, orc))
    ok = worst <= PADDING
    assert record(
        acceptance_log, 7, ok,
        f"ascent vs dense oracle on 100 matrices x 3 exponent pairs: "
        f"worst relative gap {worst:.2e} (limit {PADDING})",
    )


def test_criterion_8_dimension_stability(acceptance_log, default_domain, default_measure):
    eps = 1e-2
    rows = dimension_sweep(default_domain, default_measure, P, eps, range(2, 9),
                           restarts=16, seed=0)
    thetas = [r.theta for r in rows]
    c1 = [r.C1_measured for r in rows]
    t0 = [r.norm_T0_pp / eps for r in rows]
    theta_spread = max(thetas) - min(thetas)
    c1_factor = max(c1) / min(c1)
    t0_factor = max(t0) / min(t0)
    ok = (
        theta_spread <= GATES["theta_spread"]
        and c1_factor <= GATES["C1_factor"]
        and t0_factor <= GATES["norm_T0_over_eps_factor"]
    )
    assert record(
        acceptance_log, 8, ok,
        f"across n=2..8: theta spread {theta_spread:.1e} ({GATES['theta_spread']}), "
        f"C1 factor {c1_factor:.3f} ({GATES['C1_factor']}), "
        f"norm_T0/eps factor {t0_factor:.3f} ({GATES['norm_T0_over_eps_factor']})",
    )


def _hs_sweep(default_domain, default_measure, cube3):
    hs = make_schatten_like("hilbert-schmidt")
    eps_set = (1.0,) + EPS_SWEEP
    certs = generic_split(cube3, default_domain, default_measure, hs, spectral_norm, eps_set)
    return dict(zip(eps_set, certs))


def test_criterion_9_ideal_layer(acceptance_log, default_domain, default_measure, cube3):
    rng = np.random.default_rng(77)
    sp = FiniteProbabilitySpace.uniform(8)
    pairs = []
    for _ in range(200):
        pairs.append(
            (OperatorMatrix.on(sp, rng.standard_normal((8, 8))),
             OperatorMatrix.on(sp, rng.standard_normal((8, 8))))
        )
    hs = make_schatten_like("hilbert-schmidt")
    tr = make_schatten_like("trace-norm")
    g2 = make_gamma2(P, restarts=8, seed=1)

    def pp_norm(A):
        return opnorm_lower(A, P, P, restarts=8, seed=1).value

    ratios = {
        "hilbert-schmidt": measure_compatibility(hs, spectral_norm, pairs),
        "trace-norm": measure_compatibility(tr, spectral_norm, pairs),
        "into-hilbert": measure_compatibility(g2, pp_norm, pairs),
    }
    comp_ok = all(r <= 1.0 + PADDING for r in ratios.values())

    certs = _hs_sweep(default_domain, default_measure, cube3)
    recon_ok = (certs[1.0].recon_error_pp <= 1e-7
                and certs[1e-2].recon_error_pp <= GATES["recon_error"])
    flags_ok = all(certs[e].bound_T0_ok and certs[e].bound_T1_ok for e in EPS_SWEEP)
    ok = comp_ok and recon_ok and flags_ok
    assert record(
        acceptance_log, "9 (composition and bounds)", ok,
        f"compatibility ratios {dict((k, round(v, 6)) for k, v in ratios.items())} "
        f"(limit 1+{PADDING}), generic-split recon eps=1e-2: {certs[1e-2].recon_error_pp:.1e}, "
        f"bound flags over sweep: {flags_ok}",
    )


def test_criterion_9_ideal_scaling_law(
    acceptance_log, default_domain, default_measure, cube3, level_residuals
):
    # same upper law and saturation as criterion 3, in the Hilbert-Schmidt
    # norm, which is computed exactly, so the bound carries no padding
    certs = _hs_sweep(default_domain, default_measure, cube3)
    slope = _fit_slope([certs[e].norm_T1_p2 for e in EPS_SWEEP])
    target = (default_measure.theta - 1.0) / default_measure.theta
    n = cube3.n

    def residual_hs(eps):
        # R = -sum_k r_k P_k with P_k orthogonal projections of rank C(n, k)
        r = level_residuals(eps, n)
        return math.sqrt(sum(math.comb(n, k) * r[k] ** 2 for k in range(n + 1)))

    ratios = _saturation_ratios(
        [certs[e] for e in EPS_SWEEP], cube3.evaluate(default_domain.t),
        make_schatten_like("hilbert-schmidt").gamma, residual_hs, 1.0,
    )
    ok = slope >= target - 0.05 and max(ratios) <= 1.0
    assert record(
        acceptance_log, "9 (scaling law)", ok,
        f"Hilbert-Schmidt slope {slope:.4f} >= (theta-1)/theta - 0.05 = {target - 0.05:.4f} "
        f"(law {target:.4f}); worst gap/bound of |theta g(T1) - g(T(t))| <= "
        f"(1-theta) g(T0) + g(R) over the sweep {max(ratios):.3f} (limit 1)",
    )


def test_criterion_10_projection_demo(acceptance_log):
    norms = []
    worst_idem = 0.0
    worst_fix = 0.0
    for n in range(2, 9):
        S = CubeNoiseSemigroup(n)
        X = first_level_subspace(n)
        Pmat, norm_pp = build_projection(S.evaluate(0.3), X, P, restarts=12, seed=0)
        E = Pmat.entries
        worst_idem = max(worst_idem, float(np.abs(E @ E - E).max()))
        worst_fix = max(worst_fix, float(np.abs(E @ X.matrix - X.matrix).max()))
        norms.append(norm_pp)
    factor = max(norms) / min(norms)
    limit = GATES["projection_norm_factor"]
    ok = (worst_idem <= PROJECTION_RESIDUAL_LIMIT and worst_fix <= PROJECTION_RESIDUAL_LIMIT
          and factor <= limit)
    assert record(
        acceptance_log, 10, ok,
        f"first-level projections n=2..8: idempotence {worst_idem:.1e} "
        f"({PROJECTION_RESIDUAL_LIMIT}), "
        f"fixes X {worst_fix:.1e}, norm factor {factor:.3f} ({limit}); "
        f"norms {np.round(norms, 5).tolist()}",
    )
