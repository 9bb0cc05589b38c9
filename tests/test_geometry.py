import cmath
import math

import numpy as np
import pytest

from semisplit import (
    TriangleDomain,
    brownian_exit_theta,
    conformal_from_disk,
    conformal_to_disk,
    disk_to_strip,
    harmonic_measure,
    node_table,
    strip_coordinate,
    strip_damping,
    strip_to_disk,
    triangle_damping,
)
from semisplit.errors import DomainError

S_STAR = -0.5 * math.log(0.5)


def test_domain_validation():
    with pytest.raises(DomainError):
        TriangleDomain(0.3, 0.3, 0.15, 0.7)  # t beyond s + a
    with pytest.raises(DomainError):
        TriangleDomain(0.3, 0.3, -0.1, 0.1)
    V = TriangleDomain.with_defaults(S_STAR)
    assert 0 < V.t < V.s + V.a
    v0, vp, vm = V.vertices
    assert v0 == 0
    assert vp.conjugate() == vm


def test_strip_to_disk_basics():
    theta = 0.37
    assert strip_to_disk(theta, theta) == pytest.approx(0.0, abs=1e-15)
    for y in (-2.0, -0.3, 0.0, 0.5, 3.0):
        assert abs(strip_to_disk(theta, 1j * y)) == pytest.approx(1.0, abs=1e-12)
        assert abs(strip_to_disk(theta, 1.0 + 1j * y)) == pytest.approx(1.0, abs=1e-12)


def test_strip_disk_round_trip():
    theta = 0.61
    for w in (0.2 + 0.4j, 0.9 - 1.1j, 0.5 + 0j, 0.05 + 2j):
        w2 = disk_to_strip(theta, strip_to_disk(theta, w))
        assert abs(w - w2) <= 1e-12


def test_strip_damping_values():
    theta, eps = 0.4, 1e-2
    assert strip_damping(theta, eps, theta) == pytest.approx(1.0, abs=1e-15)
    for y in (-1.5, 0.0, 2.0):
        assert abs(strip_damping(theta, eps, 1j * y)) == pytest.approx(eps, rel=1e-13)
        assert abs(strip_damping(theta, eps, 1 + 1j * y)) == pytest.approx(
            eps ** ((theta - 1) / theta), rel=1e-13
        )
    with pytest.raises(DomainError):
        strip_damping(theta, 0.0, 0.5)
    with pytest.raises(DomainError):
        strip_damping(theta, 1.5, 0.5)


def test_conformal_map_center_and_boundary(default_domain):
    V = default_domain
    assert abs(conformal_to_disk(V, V.t)) <= 1e-12
    h = 1e-6 * V.scale
    deriv = (conformal_to_disk(V, V.t + h) - conformal_to_disk(V, V.t - h)) / (2 * h)
    assert abs(deriv.imag) <= 1e-6 * abs(deriv)
    assert deriv.real > 0
    verts = V.vertices
    for tau in np.linspace(0.04, 0.96, 9):
        for p0, p1 in [(0, verts[2]), (verts[2], verts[1]), (verts[1], 0)]:
            zb = p0 + tau * (p1 - p0)
            assert abs(abs(conformal_to_disk(V, zb)) - 1) <= 1e-8


def test_conformal_round_trip(default_domain):
    V = default_domain
    rng = np.random.default_rng(42)
    verts = np.array(V.vertices)
    pts = rng.dirichlet((1.0, 1.0, 1.0), size=100) @ verts
    for z in pts:
        om = conformal_to_disk(V, complex(z))
        assert abs(om) <= 1 + 1e-12
        assert abs(conformal_from_disk(V, om) - z) <= 1e-8


def test_conformal_rejects_outside_points(default_domain):
    V = default_domain
    with pytest.raises(DomainError):
        conformal_to_disk(V, complex(-0.1, 0.0))
    with pytest.raises(DomainError):
        conformal_from_disk(V, 1.5 + 0j)


def test_measure_mass_and_mean_value(default_measure, default_domain):
    hm, V = default_measure, default_domain
    assert abs(hm.weights.sum() - 1.0) <= 1e-8
    assert abs(hm.integrate(hm.z) - V.t) <= 1e-7
    for fn, expect in [
        (lambda z: 1.0, 1.0),
        (lambda z: z * z, V.t**2),
        (lambda z: cmath.exp(z / 2), cmath.exp(V.t / 2)),
    ]:
        got = hm.integrate(hm.boundary_values(fn))
        assert abs(got - expect) <= 1e-7


def test_measure_theta_and_parts(default_measure):
    hm = default_measure
    assert 0.0 < hm.theta < 1.0
    v1_mass = hm.weights[hm.is_v1].sum()
    assert abs(v1_mass - hm.theta) <= 1e-8
    sa = hm.domain.s + hm.domain.a
    for bp in hm.nodes:
        assert (bp.part == "V1") == (abs(bp.z.real - sa) <= 1e-12)
        assert 0.0 <= bp.edge_parameter <= 1.0


def test_measure_requires_enough_nodes(default_domain):
    with pytest.raises(DomainError):
        harmonic_measure(default_domain, 3)


def test_theta_against_brownian_oracle_default(default_domain, default_measure):
    est, se = brownian_exit_theta(default_domain, walkers=100_000, seed=0)
    assert abs(est - default_measure.theta) <= 3 * se


def test_theta_against_brownian_oracle_flat_instance():
    # flat triangle with t deep in the apex wedge: theta is tiny but the
    # conformal and stochastic routes still agree; the measure needs extra
    # nodes because the interior point sits conformally on top of the apex
    V = TriangleDomain(0.3466, 0.3466, 0.1733, 0.1733)
    hm = harmonic_measure(V, 256)
    est, se = brownian_exit_theta(V, walkers=100_000, seed=0)
    assert abs(est - hm.theta) <= 3 * se


def test_theta_monotone_in_t():
    s = S_STAR
    thetas = []
    for tfac in (0.2, 0.4, 0.6, 0.8):
        V = TriangleDomain(s, s, 2 * s, tfac * 2 * s)
        thetas.append(harmonic_measure(V, 32).theta)
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_pushforward_arc_positions(default_measure):
    # cumulative measure along the boundary equals the normalized arc length of
    # the disk images: compare the closed-form half-plane mass below each node
    # with the aligned disk angle
    hm = default_measure
    m = hm._map
    order = np.argsort(hm._zeta)
    zeta_sorted = hm._zeta[order]
    # harmonic measure of (-inf, x] from zeta_t, in circle order starting at vp
    mass = 0.5 + np.arctan((zeta_sorted - m.xt) / m.yt) / math.pi
    w_sorted = np.asarray(hm.w_strip)[order]
    omega = strip_to_disk(hm.theta, w_sorted)
    ang = np.mod(np.angle(omega) - 2 * math.pi * hm.theta, 2 * math.pi) / (2 * math.pi)
    np.testing.assert_allclose(ang, mass, atol=1e-6)


def test_strip_coordinate_values(default_domain, default_measure):
    V, hm = default_domain, default_measure
    assert abs(strip_coordinate(V, hm, V.t).w - hm.theta) <= 1e-12
    sa = V.s + V.a
    for y in (-0.3, 0.0, 0.25):
        w = strip_coordinate(V, hm, complex(sa, y * V.b)).w
        assert abs(w.real - 1.0) <= 1e-8
    for tau in (0.2, 0.6, 0.9):
        zb = tau * V.vertices[2]  # lower slant edge
        w = strip_coordinate(V, hm, zb).w
        assert abs(w.real) <= 1e-8


def test_strip_coordinate_matches_dirichlet_monte_carlo(default_domain, default_measure):
    V, hm = default_domain, default_measure
    rng = np.random.default_rng(5)
    verts = np.array(V.vertices)
    pts = rng.dirichlet((1.5, 1.5, 1.5), size=20) @ verts
    for z in pts:
        w = strip_coordinate(V, hm, complex(z)).w
        est, se = brownian_exit_theta(V, walkers=6_000, seed=11, start=complex(z))
        # the 5/N term covers exit probabilities too small to register
        assert abs(w.real - est) <= 3 * se + 5.0 / 6_000


def test_damping_on_domain(default_domain, default_measure):
    V, hm = default_domain, default_measure
    eps = 1e-2
    assert abs(triangle_damping(V, hm, eps, V.t) - 1.0) <= 1e-10
    psi = strip_damping(hm.theta, eps, hm.w_strip)
    on_v0 = np.abs(psi[~hm.is_v1])
    assert np.abs(on_v0 - eps).max() <= 1e-7
    target = eps ** ((hm.theta - 1) / hm.theta)
    on_v1 = np.abs(psi[hm.is_v1])
    assert np.abs(on_v1 / target - 1).max() <= 1e-6


def test_density_matches_map_derivative(default_measure, default_domain):
    # density of the measure = |phi'| / (2 pi), checked by finite differences
    # of the disk map along the boundary at a few nodes
    hm, V = default_measure, default_domain
    idx = [10, 60, 100, 150]
    for i in idx:
        bp = hm.nodes[i]
        d = hm.density(bp)
        edge = {0: (0, V.vertices[2]), 1: (V.vertices[2], V.vertices[1]), 2: (V.vertices[1], 0)}[
            bp.edge_id
        ]
        direction = (edge[1] - edge[0]) / abs(edge[1] - edge[0])
        h = 1e-6 * V.scale
        om1 = conformal_to_disk(V, bp.z + h * direction)
        om0 = conformal_to_disk(V, bp.z - h * direction)
        dphi = abs(cmath.phase(om1 / om0)) / (2 * h)
        assert d == pytest.approx(dphi / (2 * math.pi), rel=1e-4)


def test_density_at_non_node_boundary_point(default_measure, default_domain):
    from semisplit.geometry import BoundaryPoint

    hm, V = default_measure, default_domain
    # a query point between stored nodes on the lower slant edge
    z = 0.37 * V.vertices[2]
    bp = BoundaryPoint(z, "V0", 0.37, 0)
    d = hm.density(bp)
    assert d > 0
    # interpolate neighbors as a sanity envelope
    same_edge = [(n, hm._density[i]) for i, n in enumerate(hm.nodes) if n.edge_id == 0]
    below = max((x for x in same_edge if x[0].edge_parameter < 0.37), key=lambda x: x[0].edge_parameter)
    above = min((x for x in same_edge if x[0].edge_parameter > 0.37), key=lambda x: x[0].edge_parameter)
    lo, hi = sorted((below[1], above[1]))
    assert 0.5 * lo <= d <= 2.0 * hi


def test_strip_coordinate_rejects_outside_point(default_domain, default_measure):
    with pytest.raises(DomainError):
        strip_coordinate(default_domain, default_measure, complex(-0.2, 0.0))


def test_node_table_format(default_measure):
    text = node_table(default_measure)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + len(default_measure.nodes)
    fields = lines[1].split()
    assert len(fields) == 6
    int(fields[0])
    float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])
    assert fields[5] in ("V0", "V1")


def _edge_distances_scalar(domain, z):
    """Distance to each edge by the per-point loop that edge_distance vectorizes."""
    out = []
    for p0, p1 in domain.edges:
        d = p1 - p0
        tt = min(max(((complex(z) - p0) * d.conjugate()).real / abs(d) ** 2, 0.0), 1.0)
        out.append(abs(complex(z) - (p0 + tt * d)))
    return out


@pytest.mark.parametrize(
    "domain",
    [TriangleDomain.with_defaults(S_STAR), TriangleDomain(0.3466, 0.3466, 0.1733, 0.1733)],
    ids=["default", "flat"],
)
def test_edge_distance_matches_per_point_loop(domain):
    apex, vp, vm = domain.vertices
    assert domain.edges == ((apex, vm), (vm, vp), (vp, apex))
    mids = [(s + e) / 2 for s, e in domain.edges]
    # outward normals of the counter-clockwise edges
    outward = [-1j * (e - s) / abs(e - s) for s, e in domain.edges]
    outside = [m + 1e-3 * domain.scale * n for m, n in zip(mids, outward)]
    outside += [v * (1 + 1e-6) for v in (vp, vm)] + [-1e-6 * domain.scale]
    interior = np.random.default_rng(0).dirichlet(np.ones(3), 200) @ np.array(domain.vertices)
    points = np.array([apex, vp, vm, *mids, *interior, *outside])
    dist, edge = domain.edge_distance(points)
    assert dist.shape == edge.shape == points.shape
    tol = 1e-15 * domain.scale
    for z, d, e in zip(points, dist, edge):
        ref = _edge_distances_scalar(domain, z)
        ref_d = min(ref)
        assert abs(d - ref_d) <= tol
        if sorted(ref)[1] - ref_d > tol:
            assert e == ref.index(ref_d)
        else:
            # a vertex lies on two edges; rounding may pick either
            assert ref[e] - ref_d <= tol
