import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from semisplit import (
    TriangleDomain,
    brownian_exit_theta,
    disk_to_strip,
    geometry,
    harmonic_measure,
    node_table,
    strip_damping,
    strip_to_disk,
    walker_gap,
)
from semisplit.errors import DomainError
from semisplit.geometry import (
    _QUAD_ORDER,
    _V1_WINDOW_HALF_WIDTH,
    _beta,
    _gauss_vs_strip_density,
    _roots_jacobi,
    _strip_recurrence,
    _TriangleMap,
)
from triangle_reference import (
    InverseTriangleMap,
    _triangle_map,
    boundary_density,
    conformal_from_disk,
    conformal_to_disk,
    strip_coordinate,
    triangle_damping,
)

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


def test_strip_to_disk_at_the_strip_ends():
    # exp(i pi w) overflows below Im w = -226, yet the map tends to 1 there, and
    # to exp(2 i pi theta) as Im w -> +inf, both on the unit circle
    theta = 0.61
    for w, end in ((0.5 - 300j, 1.0), (0.5 + 300j, cmath.exp(2j * math.pi * theta))):
        omega = strip_to_disk(theta, w)
        assert abs(abs(omega) - 1.0) <= 1e-15
        assert abs(omega - end) <= 1e-15
    # a column of the strip, both far ends included, maps in one call and
    # round-trips wherever doubles resolve it
    w = 0.5 + 1j * np.array([-300.0, -227.0, -3.0, 0.0, 3.0, 227.0, 300.0])
    omega = strip_to_disk(theta, w)
    assert np.all(np.abs(omega) <= 1.0 + 1e-15)
    near = np.abs(w.imag) <= 3.0
    np.testing.assert_allclose(disk_to_strip(theta, omega[near]), w[near], atol=1e-11)


@pytest.mark.parametrize("omega", [1.0, np.array([0.5, 1.0]), "far"],
                         ids=["one", "in-an-array", "image-of-w"])
def test_disk_to_strip_rejects_the_image_of_the_lower_end(omega):
    # 1 is the image of Im w -> -inf, so it has no strip coordinate
    theta = 0.61
    if isinstance(omega, str):
        omega = strip_to_disk(theta, 0.5 - 300j)
    with pytest.raises(DomainError):
        disk_to_strip(theta, omega)


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
        got = hm.integrate([fn(z) for z in hm.z])
        assert abs(got - expect) <= 1e-7


def test_measure_theta_and_parts(default_measure):
    hm = default_measure
    assert 0.0 < hm.theta < 1.0
    v1_mass = hm.weights[hm.is_v1].sum()
    assert abs(v1_mass - hm.theta) <= 1e-8
    sa = hm.domain.s + hm.domain.a
    np.testing.assert_array_equal(hm.is_v1, np.abs(hm.z.real - sa) <= 1e-12)
    assert ((0.0 <= hm.tau) & (hm.tau <= 1.0)).all()


def test_measure_requires_enough_nodes(default_domain):
    with pytest.raises(DomainError):
        harmonic_measure(default_domain, 3)


def test_measure_needs_a_whole_number_of_nodes(default_domain):
    with pytest.raises(DomainError):
        harmonic_measure(default_domain, 10.5)


def test_measure_is_memoised_per_domain_and_count(default_domain, default_measure):
    # every caller of one (domain, count) shares one measure, a numpy count included
    assert harmonic_measure(default_domain, 64) is default_measure
    assert harmonic_measure(default_domain, np.int64(64)) is default_measure
    equal = TriangleDomain(default_domain.s, default_domain.a, default_domain.b, default_domain.t)
    assert harmonic_measure(equal, 64) is default_measure
    assert harmonic_measure(default_domain) is default_measure
    other_count = harmonic_measure(default_domain, 32)
    assert other_count is not default_measure and other_count.z.size == 3 * 32
    other_domain = harmonic_measure(TriangleDomain.with_defaults(1.0), 64)
    assert other_domain is not default_measure and other_domain.domain != default_domain
    # the shared arrays are read-only
    with pytest.raises(ValueError):
        default_measure.weights[0] = 0.0
    # an invalid count of a numpy type is still rejected before the memo
    for count in (np.int64(3), np.float64(64.0)):
        with pytest.raises(DomainError):
            harmonic_measure(default_domain, count)


def test_theta_against_brownian_oracle_default(default_domain, default_measure):
    est, _ = brownian_exit_theta(default_domain, walkers=100_000, seed=0)
    assert walker_gap(default_measure.theta, est, 100_000) <= 3


def _flat_instance_walkers(seed):
    """Vertical-edge hits of 1e5 walkers on a flat triangle, and their gap
    from its conformal theta in standard errors."""
    # t sits deep in the apex wedge: theta is tiny but the conformal and
    # stochastic routes still agree; the measure needs extra nodes because
    # the interior point sits conformally on top of the apex
    V = TriangleDomain(0.3466, 0.3466, 0.1733, 0.1733)
    hm = harmonic_measure(V, 256)
    est, _ = brownian_exit_theta(V, walkers=100_000, seed=seed)
    return round(est * 100_000), walker_gap(hm.theta, est, 100_000)


def test_theta_against_brownian_oracle_flat_instance():
    hits, gap = _flat_instance_walkers(0)
    assert hits == 27
    assert gap <= 3


def test_theta_against_brownian_oracle_flat_instance_low_draw():
    # theta * walkers is 16.6, so the hit count is nearly Poisson: seed 17's
    # 7 hits are 3.6 of their own standard errors low, but 2.35 of theta's
    hits, gap = _flat_instance_walkers(17)
    assert hits == 7
    assert gap <= 3


def test_walker_gap_is_measured_in_the_tested_thetas_error():
    # 7 and 27 hits of 1e5 against theta = 1.6577e-4: both gaps are measured
    # in theta's error, whichever side of theta the draw falls
    theta = 1.6577e-4
    se = math.sqrt(theta * (1 - theta) / 100_000)
    assert walker_gap(theta, 7e-5, 100_000) == pytest.approx((theta - 7e-5) / se, rel=1e-15)
    assert walker_gap(theta, 27e-5, 100_000) == pytest.approx((27e-5 - theta) / se, rel=1e-15)
    assert walker_gap(theta, theta, 100_000) == 0.0
    for walkers in (0, 2.5):
        with pytest.raises(DomainError):
            walker_gap(theta, 7e-5, walkers)


@pytest.mark.parametrize("walkers", [0, -5, 2.5])
def test_brownian_exit_theta_needs_a_walker(default_domain, walkers):
    with pytest.raises(DomainError):
        brownian_exit_theta(default_domain, walkers=walkers)


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
    # with the aligned disk angle; each node's half-plane preimage zeta lies
    # on the real axis, so it is the real part of the inverse map at the node
    hm = default_measure
    m = _triangle_map(hm.domain)
    zeta = np.array([m.invert(complex(z))[0].real for z in hm.z])
    order = np.argsort(zeta)
    zeta_sorted = zeta[order]
    # harmonic measure of (-inf, x] from zeta_t, in circle order starting at vp
    mass = 0.5 + np.arctan((zeta_sorted - m.xt) / m.yt) / math.pi
    w_sorted = np.asarray(hm.w_strip)[order]
    omega = strip_to_disk(hm.theta, w_sorted)
    ang = np.mod(np.angle(omega) - 2 * math.pi * hm.theta, 2 * math.pi) / (2 * math.pi)
    np.testing.assert_allclose(ang, mass, atol=1e-6)


def test_strip_coordinate_values(default_domain, default_measure):
    V, hm = default_domain, default_measure
    assert abs(strip_coordinate(hm, V.t).w - hm.theta) <= 1e-12
    sa = V.s + V.a
    for y in (-0.3, 0.0, 0.25):
        w = strip_coordinate(hm, complex(sa, y * V.b)).w
        assert abs(w.real - 1.0) <= 1e-8
    for tau in (0.2, 0.6, 0.9):
        zb = tau * V.vertices[2]  # lower slant edge
        w = strip_coordinate(hm, zb).w
        assert abs(w.real) <= 1e-8


def test_strip_coordinate_is_finite_near_the_corner_s_plus_a_minus_ib(
    default_domain, default_measure
):
    # near that corner zeta = 1 - sigma with sigma ~ r^(1/beta) at distance r,
    # pi beta being the interior angle, so Im w - ln(r) / (pi beta) tends to a
    # constant; 1 - zeta recomputed from zeta rounds once sigma ~ 1e-16
    V = default_domain
    apex, vp, vm = V.vertices
    beta = abs(cmath.phase((apex - vm) / (vp - vm))) / math.pi
    offsets = []
    for r in (1e-4, 1e-5, 1e-6, 1e-8):
        w = strip_coordinate(default_measure, vm + r * (apex - vm) / abs(apex - vm)).w
        assert math.isfinite(w.imag)
        offsets.append(w.imag - math.log(r) / (math.pi * beta))
    assert max(offsets) - min(offsets) < 1e-7


@pytest.mark.parametrize("side", [-1, 1], ids=["s+a-ib", "s+a+ib"])
def test_strip_coordinate_is_finite_on_v1_near_either_corner(
    default_domain, default_measure, side
):
    # the same corner law along the vertical edge: |Im w| grows by
    # ln(r_far / r_near) / (pi beta), with Re w = 1 throughout; r is the exact
    # distance of the rounded point, whose rounding alone moves a nominal
    # decade by 2.4e-10 at r = 1e-8
    V = default_domain
    apex, vp, vm = V.vertices
    beta = abs(cmath.phase((apex - vm) / (vp - vm))) / math.pi
    corner = vp if side > 0 else vm
    zs = [corner - side * 1j * 10.0**-k for k in range(3, 13)]
    ws = [strip_coordinate(default_measure, z).w for z in zs]
    assert all(math.isfinite(w.imag) and w.real == 1.0 for w in ws)
    rs = [abs(z - corner) for z in zs]
    for w_far, w_near, r_far, r_near in zip(ws, ws[1:], rs, rs[1:]):
        law = math.log(r_far / r_near) / (math.pi * beta)
        assert side * (w_near.imag - w_far.imag) == pytest.approx(law, rel=1e-12)


@pytest.mark.parametrize("side", [-1, 1], ids=["s+a-ib", "s+a+ib"])
def test_v1_corners_have_no_strip_coordinate(default_domain, default_measure, side):
    # Im w tends to -inf at s+a-ib and to +inf at s+a+ib
    corner = default_domain.vertices[1 if side > 0 else 2]
    with pytest.raises(DomainError):
        strip_coordinate(default_measure, corner)
    with pytest.raises(DomainError):
        triangle_damping(default_measure, 1e-2, corner)


def test_conformal_map_keeps_its_v1_corner_values(default_domain):
    apex, vp, vm = default_domain.vertices
    at_vm = conformal_to_disk(default_domain, vm)
    assert abs(abs(at_vm) - 1.0) <= 1e-12
    assert conformal_to_disk(default_domain, vp) == at_vm.conjugate()


def test_inverse_map_commutes_with_conjugation(default_domain, default_measure):
    # the triangle, t and the measure are symmetric about the real axis
    V, hm = default_domain, default_measure
    apex, vp, vm = V.vertices
    points = [vm + 1j * 10.0**-k for k in range(1, 13)]
    points += [vp - 1j * 10.0**-k for k in range(1, 13)]
    points += [tau * c for tau in (0.1, 0.5, 0.9, 1 - 1e-6) for c in (vm, vp)]
    points += list(np.random.default_rng(3).dirichlet(np.ones(3), 50) @ np.array(V.vertices))
    for z in map(complex, points):
        w, w_mirror = (strip_coordinate(hm, x).w for x in (z, z.conjugate()))
        assert w_mirror == w.conjugate(), z
        om, om_mirror = (conformal_to_disk(V, x) for x in (z, z.conjugate()))
        assert om_mirror == om.conjugate(), z


def test_v1_points_near_s_plus_a_minus_ib_take_the_corner_chart(
    monkeypatch, default_domain, default_measure
):
    calls = []
    vertical = InverseTriangleMap._invert_vertical

    def spy(self, z):
        calls.append(z)
        return vertical(self, z)

    monkeypatch.setattr(InverseTriangleMap, "_invert_vertical", spy)
    V, vm = default_domain, default_domain.vertices[2]
    for k in range(2, 9):
        strip_coordinate(default_measure, vm + 1j * 10.0**-k)
    assert calls == []
    # the Newton step in the strip ordinate still answers V1 near the real axis
    strip_coordinate(default_measure, complex(vm.real, -1e-3))
    assert len(calls) == 1


def test_strip_coordinate_matches_dirichlet_monte_carlo(default_domain, default_measure):
    V, hm = default_domain, default_measure
    rng = np.random.default_rng(5)
    verts = np.array(V.vertices)
    pts = rng.dirichlet((1.5, 1.5, 1.5), size=20) @ verts
    for z in pts:
        w = strip_coordinate(hm, complex(z)).w
        est, se = brownian_exit_theta(V, walkers=6_000, seed=11, start=complex(z))
        # the 5/N term covers exit probabilities too small to register
        assert abs(w.real - est) <= 3 * se + 5.0 / 6_000


def test_damping_on_domain(default_domain, default_measure):
    V, hm = default_domain, default_measure
    eps = 1e-2
    assert abs(triangle_damping(hm, eps, V.t) - 1.0) <= 1e-10
    psi = strip_damping(hm.theta, eps, hm.w_strip)
    on_v0 = np.abs(psi[~hm.is_v1])
    assert np.abs(on_v0 - eps).max() <= 1e-7
    target = eps ** ((hm.theta - 1) / hm.theta)
    on_v1 = np.abs(psi[hm.is_v1])
    assert np.abs(on_v1 / target - 1).max() <= 1e-6


def _disk_map_density(V, z, edge_id):
    """|phi'| / (2 pi) at the boundary point z, by finite differences of the
    disk map along its edge."""
    start, end = V.edges[edge_id]
    direction = (end - start) / abs(end - start)
    h = 1e-6 * V.scale
    om1 = conformal_to_disk(V, z + h * direction)
    om0 = conformal_to_disk(V, z - h * direction)
    return abs(cmath.phase(om1 / om0)) / (2 * h) / (2 * math.pi)


def test_density_matches_map_derivative(default_measure, default_domain):
    # density of the measure = |phi'| / (2 pi), checked at a few nodes
    hm, V = default_measure, default_domain
    for i in [10, 60, 100, 150]:
        z = complex(hm.z[i])
        assert boundary_density(hm, z) == pytest.approx(
            _disk_map_density(V, z, hm.edge[i]), rel=1e-4
        )


def test_density_off_the_nodes_is_the_inverse_map_value(default_measure, default_domain):
    # the point alone decides the value: 0.9 (s+a-ib) lies between nodes of
    # edge 0, and no node's density is within 6% of its own
    hm, V = default_measure, default_domain
    z = 0.9 * V.vertices[2]
    assert z not in hm.z
    d = boundary_density(hm, z)
    assert d == pytest.approx(0.0048865, rel=1e-4)
    assert d == pytest.approx(_disk_map_density(V, z, 0), rel=1e-4)
    at_nodes = [boundary_density(hm, z) for z in hm.z]
    assert not np.isclose(at_nodes, d, rtol=1e-2, atol=0).any()


def test_density_rejects_points_off_the_boundary(default_measure, default_domain):
    for z in (default_domain.t, 1.0, -1.0):
        with pytest.raises(DomainError):
            boundary_density(default_measure, z)


def test_density_at_non_node_boundary_point(default_measure, default_domain):
    hm, V = default_measure, default_domain
    # a query point between stored nodes on the lower slant edge
    d = boundary_density(hm, 0.37 * V.vertices[2])
    assert d > 0
    # interpolate neighbors as a sanity envelope
    on_edge = np.flatnonzero(hm.edge == 0)
    below = on_edge[hm.tau[on_edge] < 0.37].max()
    above = on_edge[hm.tau[on_edge] > 0.37].min()
    lo, hi = sorted(boundary_density(hm, hm.z[i]) for i in (below, above))
    assert 0.5 * lo <= d <= 2.0 * hi


def test_density_is_symmetric_about_the_real_axis(default_measure, default_domain):
    hm = default_measure
    apex, vp, vm = default_domain.vertices
    for lower in (0.37 * vm, vm + 0.3 * (vp - vm)):
        assert boundary_density(hm, lower.conjugate()) == boundary_density(hm, lower) > 0


def test_node_arrays_are_read_only(default_measure):
    for name in ("z", "weights", "w_strip", "is_v1", "edge", "tau"):
        arr = getattr(default_measure, name)
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_strip_coordinate_rejects_outside_point(default_measure):
    with pytest.raises(DomainError):
        strip_coordinate(default_measure, complex(-0.2, 0.0))


def test_node_table_format(default_measure):
    hm = default_measure
    text = node_table(hm)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + hm.z.size
    # each row is (edge, tau, z, weight, part) read from the node arrays
    for i, line in enumerate(lines[1:]):
        fields = line.split()
        assert len(fields) == 6
        assert int(fields[0]) == hm.edge[i]
        assert float(fields[1]) == hm.tau[i]
        assert complex(float(fields[2]), float(fields[3])) == hm.z[i]
        assert float(fields[4]) == hm.weights[i]
        assert fields[5] == ("V1" if hm.is_v1[i] else "V0")


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


# The Gauss-Jacobi rules and theta against mpmath.  The derivative of
# (1-x)^(a+1) (1+x)^(b+1) x^k integrates to zero on [-1, 1], so the Jacobi moments
# satisfy (a+b+2+k) M_(k+1) = (b-a) M_k + k M_(k-1), from M_0 = 2^(a+b+1) B(a+1, b+1).


def _jacobi_moments(count, a, b):
    """The moments M_0..M_(count-1) of (1-x)^a (1+x)^b on [-1, 1], to 40 digits."""
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        moments = [2 ** (a + b + 1) * mp.beta(a + 1, b + 1)]
        for k in range(count - 1):
            lower = k * moments[k - 1] if k else 0
            moments.append(((b - a) * moments[k] + lower) / (a + b + 2 + k))
        return np.array([float(m) for m in moments])


def _assert_rule_is_exact(n, a, b):
    """The n-point rule integrates x^k for k <= 2n-1 to 16 n eps of the total mass.

    The measured worst case over the tests below is about 7.4 n eps, at (8, 20, 11.5).
    """
    x, w = _roots_jacobi(n, a, b)
    moments = _jacobi_moments(2 * n, a, b)
    got = w @ x[:, None] ** np.arange(2 * n)
    err = np.abs(got - moments).max()
    assert err <= 16 * n * np.finfo(float).eps * moments[0], (n, a, b, err)


def test_jacobi_rule_is_exact_at_the_default_exponents(default_domain):
    m = _TriangleMap(default_domain)
    for expo in (m.alpha - 1.0, m.beta - 1.0):
        _assert_rule_is_exact(_QUAD_ORDER, 0.0, expo)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_jacobi_rule_is_exact_across_exponents(n):
    for b in np.linspace(-0.95, -0.05, 10):
        _assert_rule_is_exact(n, 0.0, float(b))


# a = b, a + b > 31 and the orders whose Jacobi binomials left the product
# branch of scipy's binom were rejected only to stay on the ported branches
@pytest.mark.parametrize(
    "n, a, b",
    [(8, -0.3, -0.7), (8, 0.0, 0.0), (16, 0.5, 0.5), (19, 0.5, -0.5), (20, 0.5, -0.5),
     (20, 19.0, -0.5), (21, 20.0, -0.5), (22, 19.0, -0.5), (64, 18.0, 12.5), (8, 16.0, 15.0),
     (8, 20.0, 11.5)],
    ids=["sum-minus-1", "legendre", "gegenbauer", "a-plus-b-0-order-19", "a-plus-b-0-order-20",
         "a-19-order-20", "a-20-order-21", "a-19-order-22", "sum-30.5", "sum-31", "sum-31.5"],
)
def test_jacobi_rule_is_exact_off_the_map_exponents(n, a, b):
    _assert_rule_is_exact(n, a, b)


@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_jacobi_rule_at_chebyshev_exponents_is_the_closed_form(n):
    # a = b = -1/2 has a + b = -1, where the off-diagonal's k = 1 quotient is 0/0
    x, w = _roots_jacobi(n, -0.5, -0.5)
    j = np.arange(n, 0, -1)
    np.testing.assert_allclose(x, np.cos((2 * j - 1) * math.pi / (2 * n)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, np.full(n, math.pi / n), rtol=16 * n * np.finfo(float).eps)


@pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
def test_jacobi_rule_at_legendre_exponents_matches_leggauss(n):
    from numpy.polynomial.legendre import leggauss

    x, w = _roots_jacobi(n, 0.0, 0.0)
    x_ref, w_ref = leggauss(n)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
    # Golub-Welsch weights are accurate relative to the total mass 2, not each weight
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=16 * n * np.finfo(float).eps * 2.0)


@pytest.mark.parametrize(
    "n, a, b",
    [
        (0, 0.0, -0.5),
        (2.5, 0.0, -0.5),
        (8, 0.0, -1.0),
        (8, -1.5, 0.5),
        (8, 0.0, math.nan),
        (8, math.inf, 0.0),
        (8, 600.0, 500.0),
    ],
    ids=["order-0", "fractional-order", "b-at-minus-1", "a-below-minus-1", "b-nan", "a-inf",
         "sum-over-1000"],
)
def test_jacobi_port_rejects_what_it_does_not_port(n, a, b):
    with pytest.raises(DomainError):
        _roots_jacobi(n, a, b)


def test_beta_matches_mpmath_on_the_map_arguments():
    # the map's B(alpha, beta) = B(1 - 2 beta, beta) and mu0's B(1, b + 1) at a = 0
    slant = np.linspace(0.001, 0.499, 200)
    expo = np.linspace(-0.999, -0.001, 200)
    pairs = [(1.0 - 2.0 * x, x) for x in slant] + [(1.0, y + 1.0) for y in expo]
    with mp.workdps(40):
        errs = [abs(_beta(a, b) / mp.beta(a, b) - 1) for a, b in pairs]
    assert float(max(errs)) <= 4e-15


def _theta_mpmath(domain, zeta0):
    """theta at 40 digits: f(zeta) = C zeta^alpha / alpha 2F1(alpha, 1 - beta; alpha + 1; zeta),
    C = v_- / B(alpha, beta), solved for f(zeta) = t from zeta0."""
    with mp.workdps(40):
        sa, b = mp.mpf(domain.s) + mp.mpf(domain.a), mp.mpf(domain.b)
        beta = mp.atan2(sa, b) / mp.pi
        alpha = 1 - 2 * beta
        c = mp.mpc(sa, -b) / mp.beta(alpha, beta)

        def residual(z):
            return c * z**alpha / alpha * mp.hyp2f1(alpha, 1 - beta, alpha + 1, z) - domain.t

        zeta = mp.findroot(residual, mp.mpc(zeta0))
        return mp.atan2(zeta.imag, 1 - zeta.real) / mp.pi


@pytest.mark.parametrize(
    "domain, expected",
    [
        (TriangleDomain.with_defaults(S_STAR), "0.75280285529044251539"),
        (TriangleDomain(0.3466, 0.3466, 0.1733, 0.1733), "1.6576516193042973793e-4"),
    ],
    ids=["default", "flat"],
)
def test_theta_matches_mpmath(domain, expected):
    m = _TriangleMap(domain)
    ref = _theta_mpmath(domain, m.zeta_t)
    assert abs(ref / mp.mpf(expected) - 1) <= 1e-16
    assert abs(m.theta / ref - 1) <= 1e-15


@pytest.mark.parametrize("n", [8, 64, 96, 128, 184])
def test_strip_rule_matches_eigh_tridiagonal(default_measure, n):
    from scipy.linalg import eigh_tridiagonal

    theta = default_measure.theta
    a, b = _strip_recurrence(theta, _V1_WINDOW_HALF_WIDTH, n)
    vals, vecs = eigh_tridiagonal(a, np.sqrt(b[1:]))
    nodes, weights = _gauss_vs_strip_density(theta, _V1_WINDOW_HALF_WIDTH, n)
    assert np.array_equal(nodes, vals)
    assert np.array_equal(weights, b[0] * vecs[0, :] ** 2)
