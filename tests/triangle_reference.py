"""Inverse Riemann map of the triangle: a reference the geometry tests compare against.

The library evaluates only the forward Schwarz-Christoffel map, at the
harmonic-measure nodes.  This module inverts it at arbitrary points of the
closed triangle, composes the inverse with the Moebius map of the half-plane
onto the disk sending the preimage of t to 0, and from it gives the disk and
strip coordinates, the damping function and the measure density at any
boundary point.  The tests check the forward quadrature against these values.

Inversion runs only for Im z <= 0: the triangle and t are symmetric about the
real axis, so a point above it takes the conjugate of its mirror point's value.
Below the axis the apex and s+a-ib charts are tried first, then a Newton step
in the strip ordinate on the rest of V1, then continuation from t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from semisplit.errors import ConvergenceError, DomainError
from semisplit.geometry import (
    HarmonicMeasure,
    TriangleDomain,
    _TriangleMap,
    _pow_half,
    strip_damping,
)


@dataclass(frozen=True)
class StripCoordinate:
    """A point of the closed unit strip 0 <= Re(w) <= 1."""

    w: complex

    def __post_init__(self):
        if not (-1e-9 <= self.w.real <= 1 + 1e-9):
            raise DomainError(f"strip coordinate has Re(w) = {self.w.real}, outside [0, 1]")


class InverseTriangleMap(_TriangleMap):
    """The Schwarz-Christoffel map of one TriangleDomain with its inverse and disk chart."""

    def __init__(self, domain: TriangleDomain):
        super().__init__(domain)
        # rotation making the disk map derivative at t a positive real
        self.gamma = math.pi / 2 + float(np.angle(self.fprime(self.zeta_t)))

    def _newton_chart(self, chart, dchart, start: complex, target: complex, max_iter=80):
        x = complex(start)
        err = chart(x) - target
        tol = 1e-13 * (1.0 + abs(target))
        for _ in range(max_iter):
            if abs(err) <= tol:
                return x
            step = err / dchart(x)
            for _ in range(40):
                xn = x - step
                err_n = chart(xn) - target
                if abs(err_n) <= abs(err) or abs(step) < 1e-17 * (1 + abs(x)):
                    break
                step /= 2
            x, err = xn, err_n
        if abs(err) <= 1e-10 * (1.0 + abs(target)):
            return x
        raise ConvergenceError(f"Newton stalled: target {target}, residual {abs(err)}")

    def _invert_corner(self, z: complex) -> tuple[complex, complex] | None:
        """(zeta, 1 - zeta) through the apex or s+a-ib chart in its power variable, or None.

        The chart at s+a-ib solves for sigma = 1 - zeta itself, which is kept:
        zeta = 1 - sigma rounds to 1 once sigma falls below 1e-16.
        """
        # apex: z ~ (C/alpha) zeta^alpha, eta = zeta^alpha
        eta0 = self.alpha * z / self.C
        if abs(eta0) <= 0.4**self.alpha:

            def chart(e):
                return complex(self.chart_apex(_pow_half(e, 1.0 / self.alpha, upper=True)))

            def dchart(e):
                zz = _pow_half(e, 1.0 / self.alpha, upper=True)
                return self.C * _pow_half(1.0 - zz, self.beta - 1.0, upper=False) / self.alpha

            eta = self._newton_chart(chart, dchart, eta0, z)
            zeta = complex(_pow_half(eta, 1.0 / self.alpha, upper=True))
            return zeta, 1.0 - zeta
        # vm: z ~ vm - (C/beta) sigma^beta with sigma = 1 - zeta
        eta0 = self.beta * (self.vm - z) / self.C
        if abs(eta0) <= 0.4**self.beta:

            def chart(e):
                return complex(self.chart_vm(_pow_half(e, 1.0 / self.beta, upper=False)))

            def dchart(e):
                sig = _pow_half(e, 1.0 / self.beta, upper=False)
                return -self.C * _pow_half(1.0 - sig, self.alpha - 1.0, upper=True) / self.beta

            eta = self._newton_chart(chart, dchart, eta0, z)
            sigma = complex(_pow_half(eta, 1.0 / self.beta, upper=False))
            return 1.0 - sigma, sigma
        return None

    def _invert_vertical(self, z: complex) -> complex:
        """Inversion for points of the vertical edge, monotone in the strip ordinate."""
        q = self.yt / math.sin(math.pi * self.theta)
        y = 0.0
        for _ in range(80):
            zeta = 1.0 + q * math.exp(math.pi * y)
            if zeta == 1.0:
                # rounded onto the prevertex of s+a-ib, where f gives NaN
                raise ConvergenceError(f"vertical-edge inversion reached the corner at {z}")
            err = self.f(zeta) - z
            if abs(err) <= 1e-14 * (1.0 + abs(z)):
                return zeta
            dzdy = self.fprime(zeta) * q * math.pi * math.exp(math.pi * y)
            step = (err / dzdy).real if dzdy != 0 else math.copysign(0.5, -err.imag)
            step = max(min(step, 1.5), -1.5)
            y -= step
        zeta = 1.0 + q * math.exp(math.pi * y)
        if abs(self.f(zeta) - z) <= 1e-10 * (1.0 + abs(z)):
            return zeta
        raise ConvergenceError(f"vertical-edge inversion stalled at {z}")

    def invert(self, z: complex) -> tuple[complex, complex]:
        """(zeta, 1 - zeta) for the preimage zeta of z in closure(V) with Im z <= 0."""
        z = complex(z)
        try:
            found = self._invert_corner(z)
        except ConvergenceError:
            found = None
        if found is not None:
            return self._clip_uhp(*found, z)
        sa = self.domain.s + self.domain.a
        if abs(z.real - sa) <= 1e-11 * self.domain.scale and abs(z.imag) < self.domain.b:
            # the part of V1 beyond the reach of the s+a-ib chart
            try:
                zeta = self._invert_vertical(z)
                return zeta, 1.0 - zeta
            except ConvergenceError:
                pass
        # continuation along the straight path from t, which stays in the convex domain
        z0 = complex(self.domain.t)
        zeta = self.zeta_t
        lam, step, guard = 0.0, 1.0, 0
        while lam < 1.0:
            lam_next = min(1.0, lam + step)
            target = z0 + (z - z0) * lam_next
            try:
                zeta_next = self._newton_plain(zeta, target)
            except ConvergenceError:
                step /= 2
                guard += 1
                if guard > 80:
                    raise
                continue
            zeta, lam = zeta_next, lam_next
            step = min(1.0, step * 1.7)
        return self._clip_uhp(zeta, 1.0 - zeta, z)

    def _clip_uhp(self, zeta: complex, one_minus: complex, z: complex) -> tuple[complex, complex]:
        if zeta.imag < 0:
            if zeta.imag < -1e-8 * (1.0 + abs(zeta)):
                raise ConvergenceError(f"inversion of {z} left the half-plane: {zeta}")
            zeta = complex(zeta.real, 0.0)
            one_minus = complex(one_minus.real, 0.0)
        return zeta, one_minus

    def mobius(self, zeta) -> complex:
        zeta = np.asarray(zeta, dtype=complex)
        out = np.exp(1j * self.gamma) * (zeta - self.zeta_t) / (zeta - np.conj(self.zeta_t))
        return out if out.shape else complex(out)

    def mobius_inverse(self, omega: complex) -> complex:
        m = complex(omega) * np.exp(-1j * self.gamma)
        if abs(1.0 - m) < 1e-14:
            raise ConvergenceError("disk point corresponds to the prevertex at infinity")
        return (self.zeta_t - np.conj(self.zeta_t) * m) / (1.0 - m)


@lru_cache(maxsize=64)
def _triangle_map(domain: TriangleDomain) -> InverseTriangleMap:
    return InverseTriangleMap(domain)


def conformal_to_disk(domain: TriangleDomain, z: complex) -> complex:
    """Riemann map of the triangle onto the unit disk with phi(t) = 0, phi'(t) > 0.

    The disk coordinate crowds corners: points within ~1e-6 of a vertex
    s+a+-ib map exponentially close to one circle point, beyond double
    resolution.  Interior computations avoid the disk and work in half-plane
    or strip coordinates, which have no such degeneracy.
    """
    if not domain.contains(z, tol=1e-9):
        raise DomainError(f"{z} is not in the closed triangle")
    z = complex(z)
    if z.imag > 0:  # the map commutes with conjugation
        return conformal_to_disk(domain, z.conjugate()).conjugate()
    m = _triangle_map(domain)
    return complex(m.mobius(m.invert(z)[0]))


def conformal_from_disk(domain: TriangleDomain, omega: complex) -> complex:
    """Inverse Riemann map, evaluated through the forward SC integral.

    Subject to the same corner crowding as :func:`conformal_to_disk`: disk
    points within ~1e-14 of the image of the vertex s+a+ib are rejected
    because the preimage is no longer resolvable in double precision.
    """
    if abs(omega) > 1 + 1e-9:
        raise DomainError(f"{omega} is outside the closed unit disk")
    m = _triangle_map(domain)
    return m.f(m.mobius_inverse(omega))


def boundary_density(hm: HarmonicMeasure, z: complex) -> float:
    """Density of the measure with respect to arclength at the boundary point z.

    It is poisson(zeta) / |f'(zeta)| at the preimage zeta of z, at a node as
    anywhere else.
    """
    z = complex(z)
    dist, _ = hm.domain.edge_distance([z])
    if dist[0] > 1e-9 * hm.domain.scale:
        raise DomainError(f"{z} is not a boundary point")
    m = _triangle_map(hm.domain)
    # the density is symmetric about the real axis, like the triangle
    zeta, one_minus = m.invert(z.conjugate() if z.imag > 0 else z)
    x = zeta.real
    if x == 0 or one_minus == 0:
        return 0.0  # each corner angle is below pi, so |f'| is infinite there
    # |f'| = |C| |x|^(alpha-1) |1-x|^(beta-1), with the inverse map's own
    # 1 - zeta, which near the prevertex 1 is more exact than 1 - x
    log_fp = (math.log(abs(m.C)) + (m.alpha - 1.0) * math.log(abs(x))
              + (m.beta - 1.0) * math.log(abs(one_minus)))
    return math.exp(math.log(m.poisson(x)) - log_fp)


def strip_coordinate(hm: HarmonicMeasure, z: complex) -> StripCoordinate:
    """Strip coordinate w(z) on ``hm.domain``: w(t) = theta, Re(w) = 0 on V0 and 1 on V1.

    w commutes with conjugation, and Im w tends to -inf at s+a-ib and to +inf at s+a+ib.
    """
    domain = hm.domain
    if not domain.contains(z, tol=1e-9):
        raise DomainError(f"{z} is not in the closed triangle")
    z = complex(z)
    if z.imag > 0:
        return StripCoordinate(strip_coordinate(hm, z.conjugate()).w.conjugate())
    if abs(z - domain.t) < 1e-15 * domain.scale:
        return StripCoordinate(complex(hm.theta))
    m = _triangle_map(domain)
    _, one_minus = m.invert(z)
    if one_minus == 0:
        raise DomainError("the corners s+a+-ib of V1 have no strip coordinate (Im w is infinite)")
    w = complex(m.strip(one_minus))
    dist, edge = domain.edge_distance([z])
    if dist[0] < 1e-9 * domain.scale:
        w = complex(1.0 if edge[0] == 1 else 0.0, w.imag)
    return StripCoordinate(w)


def triangle_damping(hm: HarmonicMeasure, epsilon: float, z: complex) -> complex:
    """The damping function on ``hm.domain``: 1 at t, modulus epsilon on V0."""
    w = strip_coordinate(hm, z).w
    return complex(strip_damping(hm.theta, epsilon, w))
