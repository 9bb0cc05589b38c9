"""Triangle domain, conformal maps, harmonic measure, and damping functions.

The domain V is the open triangle with vertices 0 and s+a+-ib; its boundary
splits into the vertical segment V1 (Re z = s+a) and the two slanted edges V0.
The harmonic measure at the interior point t is built from the
Schwarz-Christoffel map of the upper half-plane onto the triangle, with
prevertices fixed at 0, 1 and infinity (a triangle has no accessory-parameter
problem).  Only this forward map is evaluated, at the quadrature nodes; its
inverse, the Riemann map onto the disk, lives in tests/triangle_reference.py
as a reference for the tests.

Branch conventions: the parameter domain is the closed upper half-plane; powers
of the integration variable u take the upper limit on the negative real axis
(arg = +pi), while powers of (1 - u) take the lower limit (arg = -pi), because
1 - u lies in the closed lower half-plane whenever u does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .errors import ConvergenceError, DomainError, _check_whole

__all__ = [
    "TriangleDomain",
    "HarmonicMeasure",
    "harmonic_measure",
    "strip_to_disk",
    "disk_to_strip",
    "strip_damping",
    "brownian_exit_theta",
    "node_table",
]

_QUAD_ORDER = 32
# vertical-edge quadrature design: central window half-width in the strip
# ordinate, fraction of the edge budget per corner tail, and tail grading
_V1_WINDOW_HALF_WIDTH = 5.5
_V1_TAIL_FRACTION = 1.0 / 16.0
_V1_TAIL_GRADING = 2


def _arg(b: np.ndarray, upper: bool) -> np.ndarray:
    """Argument of a complex array with a half-plane limit on the negative real axis."""
    ang = np.angle(b)
    on_cut = (b.real < 0) & (np.abs(b.imag) <= 1e-13 * (np.abs(b.real) + np.abs(b.imag)))
    return np.where(on_cut, math.pi if upper else -math.pi, ang)


def _pow_half(base, expo: float, upper: bool):
    """Complex power with a half-plane limit on the negative real axis."""
    b = np.asarray(base, dtype=complex)
    # b = 0 gives expo * log(b) a nan phase; its exp is still 0 when expo > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(expo * (np.log(np.abs(b)) + 1j * _arg(b, upper)))
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class TriangleDomain:
    """The triangle with vertices 0 and s+a+-ib, and an interior point t on the real axis."""

    s: float
    a: float
    b: float
    t: float

    def __post_init__(self):
        for name in ("s", "a", "b", "t"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("s", "a", "b"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if not (0.0 < self.t < self.s + self.a):
            raise DomainError(
                f"t must lie strictly between 0 and s + a = {self.s + self.a}, got {self.t}"
            )

    @classmethod
    def with_defaults(cls, s: float, a=None, b=None, t=None) -> "TriangleDomain":
        """Default geometry a = s/10, b = s + a, t = 0.85 (s + a).

        The vertical edge's share theta of the harmonic measure depends only on
        the triangle's shape, and it decays like (t/(s+a))^(pi / apex angle),
        so a flat triangle with t deep inside the apex wedge starves the
        vertical edge: theta below about 0.2 makes the damping magnitude
        epsilon^((theta-1)/theta) overwhelm double precision (it overflows
        outright below 0.013).  A right-angled apex (b = s+a) with t at 85% of
        the base keeps theta near 0.75, and a = s/10 keeps t = 0.935 s inside
        (0, s), where the operator is genuinely below its mapping threshold.
        """
        a_val = a if a is not None else 0.1 * s
        return cls(
            s,
            a_val,
            b if b is not None else s + a_val,
            t if t is not None else 0.85 * (s + a_val),
        )

    @property
    def vertices(self) -> tuple[complex, complex, complex]:
        sa = self.s + self.a
        return (0j, complex(sa, self.b), complex(sa, -self.b))

    @property
    def scale(self) -> float:
        return math.hypot(self.s + self.a, self.b)

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        """Membership in the closed triangle with absolute slack tol * scale."""
        sa = self.s + self.a
        pad = tol * self.scale
        x, y = complex(z).real, complex(z).imag
        if x < -pad or x > sa + pad:
            return False
        return abs(y) <= (self.b / sa) * x + pad

    @property
    def edges(self) -> tuple[tuple[complex, complex], ...]:
        """(start, end) per edge: 0 apex -> s+a-ib, 1 the vertical edge V1, 2 s+a+ib -> apex."""
        apex, vp, vm = self.vertices
        return ((apex, vm), (vm, vp), (vp, apex))

    def edge_distance(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Distance to the boundary and the index of the nearest edge, per point of a 1-d array."""
        p = np.asarray(z, dtype=complex)
        starts, ends = np.array(self.edges).T
        dirs = ends - starts
        lens2 = np.abs(dirs) ** 2
        rel = p[None, :] - starts[:, None]
        ts = np.clip((rel * np.conj(dirs[:, None])).real / lens2[:, None], 0.0, 1.0)
        foot = starts[:, None] + ts * dirs[:, None]
        d = np.abs(p[None, :] - foot)
        return d.min(axis=0), d.argmin(axis=0)


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mu0: float):
    """Gauss nodes and weights from a Jacobi matrix (Golub and Welsch, Math. Comp. 23, 1969).

    The nodes are the eigenvalues of the symmetric tridiagonal matrix with this
    diagonal and off-diagonal; each weight is the total mass mu0 times the
    squared first component of the node's normalised eigenvector.
    """
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return vals, mu0 * vecs[0, :] ** 2


def _beta(a: float, b: float) -> float:
    """Euler's B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0, from log-Gamma."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _roots_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the weight (1 - x)^a (1 + x)^b on [-1, 1].

    Golub-Welsch on the Jacobi matrix of the orthonormal Jacobi polynomials,
    with the total mass mu0 = 2^(a+b+1) B(a+1, b+1).  The order is a whole
    number at least 1, and both exponents exceed -1 and sum to at most 1000,
    where 2^(a+b+1) and B(a+1, b+1) are still normal floats.
    """
    n = _check_whole(n, "Gauss-Jacobi nodes", 1)
    if not (a > -1.0 and b > -1.0 and a + b <= 1000.0):
        raise DomainError(
            f"Gauss-Jacobi exponents must be > -1 and sum to at most 1000, got {a!r} and {b!r}"
        )
    mu0 = 2.0 ** (a + b + 1) * _beta(a + 1, b + 1)
    # the Jacobi matrix: diagonal entries k = 0..n-1, off-diagonal k = 1..n-1
    k = np.arange(1, n, dtype="d")
    s = 2.0 * k + a + b
    diag = np.concatenate(([(b - a) / (2 + a + b)], (b * b - a * a) / (s * (s + 2))))
    # k (k + a + b) / (s - 1) is 1 at k = 1, where it reads 0/0 when a + b = -1,
    # so the quotient is taken only from k = 2 on
    tail = np.divide(k * (k + a + b), s - 1, out=np.ones_like(k), where=k > 1)
    off = 2.0 / s * np.sqrt((k + a) * (k + b) / (s + 1)) * np.sqrt(tail)
    return _golub_welsch(diag, off, mu0)


class _TriangleMap:
    """Schwarz-Christoffel machinery for one TriangleDomain.

    Prevertex correspondence: 0 -> apex 0, 1 -> s+a-ib, infinity -> s+a+ib, so
    the prevertex ray [1, inf) carries the vertical edge.
    """

    def __init__(self, domain: TriangleDomain):
        self.domain = domain
        sa = domain.s + domain.a
        self.vm = complex(sa, -domain.b)
        self.vp = complex(sa, domain.b)
        self.beta = math.atan2(sa, domain.b) / math.pi
        self.alpha = 1.0 - 2.0 * self.beta
        self.C = self.vm / _beta(self.alpha, self.beta)
        xa, wa = _roots_jacobi(_QUAD_ORDER, 0.0, self.alpha - 1.0)
        xb, wb = _roots_jacobi(_QUAD_ORDER, 0.0, self.beta - 1.0)
        # rules for integral_0^1 tau^(mu-1) g(tau) dtau = sum w_j g(x_j)
        self._gja_x = (1.0 + xa) / 2.0
        self._gja_w = wa * 2.0**-self.alpha
        self._gjb_x = (1.0 + xb) / 2.0
        self._gjb_w = wb * 2.0**-self.beta
        xl, wl = leggauss(_QUAD_ORDER)
        self._gl_x = xl
        self._gl_w = wl
        self.zeta_t = self._locate(domain.t)
        self.xt = self.zeta_t.real
        self.yt = self.zeta_t.imag
        self.theta = math.atan2(self.yt, 1.0 - self.xt) / math.pi

    # ----- forward map ----------------------------------------------------

    def chart_apex(self, zeta):
        """f(zeta) for |zeta| <= ~1, anchored at the origin prevertex."""
        zeta = np.asarray(zeta, dtype=complex)
        core = (
            _pow_half(1.0 - np.multiply.outer(zeta, self._gja_x), self.beta - 1.0, upper=False)
            @ self._gja_w
        )
        out = self.C * _pow_half(zeta, self.alpha, upper=True) * core
        return out if out.shape else complex(out)

    def chart_vm(self, sigma):
        """f(1 - sigma) for |sigma| <= ~1, anchored at the prevertex 1."""
        sigma = np.asarray(sigma, dtype=complex)
        core = (
            _pow_half(1.0 - np.multiply.outer(sigma, self._gjb_x), self.alpha - 1.0, upper=True)
            @ self._gjb_w
        )
        out = self.vm - self.C * _pow_half(sigma, self.beta, upper=False) * core
        return out if out.shape else complex(out)

    def chart_vp(self, rho):
        """f(1/rho) for |rho| <= ~0.6, anchored at the prevertex at infinity."""
        rho = np.asarray(rho, dtype=complex)
        core = (
            _pow_half(np.multiply.outer(rho, self._gjb_x) - 1.0, self.beta - 1.0, upper=False)
            @ self._gjb_w
        )
        out = self.vp - self.C * _pow_half(rho, self.beta, upper=False) * core
        return out if out.shape else complex(out)

    def _integral_generic(self, zeta: complex) -> complex:
        """SC integral from the nearest finite prevertex, panel by panel."""
        anchor = 0.0 if abs(zeta) <= abs(zeta - 1.0) else 1.0
        r = min(abs(zeta - anchor), 0.45)
        direction = (zeta - anchor) / abs(zeta - anchor)
        span = r * direction
        if anchor == 0.0:
            u = np.multiply.outer(span, self._gja_x)
            vals = _pow_half(1.0 - u, self.beta - 1.0, upper=False)
            total = _pow_half(span, self.alpha, upper=True) * (vals @ self._gja_w)
        else:
            u = 1.0 + np.multiply.outer(span, self._gjb_x)
            vals = _pow_half(u, self.alpha - 1.0, upper=True)
            total = span * _pow_half(-span, self.beta - 1.0, upper=False) * (vals @ self._gjb_w)
        x0 = anchor + span
        guard = 0
        while abs(zeta - x0) > 1e-15 * (1.0 + abs(zeta)):
            step = min(abs(zeta - x0), 0.5 * min(abs(x0), abs(x0 - 1.0)))
            x1 = x0 + (zeta - x0) / abs(zeta - x0) * step
            mid, half = (x0 + x1) / 2.0, (x1 - x0) / 2.0
            u = mid + half * self._gl_x
            f = _pow_half(u, self.alpha - 1.0, upper=True) * _pow_half(
                1.0 - u, self.beta - 1.0, upper=False
            )
            total += half * (f @ self._gl_w)
            x0 = x1
            guard += 1
            if guard > 300:
                raise ConvergenceError(f"SC path integration stalled toward zeta = {zeta}")
        base = 0j if anchor == 0.0 else self.vm
        return complex(base + self.C * total)

    def f(self, zeta: complex) -> complex:
        """Half-plane -> triangle map at one point of the closed upper half-plane."""
        zeta = complex(zeta)
        if abs(zeta) >= 6.0:
            return complex(self.chart_vp(1.0 / zeta))
        if abs(zeta) <= 0.5:
            return complex(self.chart_apex(zeta))
        if abs(zeta - 1.0) <= 0.45:
            return complex(self.chart_vm(1.0 - zeta))
        return self._integral_generic(zeta)

    def fprime(self, zeta: complex) -> complex:
        zeta = complex(zeta)
        return complex(
            self.C
            * _pow_half(zeta, self.alpha - 1.0, upper=True)
            * _pow_half(1.0 - zeta, self.beta - 1.0, upper=False)
        )

    # ----- locating t -------------------------------------------------------

    def _newton_plain(self, start: complex, target: complex, max_iter=60):
        x = complex(start)
        tol = 1e-13 * (1.0 + abs(target))
        best, best_err = x, abs(self.f(x) - target)
        for _ in range(max_iter):
            err = self.f(x) - target
            if abs(err) <= tol:
                return x
            fp = self.fprime(x)
            if fp == 0 or not np.isfinite(fp):
                raise ConvergenceError(f"derivative degenerated at {x}")
            step = err / fp
            # trust region: never change the parameter point by more than its scale
            while abs(step) > 0.5 * (1.0 + abs(x)):
                step /= 2
            xn = x - step
            halvings = 0
            while xn.imag < -1e-15 and halvings < 40:
                step /= 2
                xn = x - step
                halvings += 1
            if xn.imag < 0:
                xn = complex(xn.real, 0.0)
            x = xn
            e = abs(self.f(x) - target)
            if e < best_err:
                best, best_err = x, e
        if best_err <= 1e-11 * (1.0 + abs(target)):
            return best
        raise ConvergenceError(f"Newton did not reach {target}; residual {best_err}")

    def _locate(self, t: float) -> complex:
        """Bootstrap the preimage of the interior point t by continuation from f(i)."""
        zeta = 1j
        z0 = self.f(zeta)
        lam, step, guard = 0.0, 0.25, 0
        while lam < 1.0:
            lam_next = min(1.0, lam + step)
            target = z0 + (t - z0) * lam_next
            try:
                zeta_next = self._newton_plain(zeta, target)
            except ConvergenceError:
                step /= 2
                guard += 1
                if guard > 80:
                    raise
                continue
            zeta, lam = zeta_next, lam_next
            step = min(0.5, step * 1.5)
        if zeta.imag <= 0:
            raise ConvergenceError("the preimage of t must be interior to the half-plane")
        return zeta

    # ----- strip coordinate and Poisson kernel -----------------------------

    def strip(self, one_minus) -> np.ndarray:
        """Strip coordinate w(zeta) from 1 - zeta, stable at every distance from the corners.

        The Moebius map to the disk followed by the disk-to-strip equivalence
        collapses to w = Log(S) / (i pi) with S = (yt / sin(pi theta)) / (1 - zeta),
        taking the lower limit of arg(1 - zeta) on its cut.  Callers pass 1 - zeta
        itself because near the prevertex 1 it can be known more exactly than zeta.
        """
        one_minus = np.asarray(one_minus, dtype=complex)
        const = math.log(self.yt / math.sin(math.pi * self.theta))
        log_abs_s = const - np.log(np.abs(one_minus))
        arg_s = -_arg(one_minus, upper=False)
        w = arg_s / math.pi - 1j * log_abs_s / math.pi
        return w if w.shape else complex(w)

    def poisson(self, x):
        """Harmonic-measure density of the half-plane at zeta_t, on the real axis."""
        x = np.asarray(x, dtype=float)
        return self.yt / math.pi / ((x - self.xt) ** 2 + self.yt**2)

    def poisson_far(self, rho, sign: float):
        """Pullback density for zeta = sign/rho: poisson(zeta) |d zeta / d rho|."""
        rho = np.asarray(rho, dtype=float)
        return self.yt / math.pi / ((1.0 - sign * self.xt * rho) ** 2 + (self.yt * rho) ** 2)


@lru_cache(maxsize=64)
def _triangle_map(domain: TriangleDomain) -> _TriangleMap:
    return _TriangleMap(domain)


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < 1.0):
        raise DomainError(f"theta must be in (0, 1), got {theta}")


def strip_to_disk(theta: float, w) -> complex:
    """Conformal equivalence of the unit strip with the unit disk sending theta to 0."""
    _check_theta(theta)
    warr = np.asarray(w, dtype=complex)
    if np.any(warr.real < -1e-9) or np.any(warr.real > 1 + 1e-9):
        raise DomainError("strip coordinate must satisfy 0 <= Re(w) <= 1")
    e = np.exp(1j * math.pi * warr)
    out = (e - np.exp(1j * math.pi * theta)) / (e - np.exp(-1j * math.pi * theta))
    return out if out.shape else complex(out)


def disk_to_strip(theta: float, omega) -> complex:
    """Inverse of :func:`strip_to_disk` on the closed disk."""
    _check_theta(theta)
    om = np.asarray(omega, dtype=complex)
    if np.any(np.abs(om) > 1 + 1e-9):
        raise DomainError("point must lie in the closed unit disk")
    x = (np.exp(1j * math.pi * theta) - om * np.exp(-1j * math.pi * theta)) / (1.0 - om)
    ang = np.angle(x)
    # x lies in the closed upper half-plane; rounding below the negative real
    # axis must not wrap Re(w) from 1 to -1
    ang = np.where(ang < -math.pi / 2, ang + 2 * math.pi, ang)
    w = (np.log(np.abs(x)) + 1j * ang) / (1j * math.pi)
    return w if w.shape else complex(w)


def _check_epsilon(epsilon: float) -> None:
    """Reject a damping level outside (0, 1]."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")


def strip_damping(theta: float, epsilon: float, w) -> complex:
    """Geometric-mean damping on the strip: 1 at theta, modulus epsilon on Re = 0."""
    _check_theta(theta)
    _check_epsilon(epsilon)
    warr = np.asarray(w, dtype=complex)
    out = np.exp((theta - warr) / theta * math.log(epsilon))
    return out if out.shape else complex(out)


def _strip_recurrence(theta: float, y_cut: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of the first n orthonormal polynomials for the weight
    sin(pi theta)/(2(cosh(pi y)+cos(pi theta))) on [-y_cut, y_cut], by discretized
    Stieltjes: the Jacobi matrix's diagonal a, and b with the total mass in b[0]
    and the squared off-diagonal in b[1:]."""
    panels = 48
    order = 24
    xg, wg = leggauss(order)
    edges = np.linspace(-y_cut, y_cut, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    halves = (edges[1:] - edges[:-1]) / 2.0
    x = (mids[:, None] + halves[:, None] * xg[None, :]).ravel()
    w = (halves[:, None] * wg[None, :]).ravel()
    w = w * math.sin(math.pi * theta) / (2.0 * (np.cosh(math.pi * x) + math.cos(math.pi * theta)))

    a = np.zeros(n)
    b = np.zeros(n)  # b[0] holds the total mass
    b[0] = w.sum()
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x) / math.sqrt(b[0])
    for k in range(n):
        a[k] = float(w @ (x * p_cur**2))
        if k == n - 1:
            break
        tilde = (x - a[k]) * p_cur - (math.sqrt(b[k]) if k > 0 else 0.0) * p_prev
        b[k + 1] = float(w @ tilde**2)
        if b[k + 1] <= 0:
            raise ConvergenceError("Stieltjes recurrence lost positivity")
        p_prev, p_cur = p_cur, tilde / math.sqrt(b[k + 1])
    return a, b


def _gauss_vs_strip_density(theta: float, y_cut: float, n: int):
    """Gauss nodes and weights for the strip density on [-y_cut, y_cut] by Golub-Welsch.

    Dense ``np.linalg.eigh`` on the Jacobi matrix gives the same bits as
    ``scipy.linalg.eigh_tridiagonal`` at the sizes this module uses.
    """
    a, b = _strip_recurrence(theta, y_cut, n)
    return _golub_welsch(a, np.sqrt(b[1:]), b[0])


def _grading(angle_frac: float) -> int:
    """Power-substitution exponent absorbing a corner of interior angle pi * angle_frac.

    When 1/angle_frac is an integer k, the exponent k makes the pulled-back
    boundary integrand analytic at the corner while keeping the grading as mild
    as possible (the damping phase oscillates like u^(i c m) near the strip-end
    corners, so over-grading destroys oscillatory resolution).  Otherwise the
    exponent pushes the leading singular power beyond 2.5.
    """
    inv = 1.0 / angle_frac
    k = round(inv)
    if k >= 1 and abs(inv - k) < 1e-9:
        return max(2, int(k))
    return max(2, math.ceil(2.5 / angle_frac))


def _check_nodes_per_edge(nodes_per_edge: int) -> int:
    """The node count as an int; DomainError unless it is a whole number >= 4."""
    return _check_whole(nodes_per_edge, "nodes per edge", 4)


def harmonic_measure(domain: TriangleDomain, nodes_per_edge: int = 64) -> "HarmonicMeasure":
    """Harmonic measure of the triangle at t, as graded boundary quadrature.

    The measure is memoised on (domain, nodes_per_edge) and shared by every
    caller; its arrays are read-only.  Memos matched by the measure's
    identity, such as the node norms of :func:`semisplit.node_constants`,
    therefore hit across calls.
    """
    return _harmonic_measure(domain, _check_nodes_per_edge(nodes_per_edge))


@lru_cache(maxsize=16)
def _harmonic_measure(domain: TriangleDomain, nodes_per_edge: int) -> "HarmonicMeasure":
    return HarmonicMeasure(domain, nodes_per_edge)


class HarmonicMeasure:
    """Boundary nodes and weights reproducing bounded analytic functions at t.

    The quadrature runs in the half-plane coordinate, where the measure density
    is the (smooth) Poisson kernel; each half-edge is graded toward its corner
    with a power substitution so that the pullback of analytic integrands keeps
    spectral accuracy despite the corner exponents of the conformal map.
    Read-only per-node arrays: ``z``, ``weights``, ``w_strip``, ``is_v1``,
    ``edge`` (the edge index of :attr:`TriangleDomain.edges`), ``tau`` (the
    node's parameter in [0, 1] along that edge) and ``density`` (the measure's
    density with respect to arclength at the node).
    """

    def __init__(self, domain: TriangleDomain, nodes_per_edge: int):
        self.domain = domain
        m = _triangle_map(domain)
        self.theta = m.theta
        # grading exponents per corner type
        g_apex = _grading(m.alpha)
        g_base = _grading(m.beta)
        n_lo = nodes_per_edge // 2
        n_hi = nodes_per_edge - n_lo

        rows = []  # (edge_id, z, tau, weight, w_strip, density)

        def gl01(n):
            x, w = leggauss(n)
            return (x + 1.0) / 2.0, w / 2.0

        def finish(edge_id, z_vals, weights, one_minus, abs_zeta, pois_true):
            """Assemble one graded half-edge.

            one_minus carries the exact value of 1 - zeta (the distance to the
            prevertex 1 with its sign), which collapses in floating point when
            recomputed from zeta near that corner.
            """
            if np.any(one_minus == 0) or np.any(abs_zeta == 0):
                raise ConvergenceError(
                    "grading drove a node onto a prevertex; reduce nodes_per_edge "
                    "or use a less extreme triangle"
                )
            start, end = domain.edges[edge_id]
            L2 = abs(end - start) ** 2
            z_vals = np.asarray(z_vals)
            tau = np.clip(((z_vals - start) * np.conj(end - start)).real / L2, 0.0, 1.0)
            snapped = start + tau * (end - start)
            drift = float(np.abs(snapped - z_vals).max())
            if drift > 1e-8 * domain.scale:
                raise ConvergenceError(f"boundary node drifted {drift} off edge {edge_id}")
            log_abs_om = np.log(np.abs(one_minus))
            w_strip = m.strip(one_minus)
            log_fp = (
                math.log(abs(m.C))
                + (m.alpha - 1.0) * np.log(abs_zeta)
                + (m.beta - 1.0) * log_abs_om
            )
            density = np.exp(np.log(pois_true) - log_fp)
            rows.append((edge_id, snapped, tau, weights, w_strip, density))

        # edge 0 toward the apex: zeta = u^g / 2
        u, glw = gl01(n_lo)
        zeta = 0.5 * u**g_apex
        dz = 0.5 * g_apex * u ** (g_apex - 1)
        finish(0, m.chart_apex(zeta), m.poisson(zeta) * dz * glw,
               1.0 - zeta, zeta, m.poisson(zeta))

        # edge 0 toward vm: zeta = 1 - sigma, sigma = u^g / 2
        u, glw = gl01(n_hi)
        sig = 0.5 * u**g_base
        zeta = 1.0 - sig
        dz = 0.5 * g_base * u ** (g_base - 1)
        finish(0, m.chart_vm(sig), m.poisson(zeta) * dz * glw,
               sig, zeta, m.poisson(zeta))

        # Edge 1 carries the damping's oscillation e^(i y ln(eps)/theta) in the
        # strip ordinate y, at uniform frequency.  The pushforward density on
        # the vertical line has the closed form
        # sin(pi theta) / (2 (cosh(pi y) + cos(pi theta))), with poles at
        # |Im y| = 1 - theta; a Gauss rule built against that weight absorbs the
        # poles, leaving the error governed by the width-1 analyticity of the
        # other factors.  Graded tails absorb the strip ends, whose measure
        # decays like e^(-pi |y|).
        q = m.yt / math.sin(math.pi * m.theta)
        y_cut = _V1_WINDOW_HALF_WIDTH
        n_tail = max(1, round(_V1_TAIL_FRACTION * nodes_per_edge))
        n_tail = min(n_tail, (nodes_per_edge - 2) // 2)
        n_mid = nodes_per_edge - 2 * n_tail
        g_tail = _V1_TAIL_GRADING

        # vm tail: sigma = (zeta - 1) below the central window
        u, glw = gl01(n_tail)
        sig0 = q * math.exp(-math.pi * y_cut)
        sig = sig0 * u**g_tail
        zeta = 1.0 + sig
        dz = sig0 * g_tail * u ** (g_tail - 1)
        finish(1, m.chart_vm(-sig), m.poisson(zeta) * dz * glw,
               -sig, zeta, m.poisson(zeta))

        # central window: Gauss nodes with respect to the strip density itself
        y_mid, w_mid = _gauss_vs_strip_density(m.theta, y_cut, n_mid)
        zeta = 1.0 + q * np.exp(math.pi * y_mid)
        z_mid = np.array([m.f(complex(zz)) for zz in zeta])
        finish(1, z_mid, w_mid,
               -q * np.exp(math.pi * y_mid), zeta, m.poisson(zeta))

        # vp tail: rho = 1/zeta above the central window
        u, glw = gl01(n_tail)
        rho0 = 1.0 / (1.0 + q * math.exp(math.pi * y_cut))
        rho = rho0 * u**g_tail
        drho = rho0 * g_tail * u ** (g_tail - 1)
        finish(1, m.chart_vp(rho), m.poisson_far(rho, +1.0) * drho * glw,
               1.0 - 1.0 / rho, 1.0 / rho, m.poisson(1.0 / rho))

        # edge 2 toward vp: zeta = -1/rho, rho = u^g
        u, glw = gl01(n_lo)
        rho = u**g_base
        drho = g_base * u ** (g_base - 1)
        finish(2, m.chart_vp(-rho), m.poisson_far(rho, -1.0) * drho * glw,
               1.0 + 1.0 / rho, 1.0 / rho, m.poisson(-1.0 / rho))

        # edge 2 toward the apex: zeta = -u^g
        u, glw = gl01(n_hi)
        xi = u**g_apex
        zeta = -xi
        dz = g_apex * u ** (g_apex - 1)
        finish(2, m.chart_apex(zeta.astype(complex)), m.poisson(zeta) * dz * glw,
               1.0 + xi, xi, m.poisson(zeta))

        edge = np.concatenate([np.full(r[1].size, r[0]) for r in rows])
        z = np.concatenate([r[1] for r in rows])
        tau = np.concatenate([r[2] for r in rows])
        weights = np.concatenate([r[3] for r in rows])
        w_strip = np.concatenate([np.atleast_1d(r[4]) for r in rows])
        density = np.concatenate([r[5] for r in rows])

        order = np.lexsort((tau, edge))
        self.edge = edge[order].astype(int)
        self.z = z[order]
        self.tau = tau[order]
        self.weights = weights[order]
        self.density = density[order]
        self.is_v1 = self.edge == 1
        w_strip = w_strip[order]

        total = float(self.weights.sum())
        v1_mass = float(self.weights[self.is_v1].sum())
        # sanity net against construction bugs; honest coarse rules converge
        # spectrally (measured about e^(-0.8 n) per edge), so the tolerance
        # tracks the node budget down to a 1e-8 floor
        mass_tol = max(1e-8, math.exp(1.5 - 0.8 * nodes_per_edge))
        if abs(total - 1.0) > mass_tol:
            raise ConvergenceError(f"harmonic measure mass {total} is not 1")
        if abs(v1_mass - self.theta) > mass_tol:
            raise ConvergenceError(
                f"vertical-edge mass {v1_mass} differs from theta = {self.theta}"
            )
        drift = float(np.abs(w_strip.real - np.where(self.is_v1, 1.0, 0.0)).max())
        if drift > 1e-7:
            raise ConvergenceError(f"strip coordinates drifted {drift} off the boundary lines")
        self.w_strip = np.where(self.is_v1, 1.0, 0.0) + 1j * w_strip.imag
        for arr in (self.z, self.weights, self.w_strip, self.is_v1, self.edge, self.tau,
                    self.density):
            arr.flags.writeable = False

    def integrate(self, values) -> complex:
        """Quadrature of per-node values against the measure."""
        return complex(np.sum(np.asarray(values) * self.weights))


def brownian_exit_theta(
    domain: TriangleDomain,
    walkers: int = 100_000,
    seed: int = 0,
    start: complex | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the exit probability through the vertical edge.

    Walk-on-spheres sampling of the Brownian exit law: each walker jumps to a
    uniform point of the largest disk around its position inside the triangle
    until it reaches a thin boundary shell; the nearest edge then decides the
    exit side.  Returns (estimate, standard error).
    """
    walkers = _check_whole(walkers, "walkers", 1)
    rng = default_rng(seed)
    z0 = complex(domain.t if start is None else start)
    if not domain.contains(z0, tol=-1e-12):
        raise DomainError(f"start point {z0} must be interior")
    shell = 1e-7 * domain.scale

    pos = np.full(walkers, z0, dtype=complex)
    alive = np.ones(walkers, dtype=bool)
    hit_v1 = np.zeros(walkers, dtype=bool)

    for _ in range(500):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        dmin, nearest = domain.edge_distance(pos[idx])
        done = dmin < shell
        hit_v1[idx[done]] = nearest[done] == 1
        alive[idx[done]] = False
        moving = idx[~done]
        if moving.size:
            ang = rng.uniform(0.0, 2 * math.pi, moving.size)
            pos[moving] = pos[moving] + dmin[~done] * np.exp(1j * ang)
    if alive.any():
        idx = np.flatnonzero(alive)
        _, nearest = domain.edge_distance(pos[idx])
        hit_v1[idx] = nearest == 1
    est = float(hit_v1.mean())
    stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / walkers)
    return est, stderr


def node_table(hm: HarmonicMeasure) -> str:
    """Plain text export: one node per line (edge id, parameter, Re z, Im z, weight, part)."""
    lines = ["# edge parameter re_z im_z weight part"]
    # tolist() gives the Python ints and floats whose formatting the table fixes
    for edge, tau, x, y, w, on_v1 in zip(
        hm.edge.tolist(), hm.tau.tolist(), hm.z.real.tolist(), hm.z.imag.tolist(),
        hm.weights.tolist(), hm.is_v1.tolist(),
    ):
        lines.append(f"{edge} {tau:.16e} {x:.16e} {y:.16e} {w:.16e} {'V1' if on_v1 else 'V0'}")
    return "\n".join(lines) + "\n"
