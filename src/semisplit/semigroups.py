"""Analytic semigroups evaluated at complex time.

Two model classes: the noise semigroup on functions of n signs (diagonalized by
the Walsh basis, multiplier exp(-z|S|) on the character indexed by the subset
S), and general diagonal-multiplier semigroups given by an explicit eigenbasis.
Subsets S are enumerated by a binary counter: bit i of the index means i in S,
so |S| is the popcount and the fast transform is index-stable.

Both classes share one spectral interface: ``spectrum`` (the eigenvalues
lambda), ``operator(m)`` = B diag(m) B^-1 for a multiplier vector m, and
``evaluate(z)`` = ``operator(exp(-z * spectrum))``.  Each also declares its
tensor structure: the semigroup is ``power`` tensor copies of ``factor``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

from .errors import CostGuardError, DomainError, ShapeError
from .spaces import FiniteProbabilitySpace, FunctionVector, OperatorMatrix

__all__ = [
    "CubeNoiseSemigroup",
    "DiagonalMultiplierSemigroup",
    "ComplexTime",
    "walsh_transform",
    "inverse_walsh_transform",
    "evaluate",
    "semigroup_property_check",
]

_RE_TOL = 1e-12
# largest cube size n: a dense 2^n x 2^n matrix per operator
_MAX_CUBE_N = 10


@dataclass(frozen=True)
class ComplexTime:
    """A complex semigroup time with nonnegative real part."""

    z: complex

    def __post_init__(self):
        object.__setattr__(self, "z", _as_time(self.z))


def _as_time(z) -> complex:
    zc = z.z if isinstance(z, ComplexTime) else complex(z)
    if zc.real < -_RE_TOL:
        raise DomainError(f"semigroup time must have Re(z) >= 0, got {zc}")
    return zc


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform (butterfly, O(n 2^n))."""
    a = np.array(values, dtype=complex)
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a = np.stack([top, bot], axis=1).reshape(-1)
        h *= 2
    return a


def _check_power_of_two(size: int) -> None:
    if size < 1 or size & (size - 1):
        raise ShapeError(f"length must be a power of 2, got {size}")


def walsh_transform(f: FunctionVector) -> FunctionVector:
    """Walsh-Fourier coefficients of f, indexed by subsets.

    Normalized so the transform of the constant 1 is the indicator of the
    empty set: coefficient(S) = E[f * character_S] under the uniform measure.
    """
    _check_power_of_two(f.values.size)
    return FunctionVector(_fwht(f.values) / f.values.size, f.space)


def inverse_walsh_transform(fhat: FunctionVector) -> FunctionVector:
    """Inverse of :func:`walsh_transform`."""
    _check_power_of_two(fhat.values.size)
    return FunctionVector(_fwht(fhat.values), fhat.space)


def subset_sizes(n: int) -> np.ndarray:
    """|S| for every subset index of an n-bit counter."""
    return np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(float)


class CubeNoiseSemigroup:
    """Noise semigroup on the uniform space of 2**n sign patterns.

    The n-bit semigroup is the n-fold tensor power of the one-bit one:
    ``factor`` is ``CubeNoiseSemigroup(1)`` and ``power`` is n.  Two cubes
    are equal when they have the same n, so every cube shares one factor.
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError("need at least one variable")
        if n > _MAX_CUBE_N:
            raise CostGuardError(f"cube size capped at n = {_MAX_CUBE_N} (matrix size 2^n)")
        self.n = int(n)
        self.space = FiniteProbabilitySpace.uniform(2**self.n)
        self.spectrum = subset_sizes(self.n)
        self._had = hadamard(2**self.n).astype(float)
        self.factor = self if self.n == 1 else CubeNoiseSemigroup(1)
        self.power = self.n

    def operator(self, multiplier) -> OperatorMatrix:
        """The operator acting on the Walsh character of S by multiplier[S]."""
        # the Walsh basis H is its own inverse up to 1/2^n
        entries = (self._had * multiplier) @ self._had / self.space.size
        return OperatorMatrix.on(self.space, entries)

    def evaluate(self, z) -> OperatorMatrix:
        return self.operator(np.exp(-_as_time(z) * self.spectrum))

    def __eq__(self, other):
        if not isinstance(other, CubeNoiseSemigroup):
            return NotImplemented
        return self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"CubeNoiseSemigroup(n={self.n})"


class DiagonalMultiplierSemigroup:
    """Semigroup with an explicit eigenbasis and nonnegative spectrum."""

    def __init__(self, eigenbasis: OperatorMatrix, spectrum, space: FiniteProbabilitySpace | None = None):
        basis = np.asarray(
            eigenbasis.entries if isinstance(eigenbasis, OperatorMatrix) else eigenbasis,
            dtype=complex,
        )
        lam = np.asarray(spectrum, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ShapeError("eigenbasis must be square")
        if lam.ndim != 1 or lam.size != basis.shape[0]:
            raise ShapeError("spectrum length must match the eigenbasis size")
        if np.any(lam < 0):
            raise DomainError("spectrum must be nonnegative")
        if space is None:
            space = (
                eigenbasis.domain
                if isinstance(eigenbasis, OperatorMatrix)
                else FiniteProbabilitySpace.uniform(basis.shape[0])
            )
        if space.size != basis.shape[0]:
            raise ShapeError("space size must match the eigenbasis")
        self.space = space
        self.spectrum = lam
        self._basis = basis
        self.condition_number = float(np.linalg.cond(basis))
        if not np.isfinite(self.condition_number):
            raise DomainError("eigenbasis is singular")
        self._basis_inv = np.linalg.inv(basis)
        # no tensor structure is known: the semigroup is its own single factor
        self.factor = self
        self.power = 1

    def operator(self, multiplier) -> OperatorMatrix:
        """The operator acting on eigenvector k by multiplier[k]."""
        entries = (self._basis * multiplier) @ self._basis_inv
        return OperatorMatrix.on(self.space, entries)

    def evaluate(self, z) -> OperatorMatrix:
        return self.operator(np.exp(-_as_time(z) * self.spectrum))

    def __repr__(self):
        return (
            f"DiagonalMultiplierSemigroup(size={self.space.size}, "
            f"cond={self.condition_number:.3g})"
        )


def evaluate(semigroup, z) -> OperatorMatrix:
    """Matrix of T(z); requires Re(z) >= 0."""
    return semigroup.evaluate(z)


def semigroup_property_check(semigroup, z1, z2) -> float:
    """Max-entry deviation between T(z1+z2) and T(z1) T(z2)."""
    z1c, z2c = _as_time(z1), _as_time(z2)
    joint = semigroup.evaluate(z1c + z2c).entries
    chained = semigroup.evaluate(z1c).entries @ semigroup.evaluate(z2c).entries
    return float(np.abs(joint - chained).max())
