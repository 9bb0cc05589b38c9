"""Analytic semigroups evaluated at complex time.

One semigroup class: a diagonal multiplier on an explicit eigenbasis B with
nonnegative spectrum lambda, so ``operator(m)`` = B diag(m) B^-1 for a
multiplier vector m and ``evaluate(z)`` = ``operator(exp(-z * spectrum))``.
Each semigroup declares its tensor structure: it is ``power`` tensor copies
of ``factor``.

The noise semigroup on functions of n signs is the Hadamard-basis instance:
the Walsh character indexed by the subset S has eigenvalue |S|.  Subsets S
are enumerated by a binary counter: bit i of the index means i in S, so |S|
is the popcount and the fast transform is index-stable.  Its operators
carry their multiplier (``OperatorMatrix.walsh``), so a norm ascent can apply
them by the fast transform instead of the dense entries.
"""

from __future__ import annotations

import numpy as np

from .errors import CostGuardError, DomainError, ShapeError, _check_whole
from .spaces import (
    FiniteProbabilitySpace,
    FunctionVector,
    OperatorMatrix,
    _sylvester,
    hadamard_transform,
)

__all__ = [
    "CubeNoiseSemigroup",
    "DiagonalMultiplierSemigroup",
    "walsh_transform",
    "inverse_walsh_transform",
    "semigroup_property_check",
]

_RE_TOL = 1e-12
# largest cube size n: a dense 2^n x 2^n matrix per operator
_MAX_CUBE_N = 10


def _check_cube_size(n) -> int:
    """``n`` as an int: a whole number of variables, at least 1, up to ``_MAX_CUBE_N``."""
    n = _check_whole(n, "variables", 1)
    if n > _MAX_CUBE_N:
        raise CostGuardError(f"cube size capped at n = {_MAX_CUBE_N} (matrix size 2^n)")
    return n


def _as_time(z) -> complex:
    zc = complex(z)
    if zc.real < -_RE_TOL:
        raise DomainError(f"semigroup time must have Re(z) >= 0, got {zc}")
    return zc


def walsh_transform(f: FunctionVector) -> FunctionVector:
    """Walsh-Fourier coefficients of f, indexed by subsets.

    Normalized so the transform of the constant 1 is the indicator of the
    empty set: coefficient(S) = E[f * character_S] under the uniform measure.
    """
    return FunctionVector(hadamard_transform(f.values[:, None])[:, 0] / f.values.size, f.space)


def inverse_walsh_transform(fhat: FunctionVector) -> FunctionVector:
    """Inverse of :func:`walsh_transform`."""
    return FunctionVector(hadamard_transform(fhat.values[:, None])[:, 0], fhat.space)


def subset_sizes(n: int) -> np.ndarray:
    """|S| for every subset index of an n-bit counter."""
    return np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(float)


class DiagonalMultiplierSemigroup:
    """Semigroup with an explicit eigenbasis and nonnegative spectrum."""

    def __init__(self, eigenbasis: OperatorMatrix, spectrum):
        """``eigenbasis`` holds the eigenvectors as columns; its domain is the space."""
        basis = np.asarray(eigenbasis.entries, dtype=complex)
        lam = np.asarray(spectrum, dtype=float)
        if basis.shape[0] != basis.shape[1]:
            raise ShapeError("eigenbasis must be square")
        if lam.ndim != 1 or lam.size != basis.shape[0]:
            raise ShapeError("spectrum length must match the eigenbasis size")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise DomainError("spectrum must be finite and nonnegative")
        self.space = eigenbasis.domain
        self.spectrum = lam
        self._basis = basis
        self.condition_number = float(np.linalg.cond(basis))
        if not np.isfinite(self.condition_number):
            raise DomainError("eigenbasis is singular")
        self._basis_inv = np.linalg.inv(basis)
        # no tensor structure is known: the semigroup is its own single factor
        self.factor = self
        self.power = 1
        self._walsh_basis = False

    def operator(self, multiplier) -> OperatorMatrix:
        """The operator acting on eigenvector k by multiplier[k].

        On the cube's Walsh basis the operator also carries the multiplier.
        """
        entries = (self._basis * multiplier) @ self._basis_inv
        return OperatorMatrix.on(self.space, entries, multiplier if self._walsh_basis else None)

    def evaluate(self, z) -> OperatorMatrix:
        """Matrix of T(z); requires Re(z) >= 0."""
        return self.operator(np.exp(-_as_time(z) * self.spectrum))

    def __repr__(self):
        return (
            f"{type(self).__name__}(size={self.space.size}, "
            f"cond={self.condition_number:.3g})"
        )


class CubeNoiseSemigroup(DiagonalMultiplierSemigroup):
    """Noise semigroup on the uniform space of 2**n sign patterns.

    The diagonal multiplier on the Walsh basis: the real Hadamard matrix H,
    whose inverse is exactly H / 2**n, with spectrum |S|.  The n-bit
    semigroup is the n-fold tensor power of the one-bit one: ``factor`` is
    ``CubeNoiseSemigroup(1)`` and ``power`` is n.  Two cubes are equal when
    they have the same n, so every cube shares one factor.
    """

    def __init__(self, n: int):
        # the basis and its inverse are known exactly, so the general
        # constructor's cond and inv (over a second at n = 10) are skipped
        self.n = _check_cube_size(n)
        self.space = FiniteProbabilitySpace.uniform(2**self.n)
        self.spectrum = subset_sizes(self.n)
        self._basis = _sylvester(2**self.n)
        self._basis_inv = self._basis / self.space.size
        self.condition_number = 1.0
        self._walsh_basis = True
        self.factor = self if self.n == 1 else CubeNoiseSemigroup(1)
        self.power = self.n

    # perfbench/spans.py wraps ``evaluate`` by name in each class's own
    # namespace, so the cube names the inherited method itself
    evaluate = DiagonalMultiplierSemigroup.evaluate

    def __eq__(self, other):
        if not isinstance(other, CubeNoiseSemigroup):
            return NotImplemented
        return self.n == other.n

    def __hash__(self):
        return hash(self.n)


def semigroup_property_check(semigroup, z1, z2) -> float:
    """Max-entry deviation between T(z1+z2) and T(z1) T(z2)."""
    z1c, z2c = _as_time(z1), _as_time(z2)
    joint = semigroup.evaluate(z1c + z2c).entries
    chained = semigroup.evaluate(z1c).entries @ semigroup.evaluate(z2c).entries
    return float(np.abs(joint - chained).max())
