"""Finite probability spaces, functions on them, and operators between them.

All scalars are complex double precision; real input is embedded.  Objects are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidExponentError, ShapeError, _check_whole

__all__ = [
    "FiniteProbabilitySpace",
    "FunctionVector",
    "OperatorMatrix",
    "lp_norm",
    "apply",
    "compose",
    "hadamard_transform",
]

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """Atoms with strictly positive weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise DomainError("every atom weight must be finite and > 0")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(
                f"weights must sum to 1 within {_WEIGHT_SUM_TOL}; got {w.sum()!r}"
            )

    @property
    def size(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n_atoms: int) -> "FiniteProbabilitySpace":
        n_atoms = _check_whole(n_atoms, "atoms", 1)
        return cls(np.full(n_atoms, 1.0 / n_atoms))

    def __hash__(self):
        return hash((self.weights.size, self.weights.tobytes()))

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, FiniteProbabilitySpace):
            return NotImplemented
        return self.weights.shape == other.weights.shape and np.array_equal(
            self.weights, other.weights
        )


@dataclass(frozen=True)
class FunctionVector:
    """A complex-valued function given by one value per atom."""

    values: np.ndarray
    space: FiniteProbabilitySpace

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ShapeError("values must be a 1-d array")
        if v.size != self.space.size:
            raise ShapeError(
                f"function has {v.size} values but the space has {self.space.size} atoms"
            )


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator in atom coordinates, rows indexed by the output space.

    ``walsh`` is None, or the multiplier m of a Walsh multiplier: then the
    entries are H diag(m) H / 2^n for the Sylvester Hadamard matrix H of the
    space's 2^n atoms, and the operator can be applied as
    ``hadamard_transform(m / 2^n * hadamard_transform(F))`` without them.
    """

    entries: np.ndarray
    domain: FiniteProbabilitySpace
    codomain: FiniteProbabilitySpace
    walsh: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2:
            raise ShapeError("entries must be a 2-d array")
        if m.shape != (self.codomain.size, self.domain.size):
            raise ShapeError(
                f"entries have shape {m.shape}, expected "
                f"({self.codomain.size}, {self.domain.size})"
            )
        if self.walsh is not None:
            mult = np.asarray(self.walsh, dtype=complex)
            object.__setattr__(self, "walsh", mult)
            if mult.shape != (self.domain.size,) or self.codomain != self.domain:
                raise ShapeError("a Walsh multiplier needs one value per atom of one space")

    @classmethod
    def on(cls, space: FiniteProbabilitySpace, entries, walsh=None) -> "OperatorMatrix":
        """Operator from a space to itself, carrying the Walsh multiplier ``walsh`` if given."""
        return cls(np.asarray(entries, dtype=complex), space, space, walsh)

    @classmethod
    def identity(cls, space: FiniteProbabilitySpace) -> "OperatorMatrix":
        return cls.on(space, np.eye(space.size, dtype=complex))


def lp_norm(f: FunctionVector, p: float) -> float:
    """Weighted L_p norm of f; p may be any real >= 1 or math.inf."""
    if p != math.inf and (not p >= 1.0):
        raise InvalidExponentError(f"exponent must be >= 1 or inf, got {p}")
    absv = np.abs(f.values)
    if p == math.inf:
        return float(absv.max())
    return float(np.sum(f.space.weights * absv**p) ** (1.0 / p))


def apply(A: OperatorMatrix, f: FunctionVector) -> FunctionVector:
    """Matrix-vector product in atom coordinates."""
    if f.space.size != A.domain.size:
        raise ShapeError(
            f"operator expects {A.domain.size} atoms, function has {f.space.size}"
        )
    return FunctionVector(A.entries @ f.values, A.codomain)


def compose(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """The operator A after B."""
    if A.domain.size != B.codomain.size:
        raise ShapeError(
            f"inner dimensions differ: A expects {A.domain.size}, B outputs {B.codomain.size}"
        )
    return OperatorMatrix(A.entries @ B.entries, B.domain, A.codomain)


def _sylvester(size: int) -> np.ndarray:
    """The Sylvester Hadamard matrix of a power-of-2 size: entry (i, j) is
    (-1)^popcount(i & j), the Walsh character of the subset i at the sign
    pattern j."""
    i = np.arange(size)
    return np.where(np.bitwise_count(i[:, None] & i) & 1, -1.0, 1.0)


@lru_cache(maxsize=None)
def _hadamard_factors(size: int) -> tuple[np.ndarray, np.ndarray]:
    # Sylvester: H_(2^n) = H_2 (x) ... (x) H_2 = H_a (x) H_b for any a * b = 2^n
    a = 1 << (size.bit_length() // 2)
    factors = _sylvester(a), _sylvester(size // a)
    for H in factors:
        H.flags.writeable = False  # every caller shares the cached pair
    return factors


def hadamard_transform(X: np.ndarray) -> np.ndarray:
    """H @ X along axis -2, for the unnormalized Sylvester Hadamard matrix H.

    X is a complex array of shape (..., 2^n, k).  H is split as the Kronecker
    product H_a (x) H_b with a and b near 2^(n/2), so the transform is two
    small real matrix products on the float view of X, O(2^(3n/2) k) work
    instead of the O(4^n k) of a dense product.
    """
    X = np.ascontiguousarray(X, dtype=complex)
    *lead, size, k = X.shape
    if size < 1 or size & (size - 1):
        raise ShapeError(f"length must be a power of 2, got {size}")
    Ha, Hb = _hadamard_factors(size)
    a, b = Ha.shape[0], Hb.shape[0]
    # a complex column is two real ones
    Y = Ha @ X.view(float).reshape(*lead, a, 2 * b * k)
    Y = Hb @ Y.reshape(*lead, a, b, 2 * k)
    return Y.reshape(*lead, size, 2 * k).view(complex)
