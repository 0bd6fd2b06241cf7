"""Arithmetic of dual complex numbers and of embedded real planes.

A dual complex number is c = c1 + c2*rho with complex components and
rho^2 = 0.  All operations below accept either scalar components or numpy
arrays of components, so node samples and grids go through the exact same
code path as single values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateBasisError, ExpOverflowError, NotInvertibleError

ComplexLike = Union[complex, np.ndarray]

# Scale-aware guard against catastrophic cancellation in c2/c1^2.
INVERTIBILITY_RTOL = 1e-12
# Reject bases that are linearly independent only in exact arithmetic.
BASIS_DET_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DualComplex:
    """Element c1 + c2*rho; components may be complex scalars or arrays."""

    c1: ComplexLike
    c2: ComplexLike

    def __add__(self, other) -> "DualComplex":
        return dc_add(self, _coerce(other))

    def __radd__(self, other) -> "DualComplex":
        return dc_add(_coerce(other), self)

    def __sub__(self, other) -> "DualComplex":
        return dc_sub(self, _coerce(other))

    def __rsub__(self, other) -> "DualComplex":
        return dc_sub(_coerce(other), self)

    def __mul__(self, other) -> "DualComplex":
        return dc_mul(self, _coerce(other))

    def __rmul__(self, other) -> "DualComplex":
        return dc_mul(_coerce(other), self)

    def __truediv__(self, other) -> "DualComplex":
        return dc_mul(self, dc_inv(_coerce(other)))

    def __pow__(self, n: int) -> "DualComplex":
        return dc_pow_int(self, n)

    def __neg__(self) -> "DualComplex":
        return dc_neg(self)

    def item(self, k: int) -> "DualComplex":
        """Scalar element of an array-valued sample set."""
        return DualComplex(complex(np.asarray(self.c1).ravel()[k]),
                           complex(np.asarray(self.c2).ravel()[k]))

    def __len__(self) -> int:
        return len(np.asarray(self.c1).ravel())

    def __str__(self) -> str:
        if np.ndim(self.c1) == 0:
            return f"({self.c1}) + ({self.c2})*rho"
        return f"DualComplex[{np.size(self.c1)} samples]"


ZERO = DualComplex(0j, 0j)
ONE = DualComplex(1 + 0j, 0j)
RHO = DualComplex(0j, 1 + 0j)


def _coerce(v) -> DualComplex:
    if isinstance(v, DualComplex):
        return v
    if isinstance(v, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        return DualComplex(complex(v), 0j)
    if isinstance(v, np.ndarray):
        return DualComplex(v.astype(complex), np.zeros_like(v, dtype=complex))
    raise TypeError(f"cannot interpret {type(v).__name__} as a dual complex number")


def dc_add(a: DualComplex, b: DualComplex) -> DualComplex:
    return DualComplex(a.c1 + b.c1, a.c2 + b.c2)


def dc_sub(a: DualComplex, b: DualComplex) -> DualComplex:
    return DualComplex(a.c1 - b.c1, a.c2 - b.c2)


def dc_neg(a: DualComplex) -> DualComplex:
    return DualComplex(-a.c1, -a.c2)


def dc_mul(a: DualComplex, b: DualComplex) -> DualComplex:
    # (a1 + a2 rho)(b1 + b2 rho) = a1 b1 + (a1 b2 + a2 b1) rho
    return DualComplex(a.c1 * b.c1, a.c1 * b.c2 + a.c2 * b.c1)


def dc_norm(c: DualComplex):
    return np.hypot(np.abs(c.c1), np.abs(c.c2))


def _invertibility_floor(c: DualComplex):
    return INVERTIBILITY_RTOL * np.maximum(1.0, dc_norm(c))


def _check_invertible(c: DualComplex, what: str) -> None:
    bad = np.abs(c.c1) <= _invertibility_floor(c)
    if np.any(bad):
        idx = np.nonzero(np.atleast_1d(bad))[0]
        raise NotInvertibleError(
            f"{what}: complex part vanishes"
            + (f" at {idx.size} sample(s), first index {int(idx[0])}" if np.ndim(bad) else ""))


def dc_inv(c: DualComplex) -> DualComplex:
    """Inverse 1/c1 - (c2/c1^2) rho; requires the complex part to be nonzero."""
    _check_invertible(c, "inverse")
    inv1 = 1.0 / c.c1
    return DualComplex(inv1, -c.c2 * inv1 * inv1)


def dc_ln(c: DualComplex) -> DualComplex:
    """Principal logarithm ln(c1) + (c2/c1) rho, Im ln(c1) in (-pi, pi]."""
    _check_invertible(c, "logarithm")
    return DualComplex(np.log(c.c1 + 0j), c.c2 / c.c1)


def dc_exp(c: DualComplex) -> DualComplex:
    """Exponential e^{c1} (1 + c2 rho); the rho-series truncates."""
    if np.any(np.real(c.c1) > 709.0):
        raise ExpOverflowError("exp overflow: |e^{c1}| not representable")
    e1 = np.exp(c.c1)
    out = DualComplex(e1, e1 * c.c2)
    if not (np.all(np.isfinite(out.c1)) and np.all(np.isfinite(out.c2))):
        raise ExpOverflowError("exp overflow in rho component")
    return out


def dc_pow_int(c: DualComplex, n: int) -> DualComplex:
    """Integer power c^n = c1^n + n c1^(n-1) c2 rho (n-fold product)."""
    n = int(n)
    if n == 0:
        ones = np.ones_like(np.asarray(c.c1, dtype=complex))
        if np.ndim(c.c1) == 0:
            return ONE
        return DualComplex(ones, np.zeros_like(ones))
    if n < 0:
        _check_invertible(c, f"power {n}")
    c1 = np.asarray(c.c1, dtype=complex) if np.ndim(c.c1) else complex(c.c1)
    c2 = np.asarray(c.c2, dtype=complex) if np.ndim(c.c2) else complex(c.c2)
    p1 = np.power(c1, n)
    p2 = n * np.power(c1, n - 1) * c2
    return DualComplex(p1, p2)


# -- the embedded plane E -----------------------------------------------------


@dataclass(frozen=True)
class BasisE:
    """Basis pair e1 = a1 + b1 rho, e2 = a2 + b2 rho spanning a real plane E.

    The complex parts (a1, a2) must be linearly independent over the reals;
    that makes every nonzero element of E invertible.
    """

    a1: complex
    b1: complex
    a2: complex
    b2: complex

    def __post_init__(self):
        basis_validate(self)

    @property
    def det(self) -> float:
        return (self.a1.real * self.a2.imag) - (self.a1.imag * self.a2.real)

    def embed(self, x, y) -> "PointE":
        return PointE(x, y, self)

    def vector(self, vx, vy) -> DualComplex:
        """Image of an (x, y) tangent/offset vector in the algebra."""
        return DualComplex(vx * self.a1 + vy * self.a2, vx * self.b1 + vy * self.b2)


def basis_validate(b: BasisE) -> BasisE:
    """Accept iff the complex parts pass the determinant threshold."""
    det = (b.a1.real * b.a2.imag) - (b.a1.imag * b.a2.real)
    n1 = math.hypot(abs(b.a1), abs(b.b1))
    n2 = math.hypot(abs(b.a2), abs(b.b2))
    if abs(det) <= BASIS_DET_RTOL * n1 * n2:
        raise DegenerateBasisError(
            f"basis is degenerate: determinant {det:.3e} below threshold")
    return b


def biharmonic_basis() -> BasisE:
    """e1 = 1, e2 = i - (i/2) rho."""
    return BasisE(1 + 0j, 0j, 1j, -0.5j)


def classical_basis() -> BasisE:
    """e1 = 1, e2 = i: the complex plane with zero rho part."""
    return BasisE(1 + 0j, 0j, 1j, 0j)


@dataclass(frozen=True, eq=False)
class PointE:
    """Point zeta = x e1 + y e2 of E; coordinates may be arrays."""

    x: Union[float, np.ndarray]
    y: Union[float, np.ndarray]
    basis: BasisE

    @property
    def xi1(self) -> ComplexLike:
        return self.x * self.basis.a1 + self.y * self.basis.a2

    @property
    def xi2(self) -> ComplexLike:
        return self.x * self.basis.b1 + self.y * self.basis.b2

    def value(self) -> DualComplex:
        return DualComplex(self.xi1, self.xi2)

    @property
    def modulus(self):
        """|zeta| = sqrt(x^2 + y^2)."""
        return np.hypot(self.x, self.y)

    def item(self, k: int) -> "PointE":
        return PointE(float(np.asarray(self.x).ravel()[k]),
                      float(np.asarray(self.y).ravel()[k]), self.basis)
