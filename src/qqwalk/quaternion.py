"""Scalar quaternion arithmetic and similarity-class canonicalization.

Quaternions are stored as four float64 coordinates on the basis 1, i, j, k
with the usual relations i^2 = j^2 = k^2 = -1, ij = -ji = k, jk = -kj = i,
ki = -ik = j.  Two quaternions are similar (conjugate by a nonzero
quaternion) exactly when they share the real part and the norm of the
imaginary part; the canonical representative of a similarity class is the
complex number x0 + sqrt(x1^2 + x2^2 + x3^2) * 1j, i.e. the upper-half-plane
member of the class.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "Quaternion",
    "QuaternionFormatError",
    "canonical_class_rep",
    "parse_quaternion",
]

DEFAULT_ATOL = 1e-10


class QuaternionFormatError(ValueError):
    """Raised when a quaternion literal cannot be parsed."""


@dataclass(frozen=True)
class Quaternion:
    """A quaternion x0 + x1*i + x2*j + x3*k with float coordinates."""

    x0: float
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    @staticmethod
    def from_complex_pair(s: complex, p: complex) -> "Quaternion":
        """Inverse of the symplectic split q = s + j*p.

        Note j*(c - d*i) = c*j + d*k, so p = x2 - x3*i.
        """
        return Quaternion(s.real, s.imag, p.real, -p.imag)

    @property
    def simplex(self) -> complex:
        return complex(self.x0, self.x1)

    @property
    def perplex(self) -> complex:
        return complex(self.x2, -self.x3)

    @property
    def imag_norm(self) -> float:
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other) -> "Quaternion":
        return _coerce(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other) -> "Quaternion":
        p, q = self, _coerce(other)
        return Quaternion(
            p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2 - p.x3 * q.x3,
            p.x0 * q.x1 + p.x1 * q.x0 + p.x2 * q.x3 - p.x3 * q.x2,
            p.x0 * q.x2 - p.x1 * q.x3 + p.x2 * q.x0 + p.x3 * q.x1,
            p.x0 * q.x3 + p.x1 * q.x2 - p.x2 * q.x1 + p.x3 * q.x0,
        )

    def __rmul__(self, other) -> "Quaternion":
        return _coerce(other) * self

    def __truediv__(self, scalar: float) -> "Quaternion":
        # Division by a real scalar only; real scalars are central in H,
        # so left and right division agree.
        s = float(scalar)
        return Quaternion(self.x0 / s, self.x1 / s, self.x2 / s, self.x3 / s)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm_sq(self) -> float:
        return (self.x0 * self.x0 + self.x1 * self.x1
                + self.x2 * self.x2 + self.x3 * self.x3)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("non-invertible: zero quaternion")
        return self.conjugate() / n2

    def isclose(self, other: "Quaternion", atol: float = DEFAULT_ATOL) -> bool:
        d = self - _coerce(other)
        return max(abs(d.x0), abs(d.x1), abs(d.x2), abs(d.x3)) <= atol

    def __str__(self) -> str:
        parts = []
        for coord, axis in zip((self.x0, self.x1, self.x2, self.x3),
                               ("", "i", "j", "k")):
            if coord == 0.0:
                continue
            sign = "-" if coord < 0 else ("+" if parts else "")
            mag = abs(coord)
            if axis and mag == 1.0:
                parts.append(f"{sign}{axis}")
            else:
                parts.append(f"{sign}{mag:g}{axis}")
        return "".join(parts) or "0"


def _coerce(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, complex):
        return Quaternion(value.real, value.imag)
    return Quaternion(float(value))


Quaternion.ZERO = Quaternion(0.0)
Quaternion.ONE = Quaternion(1.0)
Quaternion.I = Quaternion(0.0, 1.0)
Quaternion.J = Quaternion(0.0, 0.0, 1.0)
Quaternion.K = Quaternion(0.0, 0.0, 0.0, 1.0)


def canonical_class_rep(q: Quaternion) -> complex:
    """Canonical complex representative of the similarity class of q.

    Returns x0 + |imaginary part| * 1j, the class member with non-negative
    imaginary part.  Two quaternions get the same representative exactly
    when one is h^-1 * q * h for some nonzero h.
    """
    return complex(q.x0, q.imag_norm)


# One term of a literal: a signed number with an optional basis letter, or a
# bare (optionally signed) basis letter standing for coefficient +-1.
_TERM = re.compile(
    r"([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)([ijk]?)"
    r"|([+-]?)([ijk])"
)


def parse_quaternion(text: str) -> Quaternion:
    """Parse a literal like ``1``, ``-0.5+0.5i``, ``1-j`` or ``2k``.

    The format is whitespace-free with case-sensitive basis letters: terms
    after the first start with a sign, and every coordinate is finite.
    """
    if not text:
        raise QuaternionFormatError("empty quaternion literal")
    coords = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or (pos and text[pos] not in "+-"):
            raise QuaternionFormatError(
                f"bad quaternion literal {text!r} at position {pos}")
        if m.group(4) is not None:
            coef = -1.0 if m.group(3) == "-" else 1.0
            axis = m.group(4)
        else:
            coef = float(m.group(1))
            axis = m.group(2)
        coords[axis] += coef
        pos = m.end()
    if not all(map(math.isfinite, coords.values())):
        raise QuaternionFormatError(f"non-finite quaternion literal {text!r}")
    return Quaternion(coords[""], coords["i"], coords["j"], coords["k"])
