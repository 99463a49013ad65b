"""Dense quaternionic matrices and the complexification map into 2m x 2n
complex matrices.

A quaternionic matrix is stored through its symplectic decomposition
M = S + j*P with complex S ("simplex part") and P ("perplex part"); an
entry a + b*i + c*j + d*k has s = a + b*i and p = c - d*i, since
j*(c - d*i) = c*j + d*k.  The complexification psi(M) is the block matrix

    [ S       -conj(P) ]
    [ P        conj(S) ]

which is an injective real-algebra homomorphism on square matrices.  Right
eigenvalues of M are read off the ordinary spectrum of psi(M); they come in
conjugate pairs and the upper-half-plane members label the similarity
classes of the right spectrum.

When every entry of M lies in one copy R + R*u of C (u a unit pure
quaternion), conjugating each entry by a unit h with h^-1*u*h = i turns M
into a complex matrix S' = Re S + i*(v . u), v the imaginary parts, and
psi(M) is unitarily similar to diag(S', conj(S')).  psi_block returns that
half-sized S' (or S itself, as a real array, for a real M) and psi(M) for
every other M; psi_spectrum closes a block's eigenvalues under conjugation
into the spectrum of psi(M).  psi_blocks does the same for several matrices
with one axis chosen for all of them, so one h turns them all and any
polynomial in their psi images splits into the same polynomial in the S' and
in their conjugates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import PAIR_TOL, _cluster_labels, eigenvalues, pair_conjugates
from .quaternion import Quaternion

# psi_block drops the parts of the entries off the shared axis when none is
# above AXIS_TOL * eps * max|entry|: below the eigensolver's own backward
# error, which is a small multiple of eps * ||psi(M)||.
AXIS_TOL = 16.0

__all__ = [
    "QuatMatrix",
    "class_reps",
    "psi_block",
    "psi_blocks",
    "psi_homomorphism_check",
    "psi_spectrum",
    "right_eigenvalues",
]


class QuatMatrix:
    """Immutable dense matrix over the quaternions."""

    __slots__ = ("s", "p")

    def __init__(self, s: np.ndarray, p: np.ndarray):
        s = np.asarray(s, dtype=complex)
        p = np.asarray(p, dtype=complex)
        if s.ndim != 2 or s.shape != p.shape:
            raise ValueError(
                f"simplex/perplex shape mismatch: {s.shape} vs {p.shape}")
        self.s = s
        self.p = p
        self.s.setflags(write=False)
        self.p.setflags(write=False)

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "QuatMatrix":
        cols = rows if cols is None else cols
        return cls(np.zeros((rows, cols), dtype=complex),
                   np.zeros((rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "QuatMatrix":
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[Quaternion]]) -> "QuatMatrix":
        s = np.array([[q.simplex for q in row] for row in rows], dtype=complex)
        p = np.array([[q.perplex for q in row] for row in rows], dtype=complex)
        if s.ndim != 2:
            raise ValueError("expected a rectangular list of lists")
        return cls(s, p)

    @classmethod
    def from_complex(cls, m: np.ndarray) -> "QuatMatrix":
        m = np.asarray(m, dtype=complex)
        return cls(m, np.zeros_like(m))

    # -- shape and entry access ---------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.s.shape

    @property
    def rows(self) -> int:
        return self.s.shape[0]

    @property
    def cols(self) -> int:
        return self.s.shape[1]

    def __getitem__(self, key) -> Quaternion:
        u, v = key
        return Quaternion.from_complex_pair(complex(self.s[u, v]),
                                            complex(self.p[u, v]))

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(self.s + other.s, self.p + other.p)

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        return QuatMatrix(self.s - other.s, self.p - other.p)

    def __neg__(self) -> "QuatMatrix":
        return QuatMatrix(-self.s, -self.p)

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {other.shape}")
        # (S1 + jP1)(S2 + jP2): j z = conj(z) j for complex z.
        s = self.s @ other.s - np.conj(self.p) @ other.p
        p = np.conj(self.s) @ other.p + self.p @ other.s
        return QuatMatrix(s, p)

    def scale(self, factor: float) -> "QuatMatrix":
        """Multiply by a real scalar (central in H)."""
        return QuatMatrix(self.s * factor, self.p * factor)

    def transpose(self) -> "QuatMatrix":
        return QuatMatrix(self.s.T, self.p.T)

    def conj_transpose(self) -> "QuatMatrix":
        # Entrywise (s + jp)* = conj(s) - j p, then transpose.
        return QuatMatrix(np.conj(self.s).T, -self.p.T)

    # -- predicates ---------------------------------------------------

    def max_abs_diff(self, other: "QuatMatrix") -> float:
        d = self - other
        return float(max(np.abs(d.s).max(initial=0.0),
                         np.abs(d.p).max(initial=0.0)))

    def isclose(self, other: "QuatMatrix", atol: float = 1e-10) -> bool:
        return self.shape == other.shape and self.max_abs_diff(other) <= atol

    def is_unitary(self, tol: float = 1e-9) -> bool:
        if self.rows != self.cols:
            raise ValueError("unitarity is defined for square matrices only")
        ident = QuatMatrix.identity(self.rows)
        star = self.conj_transpose()
        return ((star @ self).max_abs_diff(ident) <= tol
                and (self @ star).max_abs_diff(ident) <= tol)

    # -- complexification ---------------------------------------------

    def psi(self) -> np.ndarray:
        """Complexification: the 2 rows x 2 cols block matrix
        [[S, -conj(P)], [P, conj(S)]].

        The first block of indices is the "+" copy of the index set, the
        second the "-" copy; this ordering is part of the reporting
        contract for complexified spectra.
        """
        return np.block([[self.s, -np.conj(self.p)],
                         [self.p, np.conj(self.s)]])

    def __repr__(self) -> str:
        return f"QuatMatrix({self.rows}x{self.cols})"


def psi_homomorphism_check(m: QuatMatrix, n: QuatMatrix,
                           tol: float = 1e-10) -> bool:
    """Check psi(M @ N) == psi(M) @ psi(N) entrywise within tol."""
    if m.cols != n.rows:
        raise ValueError(f"dimension mismatch: {m.shape} @ {n.shape}")
    lhs = (m @ n).psi()
    rhs = m.psi() @ n.psi()
    return float(np.abs(lhs - rhs).max(initial=0.0)) <= tol


def psi_block(m: QuatMatrix) -> np.ndarray:
    """A complex matrix whose spectrum, closed under conjugation, is the
    spectrum of psi(M): psi_blocks of M alone."""
    return psi_blocks(m)[0]


def _imaginary_parts(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """v = (Im S, Re P, -Im P): the i, j, k parts of the entries."""
    return np.stack((s.imag, p.real, -p.imag))


def psi_blocks(*ms: QuatMatrix) -> tuple[np.ndarray, ...]:
    """One matrix per M, turned by one shared axis: real S, the block S'
    or psi(M).

    With v the imaginary parts of the entries and u the axis of the entry
    with the largest |v| over all the matrices, in argument order: real
    matrices give their S as real arrays; matrices whose every entry has a
    part off u of at most AXIS_TOL * eps * (largest |entry| of them all) give
    S' = Re S + i*(v . u) each; any others give psi(M) each.  The first two
    are n x n, psi(M) is 2n x 2n.  In the first two cases one unitary Q has
    psi(M) = Q diag(S', conj(S')) Q^H for every M, so a polynomial in the
    psi(M) splits the same way.  An axis taken per matrix would not do: a
    matrix whose largest entry points along -u would be turned onto -i, its
    S' conjugated against the others'.  The axis and the test read only the
    nonzero entries of all the matrices at once, gathered in that order:
    for the vertex pair (W^T, D_w) the coin's 2m values and the n out-sums.
    """
    s = np.concatenate([m.s.ravel() for m in ms])
    p = np.concatenate([m.p.ravel() for m in ms])
    nonzero = (s != 0) | (p != 0)
    s, p = s[nonzero], p[nonzero]
    v = _imaginary_parts(s, p)
    size = np.sqrt(np.sum(v * v, axis=0))
    if not size.size or size.max() <= 0.0:  # NaN wins: it shows in the blocks
        return tuple(m.s.real for m in ms)
    k = np.argmax(size)
    u = v[:, k] / np.linalg.norm(v[:, k])
    # Squared: the off-axis parts are compared with AXIS_TOL*eps*max|entry|.
    bound = (float(np.max(s.real ** 2 + size ** 2))
             * (AXIS_TOL * np.finfo(float).eps) ** 2)
    off = v - u[:, None] * np.dot(u[None, :], v)
    if np.max(np.sum(off * off, axis=0)) > bound:
        return tuple(m.psi() for m in ms)
    return tuple(
        m.s.real + 1j * np.dot(u[None, :], _imaginary_parts(
            m.s, m.p).reshape(3, -1)).reshape(m.shape) for m in ms)


def psi_spectrum(values: np.ndarray, rows: int) -> np.ndarray:
    """The spectrum of psi(M), for M with the given number of rows, from
    the eigenvalues of psi_block(M): n values are joined by their
    conjugates, 2n values are already that spectrum."""
    values = np.asarray(values)
    if values.size == 2 * rows:
        return values
    return np.concatenate((values, np.conj(values)))


def right_eigenvalues(m: QuatMatrix) -> np.ndarray:
    """The 2n complex right eigenvalues of a square quaternionic matrix,
    sorted.

    Obtained as the spectrum of psi(M), from the eigenvalues of
    psi_block(M), with conjugate pairing enforced.
    """
    if m.rows != m.cols:
        raise ValueError("right eigenvalues are defined for square matrices")
    return pair_conjugates(psi_spectrum(eigenvalues(psi_block(m)), m.rows))


def class_reps(values: np.ndarray, tol: float = 1e-7) -> list[tuple[complex, int]]:
    """Grouped similarity-class representatives re + |im|*i of complex
    eigenvalues; conjugates share one (see dedupe_class_reps)."""
    values = np.asarray(values, dtype=complex)
    return dedupe_class_reps(values.real + 1j * np.abs(values.imag), tol)


def dedupe_class_reps(reps: Sequence[complex], tol: float = 1e-7) -> list[tuple[complex, int]]:
    """Single-linkage clusters of the values, with sizes, at the distance
    tol or PAIR_TOL * max|value|, whichever is larger.

    Two values share a cluster when a chain of values joins them with every
    step at most that distance, so clusters are pairwise farther apart.
    The second bound is the relative distance at which
    linalg.pair_conjugates clusters: on a spectrum of large scale, a
    multiple eigenvalue that a backward-stable solver splits by rounding
    stays one value, while up to max|value| = tol / PAIR_TOL the grouping
    is that of the absolute tol.  Returns (mean, size) pairs sorted by
    (re, im) of the mean.
    """
    z = np.sort_complex(np.asarray(reps, dtype=complex).ravel())
    label = _cluster_labels(
        z, max(tol, PAIR_TOL * float(np.abs(z).max(initial=0.0))))
    sizes = np.bincount(label)
    means = np.zeros(sizes.size, dtype=complex)
    np.add.at(means, label, z)
    means /= sizes
    order = np.lexsort((means.imag, means.real))
    return [(complex(means[g]), int(sizes[g])) for g in order]
