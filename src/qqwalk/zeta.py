"""Determinant identities for graph zeta functions, verified numerically.

Three layers of identity are covered, each compared at complex sample
points rather than symbolically (sampling at more points than the
polynomial degree is a complete check up to conditioning).  All three are
one comparison,

    det(I - t*X) = (1 - t^2)^e * det(I - t*Y + t^2*(D - I)),

with an arc-side matrix X, a vertex-side matrix Y and a diagonal D:

* classical: X = B - J0, Y = A, D the degree matrix, e = m - n (the
  Bass form (1 - t^2)^(r-1) with r the Betti number);
* complex-weighted: X = U = B_w^T - J0, the walk matrix of the weights
  (walks.build_U), Y = W^T, D = D_w, e = m - n;
* quaternionic, through the complexification map: X = psi(U),
  Y = psi(W^T), D = psi(D_w), e = 2m - 2n, together with the resolvent-style
  intermediate identity
  psi(L^T) (I + t*psi(J0))^-1 psi(K) = (psi(W^T) - t*psi(D_w)) / (1 - t^2).

Samples with |1 - t^2| < POLE_GUARD sit on the (1 - t^2) poles and are
skipped by every identity.

X is built from the walk matrix's list of arc pairs (e, f) with
t(f) = o(e), sum_v d_v^2 of them (walks._walk_triplets), in O(sum_v d_v^2)
time and memory; psi(U) takes its four blocks by index arithmetic.  The arc
side is a genuine factorization of I - t*X at every sample: a dense LAPACK
LU below SPARSE_LU_MIN rows, and from there up a sparse LU (scipy's splu,
partial pivoting) of I - t*X in CSC form, built from the entries without
any dense 2m x 2m or 4m x 4m array.  Every sample of a call has the same
pattern, so the call plans once: the first sparse factorization takes
COLAMD's column order, which reads the pattern alone, and every later one
gathers its columns in that order (linalg.ColumnOrder).  The 4m x 4m X of a
random graph with m = 250 has about 11 000 of its 10^6 entries nonzero.
Below the threshold no scipy module is imported.

When the quaternionic weights share one axis (walks._turned_coin: the
Grover and alpha/d coins, complex weights), psi(U) is unitarily similar to
diag(S', conj(S')) with the 2m x 2m block S' = qmatrix.psi_block(U), and
the arc side is det(I - t*S') * conj(det(I - conj(t)*S')): two
factorizations of S' in one column order.  K and L enter only the
resolvent check, as their arc entries (e, o(e), w(e)) and (e, t(e), 1),
from which psi(K) and psi(L^T) are built directly, in CSR form from the
threshold up.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .linalg import ColumnOrder, determinant
from .walks import (
    CoinMap,
    _K_L_entries,
    _turned_coin,
    _walk_triplets,
    build_W_Dw,
)

__all__ = [
    "IdentityReport",
    "SamplePoint",
    "default_samples",
    "ihara_bass",
    "ihara_hashimoto",
    "ihara_identity",
    "quaternionic_identity",
    "weighted_zeta_identity",
]

# Samples this close to t^2 = 1 hit the (1 - t^2) poles and are skipped.
POLE_GUARD = 1e-6
# Arc matrices with at least this many rows take the sparse LU, smaller
# ones stay dense.  Each identity on a random graph (n = 0.44 m) with three
# samples (one core, one BLAS thread, scipy loaded, the column order reused)
# takes, dense against sparse: 1.38 and 1.55 ms on the Ihara 2m side at
# 192 rows, 2.01 and 1.78 ms at 224, 3.11 and 2.46 ms at 256; 3.63 and
# 3.52 ms on a 4m side of 192 rows, 7.18 and 5.24 ms at 256.  No rung of the
# benchmark ladder falls between 192 and 256 rows, and at m = 32 the dense
# sides take 0.3 to 1.6 ms, less than the 0.12 s and 33 MB that importing
# scipy.sparse.linalg costs a fresh process.
SPARSE_LU_MIN = 256


@dataclass
class SamplePoint:
    t: complex
    lhs: complex
    rhs: complex
    rel_err: float


@dataclass
class IdentityReport:
    """Per-sample comparison of the two sides of a determinant identity."""

    samples: list[SamplePoint]
    max_rel_err: float
    verdict: bool
    skipped: list[complex] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "samples": [
                {
                    "t": {"re": s.t.real, "im": s.t.imag},
                    "lhs": {"re": s.lhs.real, "im": s.lhs.imag},
                    "rhs": {"re": s.rhs.real, "im": s.rhs.imag},
                    "rel_err": s.rel_err,
                }
                for s in self.samples
            ],
            "max_rel_err": self.max_rel_err,
            "verdict": self.verdict,
        }


def _rel_err(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|), 0 when both are 0, NaN when either
    is not finite."""
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        return float("nan")
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale else 0.0


def default_samples(count: int = 8, seed: int = 0,
                    max_modulus: float = 0.8) -> list[complex]:
    """Deterministic pseudo-random sample points of modulus <= max_modulus,
    uniformly distributed over the disk; stays clear of the t^2 = 1 poles."""
    rng = np.random.default_rng(seed)
    radii = max_modulus * np.sqrt(rng.random(count))
    angles = 2.0 * np.pi * rng.random(count)
    return [complex(r * np.cos(a), r * np.sin(a))
            for r, a in zip(radii, angles)]


# -- the comparison core ---------------------------------------------

def _psi_triplets(rows, cols, s, p, shape):
    """The entries of psi(M) = [[S, -conj(P)], [P, conj(S)]] as (rows, cols,
    values), for the quaternionic M of the given shape with s + j*p at
    (rows, cols)."""
    r, c = shape
    return (np.concatenate((rows, rows, rows + r, rows + r)),
            np.concatenate((cols, cols + c, cols, cols + c)),
            np.concatenate((s, -np.conj(p), p, np.conj(s))))


def _psi_matrix(entries: tuple, shape: tuple[int, int], sparse: bool):
    """psi(M) for the quaternionic M of the given shape with the entries
    (rows, cols, s, p): CSR without its zero entries when sparse, else the
    dense array."""
    rows, cols, values = _psi_triplets(*entries, shape)
    size = (2 * shape[0], 2 * shape[1])
    if not sparse:
        out = np.zeros(size, dtype=complex)
        out[rows, cols] = values
        return out
    from scipy.sparse import csr_array
    keep = values != 0
    return csr_array((values[keep], (rows[keep], cols[keep])), shape=size)


def _arc_matrix(rows, cols, values, size: int):
    """X with the given entries, as the arc side factors it.

    Below SPARSE_LU_MIN rows the dense array.  From there up the CSC of X
    without its zero entries, with the diagonal stored (as explicit zeros
    where X has none), and the mask of the diagonal among its entries."""
    if size < SPARSE_LU_MIN:
        x = np.zeros((size, size), dtype=complex)
        x[rows, cols] = values
        return x
    from scipy.sparse import csc_array
    keep, diag = values != 0, np.arange(size)
    x = csc_array((np.r_[values[keep], np.zeros(size)],
                   (np.r_[rows[keep], diag], np.r_[cols[keep], diag])),
                  shape=(size, size))
    return x, x.indices == np.repeat(diag, np.diff(x.indptr))


def _arc_side(x, t: complex, order: ColumnOrder | None = None) -> complex:
    """det(I - t*X) for an X from _arc_matrix; the sparse I - t*X takes
    X's pattern, with 0 - x*t at its entries plus 1 on the diagonal, and is
    factored in the given column order."""
    if isinstance(x, np.ndarray):
        return determinant(np.eye(x.shape[0]) - t * x)
    from scipy.sparse import csc_array
    x, diag = x
    # x * t: numpy's complex product can differ in the last bit from t * x.
    return determinant(csc_array((0.0 - x.data * t + diag, x.indices,
                                  x.indptr), shape=x.shape), order)


def _vertex_side(y: np.ndarray, d: np.ndarray, exponent: int,
                 t: complex) -> complex:
    eye = np.eye(y.shape[0])
    return complex((1.0 - t * t) ** exponent) * determinant(
        eye - t * y + t * t * (d - eye))


def _compare(x: tuple, y: np.ndarray, d: np.ndarray, exponent: int,
             t_samples: list[complex], tol: float, check=None,
             halves: bool = False) -> IdentityReport:
    """Compare det(I - t*X) with (1 - t^2)^e * det(I - t*Y + t^2*(D - I))
    at every sample off the poles, X given by its entries x = (rows, cols,
    values, size); check(t), when given, runs first at each compared
    sample.  With halves, x holds the block S' of an X = psi(U) whose
    entries share one axis, and the arc side is
    det(I - t*S') * conj(det(I - conj(t)*S')).

    Every sparse factorization of the call shares one column order, taken
    by the first one that succeeds."""
    x = _arc_matrix(*x)
    order = ColumnOrder()
    pairs = []
    skipped = []
    for t in t_samples:
        if abs(1.0 - t * t) < POLE_GUARD:
            skipped.append(t)
            continue
        if check is not None:
            check(t)
        lhs = _arc_side(x, t, order)
        if halves:
            lhs *= _arc_side(x, t.conjugate(), order).conjugate()
        pairs.append((t, lhs, _vertex_side(y, d, exponent, t)))
    samples = [SamplePoint(t, lhs, rhs, _rel_err(lhs, rhs))
               for t, lhs, rhs in sorted(pairs, key=lambda p: (p[0].real,
                                                               p[0].imag))]
    # np.max propagates NaN, so a non-finite sample fails the verdict
    # wherever it falls among the samples.
    max_err = float(np.max([s.rel_err for s in samples], initial=0.0))
    return IdentityReport(samples=samples, max_rel_err=max_err,
                          verdict=max_err <= tol, skipped=skipped)


# -- classical (unweighted) identity ----------------------------------

def _ihara_arc_triplets(graph: Graph) -> tuple:
    """The entries of B - J0, the transpose of the walk matrix of unit
    weights."""
    ones = np.ones(graph.num_arcs, dtype=complex)
    rows, cols, s, _ = _walk_triplets(graph, ones, ones)
    return cols, rows, s, graph.num_arcs


def ihara_hashimoto(graph: Graph, t: complex) -> complex:
    """det(I_{2m} - t*(B - J0)) at the sample point t."""
    return _arc_side(_arc_matrix(*_ihara_arc_triplets(graph)), t)


def ihara_bass(graph: Graph, t: complex) -> complex:
    """(1 - t^2)^(r-1) * det(I_n - t*A + t^2*(D - I_n))."""
    if graph.is_tree and abs(1.0 - t * t) < POLE_GUARD:
        raise ZeroDivisionError(
            f"pole at t = {t}: tree case has exponent -1 in (1 - t^2)")
    return _vertex_side(graph.adjacency_matrix(), graph.degree_matrix(),
                        graph.betti_number - 1, t)


def ihara_identity(graph: Graph, t_samples: list[complex],
                   tol: float = 1e-8) -> IdentityReport:
    """Compare the arc-level and Bass-type expressions at each sample."""
    return _compare(_ihara_arc_triplets(graph), graph.adjacency_matrix(),
                    graph.degree_matrix(), graph.betti_number - 1,
                    t_samples, tol)


# -- complex-weighted identity ----------------------------------------

def weighted_zeta_identity(graph: Graph, weights: CoinMap,
                           t_samples: list[complex],
                           tol: float = 1e-8) -> IdentityReport:
    """Weighted determinant identity for complex-valued weights.

    Checks det(I - t*(B_w^T - J0)) against
    (1 - t^2)^(m-n) * det(I - t*W^T + t^2*(D_w - I)) at each sample.  The
    untransposed form (B_w with W) has the same two sides exactly, since
    det(X^T) = det(X) and J0 is symmetric.
    """
    if not weights.is_complex_valued():
        raise ValueError(
            "weights have nonzero j/k parts; use quaternionic_identity")
    w, dw = build_W_Dw(graph, weights)
    rows, cols, s, _ = _walk_triplets(graph, weights.s, weights.p)
    return _compare((rows, cols, s, graph.num_arcs), w.s.T, dw.s,
                    graph.m - graph.n, t_samples, tol)


# -- quaternionic identity --------------------------------------------

def quaternionic_identity(graph: Graph, weights: CoinMap,
                          t_samples: list[complex],
                          tol: float = 1e-8,
                          intermediate_tol: float = 1e-10) -> IdentityReport:
    """Quaternionic determinant identity through the complexification map.

    At each admissible sample compares the arc side det(I - t*psi(U)) with
    the 2n x 2n vertex side, and additionally verifies the proof-level
    resolvent identity entrywise within intermediate_tol times the largest
    expected entry (at least 1).  Since J0^2 = I, (I + t*J0)^-1 is
    (I - t*J0) / (1 - t^2), and psi(J0) = blockdiag(J0, J0) acts as the row
    permutation idx ^ 1 on the 4m complexified arcs; the differences
    psi(L^T) psi(K) - psi(W^T) and psi(L^T) psi(J0) psi(K) - psi(D_w) are
    formed once, so a sample's residual is one combination of them.  When
    U's entries share one axis (walks._turned_coin), psi(U) is unitarily
    similar to diag(S', conj(S')) with S' = qmatrix.psi_block(U), and the
    arc side is factored on the 2m x 2m S' at t and at conj(t).
    """
    arcs, n = graph.num_arcs, graph.n
    turned = _turned_coin(graph, weights)
    if turned is None:
        rows, cols, s, p = _walk_triplets(graph, weights.s, weights.p)
        x = (*_psi_triplets(rows, cols, s, p, (arcs, arcs)), 2 * arcs)
    else:
        rows, cols, s, _ = _walk_triplets(graph, turned, turned)
        x = (rows, cols, s, arcs)
    wq, dwq = build_W_Dw(graph, weights)
    psi_wt, psi_dw = wq.transpose().psi(), dwq.psi()
    k, l = _K_L_entries(graph, weights)
    sparse = x[-1] >= SPARSE_LU_MIN  # then 8m and 4m nonzeros, O(m) products
    psi_k = _psi_matrix(k, (arcs, n), sparse)
    psi_jk = _psi_matrix((k[0] ^ 1, *k[1:]), (arcs, n), sparse)
    psi_lt = _psi_matrix((l[1], l[0], *l[2:]), (n, arcs), sparse)
    # psi(L^T) psi(K) - psi(W^T) and psi(L^T) psi(J0 K) - psi(D_w).
    gaps = [(prod if isinstance(prod, np.ndarray) else prod.toarray()) - want
            for prod, want in ((psi_lt @ psi_k, psi_wt),
                               (psi_lt @ psi_jk, psi_dw))]

    def check(t: complex) -> None:
        one_minus = abs(1.0 - t * t)
        residual = float(np.abs(gaps[0] - t * gaps[1]).max(initial=0.0))
        scale = float(np.abs(psi_wt - t * psi_dw).max(initial=0.0))
        residual, scale = residual / one_minus, max(1.0, scale / one_minus)
        if not residual <= intermediate_tol * scale:
            raise ArithmeticError(
                f"intermediate resolvent identity failed at t = {t}: "
                f"entrywise residual {residual:.3e} at entry scale "
                f"{scale:.3e}")

    return _compare(x, psi_wt, psi_dw, 2 * graph.m - 2 * graph.n,
                    t_samples, tol, check, halves=turned is not None)
