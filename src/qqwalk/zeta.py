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

The arc side is a genuine factorization of I - t*X at every sample: a
dense LAPACK LU below SPARSE_LU_MIN rows, and from there up a sparse LU
(scipy's splu, COLAMD column order, partial pivoting) of X in CSC form.  X
has about sum_v d_v^2 nonzeros per block: the 4m x 4m X of a random graph
with m = 250 has about 11 000 of its 10^6 entries nonzero.  Below the
threshold no scipy module is imported.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .linalg import determinant
from .walks import CoinMap, build_B_and_J0, build_K_L, build_U, build_W_Dw

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
# ones stay dense.  All three identities on one random graph with three
# samples (one AMD EPYC core, one BLAS thread, scipy loaded) take 0.062 s
# dense and 0.026 s sparse at m = 160, 0.181 s and 0.056 s at m = 250; at
# 400 rows the m = 160 graph's 2m sides stay dense and take 0.034 s.  At
# m = 50 both ways take about 4 ms, less than the 0.12 s and 33 MB that
# importing scipy.sparse.linalg costs a fresh process.
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

def _arc_matrix(x: np.ndarray):
    """X as the arc side factors it: CSC from SPARSE_LU_MIN rows up."""
    if x.shape[0] < SPARSE_LU_MIN:
        return x
    from scipy.sparse import csc_array
    return csc_array(x)


def _arc_side(x, t: complex) -> complex:
    """det(I - t*X) for an X from _arc_matrix."""
    if isinstance(x, np.ndarray):
        return determinant(np.eye(x.shape[0]) - t * x)
    from scipy.sparse import eye_array
    return determinant(eye_array(x.shape[0], format="csc") - t * x)


def _vertex_side(y: np.ndarray, d: np.ndarray, exponent: int,
                 t: complex) -> complex:
    eye = np.eye(y.shape[0])
    return complex((1.0 - t * t) ** exponent) * determinant(
        eye - t * y + t * t * (d - eye))


def _compare(x: np.ndarray, y: np.ndarray, d: np.ndarray, exponent: int,
             t_samples: list[complex], tol: float,
             check=None) -> IdentityReport:
    """Compare det(I - t*X) with (1 - t^2)^e * det(I - t*Y + t^2*(D - I))
    at every sample off the poles; check(t), when given, runs first at each
    compared sample."""
    x = _arc_matrix(x)
    pairs = []
    skipped = []
    for t in t_samples:
        if abs(1.0 - t * t) < POLE_GUARD:
            skipped.append(t)
            continue
        if check is not None:
            check(t)
        pairs.append((t, _arc_side(x, t), _vertex_side(y, d, exponent, t)))
    samples = [SamplePoint(t, lhs, rhs, _rel_err(lhs, rhs))
               for t, lhs, rhs in sorted(pairs, key=lambda p: (p[0].real,
                                                               p[0].imag))]
    # np.max propagates NaN, so a non-finite sample fails the verdict
    # wherever it falls among the samples.
    max_err = float(np.max([s.rel_err for s in samples], initial=0.0))
    return IdentityReport(samples=samples, max_rel_err=max_err,
                          verdict=max_err <= tol, skipped=skipped)


# -- classical (unweighted) identity ----------------------------------

def _ihara_arc_matrix(graph: Graph) -> np.ndarray:
    b, j0 = build_B_and_J0(graph)
    return b.s - j0.s


def ihara_hashimoto(graph: Graph, t: complex) -> complex:
    """det(I_{2m} - t*(B - J0)) at the sample point t."""
    return _arc_side(_arc_matrix(_ihara_arc_matrix(graph)), t)


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
    return _compare(_ihara_arc_matrix(graph), graph.adjacency_matrix(),
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
    return _compare(build_U(graph, weights).s, w.s.T, dw.s,
                    graph.m - graph.n, t_samples, tol)


# -- quaternionic identity --------------------------------------------

def quaternionic_identity(graph: Graph, weights: CoinMap,
                          t_samples: list[complex],
                          tol: float = 1e-8,
                          intermediate_tol: float = 1e-10) -> IdentityReport:
    """Quaternionic determinant identity through the complexification map.

    At each admissible sample compares the 4m x 4m and 2n x 2n sides and
    additionally verifies the proof-level resolvent identity entrywise
    within intermediate_tol times the largest expected entry (at least 1).
    Since J0^2 = I, (I + t*J0)^-1 is (I - t*J0) / (1 - t^2), and
    psi(J0) = blockdiag(J0, J0) acts as the row permutation idx ^ 1 on the
    4m complexified arcs.
    """
    x = build_U(graph, weights).psi()
    wq, dwq = build_W_Dw(graph, weights)
    psi_wt, psi_dw = wq.transpose().psi(), dwq.psi()
    kq, lq = build_K_L(graph, weights)
    psi_k, psi_lt = kq.psi(), lq.transpose().psi()
    if x.shape[0] >= SPARSE_LU_MIN:
        from scipy.sparse import csr_array
        psi_lt = csr_array(psi_lt)  # 4m nonzeros: the product costs O(m*n)
    flipped_k = psi_k[np.arange(psi_k.shape[0]) ^ 1]  # psi(J0) @ psi(K)

    def check(t: complex) -> None:
        one_minus = 1.0 - t * t
        resolvent = psi_lt @ (psi_k - t * flipped_k) / one_minus
        expected = (psi_wt - t * psi_dw) / one_minus
        residual = float(np.abs(resolvent - expected).max(initial=0.0))
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        if not residual <= intermediate_tol * scale:
            raise ArithmeticError(
                f"intermediate resolvent identity failed at t = {t}: "
                f"entrywise residual {residual:.3e} at entry scale "
                f"{scale:.3e}")

    return _compare(x, psi_wt, psi_dw, 2 * graph.m - 2 * graph.n,
                    t_samples, tol, check)
