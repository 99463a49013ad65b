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

Both sides are taken as logarithms, so neither overflows nor underflows.
The arc side goes through the walk's fixed +-1 eigenspace Z0 (see
spectra.spectrum_direct): U is block upper triangular in an orthonormal
basis [Q0 Q1] with U = -J0 on Z0, so

    det(I - t*U) = (1 - t)^beta * (1 + t)^(m - n + b) * det(I_r - t*C)

with beta the Betti number, b = 1 for a bipartite graph and C = Q1^T U Q1
of size r = 2n - 1 - b (spectra._compression), built from n x n arrays and
the lifts the graph holds (Graph.z0_lifts).  Every identity is one
comparison (_compare) of one operand read alike by both sides: unit weights
(B - J0 is U's transpose at q = 1) and complex weights as they stand;
quaternion weights as the coin, psi(C) with both exponents doubled,
I - t*psi(C) written from C's parts (C_s, C_p); weights on one axis as
their turned values (walks.CoinMap.turned), with det(I - t*C) *
conj(det(I - conj(t)*C)), one determinant squared when C is real.  The
vertex side is the certificate's, spectra._vertex_logdet, factored over the
strong components of the weights' support, and both sides take spectra's
halving, batched slogdet.  So no identity builds or factors
the 2m x 2m or 4m x 4m X: that the split equals the factorization of
I - t*X is checked by the tests, not at run time.  K and L enter only the
resolvent check, as their arc entries (e, o(e), w(e)) and (e, t(e), 1),
from which L^T K and L^T J0 K are summed over the arcs and compared, once,
with W^T and D_w.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .qmatrix import QuatMatrix
from .spectra import _compression, _logdet, _operand, _vertex_logdet
from .walks import CoinMap, _K_L_entries, build_W_Dw

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
# Each half of the quaternionic identity's resolvent check holds entrywise
# within this multiple of its largest expected entry (at least 1).
INTERMEDIATE_TOL = 1e-10


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
        d = {
            "samples": [
                {"t": {"re": s.t.real, "im": s.t.imag},
                 "lhs": {"re": s.lhs.real, "im": s.lhs.imag},
                 "rhs": {"re": s.rhs.real, "im": s.rhs.imag},
                 "rel_err": s.rel_err}
                for s in self.samples
            ],
            "max_rel_err": self.max_rel_err, "verdict": self.verdict,
        }
        if self.skipped:
            d["skipped"] = [{"re": t.real, "im": t.imag} for t in self.skipped]
        return d


def _rel_err(log_lhs: complex, log_rhs: complex) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|) from the logs of the two sides.

    With delta = log lhs - log rhs, turned so that Re delta >= 0 (lhs the
    larger side), that is |expm1(-delta)|, which cannot overflow; a phase
    off by whole turns changes nothing.  NaN when a log is not finite, two
    zero sides included.
    """
    delta = log_lhs - log_rhs
    if not cmath.isfinite(delta):
        return float("nan")
    if delta.real < 0.0:
        delta = -delta
    return float(abs(np.expm1(-delta)))


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

def _arc_logdet(graph: Graph, weights, halves: bool,
                ts: np.ndarray) -> np.ndarray:
    """log det(I - t*X) at each t through the +-1 split: X = U for weights
    given as one value per arc, X = psi(U) for a CoinMap (psi(C) from C's
    parts, the fixed exponents doubled).  With halves, the per-arc weights
    are a one-axis coin's turned values (walks.CoinMap.turned), and
    X = psi(U) is taken as det(I - t*C) * conj(det(I - conj(t)*C))
    (spectra._logdet)."""
    c = _compression(graph, weights)
    even = graph.m - graph.n + int(graph.is_bipartite)
    copies = 2 if halves or isinstance(weights, CoinMap) else 1
    # Modulus and phase apart, and a factor with exponent 0 left out, so
    # that t = +-1 reads log 0 = -inf, not NaN.
    with np.errstate(divide="ignore"):
        fixed = sum(copies * count * np.log(np.abs(factor))
                    + 1j * (copies * count * np.angle(factor))
                    for count, factor in ((graph.betti_number, 1.0 - ts),
                                          (even, 1.0 + ts)) if count)
    return fixed + _logdet(ts, c, halves=halves)


def _compare(graph: Graph, weights, halves: bool, t_samples: list[complex],
             tol: float) -> IdentityReport:
    """The identity core: compare the arc side (_arc_logdet) with the
    vertex side (spectra._vertex_logdet) of the weights, read alike by
    both, at every sample off the poles.  lhs and rhs are reported as exp
    of the logs, rel_err comes from the logs (_rel_err).  A report that
    compared no sample, every one on a pole, is false, and its max_rel_err
    is NaN: nothing was measured."""
    kept, skipped = [], []
    for t in t_samples:
        (skipped if abs(1.0 - t * t) < POLE_GUARD else kept).append(t)
    kept.sort(key=lambda t: (t.real, t.imag))
    ts = np.array(kept, dtype=complex)
    lhs = _arc_logdet(graph, weights, halves, ts)
    rhs = _vertex_logdet(graph, weights, halves, ts)
    with np.errstate(over="ignore"):
        samples = [SamplePoint(t, complex(np.exp(a)), complex(np.exp(b)),
                               _rel_err(complex(a), complex(b)))
                   for t, a, b in zip(kept, lhs, rhs)]
    # np.max propagates NaN, so a non-finite sample fails the verdict
    # wherever it falls among the samples.
    max_err = (float(np.max([s.rel_err for s in samples])) if samples
               else float("nan"))
    return IdentityReport(samples, max_err, max_err <= tol, skipped)


# -- classical (unweighted) identity ----------------------------------

def ihara_hashimoto(graph: Graph, t: complex) -> complex:
    """det(I_{2m} - t*(B - J0)) at the sample point t."""
    ones, ts = np.ones(graph.num_arcs), np.array([t], dtype=complex)
    with np.errstate(over="ignore"):
        return complex(np.exp(_arc_logdet(graph, ones, False, ts)[0]))


def ihara_bass(graph: Graph, t: complex) -> complex:
    """(1 - t^2)^(m-n) * det(I_n - t*A + t^2*(D - I_n)), the vertex side of
    the identity core (spectra._vertex_logdet) at unit weights."""
    if graph.is_tree and abs(1.0 - t * t) < POLE_GUARD:
        raise ZeroDivisionError(
            f"pole at t = {t}: tree case has exponent -1 in (1 - t^2)")
    ones, ts = np.ones(graph.num_arcs), np.array([t], dtype=complex)
    with np.errstate(over="ignore"):
        return complex(np.exp(_vertex_logdet(graph, ones, False, ts)[0]))


def ihara_identity(graph: Graph, t_samples: list[complex],
                   tol: float = 1e-8) -> IdentityReport:
    """Compare the arc-level and Bass-type expressions at each sample."""
    return _compare(graph, np.ones(graph.num_arcs), False, t_samples, tol)


# -- complex-weighted identity ----------------------------------------

def weighted_zeta_identity(graph: Graph, weights: CoinMap,
                           t_samples: list[complex],
                           tol: float = 1e-8) -> IdentityReport:
    """Weighted determinant identity for complex-valued weights.

    Checks det(I - t*(B_w^T - J0)) against
    (1 - t^2)^(m-n) * det(I - t*W^T + t^2*(D_w - I)) at each sample.  The
    untransposed form (B_w with W) has the same two sides exactly, since
    det(X^T) = det(X) and J0 is symmetric.  The weights enter both sides
    as given: C is the compression of the complex U itself.
    """
    if not weights.is_complex_valued():
        raise ValueError(
            "weights have nonzero j/k parts; use quaternionic_identity")
    return _compare(graph, weights.s, False, t_samples, tol)


# -- quaternionic identity --------------------------------------------

def _arc_product(n: int, left: tuple, right: tuple) -> QuatMatrix:
    """L^T R, n x n, for 2m x n quaternionic L and R with one entry in each
    row, given as (rows, cols, s, p): each row's entry of L^T times that of
    R, summed over the rows."""
    at = np.empty_like(right[0])
    at[right[0]] = np.arange(right[0].size)
    rows, cols_l, sl, pl = left
    _, cols_r, sr, pr = (part[at[rows]] for part in right)
    # (sl + j*pl)(sr + j*pr), with j*z = conj(z)*j.
    s, p = np.zeros((2, n, n), dtype=complex)
    np.add.at(s, (cols_l, cols_r), sl * sr - np.conj(pl) * pr)
    np.add.at(p, (cols_l, cols_r), np.conj(sl) * pr + pl * sr)
    return QuatMatrix(s, p)


def quaternionic_identity(graph: Graph, weights: CoinMap,
                          t_samples: list[complex],
                          tol: float = 1e-8) -> IdentityReport:
    """Quaternionic determinant identity through the complexification map.

    At each admissible sample compares the arc side det(I - t*psi(U)) with
    the 2n x 2n vertex side.  First it verifies, once, the proof-level
    resolvent identity psi(L^T (I + t*J0)^-1 K) = (psi(W^T) - t*psi(D_w))
    / (1 - t^2): as (I + t*J0)^-1 = (I - t*J0) / (1 - t^2), it holds at
    every t exactly when L^T K = W^T and L^T J0 K = D_w, each summed over
    the arcs (_arc_product) and compared in its symplectic parts, psi's
    entries, within INTERMEDIATE_TOL times max(1, largest entry).  Both
    sides read the coin's operand (spectra._operand): when its values
    share one axis, psi(U) is unitarily similar to diag(S', conj(S'))
    with S' the walk of the turned values, and each side is taken on the
    n x n matrices of S' at t and at conj(t).
    """
    k, l = _K_L_entries(graph, weights)
    w, dw = build_W_Dw(graph, weights)
    for name, right, want in (("L^T K = W^T", k, w.transpose()),
                              ("L^T J0 K = D_w", (k[0] ^ 1, *k[1:]), dw)):
        residual = _arc_product(graph.n, l, right).max_abs_diff(want)
        scale = max(1.0, float(np.abs([want.s, want.p]).max()))
        if not residual <= INTERMEDIATE_TOL * scale:
            raise ArithmeticError(
                f"resolvent identity failed: {name} off by {residual:.3e} "
                f"at entry scale {scale:.3e}")
    return _compare(graph, *_operand(weights), t_samples, tol)
