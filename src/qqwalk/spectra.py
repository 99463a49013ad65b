"""Spectrum of the quaternionic walk by four routes, with cross-validation.

* direct: eigensolve of the complexified 4m x 4m transition matrix;
* formula routes: each is a source of aligned pairs (mu, xi), and one
  finisher takes the two roots of lambda^2 - mu*lambda + xi - 1 per pair,
  pads with +-1 for non-trees and trims {1, 1, -1, -1} for trees:
  - theorem8: the diagonals of psi(W^T) and psi(D_w), jointly
    triangularized;
  - theorem10, coins q(e) = alpha/d: the complex pair alpha_+- similar to
    alpha gives walks W_+- = alpha_+- * T with T = D^-1 A, so the pairs are
    (alpha_+- * lambda_T, alpha_+-) over the real spectrum lambda_T of T,
    taken from one symmetric eigensolve;
  - grover: the theorem10 pairs at alpha = 2.

Every formula route report carries a comparison against the direct
route.  Similarity-class representatives of the right spectrum are the
upper-half-plane members of the computed eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .linalg import (
    NotSimultaneouslyTriangularizableError,
    _matching,
    eigenvalues,
    pair_conjugates,
    simultaneous_triangularize,
)
from .qmatrix import class_reps, dedupe_class_reps
from .quaternion import Quaternion, canonical_class_rep
from .walks import CoinMap, build_U, build_W_Dw

__all__ = [
    "ComparisonRecord",
    "SpectrumReport",
    "compare_spectra",
    "spectrum_direct",
    "spectrum_grover",
    "spectrum_theorem_general",
    "spectrum_alpha_coin",
]

TREE_TRIM_TOL = 1e-6
# Largest distance at which a formula route agrees with the direct route.
CROSS_TOL = 1e-7
# How far outside [-1, 1] a computed eigenvalue of T may fall before clipping.
MODULUS_TOL = 1e-8


class SpectrumConsistencyError(RuntimeError):
    """Internal cross-check failed (e.g. missing +-1 in the tree trim)."""


@dataclass
class ComparisonRecord:
    against: str
    max_dist: float
    verdict: bool
    cardinality_match: bool = True
    worst_pair: tuple[complex, complex] | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        d = {"against": self.against, "max_dist": self.max_dist,
             "verdict": self.verdict}
        if not self.cardinality_match:
            d["cardinality_match"] = False
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class SpectrumReport:
    """Multiset of complexified eigenvalues plus similarity-class reps."""

    method: str
    psi_spectrum: np.ndarray
    class_reps: list[tuple[complex, int]]
    cross_check: ComparisonRecord | None = None

    def grouped_spectrum(self, tol: float = 1e-7) -> list[tuple[complex, int]]:
        """Eigenvalues clustered within tol, with multiplicities, sorted."""
        return dedupe_class_reps(list(self.psi_spectrum), tol)

    def to_dict(self, tol: float = 1e-7) -> dict:
        d = {
            "method": self.method,
            "psi_spectrum": [
                {"re": v.real, "im": v.imag, "mult": mult}
                for v, mult in self.grouped_spectrum(tol)
            ],
            "class_reps": [
                {"re": v.real, "im": v.imag, "mult": mult}
                for v, mult in self.class_reps
            ],
        }
        if self.cross_check is not None:
            d["cross_check"] = self.cross_check.to_dict()
        return d


def compare_spectra(a: SpectrumReport | np.ndarray,
                    b: SpectrumReport | np.ndarray,
                    tol: float = 1e-7) -> ComparisonRecord:
    """Minimal-cost multiset comparison of two spectra."""
    va = a.psi_spectrum if isinstance(a, SpectrumReport) else np.asarray(a)
    vb = b.psi_spectrum if isinstance(b, SpectrumReport) else np.asarray(b)
    against = b.method if isinstance(b, SpectrumReport) else "other"
    if va.size != vb.size:
        return ComparisonRecord(
            against=against, max_dist=float("inf"), verdict=False,
            cardinality_match=False,
            note=f"cardinality mismatch: {va.size} vs {vb.size}")
    dist, worst = _matching(va, vb)
    return ComparisonRecord(against=against, max_dist=dist,
                            verdict=dist <= tol,
                            worst_pair=worst if dist > 0.0 else None)


# -- routes -----------------------------------------------------------

def spectrum_direct(graph: Graph, coin: CoinMap) -> SpectrumReport:
    """Eigensolve of the complexified transition matrix."""
    u = build_U(graph, coin)
    vals = pair_conjugates(eigenvalues(u.psi()).eigenvalues)
    return SpectrumReport(method="direct", psi_spectrum=vals,
                          class_reps=class_reps(vals))


def _trim_tree_values(values: np.ndarray) -> np.ndarray:
    """Remove {1, 1, -1, -1} from the computed multiset (tree case).

    Each target removes the last of its nearest values, in input order.
    """
    keep = np.ones(values.size, dtype=bool)
    for target in (1.0, 1.0, -1.0, -1.0):
        dist = np.where(keep, np.abs(values - target), np.inf)
        idx = values.size - 1 - int(np.argmin(dist[::-1]))
        if not dist[idx] <= TREE_TRIM_TOL:
            raise SpectrumConsistencyError(
                f"tree-case trim: no eigenvalue within {TREE_TRIM_TOL} "
                f"of {target}")
        keep[idx] = False
    return values[keep]


def _finish_quadratic_route(graph: Graph, method: str, mu: np.ndarray,
                            xi: np.ndarray, coin: CoinMap) -> SpectrumReport:
    """Report of the roots of lambda^2 - mu*lambda + xi - 1 over aligned
    (mu, xi) pairs, padded or trimmed to 4m values and cross-checked
    against the direct route."""
    disc = np.sqrt(mu * mu - 4.0 * (xi - 1.0))
    lam = np.column_stack(((mu + disc) / 2.0, (mu - disc) / 2.0)).ravel()
    excess = graph.m - graph.n
    if excess >= 0:
        lam = np.concatenate((lam, np.ones(2 * excess), -np.ones(2 * excess)))
    else:
        lam = _trim_tree_values(lam)
    vals = pair_conjugates(np.sort_complex(lam))
    report = SpectrumReport(method=method, psi_spectrum=vals,
                            class_reps=class_reps(vals))
    direct = spectrum_direct(graph, coin)
    report.cross_check = compare_spectra(report, direct, tol=CROSS_TOL)
    return report


def spectrum_theorem_general(graph: Graph, coin: CoinMap,
                             commute_tol: float = 1e-9) -> SpectrumReport:
    """Quadratic-formula route via joint triangularization.

    The aligned diagonals of the jointly triangularized psi(W^T) and
    psi(D_w) are the (mu, xi) pairs.  Raises when the pair cannot be
    triangularized together; the caller should then use the direct route.
    """
    w, dw = build_W_Dw(graph, coin)
    try:
        _, mus, xis = simultaneous_triangularize(
            w.transpose().psi(), dw.psi(), commute_tol=commute_tol)
    except NotSimultaneouslyTriangularizableError as exc:
        raise NotSimultaneouslyTriangularizableError(
            f"{exc}; use the direct route for this coin",
            residual=exc.residual) from exc
    return _finish_quadratic_route(graph, "theorem8", mus, xis, coin)


def _alpha_route(graph: Graph, alpha_plus: complex, method: str,
                 coin: CoinMap) -> SpectrumReport:
    """Formula route with (mu, xi) = (alpha_+- * lambda_T, alpha_+-).

    T = D^-1 A is similar to the symmetric D^-1/2 A D^-1/2, so one eigvalsh
    gives its real spectrum lambda_T; W_+- = alpha_+- * T then have the
    spectra alpha_+- * lambda_T.
    """
    d_half = 1.0 / np.sqrt(graph.degree_matrix().diagonal())
    t_vals = np.linalg.eigvalsh(
        d_half[:, None] * graph.adjacency_matrix() * d_half[None, :])
    if np.abs(t_vals).max() > 1.0 + MODULUS_TOL:
        raise SpectrumConsistencyError(
            f"random-walk eigenvalue {t_vals[np.abs(t_vals).argmax()]} "
            "outside [-1, 1]")
    t_vals = np.clip(t_vals, -1.0, 1.0)
    alphas = np.array([alpha_plus, np.conj(alpha_plus)])
    mu = (alphas[:, None] * t_vals[None, :]).ravel()
    xi = np.repeat(alphas, t_vals.size)
    return _finish_quadratic_route(graph, method, mu, xi, coin)


def spectrum_alpha_coin(graph: Graph, alpha: Quaternion) -> SpectrumReport:
    """Quadratic-formula route for coins q(e) = alpha/d_{o(e)}.

    alpha is conjugated into the complex pair alpha_+ = a0 + |Im|*i and
    alpha_- = conj(alpha_+); the two ordinary complex walks they induce are
    W_+- = alpha_+- * T with T = D^-1 A, so each eigenvalue lambda_T of T
    gives the pairs (mu, xi) = (alpha_+- * lambda_T, alpha_+-).
    """
    return _alpha_route(graph, canonical_class_rep(alpha), "theorem10",
                        CoinMap.from_alpha(graph, alpha))


def spectrum_grover(graph: Graph) -> SpectrumReport:
    """Formula route for the Grover walk: the alpha-coin route at alpha = 2.

    Each eigenvalue lambda_T of T yields lambda_T +- i*sqrt(1 - lambda_T^2),
    twice.  For trees this overcounts at lambda_T = +-1; the excess is
    trimmed, and the comparison with the direct eigensolve is recorded on
    the report with a note (no silent collapse).
    """
    report = _alpha_route(graph, 2.0 + 0.0j, "grover", CoinMap.grover(graph))
    if graph.is_tree:
        report.cross_check.note = (
            "tree case: mapping yields 2n values for 2m walk "
            "eigenvalues; trimmed excess {1, -1} and cross-checked "
            "against the direct eigensolve")
    return report
