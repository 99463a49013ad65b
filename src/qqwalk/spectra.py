"""Spectrum of the quaternionic walk by four routes, with cross-validation.

* direct: eigensolve of the complexified 4m x 4m transition matrix;
* quadratic-formula route: when psi(W^T) and psi(D_w) commute they are
  jointly triangularized and each aligned diagonal pair (mu, xi) yields
  the two roots of lambda^2 - mu*lambda + xi - 1, padded with +-1 for
  non-trees and trimmed by {1, 1, -1, -1} for trees;
* alpha-coin route: for coins q(e) = alpha/d the two complex numbers
  similar to alpha give a conjugate pair of ordinary complex walks whose
  spectra feed the same quadratic formula;
* Grover route: the spectral mapping lambda = lambda_T +- i*sqrt(1 -
  lambda_T^2) from the simple random walk matrix T, padded with +-1.

Every non-direct route report carries a comparison against the direct
route.  Similarity-class representatives of the right spectrum are the
upper-half-plane members of the computed eigenvalues.
"""

from __future__ import annotations

import cmath
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


def _quadratic_roots(mu: complex, xi: complex) -> tuple[complex, complex]:
    disc = cmath.sqrt(mu * mu - 4.0 * (xi - 1.0))
    return (mu + disc) / 2.0, (mu - disc) / 2.0


def _trim_tree_values(values: list[complex]) -> list[complex]:
    """Remove {1, 1, -1, -1} from the computed multiset (tree case)."""
    out = list(values)
    for target in (1.0, 1.0, -1.0, -1.0):
        best = None
        best_dist = TREE_TRIM_TOL
        for idx, v in enumerate(out):
            d = abs(v - target)
            if d <= best_dist:
                best, best_dist = idx, d
        if best is None:
            raise SpectrumConsistencyError(
                f"tree-case trim: no eigenvalue within {TREE_TRIM_TOL} "
                f"of {target}")
        out.pop(best)
    return out


def _finish_quadratic_route(graph: Graph, method: str,
                            lam: list[complex],
                            cross_tol: float,
                            coin: CoinMap) -> SpectrumReport:
    excess = graph.m - graph.n
    if excess >= 0:
        lam.extend([1.0 + 0.0j] * (2 * excess))
        lam.extend([-1.0 + 0.0j] * (2 * excess))
    else:
        lam = _trim_tree_values(lam)
    vals = pair_conjugates(np.sort_complex(np.array(lam, dtype=complex)))
    report = SpectrumReport(method=method, psi_spectrum=vals,
                            class_reps=class_reps(vals))
    direct = spectrum_direct(graph, coin)
    report.cross_check = compare_spectra(report, direct, tol=cross_tol)
    return report


def spectrum_theorem_general(graph: Graph, coin: CoinMap,
                             commute_tol: float = 1e-9,
                             cross_tol: float = 1e-7) -> SpectrumReport:
    """Quadratic-formula route via joint triangularization.

    Requires psi(W^T) and psi(D_w) to commute (the implemented sufficient
    condition for joint triangularization); otherwise raises and the caller
    should fall back to the direct route.
    """
    w, dw = build_W_Dw(graph, coin)
    try:
        _, mus, xis = simultaneous_triangularize(
            w.transpose().psi(), dw.psi(), commute_tol=commute_tol)
    except NotSimultaneouslyTriangularizableError as exc:
        raise NotSimultaneouslyTriangularizableError(
            f"{exc}; use the direct route for this coin",
            residual=exc.residual) from exc
    lam: list[complex] = []
    for mu, xi in zip(mus, xis):
        lam.extend(_quadratic_roots(complex(mu), complex(xi)))
    return _finish_quadratic_route(graph, "theorem8", lam, cross_tol, coin)


def spectrum_alpha_coin(graph: Graph, alpha: Quaternion,
                        cross_tol: float = 1e-7) -> SpectrumReport:
    """Quadratic-formula route for coins q(e) = alpha/d_{o(e)}.

    alpha is conjugated into the complex pair alpha_+ = a0 + |Im|*i and
    alpha_- = conj(alpha_+); the two ordinary complex walks they induce
    have weighted matrices W_+- with entries alpha_+-/d_u, and each
    eigenvalue mu of W_+-^T contributes the roots of
    lambda^2 - mu*lambda + alpha_+- - 1.
    """
    alpha_plus = canonical_class_rep(alpha)
    alpha_minus = alpha_plus.conjugate()
    t = graph.transition_matrix()
    lam: list[complex] = []
    for a in (alpha_plus, alpha_minus):
        w_signed = a * t.astype(complex)  # (W_+-)_{uv} = alpha_+-/d_u on arcs
        mus = eigenvalues(w_signed.T).eigenvalues
        for mu in mus:
            lam.extend(_quadratic_roots(complex(mu), a))
    coin = CoinMap.from_alpha(graph, alpha)
    return _finish_quadratic_route(graph, "theorem10", lam, cross_tol, coin)


def spectrum_grover(graph: Graph, cross_tol: float = 1e-7,
                    modulus_tol: float = 1e-8) -> SpectrumReport:
    """Spectral-mapping route for the Grover walk.

    Each eigenvalue lambda_T of the simple random walk matrix T maps to
    lambda_T +- i*sqrt(1 - lambda_T^2); with their conjugates these are the
    quadratic-formula values of the Grover coin, finished like the other
    formula routes.  For trees the mapping overcounts at lambda_T = +-1; the
    excess is trimmed only when the direct eigensolve confirms it, and the
    comparison is recorded on the report (no silent collapse).
    """
    # T = D^-1 A is similar to the symmetric D^-1/2 A D^-1/2: real spectrum.
    d_half = np.diag([1.0 / np.sqrt(graph.degree(u)) for u in range(graph.n)])
    sym = d_half @ graph.adjacency_matrix() @ d_half
    t_vals = np.linalg.eigvalsh(sym)
    lam: list[complex] = []
    for lt in t_vals:
        if abs(lt) > 1.0 + modulus_tol:
            raise SpectrumConsistencyError(
                f"random-walk eigenvalue {lt} outside [-1, 1]")
        lt = min(1.0, max(-1.0, float(lt)))
        root = np.sqrt(1.0 - lt * lt)
        lam.extend([complex(lt, root), complex(lt, -root)] * 2)
    report = _finish_quadratic_route(graph, "grover", lam, cross_tol,
                                     CoinMap.grover(graph))
    if graph.is_tree:
        report.cross_check.note = (
            "tree case: mapping yields 2n values for 2m walk "
            "eigenvalues; trimmed excess {1, -1} and cross-checked "
            "against the direct eigensolve")
    return report
