"""Spectrum of the quaternionic walk by four routes, with cross-validation.

* direct: eigensolve of U compressed off the part of its spectrum the
  graph fixes: U = -J0 on Z0, the common kernel of L^T and O^T (O = J0 L),
  which gives +1 betti_number times and -1 m - n + b times (b = 1 for a
  bipartite graph); the rest is the spectrum of C = Q1^T U Q1 over an
  orthonormal basis Q1 of the complement, of size 2n - 1 - b, built in
  O(m n^2) with no 2m x 2m array.  C is turned as qmatrix.psi_block(U)
  would be: real for a real coin, complex when every entry of U lies in
  one copy R + R*u of C (the Grover coin, every alpha/d coin, every
  complex coin), whose eigenvalues and their conjugates are then the
  spectrum, and psi(C), of size 2(2n - 1 - b), otherwise;
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

Every formula route report carries a characteristic-polynomial certificate
of its 4m values against the walk: at eight sample points t on two rings,
sum(log(1 - t*lambda)) over the values is compared with the paper's vertex
side (2m - 2n)*log(1 - t^2) + log det(I - t*psi(W^T) + t^2*(psi(D_w) - I)),
which equals log det(I - t*psi(U)) but is a 2n x 2n determinant, so no route
builds or eigensolves psi(U) and the check costs O(n^3).  The direct route
and compare_spectra remain the reference.  Similarity-class representatives of
the right spectrum are the upper-half-plane members of the computed
eigenvalues.

Each formula route builds the vertex pair once (_vertex_blocks):
qmatrix.psi_blocks of (W^T, D_w), with one axis for both.  When all their
entries lie in one copy R + R*u of C, it is the n x n pair (Y', D') with
psi(W^T) and psi(D_w) unitarily similar to diag(Y', conj(Y')) and
diag(D', conj(D')) by one similarity: theorem8 triangularizes (Y', D'),
whose aligned diagonals (mu, xi) give the rest as (conj(mu), conj(xi)), and
the certificate's determinant is the product of two n x n ones (one, squared,
for a real pair).  Other coins keep the 2n x 2n pair (psi(W^T), psi(D_w)).
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
from .qmatrix import (
    QuatMatrix,
    class_reps,
    dedupe_class_reps,
    psi_blocks,
    psi_spectrum,
)
from .quaternion import Quaternion, canonical_class_rep
from .walks import CoinMap, _turned_coin, build_W_Dw

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
# Largest certificate residual of a formula route, in eigenvalue units
# relative to max(1, max|lambda|).
CROSS_TOL = 1e-7
# The certificate's sample points t = rho*e^(i*theta) / max(||psi(U)||_inf, 1)
# lie on two rings rho in CERT_RADII; the spectra are closed under
# conjugation, so angles in (0, pi) carry all the information.
CERT_ANGLES = (0.3, 1.1, 1.9, 2.7)
CERT_RADII = (0.5, 0.9)
# Most matrix entries one batched slogdet of the vertex side holds at once.
CERT_BATCH = 1 << 20
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
    """Multiset of complexified eigenvalues and the route's cross-check."""

    method: str
    psi_spectrum: np.ndarray
    cross_check: ComparisonRecord | None = None

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "psi_spectrum": [
                {"re": v.real, "im": v.imag, "mult": mult}
                for v, mult in dedupe_class_reps(self.psi_spectrum)
            ],
            "class_reps": [
                {"re": v.real, "im": v.imag, "mult": mult}
                for v, mult in class_reps(self.psi_spectrum)
            ],
        }
        if self.cross_check is not None:
            d["cross_check"] = self.cross_check.to_dict()
        return d


def compare_spectra(a: SpectrumReport | np.ndarray,
                    b: SpectrumReport | np.ndarray,
                    tol: float = 1e-7) -> ComparisonRecord:
    """Multiset comparison of two spectra (reports, or arrays of any shape)
    by a perfect matching: pairs by sorting within clusters at tol,
    minimal-cost assignment only where those fail (linalg._matching), so
    at tol = 0 max_dist is that of a minimal-cost matching."""
    va, vb = (np.asarray(x.psi_spectrum if isinstance(x, SpectrumReport)
                         else x, dtype=complex).ravel() for x in (a, b))
    against = b.method if isinstance(b, SpectrumReport) else "other"
    if va.size != vb.size:
        return ComparisonRecord(
            against=against, max_dist=float("inf"), verdict=False,
            cardinality_match=False,
            note=f"cardinality mismatch: {va.size} vs {vb.size}")
    dist, worst = _matching(va, vb, tol)
    return ComparisonRecord(against=against, max_dist=dist,
                            verdict=dist <= tol,
                            worst_pair=worst if dist > 0.0 else None)


# -- routes -----------------------------------------------------------

def _cut_basis(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis Q1 of Z0^perp = range(L - O) + range(L + O),
    as a real 2m x r array, and the signs sigma with J0 Q1 = Q1 diag(sigma).

    The columns of L - O are odd under J0 and those of L + O even, so Q1
    is built from the edges: with A = [Qa | Qs]/sqrt(2), Qa and Qs the Q
    factors of the m x n signed and unsigned incidence matrices (row k of
    the signed one is +1 at t(2k) and -1 at o(2k), of the unsigned one +1 at
    both), arc 2k gets row k of A and arc 2k + 1 that row times sigma, -1
    over Qa and +1 over Qs.  The cross terms of the blocks cancel in
    Q1^T Q1 = I.  The incidence matrices lose vertex 0's
    column where it is their one dependency: the signed one always (the
    all-ones vector), the unsigned one when the graph is bipartite (the
    2-colouring).  So r = 2n - 1 - b, b = 1 for a bipartite graph.
    """
    edge = np.arange(graph.m)
    signed = np.zeros((graph.m, graph.n))
    signed[edge, graph.terminal[0::2]] = 1.0
    signed[edge, graph.origin[0::2]] = -1.0
    odd = np.linalg.qr(signed[:, 1:])[0]
    even = np.linalg.qr(np.abs(signed)[:, int(graph.is_bipartite):])[0]
    sigma = np.concatenate((-np.ones(odd.shape[1]), np.ones(even.shape[1])))
    rows = np.hstack((odd, even)) / np.sqrt(2.0)
    basis = np.stack((rows, rows * sigma), axis=1)
    return basis.reshape(graph.num_arcs, sigma.size), sigma


def _origin_sums(graph: Graph, rows: np.ndarray) -> np.ndarray:
    """O^T rows: the n x r sums of the arc rows over the arcs leaving each
    vertex."""
    sums = np.zeros((graph.n, rows.shape[1]), dtype=rows.dtype)
    np.add.at(sums, graph.origin, rows)
    return sums


def spectrum_direct(graph: Graph, coin: CoinMap) -> SpectrumReport:
    """Eigensolve of U compressed onto the complement of its fixed +-1
    eigenspace.

    Let O = J0 L be the origin incidence.  For L^T x = 0,
    (U x)_e = q(e) (L^T x)_{o(e)} - x_{e^-1} = -(J0 x)_e whatever the coin,
    so Z0, the intersection of ker L^T and ker O^T, which J0 maps onto
    itself, is invariant under U and U = -J0 there: +1 on its odd part,
    the cycle space of betti_number = m - n + 1 dimensions, and -1 on its
    even part, of m - n + b (b = 1 for a bipartite graph).  With Q1 an
    orthonormal basis of Z0^perp (_cut_basis), Q1^T U Q0 = 0 for any basis
    Q0 of Z0, so the rest of the spectrum is that of C = Q1^T U Q1, of size
    r = 2n - 1 - b.  As U = K L^T - J0 and L^T Q1 = O^T Q1 diag(sigma),
    C = ((O^T diag(q) Q1)^T (O^T Q1) - I) diag(sigma): sums over the arcs
    leaving each vertex and one n-deep product, so with the QR of
    _cut_basis C costs O(m n^2) and no 2m x 2m array is built.  The coin
    is turned as qmatrix.psi_block(U) would turn it (walks._turned_coin):
    C is real for a real coin, complex when the coin's values share an
    axis, and otherwise psi(C), of size 2r, is solved.  The exact +-1
    values are appended, twice for psi(C).
    """
    basis, sigma = _cut_basis(graph)
    origin_q1 = _origin_sums(graph, basis)
    eye = np.eye(sigma.size)
    turned = _turned_coin(graph, coin)
    if turned is None:
        s, p = (_origin_sums(graph, part[:, None] * basis).T @ origin_q1
                for part in (coin.s, coin.p))
        block = QuatMatrix((s - eye) * sigma, p * sigma).psi()
    else:
        block = (_origin_sums(graph, turned[:, None] * basis).T @ origin_q1
                 - eye) * sigma
    copies = 1 if turned is not None else 2
    even = graph.m - graph.n + int(graph.is_bipartite)
    vals = np.concatenate((eigenvalues(block),
                           np.ones(copies * graph.betti_number),
                           -np.ones(copies * even)))
    vals = pair_conjugates(psi_spectrum(vals, graph.num_arcs))
    return SpectrumReport(method="direct", psi_spectrum=vals)


def _last_argmin(dist: np.ndarray) -> int:
    return dist.size - 1 - int(np.argmin(dist[::-1]))


def _trim_tree_values(values: np.ndarray) -> np.ndarray:
    """Remove {1, 1, -1, -1} from the roots, given as (r+, r-) per pair
    (tree case).

    A target t in {1, -1} first removes a whole pair with both roots within
    TREE_TRIM_TOL of t, and sets both roots of every other such pair to
    their midpoint mu/2.  A double root splits by about sqrt(eps) into two
    values symmetric about it: dropping one of each of two such pairs would
    keep a one-sided, first-order error in the characteristic polynomial,
    and the midpoint shows the double root that stays as one value at a
    second-order cost.  Without such a pair, each of the two copies of t
    removes the last of its nearest values, in input order.
    """
    values = values.copy()
    keep = np.ones(values.size, dtype=bool)
    pairs = values.reshape(-1, 2)
    for target in (1.0, -1.0):
        span = np.where(keep.reshape(-1, 2).all(axis=1),
                        np.abs(pairs - target).max(axis=1), np.inf)
        pair = _last_argmin(span)
        if span[pair] <= TREE_TRIM_TOL:
            keep[2 * pair:2 * pair + 2] = False
            span[pair] = np.inf
            near = span <= TREE_TRIM_TOL
            pairs[near] = pairs[near].mean(axis=1, keepdims=True)
            continue
        for _ in range(2):
            dist = np.where(keep, np.abs(values - target), np.inf)
            idx = _last_argmin(dist)
            if not dist[idx] <= TREE_TRIM_TOL:
                raise SpectrumConsistencyError(
                    f"tree-case trim: no eigenvalue within {TREE_TRIM_TOL} "
                    f"of {target}")
            keep[idx] = False
    return values[keep]


def _sample_points(graph: Graph, coin: CoinMap) -> np.ndarray:
    """The certificate's points t = rho*e^(i*theta) / max(||psi(U)||_inf, 1).

    Row e of psi(U) holds the two symplectic parts of q(e) on the
    d(o(e)) - 1 non-backtracking arcs into o(e) and of q(e) - 1 on the
    backtracking one, so its absolute sum is
    (d - 1)*(|s| + |p|) + |s - 1| + |p|, read off the arc arrays in O(m).
    """
    s, p = np.abs(coin.s), np.abs(coin.p)
    degree = np.bincount(graph.origin, minlength=graph.n)[graph.origin]
    rows = (degree - 1) * (s + p) + np.abs(coin.s - 1.0) + p
    scale = max(float(rows.max(initial=0.0)), 1.0)
    return np.multiply.outer(np.array(CERT_RADII) / scale,
                             np.exp(1j * np.array(CERT_ANGLES))).ravel()


def _vertex_blocks(graph: Graph, coin: CoinMap) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pair psi_blocks(W^T, D_w): the n x n (Y', D') when the
    coin's values share one imaginary axis (real for a real coin), else
    (psi(W^T), psi(D_w))."""
    w, dw = build_W_Dw(graph, coin)
    return psi_blocks(w.transpose(), dw)


def _vertex_logdet(graph: Graph, coin: CoinMap, ts: np.ndarray,
                   blocks: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """log det(I - t*psi(U)) at each t from the vertex side of the paper's
    determinant expression, (2m - 2n)*log(1 - t^2)
    + log det(I_2n - t*psi(W^T) + t^2*(psi(D_w) - I_2n)).

    blocks is the vertex pair (_vertex_blocks, built here when None).  An
    n x n pair (Y', D') splits the 2n determinant into those of
    I - t*Y' + t^2*(D' - I) and of its partner with conj(Y') and conj(D');
    for a real pair the two are one matrix, taken once and counted twice.
    The slogdets run over batches of points holding at most CERT_BATCH
    entries, so memory stays bounded at any n.  The imaginary part is a
    phase, not reduced mod 2*pi.
    """
    y, d = _vertex_blocks(graph, coin) if blocks is None else blocks
    size = y.shape[0]
    parts = [(y, d, 1.0)]
    if size != 2 * graph.n:
        if np.iscomplexobj(y):
            parts.append((y.conj(), d.conj(), 1.0))
        else:
            parts = [(y, d, 2.0)]
    eye = np.eye(size)
    step = max(CERT_BATCH // max(size * size, 1), 1)
    total = np.zeros(ts.size, dtype=complex)
    for yp, dp, count in parts:
        for lo in range(0, ts.size, step):
            t = ts[lo:lo + step, None, None]
            sign, logabs = np.linalg.slogdet(eye - t * yp + t * t * (dp - eye))
            total[lo:lo + step] += count * (logabs + 1j * np.angle(sign))
    return (2 * graph.m - 2 * graph.n) * np.log(1.0 - ts * ts) + total


def _certificate(graph: Graph, coin: CoinMap, values: np.ndarray,
                 blocks: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> ComparisonRecord:
    """Characteristic-polynomial certificate of values against psi(U).

    The eigenvalues of psi(U), with multiplicity, are the multiset whose
    sum of log(1 - t*lambda) equals log det(I - t*psi(U)) at every t; that
    log-determinant is taken from the vertex side (_vertex_logdet, on the
    route's vertex pair blocks, or one built here when None): two n x n
    slogdets per point when the coin's values share an axis, one 2n x 2n
    one otherwise, so psi(U) is never built and the check is O(n^3).
    With s = max(||psi(U)||_inf, 1), the sample points are
    t = rho*e^(i*theta)/s for rho in CERT_RADII and theta in CERT_ANGLES.
    As |t*lambda| <= rho, I - t*psi(U) is nonsingular and well conditioned,
    and each factor 1 - t*lambda has modulus between 1 - rho and 1 + rho,
    so one value moved by delta moves the sum by between |t|*delta/(1 + rho)
    and |t|*delta/(1 - rho): in eigenvalue units, 2/3 to 2 times delta on
    the inner ring and 1/1.9 to 10 times delta on the outer one.

    Both sides are -sum_k t^k * p_k / k with p_k the k-th power sum of the
    eigenvalues, so the check sees low-order moments best: an error that
    first enters p_k, as when all values move together, is damped by about
    rho^(k-1): 2^-(k-1) on the inner ring, 0.9^(k-1) on the outer one.
    Grover on C_60, whose 240 values are 60th roots of unity, with every
    value scaled by 1 + 1e-6 reads 5e-7 on the outer ring, while on the
    inner one the exact difference, about 1e-22, is below rounding.

    The residual is the largest difference over the sample points, phase
    taken mod 2*pi, divided by |t| and by max(1, max|lambda|): relative to
    the spectrum's scale, as the rounding of both sides grows with it.  The
    verdict compares it with CROSS_TOL.  A non-finite residual fails, and
    an empty spectrum (no arcs) has residual 0.
    """
    dim = 2 * graph.num_arcs
    if values.size != dim:
        return ComparisonRecord(
            against="certificate", max_dist=float("inf"), verdict=False,
            cardinality_match=False,
            note=f"cardinality mismatch: {values.size} vs {dim}")
    if dim == 0:
        return ComparisonRecord(against="certificate", max_dist=0.0,
                                verdict=True)
    ts = _sample_points(graph, coin)
    diffs = (np.log(1.0 - np.multiply.outer(ts, values)).sum(axis=1)
             - _vertex_logdet(graph, coin, ts, blocks))
    phase = (diffs.imag + np.pi) % (2.0 * np.pi) - np.pi
    scale = max(1.0, float(np.abs(values).max()))
    residual = float(np.max(np.hypot(diffs.real, phase) / np.abs(ts))) / scale
    return ComparisonRecord(against="certificate", max_dist=residual,
                            verdict=residual <= CROSS_TOL)


def _finish_quadratic_route(graph: Graph, method: str, mu: np.ndarray,
                            xi: np.ndarray, coin: CoinMap,
                            blocks: tuple[np.ndarray, np.ndarray] | None = None
                            ) -> SpectrumReport:
    """Report of the roots of lambda^2 - mu*lambda + xi - 1 over aligned
    (mu, xi) pairs, padded or trimmed to 4m values and certified against
    psi(U) (see _certificate, which reads the route's vertex pair blocks,
    or builds it when None)."""
    disc = np.sqrt(mu * mu - 4.0 * (xi - 1.0))
    lam = np.column_stack(((mu + disc) / 2.0, (mu - disc) / 2.0)).ravel()
    excess = graph.m - graph.n
    if excess >= 0:
        lam = np.concatenate((lam, np.ones(2 * excess), -np.ones(2 * excess)))
    else:
        lam = _trim_tree_values(lam)
    vals = pair_conjugates(np.sort_complex(lam))
    report = SpectrumReport(method=method, psi_spectrum=vals)
    report.cross_check = _certificate(graph, coin, vals, blocks)
    return report


def spectrum_theorem_general(graph: Graph, coin: CoinMap,
                             commute_tol: float = 1e-9) -> SpectrumReport:
    """Quadratic-formula route via joint triangularization.

    The aligned diagonals of the jointly triangularized psi(W^T) and
    psi(D_w) are the (mu, xi) pairs.  When the vertex pair is the n x n
    (Y', D') (_vertex_blocks), the pair triangularized is (Y', D') and its n
    aligned diagonals, with their conjugates, are the 2n pairs.  Raises
    when the pair cannot be triangularized together; the caller should then
    use the direct route.
    """
    blocks = _vertex_blocks(graph, coin)
    try:
        _, mus, xis = simultaneous_triangularize(*blocks,
                                                 commute_tol=commute_tol)
    except NotSimultaneouslyTriangularizableError as exc:
        raise NotSimultaneouslyTriangularizableError(
            f"{exc}; use the direct route for this coin",
            residual=exc.residual) from exc
    mus, xis = psi_spectrum(mus, graph.n), psi_spectrum(xis, graph.n)
    return _finish_quadratic_route(graph, "theorem8", mus, xis, coin, blocks)


def _alpha_route(graph: Graph, alpha_plus: complex, method: str,
                 coin: CoinMap) -> SpectrumReport:
    """Formula route with (mu, xi) = (alpha_+- * lambda_T, alpha_+-).

    T = D^-1 A is similar to the symmetric D^-1/2 A D^-1/2, so one eigvalsh
    gives its real spectrum lambda_T; W_+- = alpha_+- * T then have the
    spectra alpha_+- * lambda_T.  Without arcs, W = D_w = 0 and each of
    the 2n pairs is (0, 0).
    """
    if graph.m == 0:
        zeros = np.zeros(2 * graph.n, dtype=complex)
        return _finish_quadratic_route(graph, method, zeros, zeros, coin)
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
    trimmed, and the report's certificate carries a note saying so (no
    silent collapse).
    """
    report = _alpha_route(graph, 2.0 + 0.0j, "grover", CoinMap.grover(graph))
    if graph.is_tree:
        report.cross_check.note = (
            "tree case: mapping yields 2n values for 2m walk "
            "eigenvalues; trimmed excess {1, -1} and cross-checked "
            "against the log-det certificate of psi(U)")
    return report
