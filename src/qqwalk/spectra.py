"""Spectrum of the quaternionic walk by four routes, with cross-validation.

* direct: eigensolve of U compressed off the part of its spectrum the graph
  fixes: U = -J0 on Z0, the common kernel of L^T and O^T (O = J0 L), which
  gives +1 betti_number times and -1 m - n + b times (b = 1 for a bipartite
  graph); the rest is the spectrum of C = Q1^T U Q1 over an orthonormal
  basis Q1 of the complement, of size 2n - 1 - b, built from n x n arrays
  in O(n^3) (_compression, which the zeta identities' arc sides read too,
  from the lifts the graph holds).  C is built from the coin's turned
  values (walks.CoinMap.turned): real for a real coin, complex when the
  values share one imaginary axis (the Grover coin, every alpha/d coin,
  every complex coin), whose eigenvalues and their conjugates are then the
  spectrum, and psi(C), of size 2(2n - 1 - b), otherwise, from C's parts,
  which the quaternionic arc side writes into I - t*psi(C) directly;
* formula routes: each is a source of aligned pairs (mu, xi), whose
  values (_quadratic_values) are the roots of lambda^2 - mu*lambda + xi - 1
  (one double root where the discriminant is within DOUBLE_ROOT_TOL of 0),
  padded with +-1 for non-trees and trimmed of {1, 1, -1, -1} for trees:
  - theorem8: the diagonals of psi(W^T) and psi(D_w), jointly
    triangularized one strong component of the coin's support at a time,
    one-vertex components (every vertex of a leaf -> center star) in
    closed form, and a block whose D is scalar by one eigensolve: every
    alpha/d and Grover coin, and any coin whose out-sums agree on the
    block, real ones when its values share no axis;
  - theorem10, coins q(e) = alpha/d, and grover, alpha = 2, are theorem8
    on their coins: the one scalar block alpha_+ * T^T (T = D^-1 A) is
    similar to alpha_+ times a symmetric matrix, so one eigvalsh
    (linalg._class_eigenvalues) gives the pairs (alpha_+- * lambda_T,
    alpha_+-), alpha_+- the complex pair similar to alpha.

Every formula route report carries a characteristic-polynomial certificate
of its 4m values against the walk: at eight sample points t on two rings,
sum(log(1 - t*lambda)) over the values is compared with the paper's vertex
side (2m - 2n)*log(1 - t^2) + log det(I - t*psi(W^T) + t^2*(psi(D_w) - I)),
which equals log det(I - t*psi(U)) but is a 2n x 2n determinant, so no route
builds or eigensolves psi(U); it factors over the blocks theorem8 solves
(_strong_split, by the strong components of the coin's support), so the
check costs the sum of the blocks' cubed sizes, O(n + m) for an acyclic
support and O(n^3) for one component.  The direct route and compare_spectra
remain the reference.  Similarity-class representatives of the right
spectrum are the upper-half-plane members of the computed eigenvalues.

Routes and identities read one operand per coin (_operand): its turned
values (walks.CoinMap.turned) when they share one axis, the coin itself
otherwise.  The vertex pair (_vertex_pair) of turned values is the n x n
(Y', D') with psi(W^T) and psi(D_w) unitarily similar to diag(Y', conj(Y'))
and diag(D', conj(D')) by one similarity; theorem8 triangularizes it, and
its aligned diagonals (mu, xi) give the rest as (conj(mu), conj(xi)).  One
halving slogdet (_logdet) takes both sides of the paper's identity, for the
certificate and for zeta: det(X'(t)) * conj(det(X'(conj(t)))), one n x n
determinant counted twice when X' is real.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph
from .linalg import (
    NotSimultaneouslyTriangularizableError,
    SpectrumConsistencyError,
    _matching,
    _scalar_pairs,
    eigenvalues,
    pair_conjugates,
    simultaneous_triangularize,
)
from .qmatrix import QuatMatrix, class_reps, dedupe_class_reps, psi_spectrum
from .quaternion import Quaternion
from .walks import CoinMap, _vertex_arrays, build_W_Dw

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
# A discriminant mu^2 - 4(xi - 1) within DOUBLE_ROOT_TOL * (|mu|^2 +
# 4|xi - 1|) of 0, its rounding, gives one double root mu/2, not two.
DOUBLE_ROOT_TOL = 8 * np.finfo(float).eps
# Largest certificate residual of a formula route, in eigenvalue units
# relative to max(1, max|lambda|).
CROSS_TOL = 1e-7
# The certificate's sample points t = rho*e^(i*theta) / max(||psi(U)||_inf, 1)
# lie on two rings rho in CERT_RADII; the spectra are closed under
# conjugation, so angles in (0, pi) carry all the information.
CERT_ANGLES = (0.3, 1.1, 1.9, 2.7)
CERT_RADII = (0.5, 0.9)
# Most matrix entries one batched slogdet (_logdet) holds at once: 4 MB of
# complex values per temporary.
LOGDET_BATCH = 1 << 18


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

def _times_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real b, as two real products when a is complex."""
    if not np.iscomplexobj(a):
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=complex)
    out.real = a.real @ b
    out.imag = a.imag @ b
    return out


def _compression(graph: Graph, weights):
    """C = Q1^T U Q1, U the walk of the arc weights, compressed onto Z0^perp.

    weights is an array of one real or complex value per arc, which gives
    C, or a CoinMap, which gives the QuatMatrix (C_s, C_p) of C's
    symplectic parts.  Q1 = [Q1- Q1+] spans Z0^perp = range(L - O) +
    range(L + O): with sigma = -1 on the odd part and +1 on the even one,
    N_sigma = (L + sigma*O) without vertex 0's column where it is a
    dependency (always for sigma = -1; for sigma = +1 when the graph is
    bipartite), and R_sigma the Cholesky factor of N_sigma^T N_sigma / 2 =
    (D + sigma*A) grounded alike (the Laplacian and the signless
    Laplacian), Q1_sigma = N_sigma R_sigma^-1 / sqrt(2), so
    J0 Q1 = Q1 diag(sigma) and r = 2n - 1 - b.  The Laplacians are exact
    small-integer matrices, so Q1 is orthonormal up to the rounding of one
    Cholesky factorization: C's spectrum matches that of a Householder-QR
    basis within 7e-14 on a 200-vertex path and odd cycle.  As
    U = K L^T - J0, K = diag(q) O and L^T = O^T J0, C = (F_q^T F_1 - I)
    diag(sigma) with the n x r forms F_q = O^T diag(q) Q1 = W_q E +
    D_q E diag(sigma): W_q holds q on each arc (u, v), D_q the sums of q
    leaving each vertex and E the lifts R_sigma^-1 / sqrt(2) with a zero
    row at a grounded vertex, which the graph holds (Graph.z0_lifts).  So
    every array is n x n or n x r, built in O(n^3).
    """
    lift, sigma = graph.z0_lifts

    def form(q: np.ndarray) -> np.ndarray:
        w, out_sums = _vertex_arrays(graph, q)
        return _times_real(w, lift) + out_sums[:, None] * lift * sigma

    plain = form(np.ones(graph.num_arcs))

    def compressed(q: np.ndarray, shift: float) -> np.ndarray:
        c = _times_real(form(q).T, plain)
        c[np.diag_indices_from(c)] -= shift
        c *= sigma
        return c

    if not isinstance(weights, CoinMap):
        return compressed(weights, 1.0)
    return QuatMatrix(compressed(weights.s, 1.0), compressed(weights.p, 0.0))


def _operand(coin: CoinMap) -> tuple:
    """(weights, halves): what the routes and the quaternionic identity
    build from a coin.  (coin.turned(), True) when its values share one
    imaginary axis, and every matrix is the block X' of psi(X) ~
    diag(X', conj(X')); (coin, False) otherwise, and X is psi(X) itself."""
    turned = coin.turned()
    return (coin, False) if turned is None else (turned, True)


def spectrum_direct(graph: Graph, coin: CoinMap) -> SpectrumReport:
    """Eigensolve of U compressed onto the complement of its fixed +-1
    eigenspace.

    Let O = J0 L be the origin incidence.  For L^T x = 0,
    (U x)_e = q(e) (L^T x)_{o(e)} - x_{e^-1} = -(J0 x)_e whatever the coin,
    so Z0, the intersection of ker L^T and ker O^T, which J0 maps onto
    itself, is invariant under U and U = -J0 there: +1 on its odd part,
    the cycle space of betti_number = m - n + 1 dimensions, and -1 on its
    even part, of m - n + b (b = 1 for a bipartite graph).  With Q1 a
    basis of Z0^perp orthonormal up to rounding, Q1^T U Q0 = 0 for any
    basis Q0 of Z0, so the rest of the spectrum is that of
    C = Q1^T U Q1 (_compression), of size r = 2n - 1 - b, built from
    n x n arrays with no 2m-sized one.  C is that of the coin's operand
    (_operand): real for a real coin, complex when the coin's values share
    an axis, and otherwise psi(C), of size 2r, is solved.  The exact +-1
    values are appended, twice for psi(C).
    """
    weights, halves = _operand(coin)
    block = _compression(graph, weights)
    copies = 1 if halves else 2
    even = graph.m - graph.n + int(graph.is_bipartite)
    vals = np.concatenate((eigenvalues(block if halves else block.psi()),
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
    degree = graph.degrees[graph.origin]
    rows = (degree - 1) * (s + p) + np.abs(coin.s - 1.0) + p
    scale = max(float(rows.max(initial=0.0)), 1.0)
    return np.multiply.outer(np.array(CERT_RADII) / scale,
                             np.exp(1j * np.array(CERT_ANGLES))).ravel()


def _vertex_pair(graph: Graph, weights) -> tuple[np.ndarray, np.ndarray]:
    """(Y, D) = (W^T, D_w) of the weights: n x n for one value per arc
    (real, complex or turned), (psi(W^T), psi(D_w)) for a CoinMap."""
    if isinstance(weights, CoinMap):
        w, dw = build_W_Dw(graph, weights)
        return w.transpose().psi(), dw.psi()
    w, sums = _vertex_arrays(graph, weights)
    return w.T, np.diag(sums)


def _logdet(ts: np.ndarray, y, d: np.ndarray | None = None,
            halves: bool = False) -> np.ndarray:
    """log det(X(t)) at each t for X(t) = I - t*y + t^2*(d - I), or
    I - t*y when d is None, by numpy's slogdet over batches of points
    holding at most LOGDET_BATCH entries, so memory stays bounded at any
    size.  The imaginary part is a phase, not reduced mod 2*pi.  Only the
    nonzero entries of t^2*(d - I) are added (diagonal, psi off-diagonals).
    A QuatMatrix y stands for psi(y), written into each batch's buffer.

    With halves, y and d are blocks X' of a psi image unitarily similar to
    diag(X', conj(X')), whose log-determinant is log det(X'(t)) +
    conj(log det(X'(conj(t)))): one slogdet counted twice when X' is real.
    """
    if halves and (np.iscomplexobj(y) or np.iscomplexobj(d)):
        return _logdet(ts, y, d) + np.conj(_logdet(ts.conj(), y, d))
    quat = isinstance(y, QuatMatrix)
    diag = np.arange(2 * y.rows if quat else y.shape[0])
    if d is not None:
        square = d - np.eye(diag.size)
        rows, cols = np.nonzero(square)
    step = max(LOGDET_BATCH // max(diag.size ** 2, 1), 1)
    out = np.zeros(ts.size, dtype=complex)
    for lo in range(0, ts.size, step):
        t = ts[lo:lo + step, None, None]
        m = np.empty((t.size, diag.size, diag.size), dtype=complex)
        np.multiply(-t, y.psi(m) if quat else y, out=m)
        m[:, diag, diag] += 1.0
        if d is not None:
            m[:, rows, cols] += (t * t)[:, :, 0] * square[rows, cols]
        sign, logabs = np.linalg.slogdet(m)
        out[lo:lo + step] = logabs + 1j * np.angle(sign)
    return 2.0 * out if halves else out


def _strong_split(graph: Graph, weights) -> tuple:
    """(xi, blocks): the vertex pair of the weights (_vertex_pair) split
    over the strong components of their support {e : q(e) != 0}
    (Graph.strong_components).  Y holds q(e) at (t(e), o(e)), so when every
    support arc has label[t(e)] <= label[o(e)], checked here in O(m), the
    pair ordered by label is block upper triangular: its determinants and
    aligned diagonals are its diagonal blocks'.  A one-vertex block has
    Y_vv = 0 (no loops) and pairs (0, xi), xi = D'_vv, or
    Re s +- i*sqrt((Im s)^2 + |p|^2) for D_vv = s + j*p in the psi layout
    (v and v + n); blocks holds each other block as its own (Y_b, D_b)
    arrays, or the whole pair for one component or labels out of order."""
    (y, d), n = _vertex_pair(graph, weights), graph.n
    quat = isinstance(weights, CoinMap)
    support = (weights.s != 0) | (weights.p != 0) if quat else weights != 0
    labels = graph.strong_components(support)
    if np.any(labels[graph.terminal[support]] > labels[graph.origin[support]]):
        labels = np.zeros(n, dtype=np.intp)
    sizes = np.bincount(labels)
    lone = np.flatnonzero(sizes[labels] == 1)
    xi = d[lone, lone].astype(complex)
    if quat:
        arm = np.hypot(xi.imag, np.abs(d[lone + n, lone]))
        xi = np.concatenate((xi.real + 1j * arm, xi.real - 1j * arm))
    if sizes.size == 1 and not lone.size:
        return xi, [(y, d)]
    parts = [np.flatnonzero(labels == b) for b in np.flatnonzero(sizes > 1)]
    cuts = (np.ix_(*2 * [np.r_[i, i + n] if quat else i]) for i in parts)
    return xi, [(y[cut], d[cut]) for cut in cuts]


def _vertex_logdet(graph: Graph, weights, halves: bool, ts: np.ndarray,
                   split: tuple | None = None) -> np.ndarray:
    """The vertex side of the determinant identity at each t,
    e*log(1 - t^2) + log det(X(t)), X(t) = I - t*Y + t^2*(D - I), with
    (Y, D) the vertex pair of the weights and e = m - n, doubled for a
    CoinMap and for turned values with halves, which _logdet halves.
    For a coin's operand (_operand) this is log det(I - t*psi(U)).

    log det(X(t)) sums over the blocks of split (_strong_split of the
    weights when None): log(1 + t^2*(xi - 1)) over the one-vertex blocks'
    xi (with halves, plus its conjugate at conj(t), as in _logdet) and
    _logdet of each other block (Y_b, D_b).
    """
    xi, blocks = split or _strong_split(graph, weights)
    copies = 2 if halves or isinstance(weights, CoinMap) else 1
    e = copies * (graph.m - graph.n)
    # Parts apart, exponent 0 left out: t = +-1 reads log 0 = -inf, not NaN.
    with np.errstate(divide="ignore"):
        log = np.log(1.0 - ts * ts)
    out = e * log.real + 1j * e * log.imag if e else 0.0

    def lone(t: np.ndarray) -> np.ndarray:
        return np.log(1.0 + (t * t)[:, None] * (xi - 1.0)).sum(axis=1)

    if xi.size:
        out = out + lone(ts) + (np.conj(lone(ts.conj())) if halves else 0.0)
    for y, d in blocks:
        out = out + _logdet(ts, y, d, halves)
    return out


def _certificate(graph: Graph, coin: CoinMap, values: np.ndarray,
                 operand: tuple | None = None,
                 split: tuple | None = None) -> ComparisonRecord:
    """Characteristic-polynomial certificate of values against psi(U).

    The eigenvalues of psi(U), with multiplicity, are the multiset whose
    sum of log(1 - t*lambda) equals log det(I - t*psi(U)) at every t; that
    log-determinant is taken from the vertex side (_vertex_logdet of the
    coin's operand and its strong-component split, the route's when given,
    each built here when None), so psi(U) is never built.  The values
    exactly +-1, such as the padding, add count*log(1 -+ t).  Per point, the
    one-vertex blocks take a closed form, and every other block two
    slogdets of its size when the coin's values share an axis (one for a
    real coin), one of its psi layout otherwise.  Labels out of order give
    the whole pair (_strong_split), so no wrong label passes a certificate.
    At the sample points |t*lambda| <= rho, so I - t*psi(U) is well
    conditioned and each factor 1 - t*lambda has modulus between 1 - rho
    and 1 + rho: one value moved by delta moves the sum by between
    |t|*delta/(1 + rho) and |t|*delta/(1 - rho), in eigenvalue units 2/3
    to 2 times delta on the inner ring and 1/1.9 to 10 on the outer one.

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
    weights, halves = _operand(coin) if operand is None else operand
    ts = _sample_points(graph, coin)
    ones, minus = (np.count_nonzero(values == x) for x in (1.0, -1.0))
    rest = values[(values != 1.0) & (values != -1.0)]
    diffs = (np.log(1.0 - np.multiply.outer(ts, rest)).sum(axis=1)
             + ones * np.log(1.0 - ts) + minus * np.log(1.0 + ts)
             - _vertex_logdet(graph, weights, halves, ts, split))
    phase = (diffs.imag + np.pi) % (2.0 * np.pi) - np.pi
    scale = max(1.0, float(np.abs(values).max()))
    residual = float(np.max(np.hypot(diffs.real, phase) / np.abs(ts))) / scale
    return ComparisonRecord(against="certificate", max_dist=residual,
                            verdict=residual <= CROSS_TOL)


def _quadratic_values(graph: Graph, mu: np.ndarray,
                      xi: np.ndarray) -> np.ndarray:
    """The roots of lambda^2 - mu*lambda + xi - 1 over aligned (mu, xi)
    pairs, padded with 2(m - n) each of +-1 or trimmed for a tree
    (_trim_tree_values) to the 4m values, conjugates adjacent."""
    disc = mu * mu - 4.0 * (xi - 1.0)
    disc = np.sqrt(np.where(np.abs(disc) <= DOUBLE_ROOT_TOL * (
        np.abs(mu) ** 2 + 4.0 * np.abs(xi - 1.0)), 0.0, disc))
    lam = np.column_stack(((mu + disc) / 2.0, (mu - disc) / 2.0)).ravel()
    excess = graph.m - graph.n
    if excess >= 0:
        lam = np.concatenate((lam, np.ones(2 * excess), -np.ones(2 * excess)))
    else:
        lam = _trim_tree_values(lam)
    return pair_conjugates(np.sort_complex(lam))


def _component_pairs(split: tuple) -> tuple:
    """The aligned diagonals (mu, xi) of a vertex pair, one block of its
    strong-component split (_strong_split) at a time: (0, xi) for the
    one-vertex blocks; a block whose D is scalar takes one eigensolve of
    its Y (linalg._scalar_pairs), in either layout, and every other block
    is triangularized on its own.  A commuting block of the n x n turned
    pair has a scalar D: y_ij*(d_j - d_i) = 0 on every arc of a component.
    """
    xi, blocks = split
    parts = [(np.zeros(xi.size, dtype=complex), xi)]
    for y, d in blocks:
        parts.append(_scalar_pairs(y, d)
                     or simultaneous_triangularize(y, d)[1:])
    return tuple(np.concatenate(diagonals) for diagonals in zip(*parts))


def spectrum_theorem_general(graph: Graph, coin: CoinMap) -> SpectrumReport:
    """Quadratic-formula route via joint triangularization.

    The aligned diagonals of the jointly triangularized psi(W^T) and
    psi(D_w) are the (mu, xi) pairs.  When the coin's values share an
    axis, the pair triangularized is the n x n (Y', D') of its turned
    values (_vertex_pair of _operand) and its n aligned diagonals, with
    their conjugates, are the 2n pairs.  The pair is split over the strong
    components of the coin's support (_strong_split, _component_pairs), so
    a star's leaf -> center coin takes a closed form, and the certificate
    reads the same blocks.  Raises when a block cannot be triangularized;
    the caller should then use the direct route.
    """
    operand = _operand(coin)
    split = _strong_split(graph, operand[0])
    try:
        mus, xis = _component_pairs(split)
    except NotSimultaneouslyTriangularizableError as exc:
        raise NotSimultaneouslyTriangularizableError(
            f"{exc}; use the direct route for this coin",
            residual=exc.residual) from exc
    vals = _quadratic_values(graph, psi_spectrum(mus, graph.n),
                             psi_spectrum(xis, graph.n))
    return SpectrumReport("theorem8", vals,
                          _certificate(graph, coin, vals, operand, split))


def spectrum_alpha_coin(graph: Graph, alpha: Quaternion) -> SpectrumReport:
    """theorem8 on the coin q(e) = alpha/d_{o(e)}, reported as "theorem10":
    its turned pair (alpha_+ * A D^-1, alpha_+ * I), alpha_+ = a0 + |Im|*i,
    is one scalar block solved by one eigvalsh (linalg._class_eigenvalues)."""
    return replace(spectrum_theorem_general(
        graph, CoinMap.from_alpha(graph, alpha)), method="theorem10")


def spectrum_grover(graph: Graph) -> SpectrumReport:
    """theorem8 on the Grover coin (alpha/d at alpha = 2) as "grover": each
    eigenvalue lambda_T of T = D^-1 A yields lambda_T +- i*sqrt(1 -
    lambda_T^2), twice.  A tree's excess at lambda_T = +-1 is trimmed, and
    the certificate carries a note saying so (no silent collapse)."""
    report = replace(spectrum_theorem_general(graph, CoinMap.grover(graph)),
                     method="grover")
    if graph.is_tree:
        report.cross_check.note = (
            "tree case: mapping yields 2n values for 2m walk "
            "eigenvalues; trimmed excess {1, -1} and cross-checked "
            "against the log-det certificate of psi(U)")
    return report
