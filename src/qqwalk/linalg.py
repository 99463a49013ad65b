"""Complex linear algebra: eigensolves, determinants and simultaneous
triangularization of matrix pairs.

Matrices are plain complex numpy arrays, and LAPACK (through numpy) does
the eigensolves.  This module adds conjugate-pair cleanup for spectra of
complexified quaternionic matrices (none for an exactly paired one),
multiset comparison and single-linkage clustering of eigenvalues, and the
simultaneous triangularization of the spectral formulas.  Pairing and
comparison sort within clusters and fall back to a minimal-cost assignment
(scipy's linear_sum_assignment, imported there alone, so importing the
package loads numpy alone) only for the clusters sorting cannot pair.

Simultaneous triangularization is one deflation of joint eigenvectors
(simultaneous_triangularize).  A pair whose b is scalar needs no basis:
_scalar_pairs takes one eigensolve of a, symmetric when a is similar to a
real symmetric matrix times c (an alpha/d coin's).  The bounds are the
module constants COMMUTE_TOL (which pairs commute, and which b is
scalar), RESIDUAL_TOL (the final check and the nilpotency test) and
NULL_TOL (clustering, null spaces).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotSimultaneouslyTriangularizableError",
    "determinant",
    "eigenvalues",
    "pair_conjugates",
    "simultaneous_triangularize",
]

# Clustering distance of pair_conjugates, relative to max(1, max|value|).
PAIR_TOL = 1e-9
# A deflation step at size s groups eigenvalues and takes null spaces at
# NULL_TOL * s * (the pair's largest entry, at least 1).
NULL_TOL = 1e-8
# A pair commutes when no entry of ab - ba exceeds COMMUTE_TOL *
# max(1, max|a|) * max(1, max|b|): its rounding grows with both factors.
COMMUTE_TOL = 1e-9
# No strictly lower entry of a triangularization passes the final check
# above RESIDUAL_TOL * max(1, largest |entry| of a and b); the nilpotency
# test of a commutator reads it unscaled.
RESIDUAL_TOL = 1e-8
# How far outside [-1, 1] a random walk's eigenvalue may fall before clipping.
MODULUS_TOL = 1e-8
# A joint eigenvector joins a deflation step's block only when its component
# orthogonal to the vectors already taken has at least this norm: the
# direction of a smaller component is set by rounding, not by the pair.
_INDEPENDENCE_FLOOR = 0.5


class SpectrumConsistencyError(RuntimeError):
    """Internal cross-check failed (e.g. missing +-1 in the tree trim)."""


class NotSimultaneouslyTriangularizableError(RuntimeError):
    """The commutator of the inputs is not nilpotent, or the computed basis
    failed to triangularize both."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _require_square(m: np.ndarray, dtype=complex) -> np.ndarray:
    m = np.asarray(m, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, counted with multiplicity and
    sorted by (re, im); raises np.linalg.LinAlgError when LAPACK fails.

    A real matrix stays real and goes to LAPACK's real solver, about three
    times cheaper than the complex one; its non-real eigenvalues come in
    exact conjugate pairs.
    """
    return np.sort_complex(np.linalg.eigvals(_require_square(m, dtype=None)))


def determinant(m: np.ndarray) -> complex:
    """Determinant of a dense square matrix via LAPACK's LU with partial
    pivoting."""
    m = _require_square(m)
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(m))


def pair_conjugates(values: np.ndarray) -> np.ndarray:
    """Enforce exact conjugate pairing on an even-sized spectrum.

    Spectra of complexified quaternionic matrices come in conjugate pairs up
    to rounding.  Each value a gets a partner b near conj(a), and each pair
    (a, b) is replaced by the averaged pair (c, conj(c)) with
    c = (a + conj(b)) / 2.  A value paired with itself is forced real.

    Partners come from sorting: the values are folded to re + |im|*i and
    clustered by single linkage at PAIR_TOL * max(1, max|value|).  A real
    value pairs with itself.  The other members of a cluster are ordered by
    im descending, ties by re ascending above the real axis and descending
    below it (so an exactly paired cluster is its own mirror image), and the
    k-th of s pairs with the (s - 1 - k)-th; the middle one of an odd count
    pairs with itself.  A cluster whose pairs leave a defect |a - conj(b)|
    above that tolerance is ambiguous, as when a defective eigenvalue is
    split by about eps^(1/k) around lambda and independently around
    conj(lambda): the union of the ambiguous clusters is matched against
    its conjugates at minimal cost instead.

    A finite spectrum closed under conjugation to the bit, as every
    psi_spectrum is, comes back sorted with -0.0 imaginary parts made +0.0,
    as the averaging leaves it, unless a -0.0 real part needs the averaging.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size % 2 != 0:
        raise ValueError("conjugate pairing needs an even number of values")
    if vals.size == 0:
        return vals.copy()
    ordered = np.sort_complex(vals)
    if (np.array_equal(ordered, np.sort_complex(np.conj(ordered)))
            and np.isfinite(ordered).all()
            and not np.signbit(ordered.real[ordered.real == 0]).any()):
        ordered.imag += 0.0
        return ordered
    return _pair_by_clusters(vals)


def _pair_by_clusters(vals: np.ndarray) -> np.ndarray:
    """pair_conjugates by clusters, for a non-empty even-sized spectrum."""
    tol = PAIR_TOL * max(1.0, float(np.abs(vals).max()))
    labels = _cluster_labels(vals.real + 1j * np.abs(vals.imag), tol)
    partner = np.arange(vals.size)
    nonreal = np.nonzero(vals.imag != 0)[0]
    if nonreal.size:
        sub = vals[nonreal]
        group = np.unique(labels[nonreal], return_inverse=True)[1]
        sizes = np.bincount(group)
        first = np.cumsum(sizes) - sizes
        order = np.lexsort((np.where(sub.imag > 0, sub.real, -sub.real),
                            -sub.imag, group))
        g = group[order]
        mirrored = order[2 * first[g] + sizes[g] - 1 - np.arange(order.size)]
        partner[nonreal[order]] = nonreal[mirrored]
    mirror = np.conj(vals[partner])
    out = (vals + mirror) / 2.0
    ambiguous = np.isin(labels, labels[~(np.abs(vals - mirror) <= tol)])
    if ambiguous.any():
        idx = np.nonzero(ambiguous)[0]
        rows, cols = _assign(vals[idx], np.conj(vals[idx]))
        done = np.zeros(vals.size, dtype=bool)
        for a, b in zip(idx[rows], idx[cols]):
            if done[a]:
                continue
            if a == b:
                out[a] = vals[a].real
            else:
                out[a] = (vals[a] + np.conj(vals[b])) / 2.0
                out[b] = np.conj(out[a])
            done[a] = done[b] = True
    return np.sort_complex(out)


def _matching(a: np.ndarray, b: np.ndarray, tol: float = 0.0
              ) -> tuple[float, tuple[complex, complex] | None]:
    """Perfect matching of two equal-size multisets: the largest matched
    distance and the pair attaining it (None when both are empty).

    Pairs come from sorting, as in pair_conjugates: the union of a and b is
    clustered by single linkage at tol, and inside a cluster holding as many
    members of a as of b they pair in (re, im) order.  Clusters whose
    counts differ, or whose pairs end up farther apart than tol, are
    matched together at minimal cost (linear_sum_assignment).  So the
    distance is at most tol when the sorted pairs are, and above tol it is
    that of the minimal-cost matching of the clusters that need one; at
    tol = 0 only exactly equal values pair by sorting.
    """
    if a.size == 0:
        return 0.0, None
    labels = _cluster_labels(np.concatenate((a, b)), tol)
    la, lb = labels[:a.size], labels[a.size:]
    count = labels.max() + 1
    even = np.bincount(la, minlength=count) == np.bincount(lb, minlength=count)
    rows = np.nonzero(even[la])[0]
    cols = np.nonzero(even[lb])[0]
    rows = rows[np.lexsort((a[rows].imag, a[rows].real, la[rows]))]
    cols = cols[np.lexsort((b[cols].imag, b[cols].real, lb[cols]))]
    bad = ~even
    bad[la[rows[np.abs(a[rows] - b[cols]) > tol]]] = True
    if bad.any():
        sub_a, sub_b = np.nonzero(bad[la])[0], np.nonzero(bad[lb])[0]
        r, c = _assign(a[sub_a], b[sub_b])
        keep = ~bad[la[rows]]
        rows = np.concatenate((rows[keep], sub_a[r]))
        cols = np.concatenate((cols[keep], sub_b[c]))
    dist = np.abs(a[rows] - b[cols])
    i = int(np.argmax(dist))
    return float(dist[i]), (complex(a[rows[i]]), complex(b[cols[i]]))


def _assign(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-cost perfect matching (rows, cols) of the values of a with
    those of b at cost |a - b| (scipy's linear_sum_assignment)."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(np.abs(a[:, None] - b[None, :]))


def _strict_lower_max(m: np.ndarray) -> float:
    return float(np.abs(np.tril(m, -1)).max()) if m.shape[0] > 1 else 0.0


def _joined_cells(zs: np.ndarray, start: np.ndarray, cells: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a, b) of cells, given as column + i*row and sorted, that hold
    a pair of values within tol; cell c holds zs[start[c]:start[c+1]].

    Such cells are at most two apart on each axis: cell c is compared with
    the cells after it in its own and the next two columns that lie within
    two rows of it.  Two cells whose bounding boxes of values are within
    tol corner to corner are joined, two whose boxes are farther apart than
    tol are not, and the values of the rest are compared pair by pair.
    """
    n = cells.size
    # Cell c + step is in the next two columns while c + step < reach[c].
    reach = np.searchsorted(cells.real, cells.real + 2.0, side="right")
    ci, cj = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for step in range(1, int((reach - np.arange(n)).max())):
        i = np.nonzero((np.arange(step, n) < reach[:-step]) & (
            np.abs(cells[step:].imag - cells[:-step].imag) <= 2.0))[0]
        ci.append(i)
        cj.append(i + step)
    ci, cj = np.concatenate(ci), np.concatenate(cj)
    if not ci.size:
        return ci, cj

    def box_distances(part):
        """Largest and least distance along one axis between the values
        of cells ci and those of cells cj."""
        lo = np.minimum.reduceat(part, start)
        hi = np.maximum.reduceat(part, start)
        return (np.maximum(hi[cj] - lo[ci], hi[ci] - lo[cj]),
                np.maximum(np.maximum(lo[cj] - hi[ci], lo[ci] - hi[cj]), 0.0))

    (re_far, re_gap), (im_far, im_gap) = map(box_distances, (zs.real, zs.imag))
    far, gap = np.hypot(re_far, im_far), np.hypot(re_gap, im_gap)
    test = np.nonzero((far > tol) & (gap <= tol))[0]
    ti, tj = ci[test], cj[test]
    # Pair k of the sizes[ti] * sizes[tj] pairs of cells ti, tj.
    sizes = np.diff(np.append(start, zs.size))
    span = sizes[ti] * sizes[tj]
    pair = np.repeat(np.arange(span.size), span)
    k = np.arange(pair.size) - (np.cumsum(span) - span)[pair]
    near = np.abs(zs[start[ti][pair] + k // sizes[tj][pair]]
                  - zs[start[tj][pair] + k % sizes[tj][pair]]) <= tol
    joined = np.concatenate((np.nonzero(far <= tol)[0], test[pair[near]]))
    return ci[joined], cj[joined]


def _cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage cluster labels of complex values at distance tol.

    Two values share a cluster when a chain of values joins them with every
    step at most tol.  Returns one label per input value; labels run 0..k-1
    in the (re, im) order of each cluster's least member.

    Exact duplicates are collapsed first.  The other values are binned into
    square cells of side tol/2, whose members lie within tol/sqrt(2) of each
    other and so share a cluster, and cells are joined by _joined_cells.  So
    a cluster of near-equal values inside one cell costs its size, not its
    size squared.
    """
    z, inverse = np.unique(np.asarray(values, dtype=complex).ravel(),
                           return_inverse=True, equal_nan=False)
    label = np.arange(z.size)
    # Beyond modulus 2^49 * tol a value's rounding nears tol and its cell is
    # no longer exact; such values, and non-finite ones, stay alone.
    idx = np.nonzero(np.abs(z) < 2.0 ** 49 * tol)[0]
    if idx.size > 1:
        h = tol / 2.0
        key = np.floor(z[idx].real / h) + 1j * np.floor(z[idx].imag / h)
        order = np.argsort(key, kind="stable")
        members, key = idx[order], key[order]
        first = np.concatenate(([True], key[1:] != key[:-1]))
        start = np.nonzero(first)[0]
        cells, least, cell = key[start], members[start], np.cumsum(first) - 1
        a, b = _joined_cells(z[members], start, cells, tol)
        if a.size:
            # Connected components of the cells: each falls to the least
            # cell of its component (min over links, then pointer jumping).
            root = np.arange(cells.size)
            while True:
                new = root.copy()
                low = np.minimum(root[a], root[b])
                np.minimum.at(new, a, low)
                np.minimum.at(new, b, low)
                new = new[new]
                if np.array_equal(new, root):
                    break
                root = new
            low = np.full(cells.size, z.size)
            np.minimum.at(low, root, least)
            least = low[root]
        label[members] = least[cell]
    # Number the clusters by their least values, which are their own labels.
    rank = np.cumsum(label == np.arange(z.size)) - 1
    return rank[label][inverse.ravel()]


def _eigen_candidates(x: np.ndarray, y: np.ndarray,
                      tol: float) -> np.ndarray:
    """Unit columns that may be joint eigenvectors of x and y, from one
    eigendecomposition of x.

    The eigenvalues of x are clustered by single linkage at tol.  A single
    eigenvalue offers its eigenvector.  A cluster of several offers the
    eigenvectors of the compression of y onto a basis: the factor Q of the
    QR of its eigenvectors when every |R_jj| >= _INDEPENDENCE_FLOOR and
    every ||(x - mean*I) q_j|| <= tol, else (nearly parallel vectors, as of
    a Jordan block, or a chain wider than tol) the near-nullspace of
    x - mean*I from one SVD (singular values <= tol, at least the
    smallest).  A basis of the whole space (x is mean*I within tol) is
    offered itself: y's eigenvectors come from _eigen_candidates(y, x).
    """
    vals, vecs = np.linalg.eig(x)
    labels = _cluster_labels(vals, tol)
    sizes = np.bincount(labels)
    cands = [vecs[:, sizes[labels] == 1]]
    for c in np.nonzero(sizes > 1)[0]:
        members = labels == c
        shifted = x - vals[members].mean() * np.eye(x.shape[0])
        basis, r = np.linalg.qr(vecs[:, members])
        if (np.abs(np.diag(r)).min() < _INDEPENDENCE_FLOOR
                or np.linalg.norm(shifted @ basis, axis=0).max() > tol):
            _, sing, vh = np.linalg.svd(shifted)
            basis = vh[-max(int(np.sum(sing <= tol)), 1):, :].conj().T
        if basis.shape[1] < x.shape[0]:
            basis = basis @ np.linalg.eig(basis.conj().T @ y @ basis)[1]
        cands.append(basis)
    v = np.hstack(cands)
    return v / np.linalg.norm(v, axis=0)


def _joint_eigenvectors(a: np.ndarray, b: np.ndarray,
                        tol: float) -> np.ndarray:
    """Linearly independent joint eigenvectors of a and b, best first: the
    unit columns a deflation step splits off.

    A joint eigenvector is an eigenvector of each matrix, so both supply
    candidates (_eigen_candidates of (a, b) and of (b, a), clustering at
    tol): the well-separated eigenvalues of one matrix give accurate
    vectors where the other's are defective and split by rounding.

    Every candidate is scored by its worst eigen-residual
    ||M v - (v^H M v) v|| for the two matrices.  Those within tol, or the
    best one when none is, are taken in order of residual, each only when
    its component orthogonal to those already taken has norm at least
    _INDEPENDENCE_FLOOR.
    """
    v = np.hstack([_eigen_candidates(a, b, tol), _eigen_candidates(b, a, tol)])
    res = np.zeros(v.shape[1])
    for mat in (a, b):
        mv = mat @ v
        ray = np.sum(v.conj() * mv, axis=0)
        res = np.maximum(res, np.linalg.norm(mv - v * ray, axis=0))
    order = np.argsort(res)
    order = order[:max(int(np.sum(res <= tol)), 1)]
    basis = np.zeros((a.shape[0], 0), dtype=complex)
    taken = []
    for j in order:
        w = v[:, j] - basis @ (basis.conj().T @ v[:, j])
        norm = float(np.linalg.norm(w))
        if norm >= _INDEPENDENCE_FLOOR:
            taken.append(j)
            basis = np.column_stack([basis, w / norm])
            if basis.shape[1] == a.shape[0]:
                break
    return v[:, taken]


def _deflation_triangularize(a: np.ndarray, b: np.ndarray,
                             bound: float) -> np.ndarray:
    """Unitary joint triangularization by block deflation of joint
    eigenvectors.

    Works whenever the pair admits a joint triangularization reachable by
    repeatedly splitting off common eigenvectors; triangularity is verified
    by the caller.  A step at size s works at tol = NULL_TOL * scale * s
    (scale the larger max-abs entry, at least 1) and splits off every joint
    eigenvector it finds (_joint_eigenvectors), r of them, at once: one
    Householder QR of [vectors | I] gives a unitary q whose first r columns
    span them in nested order, and of those columns the step keeps the
    longest prefix in which q^H a q and q^H b q have no strictly lower
    entry above bound, the caller's final bound, and at least one.  The
    unitary factor is updated in its trailing s columns only.  A step costs
    two eigendecompositions, a basis and one small eig per cluster of
    repeated eigenvalues short of the whole space, a QR and O(s^3)
    scoring, so a pair of size n costs O(n^3) per step: a generic
    triangular pair, which has one joint eigenvector per step, takes n - 1
    steps.
    """
    n = a.shape[0]
    p_total = np.eye(n, dtype=complex)
    a_cur, b_cur = a.copy(), b.copy()
    k = 0
    while n - k > 1:
        size = n - k
        scale = max(float(np.abs(a_cur).max()), float(np.abs(b_cur).max()),
                    1.0)
        v = _joint_eigenvectors(a_cur, b_cur, NULL_TOL * scale * size)
        r = v.shape[1]
        q, _ = np.linalg.qr(np.column_stack([v, np.eye(size, dtype=complex)]))
        ta = q.conj().T @ a_cur @ q
        tb = q.conj().T @ b_cur @ q
        lower = np.maximum(np.abs(np.tril(ta, -1)[:, :r]).max(axis=0),
                           np.abs(np.tril(tb, -1)[:, :r]).max(axis=0))
        bad = np.nonzero(lower > bound)[0]
        if bad.size:
            r = max(int(bad[0]), 1)
        a_cur, b_cur = ta[r:, r:], tb[r:, r:]
        p_total[:, k:] = p_total[:, k:] @ q
        k += r
    return p_total


def _class_eigenvalues(a: np.ndarray) -> np.ndarray:
    """eigenvalues(a) for _scalar_pairs, by one eigvalsh when a = c*P*K^-1
    up to rounding (every a_ij*k_j within 8*eps*|c| of the first, c), P
    a's nonzero pattern, symmetric, and K = diag(k) its column counts, as
    for an alpha/d or Grover coin.  a is then similar to c*K^-1/2 P K^-1/2,
    and P*K^-1 has unit column sums, so a/c has a real spectrum in [-1, 1]
    (to MODULUS_TOL, then clipped).  Any other a takes eigenvalues(a)."""
    pattern = a != 0
    k = pattern.sum(axis=0)
    c = (a * k)[pattern]
    if (k.min() > 0 and np.array_equal(pattern, pattern.T) and np.abs(
            c - c[0]).max() <= 8 * np.finfo(float).eps * abs(c[0])):
        half = 1.0 / np.sqrt(k)
        vals = np.linalg.eigvalsh(half[:, None] * pattern * half)
        if np.abs(vals).max() > 1.0 + MODULUS_TOL:
            raise SpectrumConsistencyError(f"random-walk eigenvalue of "
                                           f"modulus {np.abs(vals).max()}")
        return c[0] * np.clip(vals, -1.0, 1.0)
    return eigenvalues(a)


def _scalar_pairs(a: np.ndarray, b: np.ndarray) -> tuple | None:
    """(_class_eigenvalues(a), diag(b)), the aligned diagonals of a joint
    triangularization, when b is scalar, else None.  b - b_00*I has at
    most two nonzeros per row and column (b diagonal, or the psi image of
    a diagonal), so 4*max|b - b_00*I|*max(1, max|a|) bounds every entry of
    ab - ba: b is scalar when that is within the commute bound (COMMUTE_TOL),
    that is when 4*max|b - b_00*I| <= COMMUTE_TOL*max(1, max|b|)."""
    shift = np.abs(b - b[0, 0] * np.eye(b.shape[0])).max()
    if 4 * shift > COMMUTE_TOL * max(1.0, np.abs(b).max()):
        return None
    return _class_eigenvalues(a), np.diag(b).astype(complex)


def simultaneous_triangularize(a: np.ndarray, b: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint upper-triangularization of two matrices.

    A pair that does not commute within COMMUTE_TOL must have a nilpotent
    commutator C = ab - ba: it is rejected when |tr(C^k)|, k = 2, 3 or 4,
    exceeds RESIDUAL_TOL * ||C||_F^k plus the rounding bound of forming C.
    Every pair left takes one common-eigenvector deflation
    (_deflation_triangularize), with candidates from a and from b.  The
    final check bounds the largest strictly lower entry by RESIDUAL_TOL
    relative to max(1, largest |entry| of a and b), as the certificate's
    residual is relative to the spectrum's.  Returns (P, diag_a, diag_b)
    with aligned diagonals; raises NotSimultaneouslyTriangularizableError
    when the commutator test or the final check fails.
    """
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    scale_a, scale_b = (max(1.0, float(np.abs(m).max(initial=0.0)))
                        for m in (a, b))
    scale = max(scale_a, scale_b)
    comm = a @ b - b @ a
    comm_norm = float(np.abs(comm).max()) if comm.size else 0.0
    if comm_norm > COMMUTE_TOL * scale_a * scale_b:
        # A jointly triangular pair has a strictly triangular, so nilpotent,
        # commutator: tr(C^k) = 0, k = 2, 3, 4 (tr(C^2) alone is 0 for a walk
        # block with no arc both ways), up to RESIDUAL_TOL * ||C||_F^k and
        # the rounding of forming C, at most 4*n*eps*||a||_F*||b||_F*||C||_F.
        comm_fro = float(np.linalg.norm(comm))
        rounding = (4 * a.shape[0] * np.finfo(float).eps
                    * float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
        c2 = comm @ comm
        for k, x, y in ((2, comm, comm), (3, c2, comm), (4, c2, c2)):
            ratio = abs(complex(np.sum(x * y.T))) / comm_fro ** k
            if ratio > RESIDUAL_TOL + rounding / comm_fro:
                raise NotSimultaneouslyTriangularizableError(
                    "not simultaneously triangularizable: the commutator C is "
                    f"not nilpotent, |tr(C^{k})|/||C||_F^{k} = {ratio:.3e}")
    p = _deflation_triangularize(a, b, RESIDUAL_TOL * scale)
    ta = p.conj().T @ a @ p
    tb = p.conj().T @ b @ p
    residual = max(_strict_lower_max(ta), _strict_lower_max(tb)) / scale
    if residual <= RESIDUAL_TOL:
        return p, np.diag(ta).copy(), np.diag(tb).copy()
    raise NotSimultaneouslyTriangularizableError(
        "not simultaneously triangularizable by this method: relative "
        f"triangularity residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}",
        residual=residual,
    )
