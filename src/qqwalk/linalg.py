"""Complex linear algebra: eigensolves, determinants and simultaneous
triangularization of matrix pairs.

Matrices are plain complex numpy arrays.  The eigensolver and Schur
decomposition are delegated to LAPACK (through numpy, and scipy's schur on
the commuting triangularization path); this module adds the contracts the
rest of the package relies on: conjugate-pair cleanup for spectra of
complexified quaternionic matrices, multiset comparison of eigenvalue
lists, single-linkage clustering of eigenvalues, and the simultaneous
triangularization used by the spectral formulas.  Pairing and comparison
pair values by sorting within clusters and fall back to a minimal-cost
assignment only for the clusters sorting cannot pair.  scipy is imported
only where it is called: schur on the commuting path,
linear_sum_assignment for those clusters and splu for the determinant of a
sparse matrix, so importing the package loads numpy alone.

Simultaneous triangularization takes the Schur basis of a + theta*b for a
commuting pair.  A non-commuting pair is first tested for a nilpotent
commutator C = ab - ba (tr(C^2) = 0), which every jointly triangular pair
has, and is then deflated: each step splits off every joint eigenvector it
finds at once, as a block of columns of one QR factor that q^H a q and
q^H b q must keep triangular.  A step at size s costs two
eigendecompositions, one SVD per cluster of repeated eigenvalues and
O(s^3) scoring and factoring, so a pair of size n costs O(n^3) per step: a
generic triangular pair, with one joint eigenvector per step, takes n - 1.
Deflation stops as soon as the pair left over commutes: when a + theta*b
has distinct eigenvalues there, the QR of its eigenvectors triangularizes
both, in one eigendecomposition.  A weighted star takes one step and that
finish.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ColumnOrder",
    "NotSimultaneouslyTriangularizableError",
    "determinant",
    "eigenvalues",
    "pair_conjugates",
    "simultaneous_triangularize",
]

# Generic mixing constants for A + theta*B in simultaneous triangularization;
# chosen irrational-looking to avoid accidental eigenvalue collisions.
_THETA_CANDIDATES = (0.6180339887, 0.3141592653589793)
# Clustering distance of pair_conjugates, relative to max(1, max|value|).
PAIR_TOL = 1e-9
# A joint eigenvector joins a deflation step's block only when its component
# orthogonal to the vectors already taken has at least this norm: the
# direction of a smaller component is set by rounding, not by the pair.
_INDEPENDENCE_FLOOR = 0.5


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


class ColumnOrder:
    """The column order of a sparse LU, shared by matrices of one sparsity
    pattern.

    Empty until determinant factors a sparse matrix with it: that
    factorization takes COLAMD's order, which reads the pattern alone, and
    ``columns`` keeps it as the gather order of A*Pc, ``parity`` its parity.
    An exactly singular first matrix leaves it empty for the next one.
    """

    __slots__ = ("columns", "parity")

    def __init__(self):
        self.columns = None
        self.parity = 0


def determinant(m, order: ColumnOrder | None = None) -> complex:
    """Determinant via LU with partial pivoting.

    A dense array goes to LAPACK.  A scipy sparse matrix is factored by
    SuperLU, Pr A Pc = L U with unit-diagonal L, and det(A) =
    sign(Pr) sign(Pc) prod(diag U), accumulated as numpy accumulates its
    dense det: a sign times exp of the summed log-moduli.  The column
    order Pc is COLAMD's, unless an ``order`` that an earlier factorization
    filled is given: then the columns are gathered in that order and
    factored as they stand (SuperLU's NATURAL order), which skips the
    ordering and still pivots each matrix on its own values.  An empty
    ``order`` is filled with this factorization's COLAMD order.  An exactly
    singular factor reads 0, as dense det does.
    """
    if not hasattr(m, "tocsc"):
        m = _require_square(m)
        if m.shape[0] == 0:
            return 1.0 + 0.0j
        return complex(np.linalg.det(m))
    from scipy.sparse.linalg import splu

    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    m = m.tocsc().astype(complex, copy=False)
    reuse = order is not None and order.columns is not None
    try:
        if reuse:
            lu = splu(_gather_columns(m, order.columns), permc_spec="NATURAL")
        else:
            lu = splu(m, permc_spec="COLAMD")
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return 0j
    parity = _parity(lu.perm_c)
    if reuse:
        parity += order.parity
    elif order is not None:
        order.columns, order.parity = np.argsort(lu.perm_c), parity
    diag = lu.U.diagonal()
    moduli = np.abs(diag)
    sign = -1.0 if (_parity(lu.perm_r) + parity) % 2 else 1.0
    phase = sign * np.prod(diag / moduli)
    return complex(phase * np.exp(np.sum(np.log(moduli))))


def _gather_columns(m, columns: np.ndarray):
    """The CSC matrix whose column j is column columns[j] of the CSC m."""
    from scipy.sparse import csc_array

    counts = np.diff(m.indptr)[columns]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    take = (np.repeat(m.indptr[columns] - indptr[:-1], counts)
            + np.arange(indptr[-1]))
    return csc_array((m.data[take], m.indices[take], indptr), shape=m.shape)


def _parity(perm: np.ndarray) -> int:
    """0 for an even permutation of 0..n-1, 1 for an odd one: n minus the
    number of cycles, mod 2.

    Cycles are counted by their smallest member.  Pointer doubling labels
    each i with min{perm^j(i) : j < 2^k} after k rounds, using
    perm^(2^k) = step, so ceil(log2 n) rounds label every cycle by its
    minimum."""
    step = np.asarray(perm, dtype=np.intp)
    label = np.arange(step.size)
    span = 1
    while span < step.size:
        label = np.minimum(label, label[step])
        step = step[step]
        span *= 2
    return int(step.size - np.count_nonzero(label == np.arange(step.size))) % 2


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
    """
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size % 2 != 0:
        raise ValueError("conjugate pairing needs an even number of values")
    if vals.size == 0:
        return vals.copy()
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


def _eigen_candidates(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Unit columns that may be joint eigenvectors of x and y, from one
    eigendecomposition of x.

    The eigenvalues of x are clustered by single linkage at tol.  A single
    eigenvalue offers its eigenvector.  A cluster of several takes the
    near-nullspace of x - mean*I (singular values <= tol, at least the
    smallest) from one SVD and offers the eigenvectors of the compression
    of y onto it.
    """
    vals, vecs = np.linalg.eig(x)
    labels = _cluster_labels(vals, tol)
    sizes = np.bincount(labels)
    cands = [vecs[:, sizes[labels] == 1]]
    for c in np.nonzero(sizes > 1)[0]:
        lam = vals[labels == c].mean()
        _, sing, vh = np.linalg.svd(x - lam * np.eye(x.shape[0]))
        null_dim = max(int(np.sum(sing <= tol)), 1)
        basis = vh[-null_dim:, :].conj().T
        _, wvecs = np.linalg.eig(basis.conj().T @ y @ basis)
        cands.append(basis @ wvecs)
    v = np.hstack(cands)
    return v / np.linalg.norm(v, axis=0)


def _joint_eigenvectors(a: np.ndarray, b: np.ndarray,
                        tol: float) -> np.ndarray:
    """Linearly independent joint eigenvectors of a and b, best first.

    A joint eigenvector is an eigenvector of each matrix, so both supply
    candidates (_eigen_candidates of (a, b) and of (b, a), clustering at
    tol): the well-separated eigenvalues of one matrix give accurate
    vectors where the other's are defective and split by rounding.  Every
    candidate is scored by its worst eigen-residual ||M v - (v^H M v) v||
    for the two matrices.  Those within tol, or the best one when none is,
    are taken in order of residual, each only when its component orthogonal
    to those already taken has norm at least _INDEPENDENCE_FLOOR.  Returns
    the taken unit columns in that order.
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


def _commuting_basis(a: np.ndarray, b: np.ndarray, tol: float,
                     residual_tol: float) -> np.ndarray | None:
    """A unitary q with q^H a q and q^H b q upper triangular, for a
    commuting pair, or None.

    When x = a + theta*b has no two eigenvalues in one cluster at tol, a and
    b are polynomials in x, so the factor q of the QR of x's eigenvectors V
    = q R, with q^H x q = R Lambda R^-1, triangularizes both.  A pair that
    commutes only within a bound, or an ill-conditioned V, can spoil that,
    so q is returned only when the strictly lower parts of both are within
    residual_tol.
    """
    vals, vecs = np.linalg.eig(a + _THETA_CANDIDATES[0] * b)
    if _cluster_labels(vals, tol).max() + 1 < vals.size:
        return None
    q, _ = np.linalg.qr(vecs)
    for m in (a, b):
        if _strict_lower_max(q.conj().T @ m @ q) > residual_tol:
            return None
    return q


def _commute_scale(a: np.ndarray, b: np.ndarray) -> float:
    """max(1, max|a|) * max(1, max|b|): the commutator's rounding grows
    with the product of the two scales."""
    return (max(1.0, float(np.abs(a).max(initial=0.0)))
            * max(1.0, float(np.abs(b).max(initial=0.0))))


def _deflation_triangularize(a: np.ndarray, b: np.ndarray,
                             residual_tol: float, commute_tol: float,
                             null_tol: float = 1e-8) -> np.ndarray:
    """Unitary joint triangularization by block deflation of joint
    eigenvectors.

    Works whenever the pair admits a joint triangularization reachable by
    repeatedly splitting off common eigenvectors; triangularity is verified
    by the caller.  A step at size s works at tol = null_tol * scale * s
    (scale the larger max-abs entry, at least 1).  When the pair left over
    commutes within commute_tol * _commute_scale, the bound that routes a
    whole pair in simultaneous_triangularize, _commuting_basis finishes it
    in one eigendecomposition if it can.  Otherwise the step splits off
    every joint eigenvector it finds (_joint_eigenvectors), r of them, at
    once: one Householder QR of [vectors | I] gives a unitary q whose first
    r columns span them in nested order, and of those columns the step
    keeps the longest prefix in which q^H a q and q^H b q have no strictly
    lower entry above residual_tol, the caller's final bound, and at least
    one.  With one vector the step is the one-vector deflation.  The
    unitary factor is updated in its trailing s columns only.  A step costs
    two eigendecompositions, one SVD per cluster of repeated eigenvalues, a
    QR and O(s^3) scoring, so a pair of size n costs O(n^3) per step: the
    weighted star K_{1,k} (n = 2k + 2) takes one step and the finish, a
    generic triangular pair, which has one joint eigenvector per step,
    n - 1 steps.
    """
    n = a.shape[0]
    p_total = np.eye(n, dtype=complex)
    a_cur, b_cur = a.copy(), b.copy()
    k = 0
    while n - k > 1:
        size = n - k
        scale = max(float(np.abs(a_cur).max()), float(np.abs(b_cur).max()),
                    1.0)
        tol = null_tol * scale * size
        if (np.abs(a_cur @ b_cur - b_cur @ a_cur).max()
                <= commute_tol * _commute_scale(a_cur, b_cur)):
            q = _commuting_basis(a_cur, b_cur, tol, residual_tol)
            if q is not None:
                p_total[:, k:] = p_total[:, k:] @ q
                break
        v = _joint_eigenvectors(a_cur, b_cur, tol)
        r = v.shape[1]
        q, _ = np.linalg.qr(np.column_stack([v, np.eye(size, dtype=complex)]))
        phase = np.sum(q[:, :r].conj() * v, axis=0)
        q[:, :r] *= phase / np.abs(phase)
        ta = q.conj().T @ a_cur @ q
        tb = q.conj().T @ b_cur @ q
        lower = np.maximum(np.abs(np.tril(ta, -1)[:, :r]).max(axis=0),
                           np.abs(np.tril(tb, -1)[:, :r]).max(axis=0))
        bad = np.nonzero(lower > residual_tol)[0]
        if bad.size:
            r = max(int(bad[0]), 1)
        a_cur, b_cur = ta[r:, r:], tb[r:, r:]
        p_total[:, k:] = p_total[:, k:] @ q
        k += r
    return p_total


def simultaneous_triangularize(
    a: np.ndarray,
    b: np.ndarray,
    commute_tol: float = 1e-9,
    residual_tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint upper-triangularization of two matrices.

    Commuting inputs use the unitary Schur basis P of a + theta*b for a
    generic real theta (retrying a second theta on failure).  Inputs that
    do not commute must have a nilpotent commutator C = ab - ba: they are
    rejected before any deflation when |tr(C^2)| exceeds
    residual_tol * ||C||_F^2 plus the rounding bound of forming C.  The
    rest are handled by common-eigenvector deflation
    (_deflation_triangularize).  Returns (P, diag_a, diag_b) with aligned
    diagonals; raises NotSimultaneouslyTriangularizableError when the
    commutator test or the final triangularity check fails.

    residual_tol bounds the largest strictly lower entry relative to the
    pair's scale, max(1, largest |entry| of a and b), as the certificate's
    residual is relative to the spectrum's: rounding grows with the
    entries.  commute_tol bounds the largest entry of the commutator
    relative to max(1, max|a|) * max(1, max|b|), as the rounding of ab - ba
    grows with both factors.
    """
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)),
                float(np.abs(b).max(initial=0.0)))
    comm = a @ b - b @ a
    comm_norm = float(np.abs(comm).max()) if comm.size else 0.0
    if comm_norm <= commute_tol * _commute_scale(a, b):
        import scipy.linalg

        # A generator: the second Schur basis is computed only when the
        # first fails the triangularity check.
        candidates = (scipy.linalg.schur(a + theta * b, output="complex")[1]
                      for theta in _THETA_CANDIDATES)
    else:
        # A jointly triangular pair has a strictly triangular, so nilpotent,
        # commutator: tr(C^2) = 0 up to residual_tol * ||C||_F^2 and the
        # rounding of forming C, at most 4*n*eps*||a||_F*||b||_F*||C||_F.
        comm_fro = float(np.linalg.norm(comm))
        rounding = (4 * a.shape[0] * np.finfo(float).eps
                    * float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
        ratio = abs(complex(np.sum(comm * comm.T))) / comm_fro ** 2
        if ratio > residual_tol + rounding / comm_fro:
            raise NotSimultaneouslyTriangularizableError(
                "not simultaneously triangularizable: the commutator C is "
                f"not nilpotent, |tr(C^2)|/||C||_F^2 = {ratio:.3e}")
        candidates = [_deflation_triangularize(a, b, residual_tol * scale,
                                               commute_tol)]
    last_residual = np.inf
    for p in candidates:
        ta = p.conj().T @ a @ p
        tb = p.conj().T @ b @ p
        residual = max(_strict_lower_max(ta), _strict_lower_max(tb)) / scale
        if residual <= residual_tol:
            return p, np.diag(ta).copy(), np.diag(tb).copy()
        last_residual = min(last_residual, residual)
    raise NotSimultaneouslyTriangularizableError(
        "not simultaneously triangularizable by this method: relative "
        f"triangularity residual {last_residual:.3e} exceeds "
        f"{residual_tol:.1e}",
        residual=last_residual,
    )
