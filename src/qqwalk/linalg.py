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
only where it is called: schur on the commuting path and
linear_sum_assignment for those clusters, so importing the package loads
numpy alone.

Simultaneous triangularization takes the Schur basis of a + theta*b for a
commuting pair.  A non-commuting pair is first tested for a nilpotent
commutator C = ab - ba (tr(C^2) = 0), which every jointly triangular pair
has, and is then deflated one common eigenvector at a time.  A deflation
step at size s costs two eigendecompositions, one SVD per cluster of
repeated eigenvalues and O(s^3) scoring, so a pair of size n costs O(n^4)
when the clusters are few.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenResult",
    "NonConvergenceError",
    "NotSimultaneouslyTriangularizableError",
    "determinant",
    "eigenvalues",
    "multiset_distance",
    "multisets_match",
    "pair_conjugates",
    "simultaneous_triangularize",
]

# Generic mixing constants for A + theta*B in simultaneous triangularization;
# chosen irrational-looking to avoid accidental eigenvalue collisions.
_THETA_CANDIDATES = (0.6180339887, 0.3141592653589793)
# Clustering distance of pair_conjugates, relative to max(1, max|value|).
PAIR_TOL = 1e-9


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to converge."""


class NotSimultaneouslyTriangularizableError(RuntimeError):
    """The commutator of the inputs is not nilpotent, or the computed basis
    failed to triangularize both."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass
class EigenResult:
    """Full spectrum of a square complex matrix, with multiplicity."""

    eigenvalues: np.ndarray
    converged: bool = True


def _require_square(m: np.ndarray, dtype=complex) -> np.ndarray:
    m = np.asarray(m, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def eigenvalues(m: np.ndarray) -> EigenResult:
    """All eigenvalues of a square matrix, counted with multiplicity.

    A real matrix stays real and goes to LAPACK's real solver, about three
    times cheaper than the complex one; its non-real eigenvalues come in
    exact conjugate pairs.
    """
    m = _require_square(m, dtype=None)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return EigenResult(eigenvalues=np.sort_complex(vals))


def determinant(m: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting."""
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
        from scipy.optimize import linear_sum_assignment

        idx = np.nonzero(ambiguous)[0]
        sub = vals[idx]
        rows, cols = linear_sum_assignment(
            np.abs(sub[:, None] - np.conj(sub)[None, :]))
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
        from scipy.optimize import linear_sum_assignment

        sub_a, sub_b = np.nonzero(bad[la])[0], np.nonzero(bad[lb])[0]
        r, c = linear_sum_assignment(
            np.abs(a[sub_a][:, None] - b[sub_b][None, :]))
        keep = ~bad[la[rows]]
        rows = np.concatenate((rows[keep], sub_a[r]))
        cols = np.concatenate((cols[keep], sub_b[c]))
    dist = np.abs(a[rows] - b[cols])
    i = int(np.argmax(dist))
    return float(dist[i]), (complex(a[rows[i]]), complex(b[cols[i]]))


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pair distance of a minimal-cost perfect matching of two multisets,
    after exactly equal values are paired (see _matching at tol = 0).

    Returns inf when the cardinalities differ.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    return _matching(a, b)[0]


def multisets_match(a: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> bool:
    """Whether a perfect matching of a and b pairs every value within tol
    (see _matching)."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    return a.size == b.size and _matching(a, b, tol)[0] <= tol


def _strict_lower_max(m: np.ndarray) -> float:
    return float(np.abs(np.tril(m, -1)).max()) if m.shape[0] > 1 else 0.0


def _cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage cluster labels of complex values at distance tol.

    Two values share a cluster when a chain of values joins them with every
    step at most tol.  Returns one label per input value; labels run 0..k-1
    in the (re, im) order of each cluster's least member.  Exact duplicates
    are collapsed before linking, so a value repeated many times costs no
    more than one copy.
    """
    z, inverse = np.unique(np.asarray(values, dtype=complex).ravel(),
                           return_inverse=True, equal_nan=False)
    count = z.size
    # z is sorted by (re, im), so only values within tol in real part can be
    # linked: z[i] with z[i + step] for i + step < reach[i].
    reach = np.searchsorted(z.real, z.real + tol, side="right")
    a, b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for step in range(1, int((reach - np.arange(count)).max(initial=1))):
        i = np.nonzero((np.arange(step, count) < reach[:-step])
                       & (np.abs(z[step:] - z[:-step]) <= tol))[0]
        a.append(i)
        b.append(i + step)
    a, b = np.concatenate(a), np.concatenate(b)
    # Connected components: each label falls to the least index of its own
    # component (min over links, then pointer jumping).
    label = np.arange(count)
    while True:
        new = label.copy()
        low = np.minimum(label[a], label[b])
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return np.unique(label, return_inverse=True)[1][inverse.ravel()]


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


def _common_eigenvector(a: np.ndarray, b: np.ndarray,
                        null_tol: float) -> tuple[np.ndarray, float]:
    """Best candidate for a joint eigenvector of a and b.

    A joint eigenvector is an eigenvector of each matrix, so both supply
    candidates (_eigen_candidates of (a, b) and of (b, a), clustering at
    null_tol * scale * s): the well-separated eigenvalues of one matrix
    give accurate vectors where the other's are defective and split by
    rounding.  Every candidate is scored by its worst eigen-residual
    ||M v - (v^H M v) v|| for the two matrices.  Returns (vector, residual).
    """
    n = a.shape[0]
    scale = max(float(np.abs(a).max(initial=0.0)),
                float(np.abs(b).max(initial=0.0)), 1.0)
    tol = null_tol * scale * n
    v = np.hstack([_eigen_candidates(a, b, tol), _eigen_candidates(b, a, tol)])
    res = np.zeros(v.shape[1])
    for mat in (a, b):
        mv = mat @ v
        ray = np.sum(v.conj() * mv, axis=0)
        res = np.maximum(res, np.linalg.norm(mv - v * ray, axis=0))
    best = int(np.argmin(res))
    return v[:, best], float(res[best])


def _deflation_triangularize(a: np.ndarray, b: np.ndarray,
                             null_tol: float = 1e-8) -> np.ndarray:
    """Unitary joint triangularization by common-eigenvector deflation.

    Works whenever the pair admits a joint triangularization reachable by
    repeatedly splitting off a common eigenvector; triangularity is
    verified by the caller.  A step at size s takes one eigendecomposition
    of each matrix, one SVD per cluster of its eigenvalues that are joined
    by single linkage at null_tol * scale * s (scale the larger max-abs
    entry, at least 1), and O(s^3) vectorized scoring; the unitary factor
    is updated in its trailing s columns only.  With few clusters the
    whole deflation is O(n^4).
    """
    n = a.shape[0]
    p_total = np.eye(n, dtype=complex)
    a_cur, b_cur = a.copy(), b.copy()
    for k in range(n - 1):
        size = n - k
        v, _ = _common_eigenvector(a_cur, b_cur, null_tol)
        # Householder-style unitary with v as first column.
        q, _ = np.linalg.qr(
            np.column_stack([v, np.eye(size, dtype=complex)[:, :size - 1]]))
        phase = np.vdot(q[:, 0], v)
        q[:, 0] *= phase / abs(phase)
        a_cur = (q.conj().T @ a_cur @ q)[1:, 1:]
        b_cur = (q.conj().T @ b_cur @ q)[1:, 1:]
        p_total[:, k:] = p_total[:, k:] @ q
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
    """
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    comm = a @ b - b @ a
    comm_norm = float(np.abs(comm).max()) if comm.size else 0.0
    if comm_norm <= commute_tol:
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
        candidates = [_deflation_triangularize(a, b)]
    last_residual = np.inf
    for p in candidates:
        ta = p.conj().T @ a @ p
        tb = p.conj().T @ b @ p
        residual = max(_strict_lower_max(ta), _strict_lower_max(tb))
        if residual <= residual_tol:
            return p, np.diag(ta).copy(), np.diag(tb).copy()
        last_residual = min(last_residual, residual)
    raise NotSimultaneouslyTriangularizableError(
        "not simultaneously triangularizable by this method: "
        f"triangularity residual {last_residual:.3e} exceeds "
        f"{residual_tol:.1e}",
        residual=last_residual,
    )
