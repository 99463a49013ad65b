"""Dense complex linear algebra: eigensolves, determinants, and
simultaneous triangularization of commuting matrices.

Matrices are plain complex numpy arrays.  The eigensolver and Schur
decomposition are delegated to LAPACK (via numpy/scipy); this module adds
the contracts the rest of the package relies on: conjugate-pair cleanup
for spectra of complexified quaternionic matrices, minimal-cost multiset
comparison of eigenvalue lists, and the commuting-case simultaneous
triangularization used by the spectral formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

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


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries any partial result."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NotSimultaneouslyTriangularizableError(RuntimeError):
    """Inputs do not commute, or the Schur basis failed to triangularize both."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass
class EigenResult:
    """Full spectrum of a square complex matrix, with multiplicity."""

    eigenvalues: np.ndarray
    converged: bool = True
    # LAPACK does not expose its sweep count; kept for the result contract.
    iterations: int = 0


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def eigenvalues(m: np.ndarray) -> EigenResult:
    """All eigenvalues of a square complex matrix, counted with multiplicity."""
    m = _require_square(m)
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
    to rounding.  Values are matched against the conjugate multiset at
    minimal cost and each matched pair (a, b) is replaced by the averaged
    pair (c, conj(c)) with c = (a + conj(b)) / 2.  A value matched with
    itself is forced real.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.size % 2 != 0:
        raise ValueError("conjugate pairing needs an even number of values")
    if vals.size == 0:
        return vals.copy()
    cost = np.abs(vals[:, None] - np.conj(vals)[None, :])
    rows, cols = linear_sum_assignment(cost)
    out = vals.copy()
    done = np.zeros(vals.size, dtype=bool)
    for a, b in zip(rows, cols):
        if done[a]:
            continue
        if a == b:
            out[a] = out[a].real
            done[a] = True
            continue
        avg = (vals[a] + np.conj(vals[b])) / 2.0
        out[a] = avg
        out[b] = np.conj(avg)
        done[a] = done[b] = True
    return np.sort_complex(out)


def _matching(a: np.ndarray,
              b: np.ndarray) -> tuple[float, tuple[complex, complex] | None]:
    """Minimal-cost perfect matching of two equal-size multisets: the largest
    matched distance and the pair attaining it (None when both are empty)."""
    if a.size == 0:
        return 0.0, None
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    i = int(np.argmax(cost[rows, cols]))
    worst = (complex(a[rows[i]]), complex(b[cols[i]]))
    return float(cost[rows[i], cols[i]]), worst


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pair distance of a minimal-cost perfect matching of two multisets.

    Returns inf when the cardinalities differ.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    return _matching(a, b)[0]


def multisets_match(a: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> bool:
    return multiset_distance(a, b) <= tol


def _strict_lower_max(m: np.ndarray) -> float:
    return float(np.abs(np.tril(m, -1)).max()) if m.shape[0] > 1 else 0.0


def _common_eigenvector(a: np.ndarray, b: np.ndarray,
                        null_tol: float) -> tuple[np.ndarray, float]:
    """Best candidate for a joint eigenvector of a and b.

    For each (clustered) eigenvalue of a, the near-nullspace of a - lam*I
    is extracted by SVD and the compression of b onto it is eigensolved;
    every resulting vector is scored by its worst eigen-residual for the
    two matrices.  Returns (vector, residual).
    """
    n = a.shape[0]
    scale = max(float(np.abs(a).max(initial=0.0)),
                float(np.abs(b).max(initial=0.0)), 1.0)
    best_vec = None
    best_res = np.inf
    for lam in np.linalg.eigvals(a):
        _, sing, vh = np.linalg.svd(a - lam * np.eye(n))
        null_dim = int(np.sum(sing <= null_tol * scale * n))
        if null_dim == 0:
            null_dim = 1  # smallest singular direction as fallback
        basis = vh[-null_dim:, :].conj().T
        compressed = basis.conj().T @ b @ basis
        _, wvecs = np.linalg.eig(compressed)
        for col in wvecs.T:
            v = basis @ col
            v = v / np.linalg.norm(v)
            res = 0.0
            for mat in (a, b):
                ray = np.vdot(v, mat @ v)
                res = max(res, float(np.linalg.norm(mat @ v - ray * v)))
            if res < best_res:
                best_res, best_vec = res, v
    return best_vec, best_res


def _deflation_triangularize(a: np.ndarray, b: np.ndarray,
                             null_tol: float = 1e-8) -> np.ndarray:
    """Unitary joint triangularization by common-eigenvector deflation.

    Works whenever the pair admits a joint triangularization reachable by
    repeatedly splitting off a common eigenvector; triangularity is
    verified by the caller.
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
        a_cur = q.conj().T @ a_cur @ q
        b_cur = q.conj().T @ b_cur @ q
        embed = np.eye(n, dtype=complex)
        embed[k:, k:] = q
        p_total = p_total @ embed
        a_cur = a_cur[1:, 1:]
        b_cur = b_cur[1:, 1:]
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
    do not commute but still admit a joint triangular form are handled by
    common-eigenvector deflation.  Returns (P, diag_a, diag_b) with
    aligned diagonals; raises when the final triangularity check fails.
    """
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    comm = a @ b - b @ a
    comm_norm = float(np.abs(comm).max()) if comm.size else 0.0
    candidates = []
    if comm_norm <= commute_tol:
        for theta in _THETA_CANDIDATES:
            _, p = scipy.linalg.schur(a + theta * b, output="complex")
            candidates.append(p)
    else:
        candidates.append(_deflation_triangularize(a, b))
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
