"""Reference computations and output checks, made apart from qqwalk.

Nothing here imports qqwalk.  The complexified matrices are built straight
from the arc definitions with numpy, so a fault in the program's own
builders cannot hide in the reference.  Arcs follow the documented order:
edge r = (u, v) gives arc 2r = (u, v) and arc 2r + 1 = (v, u).

A quaternion a + b*i + c*j + d*k is an array row (a, b, c, d); its
symplectic parts are s = a + b*i and p = c - d*i, and psi of S + j*P is
[[S, -conj(P)], [P, conj(S)]].
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# Grouping tolerance of the CLI's spectrum output (SpectrumReport.to_dict).
GROUP_TOL = 1e-7
# Log-domain tolerance for determinants and for the spectrum certificate,
# per unit of matrix dimension.
LOG_TOL_PER_DIM = 1e-9
# Tolerance of a multiset match against an eigensolve of the reference.
MATCH_TOL = 1e-6

SQRT3 = np.sqrt(3.0)
_S = 1.0 / np.sqrt(2.0)


def _with_conj(half):
    half = np.asarray(half, dtype=complex)
    return np.concatenate([half, np.conj(half)])


# Closed forms of the paper's examples: the Grover walk on K3 and the
# weighted star K_{1,3} of the ex5.w fixture.  Each psi spectrum is the walk
# spectrum together with its conjugate.
CLOSED_FORMS = {
    "k3_grover": _with_conj([1, 1, (-1 + SQRT3 * 1j) / 2, (-1 + SQRT3 * 1j) / 2,
                             (-1 - SQRT3 * 1j) / 2, (-1 - SQRT3 * 1j) / 2]),
    "k13_ex5": np.array([_S - _S * 1j, -_S + _S * 1j, _S - _S * 1j,
                         -_S + _S * 1j, _S + _S * 1j, -_S - _S * 1j,
                         _S + _S * 1j, -_S - _S * 1j, 1j, -1j, 1j, -1j]),
}


# -- matrices from the arc definitions --------------------------------

def arcs(edges):
    """Origin and terminal vertex of every arc."""
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    origin = np.empty(2 * len(e), dtype=int)
    terminal = np.empty(2 * len(e), dtype=int)
    origin[0::2], terminal[0::2] = e[:, 0], e[:, 1]
    origin[1::2], terminal[1::2] = e[:, 1], e[:, 0]
    return origin, terminal


def _parts(q4):
    q4 = np.asarray(q4, dtype=float)
    return q4[:, 0] + 1j * q4[:, 1], q4[:, 2] - 1j * q4[:, 3]


def psi(s, p):
    return np.block([[s, -np.conj(p)], [p, np.conj(s)]])


def walk_psi(edges, q4):
    """psi(B_w^T - J0), which is psi(U) for the coin w.

    Entry (e, f) is w(e) when t(f) = o(e), minus 1 when f is the reversal
    of e.
    """
    origin, terminal = arcs(edges)
    s, p = _parts(q4)
    follows = terminal[None, :] == origin[:, None]
    big_s = follows * s[:, None]
    big_p = follows * p[:, None]
    idx = np.arange(origin.size)
    big_s[idx, idx ^ 1] -= 1.0
    return psi(big_s, big_p)


def vertex_psi(n, edges, q4):
    """psi(W^T) and psi(D_w): W[o(e), t(e)] = w(e), D_w the outgoing sums."""
    origin, terminal = arcs(edges)
    s, p = _parts(q4)
    wt_s = np.zeros((n, n), dtype=complex)
    wt_p = np.zeros((n, n), dtype=complex)
    wt_s[terminal, origin] = s
    wt_p[terminal, origin] = p
    d_s = np.zeros(n, dtype=complex)
    d_p = np.zeros(n, dtype=complex)
    np.add.at(d_s, origin, s)
    np.add.at(d_p, origin, p)
    return psi(wt_s, wt_p), psi(np.diag(d_s), np.diag(d_p))


def grover_coin(n, edges):
    """The Grover coin 2/d(o(e)) as quaternion rows."""
    origin, _ = arcs(edges)
    deg = np.bincount(origin, minlength=n)
    q4 = np.zeros((origin.size, 4))
    q4[:, 0] = 2.0 / deg[origin]
    return q4


def logdet(m):
    sign, logabs = np.linalg.slogdet(m)
    return complex(logabs, np.angle(sign))


def log_distance(a, b):
    """Distance of two complex logarithms, with the phase taken mod 2*pi."""
    dphase = (a.imag - b.imag + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.hypot(a.real - b.real, dphase))


def log_of(z):
    z = complex(z)
    if z == 0 or not np.isfinite(z):
        return complex(np.nan, np.nan)
    return complex(np.log(abs(z)), np.angle(z))


# -- spectra ----------------------------------------------------------

def bottleneck(a, b):
    """Largest pair distance in a minimal-cost matching of two multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return float("inf")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


class SpectrumReference:
    """Characteristic-polynomial certificate of psi(U).

    A multiset of eigenvalues L of psi(U) satisfies, at every t,
    sum(log(1 - t*lam) for lam in L) = logdet(I - t*psi(U)).  The sample
    points have |t| = 1/(2*||psi(U)||_inf), so |t*lam| <= 1/2 and the sum
    is well conditioned.
    """

    ANGLES = (0.3, 1.9, 4.1)

    def __init__(self, psi_u):
        self.dim = psi_u.shape[0]
        radius = 0.5 / max(np.abs(psi_u).sum(axis=1).max(), 1.0)
        self.ts = [radius * np.exp(1j * a) for a in self.ANGLES]
        eye = np.eye(self.dim)
        self.logdets = [logdet(eye - t * psi_u) for t in self.ts]

    def problems(self, vals):
        vals = np.asarray(vals, dtype=complex).ravel()
        if vals.size != self.dim:
            return [f"{vals.size} eigenvalues, expected {self.dim}"]
        out = []
        scale = max(1.0, float(np.abs(vals).max()))
        gap = bottleneck(vals, np.conj(vals))
        if gap > MATCH_TOL * scale:
            out.append(f"not closed under conjugation (gap {gap:.3e})")
        tol = LOG_TOL_PER_DIM * self.dim
        for t, ref in zip(self.ts, self.logdets):
            got = complex(np.sum(np.log(1.0 - t * vals)))
            dist = log_distance(got, ref)
            if not dist <= tol:
                out.append(f"certificate fails at t={t:.4g}: {dist:.3e}")
        return out


def match_problems(vals, expected, tol=MATCH_TOL):
    dist = bottleneck(vals, expected)
    if not dist <= tol:
        return [f"spectrum differs from the reference by {dist:.3e}"]
    return []


def group_problems(groups, tol=GROUP_TOL):
    """Groups of one emitted spectrum must be pairwise farther apart than tol."""
    g = np.asarray(groups, dtype=complex)
    if g.size < 2:
        return []
    d = np.abs(g[:, None] - g[None, :])
    np.fill_diagonal(d, np.inf)
    closest = float(d.min())
    if closest <= tol:
        return [f"{g.size} groups, two only {closest:.2e} apart"]
    return []


# -- determinant identities -------------------------------------------

class IdentityReference:
    """Both sides of det(I - t*X) = (1 - t^2)^e * det(I - t*Y + t^2*(D - I)).

    X is the arc-side matrix (psi(B_w^T - J0), or B_w^T - J0 for complex
    weights), Y and D the vertex-side matrices, e the exponent of (1 - t^2).
    """

    def __init__(self, arc_mat, vert_mat, diag_mat, exponent):
        self.arc_mat = arc_mat
        self.vert_mat = vert_mat
        self.diag_mat = diag_mat
        self.exponent = exponent
        self._sides = {}

    def sides(self, t):
        if t not in self._sides:
            self._sides[t] = self._compute(t)
        return self._sides[t]

    def _compute(self, t):
        k = self.arc_mat.shape[0]
        n = self.vert_mat.shape[0]
        eye_n = np.eye(n)
        lhs = logdet(np.eye(k) - t * self.arc_mat)
        rhs = self.exponent * np.log(complex(1.0 - t * t)) + logdet(
            eye_n - t * self.vert_mat + t * t * (self.diag_mat - eye_n))
        return lhs, rhs

    def problems(self, verdict, samples, expected_ts):
        """samples: (t, lhs, rhs) triples as the program reported them.

        expected_ts is the list of sample points passed to the program, or
        their count where the program drew them itself.
        """
        out = []
        if verdict is not True:
            out.append(f"verdict is {verdict!r}")
        got = sorted((complex(t) for t, _, _ in samples),
                     key=lambda z: (z.real, z.imag))
        if isinstance(expected_ts, int):
            if len(got) != expected_ts:
                return out + [f"{len(got)} samples, expected {expected_ts}"]
        else:
            want = sorted(expected_ts, key=lambda z: (z.real, z.imag))
            if len(got) != len(want) or any(
                    abs(a - b) > 1e-12 for a, b in zip(got, want)):
                return out + [f"sample points {got} differ from {want}"]
        tol = LOG_TOL_PER_DIM * self.arc_mat.shape[0]
        for t, lhs, rhs in samples:
            ref_lhs, ref_rhs = self.sides(complex(t))
            for side, got, ref in (("lhs", lhs, ref_lhs), ("rhs", rhs, ref_rhs)):
                dist = log_distance(log_of(got), ref)
                if not dist <= tol:
                    out.append(f"{side} at t={complex(t):.4g} is off by "
                               f"{dist:.3e} in the log domain")
        return out


def quaternionic_reference(n, edges, q4):
    m = len(edges)
    wt, dw = vertex_psi(n, edges, q4)
    return IdentityReference(walk_psi(edges, q4), wt, dw, 2 * m - 2 * n)


def complex_reference(n, edges, w):
    """Weighted (and, with w == 1, the classical) identity on the 2m side."""
    m = len(edges)
    q4 = np.zeros((2 * m, 4))
    q4[:, 0], q4[:, 1] = np.real(w), np.imag(w)
    arc = walk_psi(edges, q4)[:2 * m, :2 * m]
    wt, dw = vertex_psi(n, edges, q4)
    return IdentityReference(arc, wt[:n, :n], dw[:n, :n], m - n)
