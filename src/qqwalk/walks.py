"""Arc-indexed matrices of the quaternionic walk and its weighted relatives.

Builds the 2m x 2m transition matrix U from a coin map q (q(e) off the
backtracking pair, q(e) - 1 on it), the Grover specialization q(e) =
2/d_{o(e)}, the non-backtracking matrices B and J0, the weighted variants
B_w, K, L, W and D_w, and the two structural checks: the per-arc unitarity
condition and the vertex-independent column-sum condition whose common
value alpha characterizes the Grover-like regime.

Every matrix is built by fancy indexing from the arc arrays of the graph
(``origin``, ``terminal``, and the inverse ``idx ^ 1``) and the symplectic
arrays ``s``, ``p`` of the coin, following U = B_w^T - J0 = K L^T - J0.
U, B_w and B place their entries on one list of arc pairs (e, f) with
t(f) = o(e), sum_v d_v^2 of them, built in O(sum_v d_v^2) by np.repeat over
the arcs grouped by vertex; the zeta identities take U's entries from that
list and never build the 2m x 2m or 4m x 4m arc matrices densely from
zeta.SPARSE_LU_MIN rows up.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .qmatrix import QuatMatrix, psi_block
from .quaternion import Quaternion, QuaternionFormatError, parse_quaternion

__all__ = [
    "CoinMap",
    "CoinFormatError",
    "build_B_and_J0",
    "build_Bw",
    "build_K_L",
    "build_U",
    "build_W_Dw",
    "grover_matrix",
    "parse_coin_file",
    "quat_cond_check",
    "unitarity_condition",
]


class CoinFormatError(ValueError):
    """Raised for malformed coin/weight files."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CoinMap:
    """Assignment of a quaternion to every arc of a graph.

    Also serves as the general weight map for the zeta-function matrices;
    the walk coin is the special case where the weights feed the transition
    matrix U.  The coin is stored only as the complex arrays ``s`` and
    ``p`` of its symplectic parts, q(e) = s[e] + j*p[e], which the matrix
    builders index.
    """

    def __init__(self, graph: Graph, values: list[Quaternion]):
        if len(values) != graph.num_arcs:
            raise ValueError(
                f"expected {graph.num_arcs} arc values, got {len(values)}")
        self.graph = graph
        self.s = np.array([q.simplex for q in values], dtype=complex)
        self.p = np.array([q.perplex for q in values], dtype=complex)

    @classmethod
    def _from_coordinates(cls, graph: Graph, x: np.ndarray) -> "CoinMap":
        """The coin with coordinates x[:, e] = (x0, x1, x2, x3) on arc e:
        s = x0 + x1*i and p = x2 - x3*i, as Quaternion.simplex and
        perplex give them."""
        coin = cls.__new__(cls)
        coin.graph = graph
        coin.s, coin.p = (np.empty(graph.num_arcs, dtype=complex)
                          for _ in range(2))
        coin.s.real, coin.s.imag = x[0], x[1]
        coin.p.real, coin.p.imag = x[2], -x[3]
        return coin

    @classmethod
    def from_arc_values(cls, graph: Graph,
                        per_arc: dict[int, Quaternion]) -> "CoinMap":
        """Per-arc values by index into the arc order; unspecified arcs are 0."""
        values = [Quaternion.ZERO] * graph.num_arcs
        for idx, q in per_arc.items():
            if not (0 <= idx < graph.num_arcs):
                raise ValueError(f"arc index {idx} out of range")
            values[idx] = q
        return cls(graph, values)

    @classmethod
    def from_vertex_values(cls, graph: Graph,
                           per_vertex: dict[int, Quaternion]) -> "CoinMap":
        """q(e) = value at o(e); unspecified vertices get 0."""
        x = np.array([[q.x0, q.x1, q.x2, q.x3] for q in (
            per_vertex.get(v, Quaternion.ZERO) for v in range(graph.n))],
            dtype=float).reshape(graph.n, 4)
        return cls._from_coordinates(graph, x.T[:, graph.origin])

    @classmethod
    def from_alpha(cls, graph: Graph, alpha: Quaternion) -> "CoinMap":
        """q(e) = alpha / d_{o(e)} (real divisor, so side of division is moot)."""
        degree = np.bincount(graph.origin, minlength=graph.n)
        x = np.array([alpha.x0, alpha.x1, alpha.x2, alpha.x3])[:, None]
        return cls._from_coordinates(graph, x / degree[graph.origin])

    @classmethod
    def grover(cls, graph: Graph) -> "CoinMap":
        return cls.from_alpha(graph, Quaternion(2.0))

    def __getitem__(self, arc_index: int) -> Quaternion:
        return Quaternion.from_complex_pair(complex(self.s[arc_index]),
                                            complex(self.p[arc_index]))

    def is_complex_valued(self, atol: float = 1e-12) -> bool:
        return bool(np.all(_within(0.0, self.p, atol)))


def parse_coin_file(text: str, graph: Graph) -> CoinMap:
    """Parse a coin/weight file.

    Lines are ``v <vertex> <literal>`` (per-vertex) or ``a <arc-index>
    <literal>`` (per-arc); ``#`` starts a comment.  Mixing the two kinds in
    one file is an error.  Unspecified arcs default to 0.
    """
    kind: str | None = None
    per: dict[int, Quaternion] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3 or fields[0] not in ("v", "a"):
            raise CoinFormatError(
                f"expected 'v <vertex> <value>' or 'a <arc> <value>', "
                f"got {line!r}", line=lineno)
        if kind is None:
            kind = fields[0]
        elif fields[0] != kind:
            raise CoinFormatError(
                "mixing per-vertex and per-arc lines in one file", line=lineno)
        try:
            idx = int(fields[1])
        except ValueError:
            raise CoinFormatError(
                f"bad index {fields[1]!r}", line=lineno) from None
        limit = graph.n if kind == "v" else graph.num_arcs
        if not (0 <= idx < limit):
            raise CoinFormatError(f"index {idx} out of range", line=lineno)
        try:
            per[idx] = parse_quaternion(fields[2])
        except QuaternionFormatError as exc:
            raise CoinFormatError(str(exc), line=lineno) from None
    if kind is None:
        raise CoinFormatError("empty coin file")
    if kind == "v":
        return CoinMap.from_vertex_values(graph, per)
    return CoinMap.from_arc_values(graph, per)


# -- arc core ---------------------------------------------------------

def _place(shape: tuple[int, int], rows, cols, s, p=0.0) -> QuatMatrix:
    """Quaternionic matrix with s + j*p at (rows, cols) and zeros elsewhere."""
    parts = np.zeros((2, *shape), dtype=complex)
    parts[0][rows, cols] = s
    parts[1][rows, cols] = p
    return QuatMatrix(*parts)


def _arc_pairs(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """U's pattern: the sum_v d_v^2 arc pairs (e, f) with t(f) = o(e) as
    row and column indices.  Column f holds the arcs leaving t(f), taken
    from the arcs grouped by origin."""
    by_origin = np.argsort(graph.origin, kind="stable")
    degree = np.bincount(graph.origin, minlength=graph.n)
    count = degree[graph.terminal]
    cols = np.repeat(np.arange(graph.num_arcs), count)
    # Pair k of column f sits k places past the start of t(f)'s group.
    shift = np.cumsum(degree)[graph.terminal] - np.cumsum(count)
    rows = by_origin[np.arange(cols.size) + np.repeat(shift, count)]
    return rows, cols


def _walk_triplets(graph: Graph, s: np.ndarray, p: np.ndarray):
    """U's entries for the arc weights s + j*p as (rows, cols, s, p) over
    the arc pairs: the weight of the row's arc, minus 1 on the backtracking
    pair f = e^-1."""
    rows, cols = _arc_pairs(graph)
    return rows, cols, s[rows] - (cols == rows ^ 1), p[rows]


def _turned_coin(graph: Graph, coin: CoinMap) -> np.ndarray | None:
    """The coin as qmatrix.psi_block(U) turns U's entries: the real parts
    for a real U, Re q + i*(v . u) when the entries share the axis u, None
    when psi(U) stays whole.

    The axis and its test read U's nonzero entries: q(e) - 1 on the
    backtracking pair of every arc and q(e) on the others, of which an arc
    leaving a leaf has none.
    """
    leaf = np.bincount(graph.origin, minlength=graph.n)[graph.origin] < 2
    turned = psi_block(QuatMatrix(
        np.stack((np.where(leaf, 0.0, coin.s), coin.s - 1.0)),
        np.stack((np.where(leaf, 0.0, coin.p), coin.p))))
    if turned.shape[0] != 2:
        return None
    if not np.iscomplexobj(turned):
        return coin.s.real
    return coin.s.real + 1j * turned[1].imag


def _out_sums(graph: Graph, coin: CoinMap) -> np.ndarray:
    """Symplectic parts (s, p) of the per-vertex sums of the coin over the
    outgoing arcs, added in arc order."""
    sums = np.zeros((2, graph.n), dtype=complex)
    np.add.at(sums[0], graph.origin, coin.s)
    np.add.at(sums[1], graph.origin, coin.p)
    return sums


def _within(s: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise: all four quaternion coordinates of s + j*p are within
    tol of zero."""
    s, p = np.asarray(s), np.asarray(p)
    return ((np.abs(s.real) <= tol) & (np.abs(s.imag) <= tol)
            & (np.abs(p.real) <= tol) & (np.abs(p.imag) <= tol))


# -- transition matrices ----------------------------------------------

def build_U(graph: Graph, coin: CoinMap) -> QuatMatrix:
    """The 2m x 2m quaternionic transition matrix.

    U_{ef} = q(e) when t(f) = o(e) and f != e^-1, q(e) - 1 on the
    backtracking pair f = e^-1, and 0 otherwise; that is U = B_w^T - J0
    with the coin as the weights.
    """
    return _place((graph.num_arcs,) * 2,
                  *_walk_triplets(graph, coin.s, coin.p))


def grover_matrix(graph: Graph) -> QuatMatrix:
    """Transition matrix of the Grover walk: the coin q(e) = 2/d_{o(e)}."""
    return build_U(graph, CoinMap.grover(graph))


def unitarity_condition(graph: Graph, coin: CoinMap,
                        tol: float = 1e-9) -> bool:
    """Necessary and sufficient condition for U to be quaternionic unitary.

    Per arc: q0^2 + q1^2 + q2^2 + q3^2 - 2*q0/d_{o(e)} = 0, and the coin is
    constant across arcs sharing an origin.
    """
    s, p = coin.s, coin.p
    degree = np.bincount(graph.origin, minlength=graph.n)[graph.origin]
    residual = (s.real * s.real + s.imag * s.imag + p.real * p.real
                + p.imag * p.imag - 2.0 * s.real / degree)
    if np.any(np.abs(residual) > tol):
        return False
    # The first arc leaving each vertex; on a connected graph every vertex
    # is an origin, so the unique origins are 0..n-1 in order.
    _, first = np.unique(graph.origin, return_index=True)
    lead = first[graph.origin]
    return bool(np.all(_within(s - s[lead], p - p[lead], tol)))


# -- zeta-function matrices -------------------------------------------

def build_B_and_J0(graph: Graph) -> tuple[QuatMatrix, QuatMatrix]:
    """B_{ef} = [t(e) = o(f)] and the arc-inversion permutation J0, 1 at
    (e, e ^ 1)."""
    rows, cols = _arc_pairs(graph)
    arcs = np.arange(graph.num_arcs)
    shape = (graph.num_arcs,) * 2
    return _place(shape, cols, rows, 1.0), _place(shape, arcs, arcs ^ 1, 1.0)


def build_Bw(graph: Graph, weights: CoinMap) -> QuatMatrix:
    """(B_w)_{ef} = w(f) when t(e) = o(f); reduces to B at w == 1."""
    rows, cols = _arc_pairs(graph)
    return _place((graph.num_arcs,) * 2, cols, rows, weights.s[rows],
                  weights.p[rows])


def _K_L_entries(graph: Graph, weights: CoinMap) -> tuple[tuple, tuple]:
    """The entries of K and L as (rows, cols, s, p), one per arc:
    K_{e,o(e)} = w(e) and L_{e,t(e)} = 1."""
    arcs = np.arange(graph.num_arcs)
    return ((arcs, graph.origin, weights.s, weights.p),
            (arcs, graph.terminal, np.ones(graph.num_arcs, dtype=complex),
             np.zeros(graph.num_arcs, dtype=complex)))


def build_K_L(graph: Graph, weights: CoinMap) -> tuple[QuatMatrix, QuatMatrix]:
    """The 2m x n factor matrices with K_{ev} = w(e)[o(e) = v] and
    L_{ev} = [t(e) = v], satisfying B_w^T = K L^T and W^T = L^T K."""
    shape = (graph.num_arcs, graph.n)
    return tuple(_place(shape, *entries)
                 for entries in _K_L_entries(graph, weights))


def build_W_Dw(graph: Graph, weights: CoinMap) -> tuple[QuatMatrix, QuatMatrix]:
    """The n x n weighted matrix W (w(e) on each arc (u, v)) and the diagonal
    matrix D_w of outgoing-weight sums."""
    w = _place((graph.n, graph.n), graph.origin, graph.terminal,
               weights.s, weights.p)
    return w, QuatMatrix(*map(np.diag, _out_sums(graph, weights)))


def quat_cond_check(graph: Graph, coin: CoinMap,
                    tol: float = 1e-9) -> tuple[bool, Quaternion | None]:
    """Check that the outgoing coin sum is vertex-independent.

    Returns (True, alpha) with the common sum when it is, else (False, None).
    """
    s, p = _out_sums(graph, coin)
    if np.all(_within(s - s[0], p - p[0], tol)):
        return True, Quaternion.from_complex_pair(complex(s[0]), complex(p[0]))
    return False, None
