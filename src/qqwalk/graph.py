"""Finite connected simple graphs with canonical arc indexing.

Each undirected edge uv contributes two arcs; edge r (0-based, in input
order) yields arc 2r = (u, v) and arc 2r + 1 = (v, u), so the inverse of
the arc at index ``idx`` sits at ``idx ^ 1``.  Arcs exist only as the
index arrays ``origin`` and ``terminal`` of o(e) and t(e).  Vertex order is
index order, which fixes the row/column order of every derived matrix.

Graph rejects loops, ends out of range, duplicate edges and disconnected
graphs itself.  One iterative Tarjan search gives ``strong_components`` and,
on every arc, connectivity (one component) and the 2-colouring (the parity
of each vertex's depth in its search tree).

On-disk format: first line ``n m``, then m lines ``u v`` with 0-based
vertex indices; ``#`` starts a comment line.  ``parse_graph`` reads the
lines and the edge count and reports an edge Graph rejects at its line.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "LineFormatError",
    "complete_graph",
    "cycle_graph",
    "parse_graph",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "star_graph",
]


class LineFormatError(ValueError):
    """Malformed input; ``line`` is the 1-based line at fault, None when the
    fault is not on one line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(LineFormatError):
    """Raised for malformed graph input; ``edge`` is the index of the edge
    that Graph rejects, None when no one edge is at fault."""

    edge: int | None = None


class Graph:
    """Finite connected simple graph."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        if n <= 0:
            raise GraphFormatError(f"vertex count must be positive, got {n}")
        seen = set()
        for r, (u, v) in enumerate(edges):
            key = (min(u, v), max(u, v))
            fault = (f"loop edge at vertex {u}" if u == v
                     else f"vertex index out of range in edge ({u}, {v})"
                     if not (0 <= u < n and 0 <= v < n)
                     else f"duplicate edge ({u}, {v})" if key in seen
                     else None)
            if fault:
                error = GraphFormatError(fault)
                error.edge = r
                raise error
            seen.add(key)
        self.n = n
        self.edges = list(edges)
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        self.origin = ends.ravel()
        self.terminal = ends[:, ::-1].ravel()
        self.degrees = np.bincount(self.origin, minlength=n)
        self.degrees.flags.writeable = False
        label, parity = self._tarjan(np.ones(self.num_arcs, dtype=bool))
        if np.any(label):
            raise GraphFormatError("graph is not connected")
        self._bipartite = bool(np.all(parity[self.origin]
                                      != parity[self.terminal]))

    # -- basic quantities ---------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def num_arcs(self) -> int:
        return 2 * len(self.edges)

    @property
    def betti_number(self) -> int:
        """m - n + 1; zero exactly for trees."""
        return self.m - self.n + 1

    @property
    def is_tree(self) -> bool:
        return self.betti_number == 0

    @property
    def is_bipartite(self) -> bool:
        """Whether the 2-colouring by search-tree depth is proper: no odd
        cycle."""
        return self._bipartite

    def degree(self, u: int) -> int:
        if not (0 <= u < self.n):
            raise ValueError(f"vertex {u} out of range [0, {self.n})")
        return int(self.degrees[u])

    def strong_components(self, arcs: np.ndarray) -> np.ndarray:
        """Labels of the strongly connected components of the digraph of the
        arcs o(e) -> t(e) where ``arcs`` is true, numbered so that each such
        arc has label[t(e)] <= label[o(e)]: the order in which Tarjan's
        search (SIAM J. Comput. 1, 1972) closes them.  Iterative, O(n + m)."""
        if np.all(arcs):  # both arcs of every edge of a connected graph
            return np.zeros(self.n, dtype=np.intp)
        return self._tarjan(arcs)[0]

    def _tarjan(self, arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The labels strong_components gives, and the parity of each
        vertex's depth in its search tree."""
        n = self.n
        by_origin = np.argsort(self.origin[arcs], kind="stable")
        heads = self.terminal[arcs][by_origin].tolist()
        start = np.searchsorted(self.origin[arcs][by_origin],
                                np.arange(n + 1)).tolist()
        index, low, label, stack = [-1] * n, [0] * n, [-1] * n, []
        parity = [0] * n
        nxt, seen, count = start[:-1], 0, 0
        for root in range(n):
            work = [root] if index[root] < 0 else []
            while work:
                v = work[-1]
                if index[v] < 0:
                    index[v] = low[v] = seen
                    parity[v] = len(work) & 1
                    seen += 1
                    stack.append(v)
                if nxt[v] < start[v + 1]:
                    w = heads[nxt[v]]
                    nxt[v] += 1
                    if index[w] < 0:
                        work.append(w)
                    elif label[w] < 0:  # still on the stack
                        low[v] = min(low[v], index[w])
                    continue
                work.pop()
                if work:
                    low[work[-1]] = min(low[work[-1]], low[v])
                if low[v] == index[v]:
                    while label[v] < 0:
                        label[stack.pop()] = count
                    count += 1
        return np.array(label, dtype=np.intp), np.array(parity)

    # -- classical matrices -------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.origin, self.terminal] = 1.0
        return a

    def degree_matrix(self) -> np.ndarray:
        return np.diag(self.degrees.astype(float))

    @functools.cached_property
    def z0_lifts(self) -> tuple[np.ndarray, np.ndarray]:
        """The lifts E = [E- E+] and signs sigma of spectra._compression,
        factored on first use and held read-only: E_sigma = R_sigma^-1 /
        sqrt(2), R_sigma the Cholesky factor of the grounded D + sigma*A."""
        parts = []
        for sign, ground in ((-1.0, 1), (1.0, int(self.is_bipartite))):
            laplacian = np.diag(self.degrees) + sign * self.adjacency_matrix()
            lift = np.zeros((self.n, self.n - ground))
            lift[ground:] = np.linalg.inv(np.linalg.cholesky(
                laplacian[ground:, ground:]).T) / np.sqrt(2.0)
            parts.append((lift, np.full(self.n - ground, sign)))
        lift, sigma = (np.concatenate(p, axis=-1) for p in zip(*parts))
        lift.flags.writeable = sigma.flags.writeable = False
        return lift, sigma


def _content_lines(text: str):
    """(line number, stripped line) for each line that is neither blank nor
    a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format into a Graph.  Of several faults the first
    malformed line is reported, else a wrong edge count, else the first edge
    Graph rejects, at that edge's line."""
    rows = []
    for lineno, line in _content_lines(text):
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise GraphFormatError(
                f"expected two integers, got {line!r}", line=lineno) from None
        rows.append((u, v, lineno))
    if not rows:
        raise GraphFormatError("empty graph file")
    (n, m, _), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise GraphFormatError(
            f"header declares {m} edges but {len(edges)} were given")
    try:
        return Graph(n, [(u, v) for u, v, _ in edges])
    except GraphFormatError as exc:
        if exc.edge is None:
            raise
        raise GraphFormatError(str(exc), line=edges[exc.edge][2]) from None


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# -- generators used by tests and the selftest suite ------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the leaves first and the center as the last vertex;
    arc 2r goes leaf -> center, matching the usual arc-order convention."""
    return Graph(leaves + 1, [(i, leaves) for i in range(leaves)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_edge_prob: float = 0.35) -> Graph:
    """Random spanning tree plus independent extra edges."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    present = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_prob:
                edges.append((u, v))
                present.add((u, v))
    return Graph(n, edges)
