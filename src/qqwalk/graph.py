"""Finite connected simple graphs with canonical arc indexing.

Each undirected edge uv contributes two arcs; edge r (0-based, in input
order) yields arc 2r = (u, v) and arc 2r + 1 = (v, u), so the inverse of
the arc at index ``idx`` sits at ``idx ^ 1``.  Arcs exist only as the
index arrays ``origin`` and ``terminal`` of o(e) and t(e).  Vertex order is
index order, which fixes the row/column order of every derived matrix.

On-disk format: first line ``n m``, then m lines ``u v`` with 0-based
vertex indices; ``#`` starts a comment line.  Loops, duplicate edges and
disconnected graphs are rejected.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "complete_graph",
    "cycle_graph",
    "parse_graph",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "star_graph",
]


class GraphFormatError(ValueError):
    """Raised for malformed graph input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Finite connected simple graph."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        if n <= 0:
            raise GraphFormatError(f"vertex count must be positive, got {n}")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"vertex index out of range in edge ({u}, {v})")
            if u == v:
                raise GraphFormatError(f"loop edge at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        self.n = n
        self.edges = list(edges)
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        self.origin = ends.ravel()
        self.terminal = ends[:, ::-1].ravel()
        self.degrees = np.bincount(self.origin, minlength=n)
        self.degrees.flags.writeable = False
        colour = self._bfs_colours()
        if np.any(colour < 0):
            raise GraphFormatError("graph is not connected")
        self._bipartite = bool(np.all(colour[self.origin]
                                      != colour[self.terminal]))

    def _bfs_colours(self) -> np.ndarray:
        """Parity of each vertex's distance from vertex 0 in a breadth-first
        search, -1 where the search does not reach."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        colour = [-1] * self.n
        colour[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
        return np.array(colour)

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
        """Whether the breadth-first 2-colouring is proper: no odd cycle."""
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
        n = self.n
        if np.all(arcs):  # both arcs of every edge of a connected graph
            return np.zeros(n, dtype=np.intp)
        by_origin = np.argsort(self.origin[arcs], kind="stable")
        heads = self.terminal[arcs][by_origin].tolist()
        start = np.searchsorted(self.origin[arcs][by_origin],
                                np.arange(n + 1)).tolist()
        index, low, label, stack = [-1] * n, [0] * n, [-1] * n, []
        nxt, seen, count = start[:-1], 0, 0
        for root in range(n):
            work = [root] if index[root] < 0 else []
            while work:
                v = work[-1]
                if index[v] < 0:
                    index[v] = low[v] = seen
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
        return np.array(label, dtype=np.intp)

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


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format into a Graph."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n_expected = m_expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(
                f"expected two integers, got {line!r}", line=lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"expected two integers, got {line!r}", line=lineno) from None
        if header is None:
            header = (a, b)
            n_expected, m_expected = a, b
            continue
        if a == b:
            raise GraphFormatError(f"loop edge at vertex {a}", line=lineno)
        if not (0 <= a < n_expected and 0 <= b < n_expected):
            raise GraphFormatError(
                f"vertex index out of range in edge ({a}, {b})", line=lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({a}, {b})", line=lineno)
        seen.add(key)
        edges.append((a, b))
    if header is None:
        raise GraphFormatError("empty graph file")
    if len(edges) != m_expected:
        raise GraphFormatError(
            f"header declares {m_expected} edges but {len(edges)} were given")
    return Graph(n_expected, edges)


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
