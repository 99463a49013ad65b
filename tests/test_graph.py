"""Graph parsing, arc indexing, and the classical matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk.graph import (
    Graph,
    GraphFormatError,
    complete_graph,
    cycle_graph,
    parse_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from qqwalk.linalg import eigenvalues
from qqwalk.spectra import compare_spectra

K3_TEXT = "3 3\n0 1\n1 2\n2 0"
STAR_TEXT = "4 3\n3 0\n3 1\n3 2"


class TestParsing:
    def test_triangle(self):
        g = parse_graph(K3_TEXT)
        assert g.n == 3 and g.m == 3 and g.num_arcs == 6

    def test_star_center_vertex_three(self):
        g = parse_graph(STAR_TEXT)
        assert g.n == 4 and g.m == 3
        assert g.degree(3) == 3
        assert all(g.degree(v) == 1 for v in range(3))

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*loop"):
            parse_graph("2 1\n0 0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            parse_graph("3 3\n0 1\n1 0\n1 2")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphFormatError, match="not connected"):
            parse_graph("4 2\n0 1\n2 3")

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphFormatError, match="line 3.*out of range"):
            parse_graph("3 2\n0 1\n1 5")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# triangle\n3 3\n\n0 1\n1 2\n# last\n2 0\n")
        assert g.m == 3

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares"):
            parse_graph("3 3\n0 1\n1 2")

    @pytest.mark.parametrize("text, message, line", [
        ("3 2\n0 1\n1 x\n", "line 3: expected two integers, got '1 x'", 3),
        ("3 2\n0 1\n# c\n1 2 0\n",
         "line 4: expected two integers, got '1 2 0'", 4),
        ("# nothing\n\n", "empty graph file", None),
        ("0 0\n", "vertex count must be positive, got 0", None),
        ("-2 0\n", "vertex count must be positive, got -2", None),
    ], ids=["non-integer", "three-fields", "empty", "n-zero", "n-negative"])
    def test_rejection_message_and_line(self, text, message, line):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message
        assert info.value.line == line

    def test_of_several_faults_the_earliest_kind_is_reported(self):
        # A malformed line first, then the edge count, then the first edge
        # Graph rejects, whatever their order in the file.
        cases = [("3 3\n0 0\n1 x\n",
                  "line 3: expected two integers, got '1 x'"),
                 ("3 3\n0 0\n1 2\n",
                  "header declares 3 edges but 2 were given"),
                 ("3 3\n0 1\n0 0\n1 0\n", "line 3: loop edge at vertex 0")]
        for text, message in cases:
            with pytest.raises(GraphFormatError) as info:
                parse_graph(text)
            assert str(info.value) == message

    def test_graph_names_the_edge_it_rejects(self):
        with pytest.raises(GraphFormatError) as info:
            Graph(3, [(0, 1), (1, 2), (2, 1)])
        assert str(info.value) == "duplicate edge (2, 1)"
        assert (info.value.edge, info.value.line) == (2, None)
        with pytest.raises(GraphFormatError) as info:
            Graph(4, [(0, 1), (2, 3)])
        assert info.value.edge is None


class TestArcs:
    def test_inverse_pairing(self):
        g = parse_graph(K3_TEXT)
        for idx in range(g.num_arcs):
            inv = idx ^ 1
            assert g.origin[inv] == g.terminal[idx]
            assert g.terminal[inv] == g.origin[idx]
            assert inv ^ 1 == idx

    def test_input_order_determines_arcs(self):
        g = parse_graph(K3_TEXT)
        assert (g.origin[0], g.terminal[0]) == (0, 1)
        assert (g.origin[1], g.terminal[1]) == (1, 0)
        assert (g.origin[4], g.terminal[4]) == (2, 0)


class TestDegreesAndBetti:
    def test_triangle_degrees(self):
        g = complete_graph(3)
        assert all(g.degree(u) == 2 for u in range(3))

    def test_path_endpoint(self):
        g = path_graph(2)
        assert g.degree(0) == 1

    def test_degree_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert sum(g.degree(u) for u in range(g.n)) == 2 * g.m

    def test_betti_number(self):
        assert complete_graph(3).betti_number == 1
        assert star_graph(3).betti_number == 0
        assert star_graph(3).is_tree
        assert cycle_graph(5).betti_number == 1
        assert petersen_graph().betti_number == 6

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            complete_graph(3).degree(5)

    def test_degrees_are_a_read_only_array(self):
        g = random_connected_graph(np.random.default_rng(4), 12, 0.3)
        assert np.array_equal(g.degrees, np.bincount(g.origin, minlength=g.n))
        assert [g.degree(u) for u in range(g.n)] == g.degrees.tolist()
        with pytest.raises(ValueError):
            g.degrees[0] = 7


def reachable(g, arcs):
    """Boolean reachability of the digraph of the marked arcs, by repeated
    squaring of its adjacency (with the diagonal)."""
    r = np.eye(g.n, dtype=bool)
    r[g.origin[arcs], g.terminal[arcs]] = True
    for _ in range(max(g.n, 2).bit_length()):
        r = (r.astype(int) @ r.astype(int)) > 0
    return r


class TestStrongComponents:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([0.0, 0.3, 0.7]),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_reachability(self, n, extra, density, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        arcs = rng.random(g.num_arcs) < density
        label = g.strong_components(arcs)
        r = reachable(g, arcs)
        assert np.array_equal(label[:, None] == label[None, :], r & r.T)
        # Every marked arc points to a component no later than its own.
        assert np.all(label[g.terminal[arcs]] <= label[g.origin[arcs]])
        assert sorted(set(label.tolist())) == list(range(label.max() + 1))

    def test_every_arc_is_one_component(self):
        g = petersen_graph()
        assert not g.strong_components(np.ones(g.num_arcs, dtype=bool)).any()

    def test_long_one_way_path_needs_no_recursion(self):
        # Arcs i -> i + 1 only: n components, the last vertex closed first.
        n = 20000
        g = path_graph(n)
        label = g.strong_components(g.origin < g.terminal)
        assert np.array_equal(label, np.arange(n)[::-1])


class TestBipartite:
    def test_small_graphs(self):
        assert Graph(1, []).is_bipartite
        assert cycle_graph(6).is_bipartite and star_graph(4).is_bipartite
        assert not cycle_graph(5).is_bipartite
        assert not complete_graph(3).is_bipartite
        assert not petersen_graph().is_bipartite

    def test_matches_the_signless_laplacian(self):
        # A connected graph is bipartite exactly when its signless
        # Laplacian D + A is singular.
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(2, 12)),
                                       float(rng.choice([0.0, 0.1, 0.3])))
            least = np.linalg.eigvalsh(g.degree_matrix()
                                       + g.adjacency_matrix())[0]
            assert g.is_bipartite == (abs(least) <= 1e-9)


def transition_matrix(g: Graph) -> np.ndarray:
    """T = D^-1 A, the random-walk matrix the alpha-coin route diagonalizes,
    from the adjacency and degree matrices."""
    return g.adjacency_matrix() / g.degree_matrix().diagonal()[:, None]


class TestTransitionMatrix:
    def test_triangle(self):
        t = transition_matrix(complete_graph(3))
        assert np.allclose(t, (np.ones((3, 3)) - np.eye(3)) / 2)

    def test_star(self):
        t = transition_matrix(star_graph(3))
        assert np.allclose(t[3, :3], 1 / 3) and t[3, 3] == 0
        for leaf in range(3):
            assert t[leaf, 3] == 1.0

    def test_row_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert np.allclose(transition_matrix(g).sum(axis=1), 1.0)

    def test_triangle_spectrum(self):
        vals = eigenvalues(transition_matrix(complete_graph(3)))
        assert compare_spectra(vals, np.array([1.0, -0.5, -0.5]),
                               tol=1e-10).verdict
