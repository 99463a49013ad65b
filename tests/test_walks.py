"""Walk transition matrices, weighted arc matrices, and structural checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk.graph import complete_graph, parse_graph, path_graph, star_graph, random_connected_graph
from qqwalk.qmatrix import QuatMatrix
from qqwalk.quaternion import Quaternion, parse_quaternion
from qqwalk.walks import (
    CoinFormatError,
    CoinMap,
    _arc_pairs,
    build_B_and_J0,
    build_Bw,
    build_K_L,
    build_U,
    build_W_Dw,
    grover_matrix,
    parse_coin_file,
    quat_cond_check,
    unitarity_condition,
)

ZERO, ONE = Quaternion.ZERO, Quaternion.ONE


def reference_U(graph, coin):
    """U from its definition, one Quaternion entry at a time: q(e) where
    t(f) = o(e), less 1 on the backtracking pair f = e^-1."""
    rows = []
    for e in range(graph.num_arcs):
        row = [ZERO] * graph.num_arcs
        for f in range(graph.num_arcs):
            if graph.terminal[f] == graph.origin[e]:
                row[f] = coin[e] - ONE if f == e ^ 1 else coin[e]
        rows.append(row)
    return QuatMatrix.from_entries(rows)


@st.composite
def graphs_with_coins(draw):
    """A random connected graph on 2..7 vertices and a random quaternion
    on every arc."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, draw(st.integers(2, 7)),
                               draw(st.floats(0.0, 1.0)))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    values = draw(st.lists(st.builds(Quaternion, coord, coord, coord, coord),
                           min_size=g.num_arcs, max_size=g.num_arcs))
    return g, CoinMap(g, values)


@st.composite
def pair_core_inputs(draw):
    """A tree, a star K_{1,k} or a random connected graph on 1..9 vertices,
    with random quaternion weights, with zero weights on the odd arcs (on a
    star the center -> leaf arcs: the ex5.w pattern) or with all weights
    zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tree", "star", "random"]))
    if kind == "star":
        g = star_graph(draw(st.integers(1, 9)))
    else:
        g = random_connected_graph(
            rng, draw(st.integers(1, 9)),
            0.0 if kind == "tree" else draw(st.floats(0.0, 1.0)))
    values = rng.uniform(-1.0, 1.0, (g.num_arcs, 4))
    zeros = draw(st.sampled_from(["none", "odd arcs", "all"]))
    values[{"none": slice(0), "odd arcs": slice(1, None, 2),
            "all": slice(None)}[zeros]] = 0.0
    return g, CoinMap(g, [Quaternion(*v) for v in values])


def arc_matrices_by_loop(g, coin):
    """U, B_w and B from a loop over every ordered pair of arcs."""
    size = g.num_arcs
    u, bw = (np.zeros((2, size, size), complex) for _ in range(2))
    b = np.zeros((size, size), complex)
    for e in range(size):
        for f in range(size):
            if g.terminal[f] == g.origin[e]:
                u[0, e, f] = coin.s[e] - (1.0 if f == e ^ 1 else 0.0)
                u[1, e, f] = coin.p[e]
            if g.terminal[e] == g.origin[f]:
                bw[:, e, f] = coin.s[f], coin.p[f]
                b[e, f] = 1.0
    return u, bw, b


def assert_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.s, b.s) and np.array_equal(a.p, b.p)


def example_star_weights(g):
    """Weighted star: leaf->center arcs carry 1+i, 1-j, 2; reversals 0."""
    return CoinMap.from_arc_values(g, {0: Quaternion(1, 1),
                                       2: Quaternion(1, 0, -1),
                                       4: Quaternion(2)})


def random_coin(rng, g, scale=1.0):
    return CoinMap(g, [Quaternion(*rng.uniform(-scale, scale, 4))
                       for _ in range(g.num_arcs)])


def unitary_coin(rng, g):
    """Per-vertex coin satisfying |q|^2 = 2*q0/d with random imaginary axis."""
    per_vertex = {}
    for u in range(g.n):
        d = g.degree(u)
        q0 = rng.uniform(0.0, 2.0 / d)
        imag = np.sqrt(max(2.0 * q0 / d - q0 * q0, 0.0))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        per_vertex[u] = Quaternion(q0, *(imag * axis))
    return CoinMap.from_vertex_values(g, per_vertex)


class TestGroverMatrix:
    def test_triangle_permutation(self):
        g = parse_graph("3 3\n0 1\n1 2\n2 0")
        expected = np.zeros((6, 6))
        for row, col in [(0, 4), (1, 3), (2, 0), (3, 5), (4, 2), (5, 1)]:
            expected[row, col] = 1.0
        u = grover_matrix(g)
        assert np.allclose(u.s, expected) and np.abs(u.p).max() == 0

    def test_star_entries(self):
        g = star_graph(3)  # leaves 0..2, center 3; arc 2r is leaf->center
        u = grover_matrix(g)
        expected = np.array([
            [0, 1, 0, 0, 0, 0],
            [-1 / 3, 0, 2 / 3, 0, 2 / 3, 0],
            [0, 0, 0, 1, 0, 0],
            [2 / 3, 0, -1 / 3, 0, 2 / 3, 0],
            [0, 0, 0, 0, 0, 1],
            [2 / 3, 0, 2 / 3, 0, -1 / 3, 0],
        ])
        assert np.allclose(u.s, expected)

    def test_single_edge(self):
        u = grover_matrix(path_graph(2))
        assert np.allclose(u.s, [[0, 1], [1, 0]])


class TestBuildU:
    def test_grover_coin_reproduces_grover_matrix(self):
        g = complete_graph(4)
        assert build_U(g, CoinMap.grover(g)).isclose(grover_matrix(g))

    def test_zero_coin_gives_minus_J0(self):
        g = complete_graph(3)
        _, j0 = build_B_and_J0(g)
        zero = CoinMap(g, [ZERO] * g.num_arcs)
        assert build_U(g, zero).isclose(-j0)

    def test_weighted_star_matrix(self):
        g = star_graph(3)
        u = build_U(g, example_star_weights(g))
        expected = QuatMatrix.from_entries([
            [ZERO, Quaternion(0, 1), ZERO, ZERO, ZERO, ZERO],
            [-ONE, ZERO, ZERO, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO, -Quaternion.J, ZERO, ZERO],
            [ZERO, ZERO, -ONE, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO, ZERO, ZERO, ONE],
            [ZERO, ZERO, ZERO, ZERO, -ONE, ZERO],
        ])
        assert u.isclose(expected)

    def test_equals_transposed_weighted_edge_matrix_minus_J0(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 7)))
            coin = random_coin(rng, g)
            _, j0 = build_B_and_J0(g)
            bw = build_Bw(g, coin)
            assert build_U(g, coin).isclose(bw.transpose() - j0, atol=1e-12)


class TestUnitarityCondition:
    def test_triangle_with_half_one_plus_i(self):
        g = complete_graph(3)
        coin = CoinMap.from_vertex_values(
            g, {u: Quaternion(0.5, 0.5) for u in range(3)})
        assert unitarity_condition(g, coin)
        assert build_U(g, coin).is_unitary(1e-9)

    def test_grover_coin_always_unitary(self):
        for g in (complete_graph(3), star_graph(3), path_graph(4)):
            assert unitarity_condition(g, CoinMap.grover(g))

    def test_constant_one_on_star_fails(self):
        g = star_graph(3)
        coin = CoinMap.from_vertex_values(
            g, {u: ONE for u in range(4)})
        # center has degree 3: 1 - 2/3 != 0
        assert not unitarity_condition(g, coin)
        assert not build_U(g, coin).is_unitary(1e-9)

    def test_origin_constancy_required(self):
        g = complete_graph(3)
        values = [Quaternion(0.5, 0.5)] * g.num_arcs
        values[0] = Quaternion(0.5, -0.5)  # same residual, different value
        coin = CoinMap(g, values)
        assert not unitarity_condition(g, coin)
        assert not build_U(g, coin).is_unitary(1e-9)

    def test_matches_matrix_unitarity_both_directions(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            coin = unitary_coin(rng, g) if trial % 2 == 0 else random_coin(rng, g)
            assert unitarity_condition(g, coin, tol=1e-9) == \
                build_U(g, coin).is_unitary(1e-9)

    def test_q0_range_consequence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            coin = unitary_coin(rng, g)
            assert unitarity_condition(g, coin)
            for e in range(g.num_arcs):
                q0 = coin[e].x0
                assert -1e-12 <= q0 <= 2.0 / g.degree(g.origin[e]) + 1e-12


class TestBandJ0:
    def test_J0_is_involution(self):
        g = complete_graph(4)
        _, j0 = build_B_and_J0(g)
        assert (j0 @ j0).isclose(QuatMatrix.identity(g.num_arcs))
        assert j0.transpose().isclose(j0)

    def test_triangle_non_backtracking_row_sums(self):
        g = complete_graph(3)
        b, j0 = build_B_and_J0(g)
        row_sums = (b.s - j0.s).sum(axis=1)
        assert np.allclose(row_sums, 1.0)  # d_{t(e)} - 1 = 1 on K3

    def test_single_edge(self):
        g = path_graph(2)
        b, j0 = build_B_and_J0(g)
        assert np.allclose(b.s, [[0, 1], [1, 0]])
        assert b.isclose(j0)


class TestWeightedMatrices:
    def test_unit_weights_reduce_to_B(self):
        g = complete_graph(3)
        ones = CoinMap(g, [ONE] * g.num_arcs)
        b, _ = build_B_and_J0(g)
        assert build_Bw(g, ones).isclose(b)

    def test_star_weights_assemble(self):
        g = star_graph(3)
        w = example_star_weights(g)
        _, j0 = build_B_and_J0(g)
        u = build_U(g, w)
        assert build_Bw(g, w).transpose().isclose(u + j0)

    def test_factorizations(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 7)))
            w = random_coin(rng, g)
            k, l = build_K_L(g, w)
            bw = build_Bw(g, w)
            wm, _ = build_W_Dw(g, w)
            assert bw.transpose().max_abs_diff(k @ l.transpose()) <= 1e-12
            assert wm.transpose().max_abs_diff(l.transpose() @ k) <= 1e-12

    def test_zero_weights(self):
        g = complete_graph(3)
        zero = CoinMap(g, [ZERO] * g.num_arcs)
        k, l = build_K_L(g, zero)
        assert np.abs(k.s).max() == 0 and np.abs(k.p).max() == 0
        bw = build_Bw(g, zero)
        assert bw.transpose().isclose(k @ l.transpose())

    def test_unit_weights_give_adjacency(self):
        g = complete_graph(3)
        ones = CoinMap(g, [ONE] * g.num_arcs)
        _, l = build_K_L(g, ones)
        k, _ = build_K_L(g, ones)
        prod = l.transpose() @ k
        assert np.allclose(prod.s, g.adjacency_matrix().T)
        wm, dw = build_W_Dw(g, ones)
        assert np.allclose(wm.s, g.adjacency_matrix())
        assert np.allclose(dw.s, g.degree_matrix())

    def test_grover_coin_weighted_degrees(self):
        g = star_graph(3)
        _, dw = build_W_Dw(g, CoinMap.grover(g))
        assert np.allclose(dw.s, 2.0 * np.eye(g.n))

    def test_example_star_W_and_Dw(self):
        g = star_graph(3)
        wm, dw = build_W_Dw(g, example_star_weights(g))
        wt = wm.transpose()
        # only the center row of W^T is nonzero: (1+i, 1-j, 2, 0)
        assert wt[3, 0].isclose(Quaternion(1, 1))
        assert wt[3, 1].isclose(Quaternion(1, 0, -1))
        assert wt[3, 2].isclose(Quaternion(2))
        assert np.abs(wt.s[:3]).max() == 0 and np.abs(wt.p[:3]).max() == 0
        diag = [dw[u, u] for u in range(4)]
        assert diag[0].isclose(Quaternion(1, 1))
        assert diag[1].isclose(Quaternion(1, 0, -1))
        assert diag[2].isclose(Quaternion(2))
        assert diag[3].isclose(ZERO)


class TestColumnSumCondition:
    def test_grover_coin(self):
        g = complete_graph(3)
        ok, alpha = quat_cond_check(g, CoinMap.grover(g))
        assert ok and alpha.isclose(Quaternion(2))

    def test_alpha_coin_recovery(self):
        g = star_graph(3)
        alpha = Quaternion(1, 1, 1)
        ok, recovered = quat_cond_check(g, CoinMap.from_alpha(g, alpha))
        assert ok and recovered.isclose(alpha, atol=1e-12)

    def test_weighted_star_fails(self):
        g = star_graph(3)
        ok, alpha = quat_cond_check(g, example_star_weights(g))
        assert not ok and alpha is None

    def test_commutation_equivalence_for_nonzero_weights(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            if trial % 2 == 0:
                alpha = Quaternion(*rng.uniform(-1, 1, 4))
                coin = CoinMap.from_alpha(g, alpha)
            else:
                coin = CoinMap(g, [Quaternion(*q) for q in
                                   rng.uniform(0.2, 1.0, (g.num_arcs, 4))])
            wm, dw = build_W_Dw(g, coin)
            wt = wm.transpose()
            comm = (wt @ dw) - (dw @ wt)
            commutes = comm.max_abs_diff(
                QuatMatrix.zeros(g.n)) <= 1e-9
            assert quat_cond_check(g, coin, tol=1e-9)[0] == commutes


class TestCoinFiles:
    def test_per_vertex(self):
        g = complete_graph(3)
        coin = parse_coin_file("v 0 1\nv 1 1\nv 2 1\n", g)
        assert coin[0].isclose(ONE)

    def test_per_arc_defaults_to_zero(self):
        g = star_graph(3)
        coin = parse_coin_file("a 0 1+i\na 2 1-j\na 4 2\n", g)
        assert coin[1].isclose(ZERO)
        assert coin[2].isclose(Quaternion(1, 0, -1))

    def test_mixed_kinds_rejected(self):
        g = complete_graph(3)
        with pytest.raises(CoinFormatError, match="line 2.*mixing"):
            parse_coin_file("v 0 1\na 0 1\n", g)

    def test_bad_index(self):
        g = complete_graph(3)
        with pytest.raises(CoinFormatError, match="out of range"):
            parse_coin_file("a 99 1\n", g)

    def test_bad_literal(self):
        g = complete_graph(3)
        with pytest.raises(CoinFormatError, match="line 1"):
            parse_coin_file("v 0 1+q\n", g)

    def test_alpha_coin_divides_by_origin_degree(self):
        g = star_graph(3)
        alpha = parse_quaternion("1+i+j")
        coin = CoinMap.from_alpha(g, alpha)
        assert coin[0].isclose(alpha)  # leaf degree 1
        assert coin[1].isclose(alpha / 3)  # center degree 3


class TestCoinArrays:
    """Coins built by array division and indexing hold the bits of the
    per-arc Quaternion construction."""

    @staticmethod
    def assert_bit_identical(coin, values):
        ref = CoinMap(coin.graph, values)
        assert coin.s.tobytes() == ref.s.tobytes()
        assert coin.p.tobytes() == ref.p.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
           st.tuples(*[st.floats(-1e9, 1e9, allow_nan=False)] * 4))
    def test_alpha_and_vertex_coins(self, n, extra, seed, coords):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        degree = np.bincount(g.origin, minlength=g.n)
        alpha = Quaternion(*coords)
        self.assert_bit_identical(CoinMap.from_alpha(g, alpha),
                                  [alpha / d for d in degree[g.origin]])
        self.assert_bit_identical(
            CoinMap.grover(g), [Quaternion(2.0) / d for d in degree[g.origin]])
        per_vertex = {v: Quaternion(*rng.uniform(-3, 3, 4))
                      for v in range(g.n) if rng.random() < 0.7}
        self.assert_bit_identical(
            CoinMap.from_vertex_values(g, per_vertex),
            [per_vertex.get(v, ZERO) for v in g.origin])

    def test_signed_zeros_are_kept(self):
        g = star_graph(2)
        alpha = Quaternion(-0.0, 0.0, -0.0, 0.0)
        degree = np.bincount(g.origin, minlength=g.n)
        self.assert_bit_identical(CoinMap.from_alpha(g, alpha),
                                  [alpha / d for d in degree[g.origin]])


class TestArcCoreProperties:
    """The array-built matrices equal their definitions entry for entry."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_coins())
    def test_walk_matrix_has_one_construction(self, graph_and_coin):
        g, coin = graph_and_coin
        _, j0 = build_B_and_J0(g)
        k, l = build_K_L(g, coin)
        u = build_U(g, coin)
        assert_identical(u, reference_U(g, coin))
        assert_identical(u, build_Bw(g, coin).transpose() - j0)
        assert_identical(u, k @ l.transpose() - j0)

    @settings(max_examples=80, deadline=None)
    @given(pair_core_inputs())
    def test_arc_matrices_are_placed_from_the_pairs(self, graph_and_coin):
        g, coin = graph_and_coin
        rows, cols = _arc_pairs(g)
        degree = np.bincount(g.origin, minlength=g.n)
        assert rows.size == np.sum(degree ** 2)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        u, bw, b = arc_matrices_by_loop(g, coin)
        assert_identical(build_U(g, coin), QuatMatrix(*u))
        assert_identical(build_Bw(g, coin), QuatMatrix(*bw))
        assert_identical(build_B_and_J0(g)[0], QuatMatrix.from_complex(b))

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_coins())
    def test_vertex_matrices_and_J0(self, graph_and_coin):
        g, coin = graph_and_coin
        _, j0 = build_B_and_J0(g)
        k, l = build_K_L(g, coin)
        w, dw = build_W_Dw(g, coin)
        assert_identical(w, (l.transpose() @ k).transpose())
        sums = [ZERO] * g.n
        for e in range(g.num_arcs):
            sums[g.origin[e]] = sums[g.origin[e]] + coin[e]
        assert_identical(dw, QuatMatrix.from_entries(
            [[sums[u] if u == v else ZERO for v in range(g.n)]
             for u in range(g.n)]))
        assert_identical(j0 @ j0, QuatMatrix.identity(g.num_arcs))
