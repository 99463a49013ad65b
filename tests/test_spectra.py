"""Walk spectra by all routes, cross-validated against the direct one."""

import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    load_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from qqwalk import linalg, spectra
from qqwalk.linalg import NotSimultaneouslyTriangularizableError
from qqwalk.qmatrix import class_reps, dedupe_class_reps
from qqwalk.quaternion import Quaternion
from qqwalk.spectra import (
    CERT_RADII,
    CROSS_TOL,
    _certificate,
    _operand,
    _sample_points,
    _trim_tree_values,
    _vertex_logdet,
    _vertex_pair,
    compare_spectra,
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from qqwalk.walks import CoinMap, build_U, parse_coin_file

S2 = np.sqrt(2.0)


def matches_direct(report, graph, coin):
    """The report agrees with the direct eigensolve within CROSS_TOL: the
    comparison the formula routes once made themselves."""
    return compare_spectra(report, spectrum_direct(graph, coin),
                           tol=CROSS_TOL).verdict


def weighted_star():
    g = star_graph(3)
    w = CoinMap.from_arc_values(g, {0: Quaternion(1, 1),
                                    2: Quaternion(1, 0, -1),
                                    4: Quaternion(2)})
    return g, w


class TestDirectRoute:
    def test_grover_triangle(self):
        g = complete_graph(3)
        report = spectrum_direct(g, CoinMap.grover(g))
        half = np.sqrt(3.0) / 2
        # lambda_T in {1, -1/2, -1/2} maps to 1 (twice) and the primitive
        # cube roots of unity; m - n = 0 so nothing is padded.
        base = np.array([1, 1, -0.5 + half * 1j, -0.5 + half * 1j,
                         -0.5 - half * 1j, -0.5 - half * 1j])
        expected = np.concatenate([base, np.conj(base)])
        assert compare_spectra(report.psi_spectrum, expected, tol=1e-9).verdict

    def test_grover_star(self):
        g = star_graph(3)
        report = spectrum_direct(g, CoinMap.grover(g))
        base = np.array([1, -1, 1j, 1j, -1j, -1j])
        expected = np.concatenate([base, np.conj(base)])
        assert compare_spectra(report.psi_spectrum, expected, tol=1e-9).verdict

    def test_weighted_star(self):
        g, w = weighted_star()
        report = spectrum_direct(g, w)
        base = np.array([(1 + 1j) / S2, (-1 + 1j) / S2, 1j,
                         (1 - 1j) / S2, (-1 - 1j) / S2, -1j])
        expected = np.concatenate([base, base])
        assert compare_spectra(report.psi_spectrum, expected, tol=1e-7).verdict
        reps = class_reps(report.psi_spectrum)
        assert [m for _, m in reps] == [4, 4, 4]
        values = np.array([v for v, _ in reps])
        assert compare_spectra(
            values, np.array([(1 + 1j) / S2, (-1 + 1j) / S2, 1j]),
            tol=1e-7).verdict

    def test_unit_modulus_for_unitary_coins(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            report = spectrum_direct(g, CoinMap.grover(g))
            assert np.abs(np.abs(report.psi_spectrum) - 1.0).max() <= 1e-9

    def test_conjugate_closed(self):
        rng = np.random.default_rng(97)
        g = random_connected_graph(rng, 5)
        coin = CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 4))
                           for _ in range(g.num_arcs)])
        vals = spectrum_direct(g, coin).psi_spectrum
        assert compare_spectra(vals, np.conj(vals), tol=0.0).max_dist == 0.0


def axis_coin(g, rng, kind):
    """Coins whose values, and so the entries of U, share one axis, except
    "off-axis", which moves one value 1e-6 off the axis of "axis" (values
    a + b*u, a and b of either sign)."""
    if kind == "grover":
        return CoinMap.grover(g)
    if kind == "real":
        return CoinMap(g, [Quaternion(a)
                           for a in rng.uniform(-1, 1, g.num_arcs)])
    if kind == "complex":
        return CoinMap.from_arc_values(g, {
            e: Quaternion(*rng.uniform(-1, 1, 2)) for e in range(g.num_arcs)})
    if kind == "alpha":
        return CoinMap.from_alpha(g, Quaternion(*rng.uniform(-1, 1, 4)))
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    values = [Quaternion(a, *(b * u))
              for a, b in rng.uniform(-1, 1, (g.num_arcs, 2))]
    if kind == "off-axis":
        off = 1e-6 * np.cross(u, rng.normal(size=3))
        values[0] = values[0] + Quaternion(0, *off)
    return CoinMap(g, values)


def cut_size(g):
    """2n - 1 - b: the size of U compressed off its fixed +-1 eigenspace."""
    return 2 * g.n - 1 - int(g.is_bipartite)


class TestDirectBlock:
    """spectrum_direct eigensolves the compression of U, of size
    2n - 1 - b, when the entries of U share one imaginary axis, and its psi
    image otherwise."""

    @staticmethod
    def direct_dims(monkeypatch, g, coin):
        dims = []

        def counting(m):
            dims.append(np.shape(m)[0])
            return linalg.eigenvalues(m)
        monkeypatch.setattr(spectra, "eigenvalues", counting)
        return spectrum_direct(g, coin).psi_spectrum, dims

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1),
           st.sampled_from(["grover", "complex", "alpha", "axis"]))
    def test_matches_the_psi_spectrum(self, n, extra, seed, kind):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        coin = axis_coin(g, rng, kind)
        with pytest.MonkeyPatch.context() as mp:
            vals, dims = self.direct_dims(mp, g, coin)
        assert dims == [cut_size(g)]
        reference = np.linalg.eigvals(build_U(g, coin).psi())
        assert compare_spectra(vals, reference, tol=1e-9).verdict
        assert compare_spectra(vals, np.conj(vals), tol=0.0).max_dist == 0.0

    def test_off_axis_coin_takes_the_full_psi(self, monkeypatch):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 6, 0.4)
        coin = axis_coin(g, rng, "off-axis")
        vals, dims = self.direct_dims(monkeypatch, g, coin)
        assert dims == [2 * cut_size(g)]
        reference = np.linalg.eigvals(build_U(g, coin).psi())
        assert compare_spectra(vals, reference, tol=1e-9).verdict

    def test_real_coin_takes_the_real_solver(self, monkeypatch):
        g = petersen_graph()
        dtypes = []
        real_eigvals = np.linalg.eigvals

        def recording(m):
            dtypes.append(m.dtype)
            return real_eigvals(m)
        monkeypatch.setattr(np.linalg, "eigvals", recording)
        spectrum_direct(g, CoinMap.grover(g))
        assert dtypes == [np.dtype(float)]

    def test_no_arc_sized_square_array(self):
        # K_50 has 2m = 2450 arcs: one real 2m x 2m array takes 48 MB, and
        # the whole route, on the psi(C) path, stays under a quarter of it.
        g = complete_graph(50)
        coin = any_coin(g, np.random.default_rng(3), "quaternion")
        tracemalloc.start()
        try:
            spectrum_direct(g, coin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * g.m) ** 2 * 8 / 4

    def test_edgeless_graph(self, monkeypatch):
        g = Graph(1, [])
        vals, dims = self.direct_dims(monkeypatch, g, CoinMap.grover(g))
        assert vals.size == 0 and dims == [0]


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def grid_graph(rows, cols):
    def at(r, c):
        return r * cols + c
    return Graph(rows * cols,
                 [(at(r, c), at(r, c + 1)) for r in range(rows)
                  for c in range(cols - 1)]
                 + [(at(r, c), at(r + 1, c)) for r in range(rows - 1)
                    for c in range(cols)])


def family_graph(kind, size, rng):
    """A graph of the named family with about `size` vertices."""
    if kind == "random":
        return random_connected_graph(rng, size, 0.4)
    if kind == "tree":
        return random_connected_graph(rng, size, 0.0)
    if kind == "single":
        return Graph(1, [])
    if kind == "even cycle":
        return cycle_graph(2 * max(size // 2, 2))
    if kind == "odd cycle":
        return cycle_graph(2 * max(size // 2, 1) + 1)
    if kind == "bipartite":
        return complete_bipartite(max(size // 2, 1), max(size - size // 2, 1))
    return grid_graph(2, max(size // 2, 1))


def any_coin(g, rng, kind):
    """axis_coin's families plus a per-arc random quaternion coin; Grover
    without arcs, where no value can be moved off an axis."""
    if g.m == 0:
        return CoinMap.grover(g)
    if kind == "quaternion":
        return CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 4))
                           for _ in range(g.num_arcs)])
    return axis_coin(g, rng, kind)


COIN_KINDS = ["grover", "alpha", "complex", "axis", "off-axis", "quaternion"]


class TestDirectCompression:
    """The direct route against the dense eigvals of psi(U) on the graph
    families, with the exact +-1 values of the invariant subspace Z0."""

    @staticmethod
    def assert_matches_reference(g, coin):
        vals = spectrum_direct(g, coin).psi_spectrum
        reference = np.linalg.eigvals(build_U(g, coin).psi())
        record = compare_spectra(vals, reference, tol=1e-9)
        assert record.verdict, record
        even = g.m - g.n + int(g.is_bipartite)
        assert np.count_nonzero(vals == 1.0) >= 2 * g.betti_number
        assert np.count_nonzero(vals == -1.0) >= 2 * even

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["random", "tree", "single", "even cycle",
                            "odd cycle", "bipartite", "grid"]),
           st.integers(2, 8), st.integers(0, 2**32 - 1),
           st.sampled_from(COIN_KINDS))
    def test_matches_the_psi_spectrum(self, family, size, seed, kind):
        rng = np.random.default_rng(seed)
        g = family_graph(family, size, rng)
        self.assert_matches_reference(g, any_coin(g, rng, kind))

    @pytest.mark.parametrize("g, kind", [(path_graph(200), "quaternion"),
                                         (cycle_graph(199), "grover")],
                             ids=["path", "odd cycle"])
    def test_long_graphs(self, g, kind):
        # The incidence matrices of a long path or odd cycle are among the
        # worst conditioned of their size: their least nonzero singular
        # value is about pi/n.
        self.assert_matches_reference(
            g, any_coin(g, np.random.default_rng(g.n), kind))

    def test_fixed_part_counts(self):
        # K_{3,4} is bipartite: m = 12, n = 7, so U is +1 six times and -1
        # six times on Z0, psi(U) twelve times each, and the compression has
        # size 2n - 2 = 12.
        g = complete_bipartite(3, 4)
        assert g.is_bipartite and cut_size(g) == 12
        vals = spectrum_direct(g, CoinMap.from_alpha(
            g, Quaternion(0.3, 0.2, -0.1, 0.4))).psi_spectrum
        assert np.count_nonzero(vals == 1.0) >= 12
        assert np.count_nonzero(vals == -1.0) >= 12


def log_det_distance(a, b):
    """Largest difference of log-determinants, phase taken mod 2*pi."""
    phase = (a.imag - b.imag + np.pi) % (2 * np.pi) - np.pi
    return float(np.max(np.hypot(a.real - b.real, phase)))


def planted_star(k=4):
    """K_{1,k} with values a + 2u on the leaf -> center arcs and a - u on
    the center -> leaf ones: W^T's largest entry points along +u, D_w's,
    the center's sum with imaginary part -k*u, along -u."""
    rng = np.random.default_rng(k)
    g = star_graph(k)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    values = [Quaternion(a, *((2.0 if g.terminal[e] == 0 else -1.0) * u))
              for e, a in enumerate(rng.uniform(-1, 1, g.num_arcs))]
    return g, CoinMap(g, values)


def leaf_star(k, rng, kind):
    """K_{1,k} with any_coin values on the leaf -> center arcs and zero on
    the others ("off-axis" moves the first of them off the axis)."""
    g = star_graph(k)
    values = any_coin(g, rng, kind)
    return g, CoinMap.from_arc_values(
        g, {e: values[e] for e in range(0, g.num_arcs, 2)})


def unit_sum_coin(g, rng, kind):
    """axis_coin values shifted at each vertex so that their out-sum is 1:
    D_w = I commutes with W^T, and the support is every arc, so one strong
    component."""
    coin = axis_coin(g, rng, kind)
    degree = g.degrees[g.origin]
    for part, target in ((coin.s, 1.0), (coin.p, 0.0)):
        sums = np.zeros(g.n, dtype=complex)
        np.add.at(sums, g.origin, part)
        part -= (sums[g.origin] - target) / degree
    return coin


class TestVertexBlocks:
    """The formula routes work on the n x n vertex pair (Y', D') when the
    coin's values share one axis, and on (psi(W^T), psi(D_w)) otherwise."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.sampled_from([0.0, 0.3, 0.6]),
           st.integers(0, 2**32 - 1),
           st.sampled_from(["alpha", "complex", "real", "axis"]))
    def test_half_sized_log_det_is_the_full_one(self, n, extra, seed, kind):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        coin = axis_coin(g, rng, kind)
        ts = _sample_points(g, coin)
        turned, halves = _operand(coin)
        assert halves
        half = _vertex_logdet(g, turned, halves, ts)
        assert log_det_distance(half,
                                _vertex_logdet(g, coin, False, ts)) <= 1e-10
        psi_u = build_U(g, coin).psi()
        sign, logabs = np.linalg.slogdet(
            np.eye(psi_u.shape[0]) - ts[:, None, None] * psi_u)
        assert log_det_distance(half, logabs + 1j * np.angle(sign)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.sampled_from([0.0, 0.3, 0.6]),
           st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(["alpha", "complex", "real", "axis"]))
    def test_theorem8_on_the_half_pair_is_direct(self, n, extra, k, seed,
                                                 kind):
        # alpha/d coins commute with D_w = alpha*I on any graph; the per-arc
        # coins go on the leaf -> center arcs of K_{1,k}, whose pair does
        # not commute and is triangularized by deflation.
        rng = np.random.default_rng(seed)
        if kind == "alpha":
            g = random_connected_graph(rng, n, extra)
            coin = axis_coin(g, rng, kind)
        else:
            g, coin = leaf_star(k, rng, kind)
        report = spectrum_theorem_general(g, coin)
        assert report.cross_check.verdict, report.cross_check
        assert compare_spectra(report, spectrum_direct(g, coin),
                               tol=1e-9).verdict

    def test_axis_is_chosen_for_the_pair(self):
        g, coin = planted_star()
        turned = coin.turned()
        ts = _sample_points(g, coin)
        psi_u = build_U(g, coin).psi()
        sign, logabs = np.linalg.slogdet(
            np.eye(psi_u.shape[0]) - ts[:, None, None] * psi_u)
        exact = logabs + 1j * np.angle(sign)
        assert log_det_distance(_vertex_logdet(g, turned, True, ts),
                                exact) <= 1e-12
        # An axis taken one matrix at a time, -u for D_w here, conjugates D'
        # against Y': the determinant moves far beyond rounding, and the
        # certificate rejects the true spectrum.
        y, d = _vertex_pair(g, turned)
        apart = (np.zeros(0, dtype=complex), [(y, np.conj(d))])
        assert y.shape == (g.n, g.n)
        assert log_det_distance(_vertex_logdet(g, turned, True, ts, apart),
                                exact) > 1e-4
        vals = spectrum_direct(g, coin).psi_spectrum
        assert _certificate(g, coin, vals).verdict
        assert not _certificate(g, coin, vals, split=apart).verdict

    @staticmethod
    def recording(monkeypatch):
        """Records, while the test runs, the matrix shapes passed to slogdet,
        to simultaneous_triangularize, to eigenvalues within linalg and to
        eigvalsh (the symmetric solve of an alpha/d scalar block), and each
        vertex pair built."""
        seen = {"slogdet": set(), "triangularize": [], "eigenvalues": [],
                "symmetric": [], "builds": 0}
        slogdet, eigvalsh = np.linalg.slogdet, np.linalg.eigvalsh

        def recording_slogdet(m):
            seen["slogdet"].add(m.shape[-2:])
            return slogdet(m)

        def recording_eigvalsh(m):
            seen["symmetric"].append(m.shape)
            return eigvalsh(m)

        def recording_triangularize(a, b, **kwargs):
            seen["triangularize"].append((a.shape, b.shape))
            return linalg.simultaneous_triangularize(a, b, **kwargs)

        eigenvalues = linalg.eigenvalues

        def recording_eigenvalues(m):
            seen["eigenvalues"].append(m.shape)
            return eigenvalues(m)

        def counting_build(*args):
            seen["builds"] += 1
            return _vertex_pair(*args)

        monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(spectra, "simultaneous_triangularize",
                            recording_triangularize)
        monkeypatch.setattr(linalg, "eigenvalues", recording_eigenvalues)
        monkeypatch.setattr(spectra, "_vertex_pair", counting_build)
        return seen

    @pytest.mark.parametrize("kind, half", [("axis", True),
                                            ("off-axis", False)])
    def test_theorem8_sizes(self, monkeypatch, kind, half):
        # A star's leaf -> center support has one-vertex components only,
        # which take the closed form, in the route and in its certificate
        # (no slogdet).  A support with one strong component and D_w = I is
        # one block whose D is scalar in either layout: one eigensolve of
        # its Y, n x n for the turned pair and 2n x 2n in the psi layout,
        # no triangularization, and slogdets of the whole pair.
        rng = np.random.default_rng(12)
        star = leaf_star(12, rng, kind)
        spread = random_connected_graph(rng, 9, 0.3)
        for (g, coin), calls in ((star, 0),
                                 ((spread, unit_sum_coin(spread, rng, kind)),
                                  1)):
            size = g.n if half else 2 * g.n
            seen = self.recording(monkeypatch)
            report = spectrum_theorem_general(g, coin)
            assert seen == {"slogdet": {(size, size)} if calls else set(),
                            "triangularize": [],
                            "eigenvalues": [(size, size)] * calls,
                            "symmetric": [], "builds": 1}
            assert report.cross_check.verdict
            assert matches_direct(report, g, coin)

    @pytest.mark.parametrize("route", ["alpha", "grover"])
    def test_alpha_routes_certify_on_n_by_n(self, monkeypatch, route):
        g = petersen_graph()
        seen = self.recording(monkeypatch)
        report = (spectrum_grover(g) if route == "grover" else
                  spectrum_alpha_coin(g, Quaternion(1, 1, 1, 1)))
        assert seen == {"slogdet": {(g.n, g.n)}, "triangularize": [],
                        "eigenvalues": [], "symmetric": [(g.n, g.n)],
                        "builds": 1}
        assert report.cross_check.verdict

    def test_axis_sharing_pair_without_nilpotent_commutator_is_refused(
            self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(1), 30, 0.15)
        coin = axis_coin(g, np.random.default_rng(2), "complex")
        seen = self.recording(monkeypatch)
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match="not nilpotent.*use the direct route"):
            spectrum_theorem_general(g, coin)
        assert seen["triangularize"] == [((g.n, g.n), (g.n, g.n))]


def joined_graph(rng, sizes, bridges):
    """Two random connected parts, on the first sizes[0] vertices and on the
    rest, joined by up to `bridges` random edges between them."""
    a, b = sizes
    left, right = (random_connected_graph(rng, k, 0.3) for k in sizes)
    joins = {(int(rng.integers(a)), a + int(rng.integers(b)))
             for _ in range(bridges)}
    return Graph(a + b, left.edges + [(u + a, v + a) for u, v in right.edges]
                 + sorted(joins))


def random_value(rng, kind, axis):
    """A random quaternion, or one of the form a + b*axis ("axis")."""
    if kind == "axis":
        return Quaternion(rng.uniform(-1, 1), *(rng.uniform(-1, 1) * axis))
    return Quaternion(*rng.uniform(-1, 1, 4))


def two_part_coin(g, rng, first, kind):
    """alpha_A/d on every arc leaving the first `first` vertices (A) and
    alpha_B/d_B on the arcs inside the rest (B), with d_B the degree inside
    B and zero on the arcs from B to A: the support's strong components are
    A and B, joined one way, and each block commutes (D_w = alpha*I)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    alphas = [random_value(rng, kind, axis) for _ in range(2)]
    leaves_b = g.origin >= first
    keep = ~leaves_b | (g.terminal >= first)
    count = np.bincount(g.origin[keep], minlength=g.n)
    return CoinMap(g, [alphas[int(leaves_b[e])] * (1.0 / count[g.origin[e]])
                       if keep[e] else Quaternion.ZERO
                       for e in range(g.num_arcs)])


def masked_coin(g, rng, family, kind):
    """Values of the kind on the arcs the family keeps and zero on the rest:
    none ("zero"), those going up a random vertex order ("acyclic") or each
    with probability 1/2 ("random")."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rank = rng.permutation(g.n)
    keep = {"zero": np.zeros(g.num_arcs, dtype=bool),
            "acyclic": rank[g.origin] < rank[g.terminal],
            "random": rng.random(g.num_arcs) < 0.5}[family]
    return CoinMap(g, [random_value(rng, kind, axis) if keep[e]
                       else Quaternion.ZERO for e in range(g.num_arcs)])


class TestComponentRoute:
    """theorem8 splits the vertex pair over the strong components of the
    coin's support: one-vertex blocks in closed form, every other block
    triangularized on its own."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["zero", "acyclic", "bridge", "random"]),
           st.sampled_from(["quaternion", "axis"]), st.booleans(),
           st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_agrees_with_direct(self, family, kind, tree, n, seed):
        rng = np.random.default_rng(seed)
        if family == "bridge":
            first = int(rng.integers(1, n))
            g = joined_graph(rng, (first, n + 1 - first), 1 if tree else 3)
            coin = two_part_coin(g, rng, first, kind)
        else:
            g = random_connected_graph(rng, n, 0.0 if tree else 0.4)
            coin = masked_coin(g, rng, family, kind)
        direct = spectrum_direct(g, coin)
        try:
            report = spectrum_theorem_general(g, coin)
        except NotSimultaneouslyTriangularizableError as exc:
            # Only a block of two or more vertices can be refused.
            assert family == "random", exc
            assert "use the direct route" in str(exc)
            return
        if _certificate(g, coin, direct.psi_spectrum).verdict:
            assert report.cross_check.verdict, report.cross_check
            assert compare_spectra(report, direct, tol=1e-9).verdict

    @pytest.mark.parametrize("kind, half", [("axis", True),
                                            ("quaternion", False)])
    def test_two_parts_triangularize_one_at_a_time(self, monkeypatch, kind,
                                                   half):
        rng = np.random.default_rng(7)
        g = joined_graph(rng, (6, 9), 3)
        coin = two_part_coin(g, rng, 6, kind)
        copies = 1 if half else 2
        seen = TestVertexBlocks.recording(monkeypatch)
        steps = []
        joint = linalg._joint_eigenvectors

        def recording_steps(a, b, tol):
            v = joint(a, b, tol)
            steps.append((a.shape[0], v.shape[1]))
            return v
        monkeypatch.setattr(linalg, "_joint_eigenvectors", recording_steps)
        report = spectrum_theorem_general(g, coin)
        # B is terminal, so its block comes first.  Each block commutes
        # (D_w = alpha*I on it): on the n x n turned pair its D is scalar,
        # solved by one eigensolve, and in the psi layout psi(alpha*I) of a
        # non-real alpha is not, so the block is triangularized.  B's block
        # is alpha_B/d_B on the arcs inside B, alpha_B times a symmetric
        # matrix up to a diagonal similarity, so its eigensolve is
        # symmetric; A's arcs into B leave A's block without that form, and
        # it takes the general one.  Each psi-layout pair has a full basis
        # of joint eigenvectors, and one deflation step splits it off:
        # O(k^3), not k steps of O(k^3) each.
        shapes = [(copies * k,) * 2 for k in (9, 6)]
        pairs = [(shape, shape) for shape in shapes]
        assert seen["triangularize"] == ([] if half else pairs)
        assert steps == ([] if half else [(18, 18), (12, 12)])
        assert seen["symmetric"] == ([(9, 9)] if half else [])
        assert seen["eigenvalues"] == ([(6, 6)] if half else [])
        assert report.cross_check.verdict
        assert compare_spectra(report, spectrum_direct(g, coin),
                               tol=1e-9).verdict

    def test_block_without_nilpotent_commutator_is_refused(self):
        # Random quaternions on the arcs inside B and an alpha/d coin on A:
        # B's block has a commutator that is not nilpotent.
        rng = np.random.default_rng(3)
        g = joined_graph(rng, (5, 8), 2)
        coin = two_part_coin(g, rng, 5, "quaternion")
        inside = (g.origin >= 5) & (g.terminal >= 5)
        coin.s[inside], coin.p[inside] = (
            rng.uniform(-1, 1, (2, inside.sum()))
            + 1j * rng.uniform(-1, 1, (2, inside.sum())))
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match="not nilpotent.*use the direct route"):
            spectrum_theorem_general(g, coin)

    def test_real_coin_on_a_triangle_needs_the_deflation(self, monkeypatch):
        # A real coin whose support is all of K3, one strong component:
        # Y = [[0, 4, 2], [4, 0, -2], [-3, -3, 0]] and D = diag(1, 1, 0) do
        # not commute and D is not scalar, so _scalar_pairs leaves the block
        # alone, but they share the eigenvector (1, -1, 0) and are jointly
        # triangularizable: the block is certified through
        # simultaneous_triangularize.
        g = complete_graph(3)
        values = {0: 4, 1: 4, 2: -3, 3: 2, 4: -3, 5: -2}

        def coin_of(vals):
            return CoinMap.from_arc_values(
                g, {e: Quaternion(v) for e, v in vals.items()})

        coin = coin_of(values)
        y, d = _vertex_pair(g, _operand(coin)[0])
        assert np.array_equal(y, [[0, 4, 2], [4, 0, -2], [-3, -3, 0]])
        assert np.array_equal(d, np.diag([1.0, 1.0, 0.0]))
        assert linalg._scalar_pairs(y, d) is None
        seen = TestVertexBlocks.recording(monkeypatch)
        report = spectrum_theorem_general(g, coin)
        assert seen["triangularize"] == [((3, 3), (3, 3))]
        assert report.cross_check.verdict
        assert report.cross_check.max_dist <= 1e-13
        assert matches_direct(report, g, coin)
        # Arc 3 moved to 2.001: the commutator is no longer nilpotent.
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match="not nilpotent"):
            spectrum_theorem_general(g, coin_of({**values, 3: 2.001}))

    @pytest.mark.parametrize("star", ["ex5.w", 8, 12, 24])
    def test_stars_take_no_eigensolve(self, monkeypatch, star):
        # Nor a slogdet: the certificate's vertex side takes the same
        # one-vertex blocks in closed form.
        import scipy.linalg

        def refused(*args, **kwargs):
            raise AssertionError("eigensolve or slogdet called")

        if star == "ex5.w":
            fixtures = Path(spectra.__file__).parent / "fixtures"
            g = load_graph(fixtures / "k13.g")
            coin = parse_coin_file((fixtures / "ex5.w").read_text(), g)
        else:
            g, coin = leaf_star(star, np.random.default_rng(star),
                                "quaternion")
        for owner, name in ((np.linalg, "eig"), (np.linalg, "svd"),
                            (np.linalg, "slogdet"), (scipy.linalg, "schur"),
                            (spectra, "simultaneous_triangularize")):
            monkeypatch.setattr(owner, name, refused)
        report = spectrum_theorem_general(g, coin)
        assert report.cross_check.verdict, report.cross_check
        monkeypatch.undo()
        assert matches_direct(report, g, coin)


def commuting_coin(g, rng, kind):
    """A coin whose vertex pair commutes: alpha/d, a complex coin with unit
    out-sums (D_w = I), or the Grover coin."""
    return {"alpha": lambda: CoinMap.from_alpha(
                g, Quaternion(*rng.uniform(-1, 1, 4))),
            "complex": lambda: unit_sum_coin(g, rng, "complex"),
            "grover": lambda: CoinMap.grover(g)}[kind]()


class TestClassSplit:
    """A block whose D is scalar takes one eigensolve of its Y, with no
    basis (linalg._scalar_pairs)."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["alpha", "complex", "grover", "two-part"]),
           st.sampled_from([1.0, 1e4, 1e8]), st.booleans(), st.integers(2, 8),
           st.integers(0, 2**32 - 1))
    def test_split_agrees_with_triangularization(self, kind, scale, tree, n,
                                                 seed):
        rng = np.random.default_rng(seed)
        if kind == "two-part":
            first = int(rng.integers(1, n))
            g = joined_graph(rng, (first, n + 1 - first), 1 if tree else 3)
            coin = two_part_coin(g, rng, first, "axis")
        else:
            g = random_connected_graph(rng, n, 0.0 if tree else 0.4)
            coin = commuting_coin(g, rng, kind)
        coin.s *= scale
        coin.p *= scale
        blocks = spectra._strong_split(g, _operand(coin)[0])
        with pytest.MonkeyPatch.context() as mp:
            # The split alone, then the whole triangularization alone.
            mp.setattr(spectra, "simultaneous_triangularize", None)
            split = spectrum_theorem_general(g, coin)
            mu, xi = spectra._component_pairs(blocks)
            mp.setattr(spectra, "simultaneous_triangularize",
                       linalg.simultaneous_triangularize)
            mp.setattr(spectra, "_scalar_pairs", lambda y, d: None)
            whole = spectrum_theorem_general(g, coin)
            mu_whole, xi_whole = spectra._component_pairs(blocks)
        # The pairs agree, aligned (a generic combination of mu and xi).
        # The roots are compared through their multiplicities only: those
        # of a double root split by about sqrt(eps) when xi carries
        # rounding, as the triangularized xi do.
        mix = 0.6 + 0.3j
        for a, b in ((mu, mu_whole), (xi, xi_whole),
                     (mu + mix * xi, mu_whole + mix * xi_whole)):
            assert compare_spectra(a, b, tol=2e-9 * scale).verdict
        assert split.cross_check.verdict, split.cross_check
        assert ([m for _, m in class_reps(split.psi_spectrum)]
                == [m for _, m in class_reps(whole.psi_spectrum)])

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["any", "unit-sum", "masked", "two-part"]),
           st.sampled_from(["grover", "alpha", "complex", "real", "axis"]),
           st.sampled_from([1.0, 1e4, 1e8]), st.booleans(), st.integers(2, 8),
           st.integers(0, 2**32 - 1))
    def test_a_block_commutes_when_its_d_is_scalar(self, family, kind, scale,
                                                   tree, n, seed):
        # On a strong component of the support, (YD - DY)_ij =
        # y_ij*(d_j - d_i) vanishes on every arc only when d is constant, so
        # the test that D is scalar accepts exactly the commuting blocks.
        # (A leaf -> center star has no block of two or more vertices.)
        rng = np.random.default_rng(seed)
        if family == "two-part":
            first = int(rng.integers(1, n))
            g = joined_graph(rng, (first, n + 1 - first), 1 if tree else 3)
            coin = two_part_coin(g, rng, first, "axis")
        else:
            g = random_connected_graph(rng, n, 0.0 if tree else 0.4)
            coin = {"any": lambda: any_coin(g, rng, kind),
                    "unit-sum": lambda: unit_sum_coin(g, rng, kind),
                    "masked": lambda: masked_coin(g, rng, "random", "axis")
                    }[family]()
        coin.s *= scale
        coin.p *= scale
        weights, halves = _operand(coin)
        assert halves
        for yb, db in spectra._strong_split(g, weights)[1]:
            bound = linalg.COMMUTE_TOL * max(1.0, np.abs(yb).max()) * max(
                1.0, np.abs(db).max())
            commutes = np.abs(yb @ db - db @ yb).max() <= bound
            assert commutes == (linalg._scalar_pairs(yb, db) is not None)

    @pytest.mark.parametrize("case", ["k3_grover.w", "k13_grover.w",
                                      "alpha", "two-part"])
    def test_commuting_blocks_take_no_schur(self, monkeypatch, case):
        import scipy.linalg

        def refused(*args, **kwargs):
            raise AssertionError("Schur basis taken")

        fixtures = Path(spectra.__file__).parent / "fixtures"
        rng = np.random.default_rng(5)
        if case == "alpha":
            g = random_connected_graph(rng, 90, 0.03)
            coin = commuting_coin(g, rng, "alpha")
        elif case == "two-part":
            g = joined_graph(rng, (6, 9), 3)
            coin = two_part_coin(g, rng, 6, "axis")
        else:
            g = load_graph(fixtures / ("k13.g" if "k13" in case else "k3.g"))
            coin = parse_coin_file((fixtures / case).read_text(), g)
        monkeypatch.setattr(scipy.linalg, "schur", refused)
        monkeypatch.setattr(spectra, "simultaneous_triangularize", refused)
        report = spectrum_theorem_general(g, coin)
        assert report.cross_check.verdict, report.cross_check
        monkeypatch.undo()
        assert matches_direct(report, g, coin)


def refused(*args, **kwargs):
    raise AssertionError("refused call")


class TestSymmetricClassBlock:
    """An alpha/d scalar block is c times the symmetric K^-1/2 P K^-1/2 up
    to a diagonal similarity (P its pattern, K its column counts): one
    eigvalsh solves it, and a block moved off that form falls back to the
    general eigensolve."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["tree", "bipartite", "grid", "random"]),
           st.sampled_from([1, 2, 4]), st.booleans(), st.integers(2, 9),
           st.integers(0, 2**32 - 1))
    def test_symmetric_solve_is_the_general_one(self, family, parts,
                                                per_vertex, n, seed):
        # Real, complex and quaternion alpha; per vertex, q(e) =
        # alpha*g(o(e)) with d*g = kappa at every vertex, so c is
        # kappa*alpha_+.
        rng = np.random.default_rng(seed)
        g = family_graph(family, n, rng)
        alpha = Quaternion(*rng.uniform(-1, 1, parts))
        kappa = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        coin = (CoinMap.from_vertex_values(
                    g, {v: alpha * (kappa / g.degrees[v]) for v in range(g.n)})
                if per_vertex else CoinMap.from_alpha(g, alpha))
        scale = max(1.0, alpha.norm() * (abs(kappa) if per_vertex else 1.0))
        y = _vertex_pair(g, _operand(coin)[0])[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "eigenvalues", refused)
            mu = linalg._class_eigenvalues(y)
            report = spectrum_theorem_general(g, coin)
        assert report.cross_check.verdict, report.cross_check
        assert compare_spectra(mu, linalg.eigenvalues(y),
                               tol=1e-13 * scale).verdict
        # One arc moved by 1e-12 relative: the general eigensolve, to the
        # bit, and the route still certifies.
        arc = int(rng.integers(g.num_arcs))
        coin.s[arc] *= 1.0 + 1e-12
        coin.p[arc] *= 1.0 + 1e-12
        moved = _vertex_pair(g, _operand(coin)[0])[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", refused)
            assert np.array_equal(linalg._class_eigenvalues(moved),
                                  linalg.eigenvalues(moved))
            report = spectrum_theorem_general(g, coin)
        assert report.cross_check.verdict, report.cross_check
        assert matches_direct(report, g, coin)

    def test_pattern_without_reversed_arcs_falls_back(self):
        # Equal column counts and one value c, but an arc without its
        # reverse: not similar to a symmetric matrix (its eigenvalues are
        # the cube roots of unity).
        cycle = np.roll(np.eye(3), 1, axis=0) * (2 + 1j)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", refused)
            assert np.array_equal(linalg._class_eigenvalues(cycle),
                                  linalg.eigenvalues(cycle))


class TestQuadraticRoute:
    def test_weighted_star_matches_direct(self):
        g, w = weighted_star()
        report = spectrum_theorem_general(g, w)
        assert report.method == "theorem8"
        assert report.cross_check.verdict
        assert report.cross_check.max_dist <= 1e-7
        assert matches_direct(report, g, w)
        base = np.array([(1 + 1j) / S2, (-1 + 1j) / S2, 1j,
                         (1 - 1j) / S2, (-1 - 1j) / S2, -1j])
        assert compare_spectra(report.psi_spectrum,
                               np.concatenate([base, base]), tol=1e-7).verdict

    @pytest.mark.parametrize("alpha", [False, True])
    def test_theorem8_turns_the_coin_once(self, monkeypatch, alpha):
        # The route's pair and its certificate read one operand: the coin
        # itself for the star's weights, off one axis, and turned values
        # for an alpha coin.
        g, w = weighted_star()
        if alpha:
            w = CoinMap.from_alpha(g, Quaternion(1, 2, -1, 0.5))
        calls = []
        turned = CoinMap.turned

        def counting(coin):
            calls.append(1)
            return turned(coin)
        monkeypatch.setattr(CoinMap, "turned", counting)
        assert spectrum_theorem_general(g, w).cross_check.verdict
        assert calls == [1]

    def test_large_weighted_star_matches_direct(self):
        # K_{1,32}: random quaternions on the leaf -> center arcs, zero on
        # the center -> leaf arcs, so psi(W^T) and psi(D_w) do not commute.
        rng = np.random.default_rng(32)
        g = star_graph(32)
        w = CoinMap.from_arc_values(
            g, {2 * i: Quaternion(*rng.uniform(-1, 1, 4)) for i in range(32)})
        report = spectrum_theorem_general(g, w)
        assert report.cross_check.verdict, report.cross_check.max_dist
        assert matches_direct(report, g, w)

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_large_alpha_coin_is_triangularized(self, scale):
        # D_w = alpha*I commutes with W^T at any scale; the triangularity
        # residual grows with alpha and is judged relative to the pair.
        g = random_connected_graph(np.random.default_rng(0), 60, 0.15)
        coin = CoinMap.from_alpha(g, Quaternion(scale, scale, scale, scale))
        report = spectrum_theorem_general(g, coin)
        assert report.cross_check.verdict, report.cross_check.max_dist
        assert compare_spectra(report, spectrum_direct(g, coin),
                               tol=CROSS_TOL * scale).verdict

    def test_generic_coin_rejected_without_deflation(self, monkeypatch):
        def entered(*args, **kwargs):
            raise AssertionError("deflation entered on a generic pair")

        monkeypatch.setattr(linalg, "_deflation_triangularize", entered)
        g = random_connected_graph(np.random.default_rng(1), 30, 0.15)
        rng = np.random.default_rng(2)
        coin = CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 4))
                           for _ in range(g.num_arcs)])
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match="not nilpotent"):
            spectrum_theorem_general(g, coin)

    def test_grover_coins(self):
        for g in (complete_graph(3), cycle_graph(4), petersen_graph()):
            report = spectrum_theorem_general(g, CoinMap.grover(g))
            assert report.cross_check.verdict, report.cross_check.max_dist
            assert matches_direct(report, g, CoinMap.grover(g))

    def test_alpha_coins_random_graphs(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            alpha = Quaternion(*rng.uniform(-1, 1, 4))
            coin = CoinMap.from_alpha(g, alpha)
            report = spectrum_theorem_general(g, coin)
            assert report.cross_check.verdict, report.cross_check.max_dist
            assert matches_direct(report, g, coin)

    def test_tree_trim(self):
        g = path_graph(4)
        report = spectrum_theorem_general(g, CoinMap.grover(g))
        assert report.psi_spectrum.size == 4 * g.num_arcs // 2
        assert report.cross_check.verdict
        assert matches_direct(report, g, CoinMap.grover(g))

    def test_tree_trim_removes_split_double_roots_whole(self):
        # The Grover coin gives double roots at +-1, which the triangularized
        # diagonals split by about sqrt(eps) into (r+, r-) = (t + e, t - e).
        # Dropping one root of each of two such pairs can leave t + e twice,
        # which moves the characteristic polynomial at first order: this
        # tree's certificate read 1.0e-7 that way.
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (0, 6)])
        report = spectrum_theorem_general(g, CoinMap.grover(g))
        assert report.cross_check.verdict
        assert report.cross_check.max_dist <= 1e-12
        # The pair that stays is set to its midpoint.
        e = 3e-8
        roots = np.array([1 + e, 1 - e, 1 + e, 1 - e, -1 + e, -1 - e,
                          -1 + e, -1 - e, 0.5, 0.25], dtype=complex)
        kept = _trim_tree_values(roots)
        assert np.array_equal(kept, [1, 1, -1, -1, 0.5, 0.25])
        assert roots[0] == 1 + e

    def test_tree_trim_keeps_a_double_root_as_one_group(self):
        # On this spider the double eigenvalue 1 split into two groups
        # 1.03e-7 apart; direct shows one group of 2.
        g = Graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5)])
        coin = CoinMap.grover(g)
        report = spectrum_theorem_general(g, coin)
        assert matches_direct(report, g, coin)
        groups = [(v, mult) for v, mult in class_reps(report.psi_spectrum)
                  if abs(v - 1.0) <= 1e-6]
        assert len(groups) == 1 and groups[0][1] == 2


class TestAlphaCoinRoute:
    def test_real_alpha_grover(self):
        g = complete_graph(3)
        report = spectrum_alpha_coin(g, Quaternion(2))
        assert report.method == "theorem10"
        assert report.cross_check.verdict
        assert matches_direct(report, g, CoinMap.grover(g))

    def test_quaternionic_alpha(self):
        rng = np.random.default_rng(103)
        graphs = [complete_graph(3), cycle_graph(4), star_graph(3),
                  petersen_graph()]
        alphas = [Quaternion(1, 1), Quaternion(1, 1, 1, 1),
                  Quaternion(0.5, 0, 0.5), Quaternion(*rng.uniform(-1, 1, 4))]
        for g in graphs:
            for alpha in alphas:
                report = spectrum_alpha_coin(g, alpha)
                assert report.cross_check.verdict, (
                    g.n, str(alpha), report.cross_check.max_dist)
                assert matches_direct(report, g,
                                      CoinMap.from_alpha(g, alpha)), (
                    g.n, str(alpha))

    def test_conjugate_walks_mirror_each_other(self):
        # The two complex walks induced by alpha have conjugate spectra, so
        # the combined multiset is conjugation-closed.
        g = cycle_graph(5)
        vals = spectrum_alpha_coin(g, Quaternion(1, 2, 3, 4)).psi_spectrum
        assert compare_spectra(vals, np.conj(vals), tol=0.0).max_dist == 0.0


class TestGroverRoute:
    def test_matches_direct_on_non_trees(self):
        for g in (complete_graph(3), cycle_graph(4), complete_graph(4),
                  petersen_graph()):
            report = spectrum_grover(g)
            assert report.cross_check.verdict, report.cross_check.max_dist
            assert report.cross_check.note is None
            assert matches_direct(report, g, CoinMap.grover(g))

    def test_tree_records_note(self):
        for g in (star_graph(3), path_graph(2), path_graph(5)):
            report = spectrum_grover(g)
            assert report.cross_check.verdict
            assert "tree" in report.cross_check.note
            assert matches_direct(report, g, CoinMap.grover(g))
            assert report.psi_spectrum.size == 2 * g.num_arcs

    def test_grouped_spectrum_has_one_group_per_eigenvalue(self):
        # Petersen: 1, -1, 1/3 +- i*sqrt(8)/3, -2/3 +- i*sqrt(5)/3.
        # C8: 1, -1, +-i, e^{+-i*pi/4}, e^{+-3i*pi/4}.
        for g, count in ((petersen_graph(), 6), (cycle_graph(8), 8)):
            groups = dedupe_class_reps(spectrum_grover(g).psi_spectrum,
                                       tol=1e-7)
            assert len(groups) == count
            assert sum(mult for _, mult in groups) == 4 * g.m
            means = np.array([v for v, _ in groups])
            gaps = np.abs(means[:, None] - means[None, :])
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() > 1e-7

    def test_is_the_alpha_route_at_two(self):
        for g in (complete_graph(3), cycle_graph(4), petersen_graph(),
                  star_graph(3), path_graph(5),
                  random_connected_graph(np.random.default_rng(5), 12)):
            assert np.array_equal(
                spectrum_grover(g).psi_spectrum,
                spectrum_alpha_coin(g, Quaternion(2)).psi_spectrum)

    def test_unit_modulus_on_non_trees(self):
        rng = np.random.default_rng(89)
        graphs = [complete_graph(3), cycle_graph(8), petersen_graph()]
        graphs += [random_connected_graph(rng, int(rng.integers(4, 12)))
                   for _ in range(10)]
        for g in graphs:
            if g.is_tree:
                continue
            vals = spectrum_grover(g).psi_spectrum
            assert np.abs(np.abs(vals) - 1.0).max() <= 1e-12

    def test_edgeless_graph_gives_the_empty_spectrum(self):
        g = Graph(1, [])
        for report in (spectrum_grover(g),
                       spectrum_alpha_coin(g, Quaternion(1, 2, 3, 4))):
            assert report.psi_spectrum.size == 0
            assert class_reps(report.psi_spectrum) == []
            assert report.cross_check.verdict
            assert report.cross_check.max_dist == 0.0

    def test_star_values(self):
        report = spectrum_grover(star_graph(3))
        base = np.array([1, -1, 1j, 1j, -1j, -1j])
        expected = np.concatenate([base, np.conj(base)])
        assert compare_spectra(report.psi_spectrum, expected, tol=1e-9).verdict


class TestGroupingAtScale:
    """Printed groups at a spectrum scale of 2e8: the direct and theorem8
    routes resolve a multiple eigenvalue to about 1e-7, and the relative
    grouping distance shows it as one value either way."""

    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(4),
                                   petersen_graph()],
                             ids=["C5", "K4", "Petersen"])
    def test_routes_group_alike(self, g):
        coin = CoinMap.from_alpha(g, Quaternion(1e8, 1e8, 1e8, 1e8))
        groups = [[(complex(e["re"], e["im"]), e["mult"]) for e in
                   report.to_dict()["psi_spectrum"]]
                  for report in (spectrum_direct(g, coin),
                                 spectrum_theorem_general(g, coin))]
        assert [m for _, m in groups[0]] == [m for _, m in groups[1]]
        for (a, _), (b, _) in zip(*groups):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))

    def test_double_eigenvalue_shows_once(self):
        # 1 + sqrt(5) is a double right eigenvalue of U on C5, four times
        # in psi(U)'s spectrum: one value, not two split by rounding.
        g = cycle_graph(5)
        coin = CoinMap.from_alpha(g, Quaternion(1e8, 1e8, 1e8, 1e8))
        for route in (spectrum_direct, spectrum_theorem_general):
            near = [e for e in route(g, coin).to_dict()["psi_spectrum"]
                    if abs(complex(e["re"], e["im"]) - 1 - np.sqrt(5)) < 1e-3]
            assert len(near) == 1 and near[0]["mult"] == 4


class TestCompareSpectra:
    def test_self_comparison(self):
        g = complete_graph(3)
        r = spectrum_direct(g, CoinMap.grover(g))
        rec = compare_spectra(r, r)
        assert rec.verdict and rec.max_dist == 0.0

    def test_perturbation_detected(self):
        a = np.array([1.0 + 0j, 2.0])
        b = np.array([1.0 + 0j, 2.0 + 1e-3])
        rec = compare_spectra(a, b, tol=1e-7)
        assert not rec.verdict
        assert rec.max_dist == pytest.approx(1e-3)
        assert rec.worst_pair == (2.0 + 0j, 2.0 + 1e-3 + 0j)

    def test_cardinality_mismatch_is_reported_not_raised(self):
        rec = compare_spectra(np.array([1.0 + 0j]), np.array([1.0 + 0j, 2.0]))
        assert not rec.verdict and not rec.cardinality_match
        assert rec.max_dist == np.inf

    def test_report_serialization(self):
        g = complete_graph(3)
        d = spectrum_grover(g).to_dict()
        assert d["method"] == "grover"
        assert sum(e["mult"] for e in d["psi_spectrum"]) == 4 * g.m
        assert d["cross_check"]["verdict"] is True

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_class_reps_are_derived_from_the_spectrum(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        alpha = Quaternion(*rng.uniform(-1, 1, 4))
        coin = CoinMap.from_alpha(g, alpha)
        for report in (spectrum_direct(g, coin), spectrum_alpha_coin(g, alpha),
                       spectrum_theorem_general(g, coin), spectrum_grover(g)):
            reps = class_reps(report.psi_spectrum)
            assert report.to_dict()["class_reps"] == [
                {"re": v.real, "im": v.imag, "mult": mult} for v, mult in reps]
            assert b"class_reps" not in pickle.dumps(report)


def whole_pair(g, weights):
    """The whole vertex pair as one block: the split that takes one
    slogdet."""
    return np.zeros(0, dtype=complex), [_vertex_pair(g, weights)]


def blocked_coin(rng, family, n, kind):
    """A graph and a coin of the kind ("quaternion" or "axis") whose support
    splits into several strong components: a random mask on a tree, K_{1,n}
    with values on its leaf -> center arcs, the arcs up a random vertex
    order, two alpha/d parts joined one way, a random mask, or none."""
    if family == "two-part":
        first = int(rng.integers(1, n))
        g = joined_graph(rng, (first, n + 1 - first), 2)
        return g, two_part_coin(g, rng, first, kind)
    if family == "star":
        return leaf_star(n, rng, kind)
    g = random_connected_graph(rng, n, 0.0 if family == "tree" else 0.4)
    return g, masked_coin(g, rng, "random" if family == "tree" else family,
                          kind)


def star_and_acyclic():
    """K_{1,24} and an acyclic-support quaternion coin on 40 vertices."""
    rng = np.random.default_rng(30)
    g = random_connected_graph(rng, 40, 0.1)
    return [leaf_star(24, rng, "quaternion"),
            (g, masked_coin(g, rng, "acyclic", "quaternion"))]


class TestCertificate:
    @staticmethod
    def petersen_alpha():
        g = petersen_graph()
        alpha = Quaternion(0.3, -0.4, 0.5, 0.2)
        vals = spectrum_alpha_coin(g, alpha).psi_spectrum.copy()
        return g, CoinMap.from_alpha(g, alpha), vals

    def test_honest_spectrum_passes(self):
        g, coin, vals = self.petersen_alpha()
        rec = _certificate(g, coin, vals)
        assert rec.verdict and rec.against == "certificate"
        assert rec.max_dist <= 1e-12 and rec.worst_pair is None

    def test_rejects_one_moved_eigenvalue(self):
        g, coin, vals = self.petersen_alpha()
        vals[7] += 10 * CROSS_TOL
        rec = _certificate(g, coin, vals)
        assert not rec.verdict and rec.cardinality_match
        # One value moved by delta reads between 2/3*delta and 2*delta on
        # the inner ring and between delta/1.9 and 10*delta on the outer one.
        assert 6 * CROSS_TOL <= rec.max_dist <= 101 * CROSS_TOL

    @pytest.mark.parametrize("case", ["star", "acyclic"])
    def test_one_vertex_blocks_reject_one_moved_eigenvalue(self, case):
        # Both vertex sides are all one-vertex blocks, in closed form.
        g, coin = star_and_acyclic()[case == "acyclic"]
        vals = spectrum_theorem_general(g, coin).psi_spectrum.copy()
        assert _certificate(g, coin, vals).verdict
        vals[7] += 10 * CROSS_TOL
        rec = _certificate(g, coin, vals)
        assert not rec.verdict and rec.cardinality_match
        # As above, in eigenvalue units: max_dist is relative to the
        # spectrum's scale.
        scale = max(1.0, np.abs(vals).max())
        assert 6 * CROSS_TOL <= rec.max_dist * scale <= 101 * CROSS_TOL

    def test_rejects_a_replaced_plus_minus_one_pair(self):
        g, coin, vals = self.petersen_alpha()
        plus = np.argmin(np.abs(vals - 1.0))
        minus = np.argmin(np.abs(vals + 1.0))
        vals[plus], vals[minus] = 0.5, -0.5
        rec = _certificate(g, coin, vals)
        assert not rec.verdict and rec.cardinality_match

    def test_short_spectrum_is_a_cardinality_mismatch(self):
        g, coin, vals = self.petersen_alpha()
        rec = _certificate(g, coin, vals[:-2])
        assert not rec.verdict and not rec.cardinality_match
        assert rec.max_dist == np.inf
        assert rec.to_dict()["cardinality_match"] is False

    def test_residual_is_relative_to_the_spectrum_scale(self):
        # At alpha = 1e6*(1+i+j+k), max|lambda| is 2e6 and the rounding of
        # both sides alone read 3.9e-7 in absolute eigenvalue units, which
        # failed the verdict though the route matches direct.
        g = random_connected_graph(np.random.default_rng(0), 60, 0.15)
        alpha = Quaternion(1e6, 1e6, 1e6, 1e6)
        report = spectrum_alpha_coin(g, alpha)
        assert report.cross_check.verdict, report.cross_check
        assert matches_direct(report, g, CoinMap.from_alpha(g, alpha))
        vals = report.psi_spectrum.copy()
        scale = np.abs(vals).max()
        assert scale == pytest.approx(2e6, rel=1e-6)
        vals[7] += 10 * CROSS_TOL * scale
        rec = _certificate(g, CoinMap.from_alpha(g, alpha), vals)
        assert not rec.verdict and rec.cardinality_match
        assert rec.max_dist >= 5 * CROSS_TOL

    @pytest.mark.parametrize("factor", [1.3, 1 + 1e-6])
    def test_rejects_a_scaled_spectrum(self, factor):
        # Every value scaled together changes only the 60th and higher
        # power sums of C_60's spectrum, which the inner ring damps by
        # 2^-59; the outer ring sees them.
        g = cycle_graph(60)
        coin = CoinMap.grover(g)
        vals = spectrum_grover(g).psi_spectrum
        assert _certificate(g, coin, vals).verdict
        rec = _certificate(g, coin, factor * vals)
        assert not rec.verdict and rec.cardinality_match

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_vertex_side_is_the_arc_side_log_det(self, n, extra, seed):
        # The 4m anchor: at every sample point the 2n-sized vertex side
        # equals log det(I - t*psi(U)) of the walk matrix itself, for random
        # per-arc quaternion coins, trees included.
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        coin = CoinMap.from_arc_values(g, {
            e: Quaternion(*rng.uniform(-1, 1, 4)) for e in range(g.num_arcs)})
        psi_u = build_U(g, coin).psi()
        ts = _sample_points(g, coin)
        # The O(m) scale is ||psi(U)||_inf (at least 1).
        norm = max(np.abs(psi_u).sum(axis=1).max(initial=0.0), 1.0)
        assert np.abs(ts).max() * norm == pytest.approx(max(CERT_RADII),
                                                        rel=1e-12)
        got = _vertex_logdet(g, coin, False, ts)
        for t, value in zip(ts, got):
            sign, logabs = np.linalg.slogdet(np.eye(psi_u.shape[0]) - t * psi_u)
            assert value.real == pytest.approx(logabs, abs=1e-10)
            dphase = (value.imag - np.angle(sign) + np.pi) % (2 * np.pi) - np.pi
            assert abs(dphase) <= 1e-10

    def test_empty_spectrum_reads_exactly_zero(self):
        g = Graph(1, [])
        rec = _certificate(g, CoinMap.grover(g), np.zeros(0, dtype=complex))
        assert rec.verdict and rec.max_dist == 0.0

    def test_non_finite_value_fails(self):
        g, coin, vals = self.petersen_alpha()
        vals[0] = np.nan
        assert not _certificate(g, coin, vals).verdict

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_formula_routes_certify_and_match_direct(self, n, extra, seed,
                                                     grover):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        alpha = Quaternion(2.0) if grover else Quaternion(
            *rng.uniform(-1, 1, 4))
        coin = CoinMap.from_alpha(g, alpha)
        direct = spectrum_direct(g, coin)
        reports = [spectrum_alpha_coin(g, alpha),
                   spectrum_theorem_general(g, coin)]
        if grover:
            reports.append(spectrum_grover(g))
        for report in reports:
            assert report.cross_check.verdict, (
                report.method, report.cross_check)
            assert compare_spectra(report, direct, tol=CROSS_TOL).verdict, (
                report.method)


class TestFactoredVertexSide:
    """The certificate's vertex side is the sum of log-determinants over the
    diagonal blocks of the support's strong components, one-vertex blocks
    in closed form."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["tree", "star", "acyclic", "two-part", "random",
                            "zero"]),
           st.sampled_from(["real", "complex", "axis", "quaternion"]),
           st.booleans(), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_factored_log_det_is_the_whole_one(self, family, kind, halves,
                                               n, seed):
        rng = np.random.default_rng(seed)
        g, coin = blocked_coin(rng, family, n, "quaternion"
                               if kind == "quaternion" else "axis")
        if kind == "quaternion":
            weights, halves = coin, False
        elif kind == "axis":
            weights = coin.turned() if halves else coin
        else:
            weights = coin.s.real if kind == "real" else coin.s
        xi, _ = spectra._strong_split(g, weights)
        assert xi.size or family in ("tree", "two-part", "random")
        ts = _sample_points(g, coin)
        whole = _vertex_logdet(g, weights, halves, ts, whole_pair(g, weights))
        factored = _vertex_logdet(g, weights, halves, ts)
        assert (log_det_distance(factored, whole)
                <= 1e-12 * max(1.0, np.abs(whole).max()))

    @pytest.mark.parametrize("case", ["star", "grover"])
    def test_labels_out_of_order_take_the_whole_pair(self, monkeypatch,
                                                     case):
        # Leaf -> center arcs need label[center] <= label[leaf]; the Grover
        # coin's support is every arc, one component, and one-vertex blocks
        # would factor its X(t) wrongly.  Labels that break the order give
        # the whole pair instead, to the bit.
        if case == "star":
            g, coin = leaf_star(6, np.random.default_rng(6), "quaternion")
            labels = np.r_[np.zeros(6, dtype=np.intp), 1]
        else:
            g = complete_graph(4)
            coin, labels = CoinMap.grover(g), np.arange(4)
        weights, halves = _operand(coin)
        ts = _sample_points(g, coin)
        vals = spectrum_direct(g, coin).psi_spectrum
        whole = whole_pair(g, weights)
        if case == "grover":
            lone = (np.diag(_vertex_pair(g, weights)[1]).astype(complex), [])
            assert log_det_distance(
                _vertex_logdet(g, weights, halves, ts, split=lone),
                _vertex_logdet(g, weights, halves, ts, split=whole)) > 1e-3
        monkeypatch.setattr(Graph, "strong_components",
                            lambda self, arcs: labels)
        assert np.array_equal(
            _vertex_logdet(g, weights, halves, ts),
            _vertex_logdet(g, weights, halves, ts, split=whole))
        rec = _certificate(g, coin, vals)
        assert rec.verdict
        assert rec.max_dist == _certificate(g, coin, vals,
                                            split=whole).max_dist
