"""Walk spectra by all routes, cross-validated against the direct one."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from qqwalk import linalg, spectra
from qqwalk.linalg import NotSimultaneouslyTriangularizableError
from qqwalk.qmatrix import class_reps, dedupe_class_reps, psi_block
from qqwalk.quaternion import Quaternion
from qqwalk.spectra import (
    CERT_RADII,
    CROSS_TOL,
    _certificate,
    _sample_points,
    _trim_tree_values,
    _vertex_logdet,
    compare_spectra,
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from qqwalk.walks import CoinMap, build_U, build_W_Dw

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


def vertex_psi(g, coin):
    """The full 2n x 2n vertex pair (psi(W^T), psi(D_w))."""
    w, dw = build_W_Dw(g, coin)
    return w.transpose().psi(), dw.psi()


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
    """K_{1,k} with axis_coin values on the leaf -> center arcs and zero on
    the others ("off-axis" moves the first of them off the axis)."""
    g = star_graph(k)
    values = axis_coin(g, rng, kind)
    return g, CoinMap.from_arc_values(
        g, {e: values[e] for e in range(0, g.num_arcs, 2)})


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
        half = _vertex_logdet(g, coin, ts)
        assert log_det_distance(
            half, _vertex_logdet(g, coin, ts, vertex_psi(g, coin))) <= 1e-10
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
        w, dw = build_W_Dw(g, coin)
        ts = _sample_points(g, coin)
        psi_u = build_U(g, coin).psi()
        sign, logabs = np.linalg.slogdet(
            np.eye(psi_u.shape[0]) - ts[:, None, None] * psi_u)
        exact = logabs + 1j * np.angle(sign)
        assert log_det_distance(_vertex_logdet(g, coin, ts), exact) <= 1e-12
        # Axes taken one matrix at a time conjugate D' against Y': the
        # determinant moves far beyond rounding, and the certificate
        # rejects the true spectrum.
        apart = (psi_block(w.transpose()), psi_block(dw))
        assert apart[0].shape == (g.n, g.n)
        assert log_det_distance(_vertex_logdet(g, coin, ts, apart),
                                exact) > 1e-4
        vals = spectrum_direct(g, coin).psi_spectrum
        assert _certificate(g, coin, vals).verdict
        assert not _certificate(g, coin, vals, apart).verdict

    @staticmethod
    def recording(monkeypatch):
        """Records, while the test runs, the matrix shapes passed to slogdet
        and to simultaneous_triangularize, and each build_W_Dw call."""
        seen = {"slogdet": set(), "triangularize": [], "builds": 0}
        slogdet = np.linalg.slogdet

        def recording_slogdet(m):
            seen["slogdet"].add(m.shape[-2:])
            return slogdet(m)

        def recording_triangularize(a, b, **kwargs):
            seen["triangularize"].append((a.shape, b.shape))
            return linalg.simultaneous_triangularize(a, b, **kwargs)

        def counting_build(*args):
            seen["builds"] += 1
            return build_W_Dw(*args)

        monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
        monkeypatch.setattr(spectra, "simultaneous_triangularize",
                            recording_triangularize)
        monkeypatch.setattr(spectra, "build_W_Dw", counting_build)
        return seen

    @pytest.mark.parametrize("kind, half", [("axis", True),
                                            ("off-axis", False)])
    def test_theorem8_sizes(self, monkeypatch, kind, half):
        g, coin = leaf_star(12, np.random.default_rng(12), kind)
        size = g.n if half else 2 * g.n
        seen = self.recording(monkeypatch)
        report = spectrum_theorem_general(g, coin)
        assert seen == {"slogdet": {(size, size)},
                        "triangularize": [((size, size), (size, size))],
                        "builds": 1}
        assert report.cross_check.verdict
        assert matches_direct(report, g, coin)

    @pytest.mark.parametrize("route", ["alpha", "grover"])
    def test_alpha_routes_certify_on_n_by_n(self, monkeypatch, route):
        g = petersen_graph()
        seen = self.recording(monkeypatch)
        report = (spectrum_grover(g) if route == "grover" else
                  spectrum_alpha_coin(g, Quaternion(1, 1, 1, 1)))
        assert seen == {"slogdet": {(g.n, g.n)}, "triangularize": [],
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
        got = _vertex_logdet(g, coin, ts)
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
