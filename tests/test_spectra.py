"""Walk spectra by all routes, cross-validated against the direct one."""

import pickle

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
from qqwalk.qmatrix import class_reps, dedupe_class_reps
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
from qqwalk.walks import CoinMap, build_U

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
    "off-axis", which moves one value 1e-6 off the axis of "axis"."""
    if kind == "grover":
        return CoinMap.grover(g)
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


class TestDirectBlock:
    """spectrum_direct eigensolves the 2m x 2m block of psi(U) when the
    entries of U share one imaginary axis, and psi(U) itself otherwise."""

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
        assert dims == [2 * g.m]
        reference = np.linalg.eigvals(build_U(g, coin).psi())
        assert compare_spectra(vals, reference, tol=1e-9).verdict
        assert compare_spectra(vals, np.conj(vals), tol=0.0).max_dist == 0.0

    def test_off_axis_coin_takes_the_full_psi(self, monkeypatch):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 6, 0.4)
        coin = axis_coin(g, rng, "off-axis")
        vals, dims = self.direct_dims(monkeypatch, g, coin)
        assert dims == [4 * g.m]
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

    def test_edgeless_graph(self, monkeypatch):
        g = Graph(1, [])
        vals, dims = self.direct_dims(monkeypatch, g, CoinMap.grover(g))
        assert vals.size == 0 and dims == [0]


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
