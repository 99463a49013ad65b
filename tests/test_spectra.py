"""Walk spectra by all routes, cross-validated against the direct one."""

import numpy as np
import pytest

from qqwalk.graph import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from qqwalk import linalg
from qqwalk.linalg import (
    NotSimultaneouslyTriangularizableError,
    multiset_distance,
    multisets_match,
)
from qqwalk.quaternion import Quaternion
from qqwalk.spectra import (
    compare_spectra,
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from qqwalk.walks import CoinMap

S2 = np.sqrt(2.0)


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
        assert multisets_match(report.psi_spectrum, expected, tol=1e-9)

    def test_grover_star(self):
        g = star_graph(3)
        report = spectrum_direct(g, CoinMap.grover(g))
        base = np.array([1, -1, 1j, 1j, -1j, -1j])
        expected = np.concatenate([base, np.conj(base)])
        assert multisets_match(report.psi_spectrum, expected, tol=1e-9)

    def test_weighted_star(self):
        g, w = weighted_star()
        report = spectrum_direct(g, w)
        base = np.array([(1 + 1j) / S2, (-1 + 1j) / S2, 1j,
                         (1 - 1j) / S2, (-1 - 1j) / S2, -1j])
        expected = np.concatenate([base, base])
        assert multisets_match(report.psi_spectrum, expected, tol=1e-7)
        reps = report.class_reps
        assert [m for _, m in reps] == [4, 4, 4]
        values = np.array([v for v, _ in reps])
        assert multisets_match(
            values, np.array([(1 + 1j) / S2, (-1 + 1j) / S2, 1j]), tol=1e-7)

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
        assert multiset_distance(vals, np.conj(vals)) == 0.0


class TestQuadraticRoute:
    def test_weighted_star_matches_direct(self):
        g, w = weighted_star()
        report = spectrum_theorem_general(g, w)
        assert report.method == "theorem8"
        assert report.cross_check.verdict
        assert report.cross_check.max_dist <= 1e-7
        base = np.array([(1 + 1j) / S2, (-1 + 1j) / S2, 1j,
                         (1 - 1j) / S2, (-1 - 1j) / S2, -1j])
        assert multisets_match(report.psi_spectrum,
                               np.concatenate([base, base]), tol=1e-7)

    def test_large_weighted_star_matches_direct(self):
        # K_{1,32}: random quaternions on the leaf -> center arcs, zero on
        # the center -> leaf arcs, so psi(W^T) and psi(D_w) do not commute.
        rng = np.random.default_rng(32)
        g = star_graph(32)
        w = CoinMap.from_arc_values(
            g, {2 * i: Quaternion(*rng.uniform(-1, 1, 4)) for i in range(32)})
        report = spectrum_theorem_general(g, w)
        assert report.cross_check.verdict, report.cross_check.max_dist

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

    def test_alpha_coins_random_graphs(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            alpha = Quaternion(*rng.uniform(-1, 1, 4))
            coin = CoinMap.from_alpha(g, alpha)
            report = spectrum_theorem_general(g, coin)
            assert report.cross_check.verdict, report.cross_check.max_dist

    def test_tree_trim(self):
        g = path_graph(4)
        report = spectrum_theorem_general(g, CoinMap.grover(g))
        assert report.psi_spectrum.size == 4 * g.num_arcs // 2
        assert report.cross_check.verdict


class TestAlphaCoinRoute:
    def test_real_alpha_grover(self):
        g = complete_graph(3)
        report = spectrum_alpha_coin(g, Quaternion(2))
        assert report.method == "theorem10"
        assert report.cross_check.verdict

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

    def test_conjugate_walks_mirror_each_other(self):
        # The two complex walks induced by alpha have conjugate spectra, so
        # the combined multiset is conjugation-closed.
        g = cycle_graph(5)
        vals = spectrum_alpha_coin(g, Quaternion(1, 2, 3, 4)).psi_spectrum
        assert multiset_distance(vals, np.conj(vals)) == 0.0


class TestGroverRoute:
    def test_matches_direct_on_non_trees(self):
        for g in (complete_graph(3), cycle_graph(4), complete_graph(4),
                  petersen_graph()):
            report = spectrum_grover(g)
            assert report.cross_check.verdict, report.cross_check.max_dist
            assert report.cross_check.note is None

    def test_tree_records_note(self):
        for g in (star_graph(3), path_graph(2), path_graph(5)):
            report = spectrum_grover(g)
            assert report.cross_check.verdict
            assert "tree" in report.cross_check.note
            assert report.psi_spectrum.size == 2 * g.num_arcs

    def test_grouped_spectrum_has_one_group_per_eigenvalue(self):
        # Petersen: 1, -1, 1/3 +- i*sqrt(8)/3, -2/3 +- i*sqrt(5)/3.
        # C8: 1, -1, +-i, e^{+-i*pi/4}, e^{+-3i*pi/4}.
        for g, count in ((petersen_graph(), 6), (cycle_graph(8), 8)):
            groups = spectrum_grover(g).grouped_spectrum(tol=1e-7)
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

    def test_star_values(self):
        report = spectrum_grover(star_graph(3))
        base = np.array([1, -1, 1j, 1j, -1j, -1j])
        expected = np.concatenate([base, np.conj(base)])
        assert multisets_match(report.psi_spectrum, expected, tol=1e-9)


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
