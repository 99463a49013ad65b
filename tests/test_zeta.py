"""Determinant identities: classical, complex-weighted, and quaternionic."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk import cli, spectra, zeta
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
from qqwalk.qmatrix import QuatMatrix
from qqwalk.quaternion import Quaternion
from qqwalk.walks import (
    CoinMap,
    _K_L_entries,
    build_B_and_J0,
    build_Bw,
    build_K_L,
    build_U,
    parse_coin_file,
)
from qqwalk.zeta import (
    default_samples,
    ihara_bass,
    ihara_hashimoto,
    ihara_identity,
    quaternionic_identity,
    weighted_zeta_identity,
)

SAMPLES = default_samples()


def complex_weights(rng, g):
    return CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 2)) for _ in
                       range(g.num_arcs)])


def quaternion_weights(rng, g):
    return CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 4)) for _ in
                       range(g.num_arcs)])


def log_distance(a, b):
    """Distance of two logs of a nonzero number: the modulus part and the
    phase mod 2*pi."""
    d = np.asarray(a) - np.asarray(b)
    return np.hypot(d.real, (d.imag + np.pi) % (2 * np.pi) - np.pi)


def oracle_logdet(x, ts):
    """The dense factorization of the arc side: slogdet(I - t*X) at each t,
    as a complex log."""
    eye = np.eye(len(x))
    out = []
    for t in ts:
        sign, logabs = np.linalg.slogdet(eye - t * x)
        out.append(logabs + 1j * np.angle(sign))
    return np.array(out)


def arc_matrices(g, quat, cplx):
    """The dense X of each identity: psi(U) = psi(B_w^T - J0), U = B_w^T - J0
    and B - J0, placed from the definitions."""
    b, j0 = build_B_and_J0(g)
    return {"quaternionic": build_Bw(g, quat).transpose().psi() - j0.psi(),
            "weighted": build_Bw(g, cplx).s.T - j0.s,
            "ihara": b.s - j0.s}


def all_identities(g, quat, cplx, ts):
    return {"quaternionic": quaternionic_identity(g, quat, ts),
            "weighted": weighted_zeta_identity(g, cplx, ts),
            "ihara": ihara_identity(g, ts)}


def captured_arc_sides(g, quat, cplx):
    """The arc side of the operand each identity hands to _compare, as a
    function of the points, by name."""
    seen = []

    def capture(graph, weights, halves, *args):
        seen.append(lambda ts: zeta._arc_logdet(graph, weights, halves, ts))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta, "_compare", capture)
        all_identities(g, quat, cplx, [0.3])
    return dict(zip(("quaternionic", "weighted", "ihara"), seen))


def recording_sizes(monkeypatch):
    """Record the size of every matrix the arc side (zeta._arc_logdet)
    hands to numpy's slogdet, one call per batch of points."""
    sizes, inside = [], []
    arc_logdet, slogdet = zeta._arc_logdet, np.linalg.slogdet

    def arc_side(*args, **kwargs):
        inside.append(True)
        try:
            return arc_logdet(*args, **kwargs)
        finally:
            inside.pop()

    def recording(m):
        if inside:
            sizes.append(m.shape[-1])
        return slogdet(m)

    monkeypatch.setattr(zeta, "_arc_logdet", arc_side)
    monkeypatch.setattr(np.linalg, "slogdet", recording)
    return sizes


def cut_size(g):
    """2n - 1 - b: the size of U compressed off its fixed +-1 eigenspace."""
    return 2 * g.n - 1 - int(g.is_bipartite)


class TestClassicalIdentity:
    def test_value_at_zero(self):
        g = complete_graph(3)
        assert ihara_hashimoto(g, 0.0) == pytest.approx(1.0)
        assert ihara_bass(g, 0.0) == pytest.approx(1.0)

    def test_triangle_closed_form(self):
        # On C3 the non-backtracking matrix splits into two 3-cycles, so
        # det(I - t(B - J0)) = (1 - t^3)^2.
        t = 0.37 + 0.21j
        g = cycle_graph(3)
        assert ihara_hashimoto(g, t) == pytest.approx((1 - t ** 3) ** 2)

    def test_named_graphs(self):
        for g in (complete_graph(3), complete_graph(4), cycle_graph(4),
                  petersen_graph()):
            report = ihara_identity(g, SAMPLES, tol=1e-10)
            assert report.verdict, report.max_rel_err

    def test_tree(self):
        report = ihara_identity(star_graph(3), SAMPLES, tol=1e-10)
        assert report.verdict

    def test_tree_pole_skipped(self):
        report = ihara_identity(path_graph(3), [0.3, 1.0, -1.0])
        assert len(report.samples) == 1
        assert sorted(report.skipped, key=lambda z: z.real) == [-1.0, 1.0]

    def test_pole_skipped_on_non_trees_too(self):
        # Both sides vanish at t = +-1 when m > n; the sample is skipped
        # rather than compared.
        report = ihara_identity(complete_graph(4), [1.0, 0.4, -1.0],
                                tol=1e-10)
        assert report.verdict and len(report.samples) == 1
        assert sorted(report.skipped, key=lambda z: z.real) == [-1.0, 1.0]

    def test_pole_sample_is_listed_in_the_json(self):
        # A skipped sample is named in to_dict, not dropped without a word;
        # a report that skips none has no such key.
        d = ihara_identity(complete_graph(3), [0.3, 1.0]).to_dict()
        assert [s["t"] for s in d["samples"]] == [{"re": 0.3, "im": 0.0}]
        assert d["skipped"] == [{"re": 1.0, "im": 0.0}]
        assert "skipped" not in ihara_identity(complete_graph(3),
                                               [0.3]).to_dict()

    def test_report_that_compared_no_sample_fails(self):
        # Every sample on a pole: nothing was compared, so nothing holds.
        report = ihara_identity(complete_graph(4), [1.0, -1.0])
        assert report.samples == [] and report.skipped == [1.0, -1.0]
        assert report.verdict is False
        assert report.to_dict()["verdict"] is False
        assert ihara_identity(complete_graph(4), []).verdict is False
        # Nor is any error measured: NaN, which the CLI's strict JSON
        # prints as null, not a perfect 0.0.
        assert np.isnan(report.max_rel_err)
        payload = json.loads(json.dumps(cli._finite(report.to_dict()),
                                        allow_nan=False))
        assert payload["max_rel_err"] is None and payload["samples"] == []

    def test_tree_pole_raises_in_bass_form(self):
        with pytest.raises(ZeroDivisionError):
            ihara_bass(path_graph(3), 1.0)

    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_bass_form_at_the_poles_of_non_trees(self, t):
        # With m = n the factor (1 - t^2)^0 is 1 at t = +-1, not 0 * log 0.
        for g in (cycle_graph(3), cycle_graph(4), complete_graph(4)):
            assert ihara_bass(g, t) == pytest.approx(ihara_hashimoto(g, t),
                                                     abs=1e-12)

    def test_random_graphs(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert ihara_identity(g, SAMPLES, tol=1e-9).verdict


class TestWeightedIdentity:
    def test_unit_weights_reduce_to_classical(self):
        g = complete_graph(3)
        ones = CoinMap(g, [Quaternion.ONE] * g.num_arcs)
        report = weighted_zeta_identity(g, ones, SAMPLES, tol=1e-10)
        assert report.verdict
        # With w = 1 the arc side is the classical one up to the extra
        # (1 - t^2) bookkeeping factor, both sides shift together.
        t = 0.4
        classical = ihara_hashimoto(g, t)
        single = weighted_zeta_identity(g, ones, [t]).samples[0]
        assert single.lhs == pytest.approx(classical)

    def test_zero_weights_closed_form(self):
        g = complete_graph(3)
        zero = CoinMap(g, [Quaternion.ZERO] * g.num_arcs)
        t = 0.3 - 0.4j
        report = weighted_zeta_identity(g, zero, [t], tol=1e-12)
        assert report.verdict
        # B_w = 0 so det(I + t*J0) = (1 - t^2)^m.
        assert report.samples[0].lhs == pytest.approx((1 - t * t) ** g.m)

    def test_random_complex_weights(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            w = complex_weights(rng, g)
            report = weighted_zeta_identity(g, w, SAMPLES, tol=1e-8)
            assert report.verdict, report.max_rel_err

    @pytest.mark.parametrize("bad", [0, 2], ids=["0", "2"])
    def test_non_finite_sample_fails_wherever_it_falls(self, monkeypatch,
                                                       bad):
        # Both sides of one sample are non-finite.  Its rel_err is NaN,
        # which a plain max over the samples kept only when it came first.
        logdet = spectra._logdet

        def overflowing(ts, *args, **kwargs):
            # Every side takes all the samples at once, in sorted order.
            out = logdet(ts, *args, **kwargs)
            out[bad] = complex(np.inf, 0.0)
            return out

        # The arc side reads zeta's name, the vertex side spectra's.
        monkeypatch.setattr(zeta, "_logdet", overflowing)
        monkeypatch.setattr(spectra, "_logdet", overflowing)
        g = complete_graph(4)
        report = weighted_zeta_identity(g, CoinMap.grover(g),
                                        [0.1, 0.2, 0.3], tol=1e-8)
        sample = report.samples[bad]
        assert not np.isfinite(sample.lhs) and not np.isfinite(sample.rhs)
        assert np.isnan(sample.rel_err)
        assert not report.verdict
        assert not np.isfinite(report.max_rel_err)

    def test_tiny_determinants_are_compared_relatively(self, monkeypatch):
        # Near the pole both sides carry (1 - t^2)^(m - n) and are tiny; an
        # error measured against a floor of 1 would pass any two of them.
        g = complete_graph(5)
        grover = CoinMap.grover(g)
        honest = weighted_zeta_identity(g, grover, [0.999], tol=1e-8)
        assert honest.verdict and abs(honest.samples[0].lhs) < 1e-15

        vertex_pair = spectra._vertex_pair

        def skewed_pair(graph, weights):
            y, d = vertex_pair(graph, weights)
            return y, 1.5 * d

        monkeypatch.setattr(spectra, "_vertex_pair", skewed_pair)
        skewed = weighted_zeta_identity(g, grover, [0.999], tol=1e-8)
        sample = skewed.samples[0]
        assert max(abs(sample.lhs), abs(sample.rhs)) < 1e-10
        assert sample.rel_err > 0.5 and not skewed.verdict

    def test_rejects_quaternionic_weights(self):
        g = complete_graph(3)
        w = CoinMap(g, [Quaternion.J] * g.num_arcs)
        with pytest.raises(ValueError, match="j/k"):
            weighted_zeta_identity(g, w, SAMPLES)

    def test_rejects_a_small_quaternionic_coin(self):
        # The j/k parts are judged against the coin's own size.
        g = complete_graph(3)
        w = CoinMap.from_vertex_values(g, {0: Quaternion(0, 0, 1e-13),
                                           1: Quaternion(0, 0, 0, 2e-13),
                                           2: Quaternion(0, 0, 3e-13)})
        with pytest.raises(ValueError, match="j/k"):
            weighted_zeta_identity(g, w, SAMPLES)

    def test_accepts_rounding_size_j_parts_at_scale(self):
        # A complex coin at 1e8 whose j/k parts are of the size of its
        # rounding errors is complex.
        g = complete_graph(3)
        w = CoinMap.from_vertex_values(g, {
            v: Quaternion(1e8 * (v + 1), -2e8, 3e-8, -1e-8) for v in range(3)})
        assert w.is_complex_valued()
        report = weighted_zeta_identity(g, w, SAMPLES)
        assert len(report.samples) + len(report.skipped) == len(SAMPLES)

    def test_pole_skipped(self):
        g = complete_graph(3)
        ones = CoinMap(g, [Quaternion.ONE] * g.num_arcs)
        report = weighted_zeta_identity(g, ones, [1.0, 0.5])
        assert report.skipped == [1.0]


class TestQuaternionicIdentity:
    @pytest.mark.parametrize("axis", [False, True])
    def test_vertex_pair_is_built_once(self, monkeypatch, axis):
        # The resolvent check builds no psi pair: the vertex side builds
        # the operand's, psi for the coin itself, n x n for turned values.
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 6, 0.4)
        w = (CoinMap.from_alpha(g, Quaternion(0.3, 0.2, -0.1, 0.4)) if axis
             else quaternion_weights(rng, g))
        want = quaternionic_identity(g, w, SAMPLES)
        builds = []

        def counting(graph, weights):
            builds.append(isinstance(weights, CoinMap))
            return vertex_pair(graph, weights)

        vertex_pair = spectra._vertex_pair
        monkeypatch.setattr(spectra, "_vertex_pair", counting)
        got = quaternionic_identity(g, w, SAMPLES)
        assert builds == ([False] if axis else [True])
        assert got.samples == want.samples

    def test_weighted_star(self):
        g = star_graph(3)
        w = CoinMap.from_arc_values(g, {0: Quaternion(1, 1),
                                        2: Quaternion(1, 0, -1),
                                        4: Quaternion(2)})
        report = quaternionic_identity(
            g, w, [0.3, 0.3 + 0.2j, -0.7], tol=1e-10)
        assert report.verdict, report.max_rel_err

    def test_random_weights_random_graphs(self):
        rng = np.random.default_rng(79)
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            w = quaternion_weights(rng, g)
            report = quaternionic_identity(g, w, SAMPLES, tol=1e-8)
            assert report.verdict, report.max_rel_err

    def test_complex_weights_agree_with_weighted_identity(self):
        # For complex weights the 4m x 4m determinant is |.|^2 of the 2m x 2m
        # one, so the quaternionic identity must also hold.
        rng = np.random.default_rng(83)
        g = complete_graph(4)
        w = complex_weights(rng, g)
        assert quaternionic_identity(g, w, SAMPLES, tol=1e-8).verdict

    def test_both_sides_are_polynomials_matching_coefficients(self):
        # Interpolate each side at 4m + 1 points on a circle and compare
        # coefficient vectors; degree-complete check of the identity.  The
        # report lists its samples sorted, so the points are read from it.
        # Both sides are det(I - t*psi(U)), whose coefficients are real, as
        # psi(U)'s spectrum is closed under conjugation, with constant 1.
        rng = np.random.default_rng(89)
        g = cycle_graph(4)
        w = quaternion_weights(rng, g)
        deg = 2 * g.num_arcs  # 4m
        nodes = [0.6 * np.exp(2j * np.pi * k / (deg + 1))
                 for k in range(deg + 1)]
        report = quaternionic_identity(g, w, nodes, tol=1e-8)
        vandermonde = np.vander(np.array([s.t for s in report.samples]),
                                deg + 1, increasing=True)
        lhs_coeffs = np.linalg.solve(
            vandermonde, np.array([s.lhs for s in report.samples]))
        rhs_coeffs = np.linalg.solve(
            vandermonde, np.array([s.rhs for s in report.samples]))
        assert np.abs(lhs_coeffs - rhs_coeffs).max() <= 1e-6
        for coeffs in (lhs_coeffs, rhs_coeffs):
            assert abs(coeffs[0] - 1.0) <= 1e-8
            assert (np.abs(coeffs.imag).max()
                    <= 1e-8 * np.abs(coeffs).max())

    def test_pole_skipped(self):
        g = complete_graph(3)
        w = CoinMap.grover(g)
        report = quaternionic_identity(g, w, [-1.0, 0.2])
        assert report.skipped == [-1.0]

    def test_corrupted_factorization_fails_the_resolvent_check(
            self, monkeypatch):
        g = complete_graph(3)
        w = CoinMap.grover(g)

        def corrupted_K_L(graph, weights):
            values = [weights[e] for e in range(graph.num_arcs)]
            values[0] = values[0] + Quaternion(0.0, 0.0, 0.5)
            return _K_L_entries(graph, CoinMap(graph, values))

        monkeypatch.setattr(zeta, "_K_L_entries", corrupted_K_L)
        with pytest.raises(ArithmeticError, match="resolvent"):
            quaternionic_identity(g, w, [0.3])

    @pytest.mark.parametrize("jump", [False, True], ids=["K", "J0K"])
    def test_arc_sums_are_the_dense_product(self, jump):
        # L^T K and L^T J0 K summed over the arcs have the psi images of the
        # dense products of psi(L^T) with psi(K) and psi(J0 K) from
        # walks.build_K_L.
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 8, 0.4)
        w = quaternion_weights(rng, g)
        k, l = _K_L_entries(g, w)
        dense_k, dense_l = build_K_L(g, w)
        if jump:
            k = (k[0] ^ 1, *k[1:])
            dense_k = build_B_and_J0(g)[1] @ dense_k
        want = dense_l.transpose().psi() @ dense_k.psi()
        got = zeta._arc_product(g.n, l, k).psi()
        assert np.abs(got - want).max() <= 1e-14

    def test_resolvent_check_rejects_a_wrong_factor(self, monkeypatch):
        # L^T K is summed over the arcs; L^T (1.5 K) = 1.5 W^T must still
        # fail, also when every sample sits on a pole: the check's two
        # halves are t-free and run once, before any sample.
        def scaled_K_L(graph, weights):
            (rows, cols, s, p), l = _K_L_entries(graph, weights)
            return (rows, cols, 1.5 * s, 1.5 * p), l

        monkeypatch.setattr(zeta, "_K_L_entries", scaled_K_L)
        g = complete_graph(3)
        for samples in ([0.3], [1.0, -1.0]):
            with pytest.raises(ArithmeticError,
                               match=r"resolvent.*L\^T K = W\^T"):
                quaternionic_identity(g, CoinMap.grover(g), samples)

    def test_resolvent_check_names_the_half_that_fails(self, monkeypatch):
        # One out-sum of D_w moved: L^T K = W^T still holds, and the check
        # fails on the L^T J0 K = D_w half.
        build_w_dw = zeta.build_W_Dw

        def moved_sum(graph, weights):
            w, dw = build_w_dw(graph, weights)
            sums = dw.s.copy()
            sums[1, 1] += 0.25
            return w, QuatMatrix(sums, dw.p)

        monkeypatch.setattr(zeta, "build_W_Dw", moved_sum)
        g = complete_graph(4)
        with pytest.raises(ArithmeticError, match="resolvent") as failed:
            quaternionic_identity(g, CoinMap.grover(g), [0.3])
        assert "L^T J0 K = D_w" in str(failed.value)
        assert "L^T K = W^T" not in str(failed.value)

    def test_no_arc_sized_dense_array(self, monkeypatch):
        # At m = 245 a dense 4m x 4m complex X is 15.4 MB.  At every slogdet
        # of the identity, when its largest arrays are alive, each array is
        # below a quarter of that: psi(C) and I - t*psi(C) are (4n)^2.
        slogdet = np.linalg.slogdet
        blocks = []

        def recording(m):
            blocks.append(max(trace.size for trace in
                              tracemalloc.take_snapshot().traces))
            return slogdet(m)

        monkeypatch.setattr(np.linalg, "slogdet", recording)
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 110, 0.022)
        w = quaternion_weights(rng, g)
        tracemalloc.start()
        try:
            report = quaternionic_identity(g, w, default_samples(3))
        finally:
            tracemalloc.stop()
        assert g.m == 245 and report.verdict
        assert len(blocks) == 4 and max(blocks) < (4 * g.m) ** 2 * 16 / 4

    def test_resolvent_check_scales_with_the_entries(self):
        # Entries near 1e6: a residual of 1.2e-10 is about 1e-16 of them,
        # which an absolute 1e-10 called a failure.
        g = petersen_graph()
        w = CoinMap.from_alpha(g, Quaternion(1e6, 1e6, 1e6, 1e6))
        report = quaternionic_identity(g, w, SAMPLES)
        assert report.verdict, report.max_rel_err

    def test_report_serializes(self):
        g = complete_graph(3)
        w = CoinMap.grover(g)
        d = quaternionic_identity(g, w, [0.25]).to_dict()
        assert d["verdict"] is True
        assert d["samples"][0]["t"] == {"re": 0.25, "im": 0.0}


def axis_weights(rng, g, axis):
    """Random weights a + b*u on the unit pure quaternion u = axis."""
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return CoinMap(g, [Quaternion(a, *(b * u)) for a, b in
                       rng.uniform(-1, 1, (g.num_arcs, 2))])


@st.composite
def one_axis_inputs(draw):
    """A random graph or tree with an alpha/d, Grover, complex or same-axis
    quaternion coin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, draw(st.integers(2, 9)),
                               draw(st.sampled_from([0.0, 0.3, 0.6])))
    kind = draw(st.sampled_from(["alpha", "grover", "complex", "axis"]))
    if kind == "alpha":
        return g, CoinMap.from_alpha(g, Quaternion(*rng.uniform(-1, 1, 4)))
    if kind == "grover":
        return g, CoinMap.grover(g)
    if kind == "complex":
        return g, complex_weights(rng, g)
    return g, axis_weights(rng, g, rng.uniform(-1, 1, 3))


class TestOneAxisArcSide:
    """Weights on one axis: the arc side is det(I - t*C) *
    conj(det(I - conj(t)*C)) on the compression C of the 2m block S' of
    psi(U)."""

    @settings(max_examples=40, deadline=None)
    @given(one_axis_inputs())
    def test_block_equals_the_4m_psi(self, graph_and_coin):
        g, w = graph_and_coin
        psi_u = build_U(g, w).psi()
        eye = np.eye(len(psi_u))
        with pytest.MonkeyPatch.context() as mp:
            sizes = recording_sizes(mp)
            report = quaternionic_identity(g, w, SAMPLES, tol=1e-8)
        assert report.verdict, report.max_rel_err
        # All samples at once: C at t, then at conj(t), or a real C once.
        real = w.turned().dtype == float
        assert sizes == [cut_size(g)] * (1 if real else 2)
        for sample in report.samples:
            want = np.linalg.det(eye - sample.t * psi_u)
            assert abs(sample.lhs - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ["grover", "real"])
    def test_real_coin_takes_one_slogdet_per_batch(self, monkeypatch, kind):
        # A real C has det(I - conj(t)*C) = conj(det(I - t*C)): its one
        # slogdet per batch of points is counted twice, not taken again.
        g = petersen_graph()
        w = (CoinMap.grover(g) if kind == "grover" else CoinMap(g, [
            Quaternion(a) for a in np.random.default_rng(5).uniform(
                -1, 1, g.num_arcs)]))
        sizes = recording_sizes(monkeypatch)
        report = quaternionic_identity(g, w, SAMPLES)
        assert report.verdict, report.max_rel_err
        assert sizes == [cut_size(g)]

    def test_general_weights_take_psi_of_the_compression(self, monkeypatch):
        sizes = recording_sizes(monkeypatch)
        g = complete_graph(4)
        quaternionic_identity(g, quaternion_weights(
            np.random.default_rng(1), g), [0.3])
        assert sizes == [2 * cut_size(g)]

    def test_one_changed_weight_fails(self):
        # A weight changed on the arc side alone, or on the vertex side
        # and its factors alone, along the same axis: the identity fails.
        g = petersen_graph()
        w = CoinMap.from_alpha(g, Quaternion(0.3, 0.2, 0.1, 0.1))
        assert quaternionic_identity(g, w, SAMPLES).verdict
        arc_only, vertex_only = one_side_changed(g, w, SAMPLES, 7)
        assert arc_only.max_rel_err > 1e-3 and not arc_only.verdict
        assert vertex_only.max_rel_err > 1e-3 and not vertex_only.verdict

    def test_no_vertex_by_arc_array_at_scale(self, monkeypatch):
        # At m = 1715 an n x 2m complex array (K or L as a dense matrix) is
        # 27 MB.  Every array alive at the first arc-side log-determinant is
        # smaller: the largest, 16 MB, is the r x r compression or a 2n x 2n
        # vertex matrix of the resolvent check.
        class Stop(Exception):
            pass

        blocks = []

        def first_logdet(ts, y, *args, **kwargs):
            blocks.append(y.shape)
            blocks.append(max(trace.size for trace in
                              tracemalloc.take_snapshot().traces))
            raise Stop

        monkeypatch.setattr(zeta, "_logdet", first_logdet)
        g = random_connected_graph(np.random.default_rng(3), 500, 0.01)
        w = CoinMap.from_alpha(g, Quaternion(0.3, 0.2, 0.1, 0.1))
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                quaternionic_identity(g, w, default_samples(3))
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (500, 1715)
        assert blocks[0] == (cut_size(g), cut_size(g))
        assert blocks[1] < g.n * 2 * g.m * 16
        # A real 2m x r basis (27.41 MB) would pass that bound by a hair.
        assert blocks[1] < 2 * g.m * cut_size(g) * 8


def one_side_changed(g, w, ts, arc):
    """The quaternionic identity with w(arc) scaled by 1.25 on the arc side
    alone, then on the vertex side and its factors alone."""
    values = [w[e] for e in range(g.num_arcs)]
    values[arc] = values[arc] * 1.25
    changed = CoinMap(g, values)
    operand = spectra._operand(changed)[0]
    reports = []
    with pytest.MonkeyPatch.context() as mp:
        arc_logdet = zeta._arc_logdet
        mp.setattr(zeta, "_arc_logdet", lambda graph, weights, *args:
                   arc_logdet(graph, operand, *args))
        reports.append(quaternionic_identity(g, w, ts))
    with pytest.MonkeyPatch.context() as mp:
        vertex_logdet, build_w_dw = zeta._vertex_logdet, zeta.build_W_Dw
        mp.setattr(zeta, "_vertex_logdet", lambda graph, weights, *args:
                   vertex_logdet(graph, operand, *args))
        mp.setattr(zeta, "build_W_Dw",
                   lambda graph, coin: build_w_dw(graph, changed))
        mp.setattr(zeta, "_K_L_entries",
                   lambda graph, coin: _K_L_entries(graph, changed))
        reports.append(quaternionic_identity(g, w, ts))
    return reports


@st.composite
def oracle_graphs(draw):
    """Random graphs, trees, even cycles, complete bipartite graphs and the
    single vertex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "tree", "even cycle",
                                 "bipartite", "single"]))
    size = draw(st.integers(2, 8))
    if kind == "single":
        return rng, Graph(1, [])
    if kind == "even cycle":
        return rng, cycle_graph(2 * max(size // 2, 2))
    if kind == "bipartite":
        a = max(size // 2, 1)
        return rng, Graph(size, [(u, a + v) for u in range(a)
                                 for v in range(size - a)])
    return rng, random_connected_graph(
        rng, size, 0.0 if kind == "tree" else draw(st.floats(0.0, 0.6)))


def oracle_case(rng, g, kind):
    """One identity's arc-side function and the dense X of its definition,
    for random weights of the kind's sort ("one-axis": an alpha/d coin on
    the quaternionic identity)."""
    quat, cplx = quaternion_weights(rng, g), complex_weights(rng, g)
    if kind == "one-axis":
        axis = CoinMap.from_alpha(g, Quaternion(*rng.uniform(-1, 1, 4)))
        return (captured_arc_sides(g, axis, cplx)["quaternionic"],
                build_U(g, axis).psi())
    return (captured_arc_sides(g, quat, cplx)[kind],
            arc_matrices(g, quat, cplx)[kind])


class TestArcSideOracle:
    """Every arc side, taken through the +-1 split on the compression C, is
    the dense factorization of I - t*X for the X of the definitions."""

    @pytest.mark.parametrize("kind", ["ihara", "weighted", "quaternionic",
                                      "one-axis"])
    @settings(max_examples=40, deadline=None)
    @given(oracle_graphs(), st.integers(0, 999))
    def test_split_equals_the_dense_factorization(self, kind, graph_and_rng,
                                                  seed):
        rng, g = graph_and_rng
        arc, x = oracle_case(rng, g, kind)
        # Points near both poles, where the fixed factors dominate (nearer
        # ones lose the oracle's own accuracy, as 1/|1 - t| times rounding).
        ts = np.array(default_samples(4, seed=seed) + [1 - 1e-3, -1 + 2e-3j])
        distance = log_distance(arc(ts), oracle_logdet(x, ts))
        assert distance.max(initial=0.0) <= 1e-11

    @settings(max_examples=20, deadline=None)
    @given(oracle_graphs(), st.integers(0, 999))
    def test_identities_skip_the_poles(self, graph_and_rng, seed):
        rng, g = graph_and_rng
        quat, cplx = quaternion_weights(rng, g), complex_weights(rng, g)
        ts = [1.0, -1.0, *default_samples(4, seed=seed)]
        for name, report in all_identities(g, quat, cplx, ts).items():
            assert sorted(report.skipped) == [-1.0, 1.0], name
            assert len(report.samples) == 4 and report.verdict, name

    @pytest.mark.parametrize("t", [1.0, -1.0])
    @pytest.mark.parametrize("g", [star_graph(3), path_graph(4),
                                   complete_graph(4)],
                             ids=["star", "path", "K4"])
    def test_hashimoto_at_the_poles(self, g, t):
        # A tree has no +1 part and its -1 part is empty: det(I - t(B - J0))
        # at t = +-1 comes from C alone.  A graph with cycles vanishes there.
        x = arc_matrices(g, *(CoinMap.grover(g),) * 2)["ihara"]
        want = np.linalg.det(np.eye(g.num_arcs) - t * x)
        assert ihara_hashimoto(g, t) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["quaternionic", "weighted"])
    def test_planted_wrong_weight_fails_the_oracle(self, kind):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 7, 0.4)
        w = (quaternion_weights if kind == "quaternionic"
             else complex_weights)(rng, g)
        x = build_U(g, w).psi() if kind == "quaternionic" else build_U(g, w).s
        ts = np.array(default_samples(4))
        want = oracle_logdet(x, ts)
        weights = w if kind == "quaternionic" else w.s
        assert log_distance(zeta._arc_logdet(g, weights, False, ts),
                            want).max() <= 1e-11
        values = [w[e] for e in range(g.num_arcs)]
        values[3] = values[3] + Quaternion(0.0, 0.01)
        wrong = CoinMap(g, values)
        wrong = wrong if kind == "quaternionic" else wrong.s
        assert log_distance(zeta._arc_logdet(g, wrong, False, ts),
                            want).max() > 1e-4


FIXTURES = Path(spectra.__file__).parent / "fixtures"


def fixture_case(graph_file, coin_file):
    g = load_graph(FIXTURES / graph_file)
    return g, parse_coin_file((FIXTURES / coin_file).read_text(), g)


def assert_in_place_arc_side_is_the_built_psi(monkeypatch, g, coin):
    """The quaternionic arc side's log-determinants, with I - t*psi(C)
    written from C's parts, equal those of the built psi(C) exactly, in
    batches of one point or of several with a shorter last one."""
    c = spectra._compression(g, coin)
    assert isinstance(c, QuatMatrix)
    ts = np.array(default_samples(8), dtype=complex)
    for batch in (spectra.LOGDET_BATCH, 3 * (2 * c.rows) ** 2, 1):
        monkeypatch.setattr(spectra, "LOGDET_BATCH", batch)
        assert np.array_equal(spectra._logdet(ts, c),
                              spectra._logdet(ts, c.psi()))


class TestInPlaceArcSide:
    """The quaternionic arc side writes I - t*psi(C) straight into each
    batch's buffer from C's symplectic parts (C_s, C_p)."""

    @pytest.mark.parametrize("files", [("k3.g", "k3_grover.w"),
                                       ("k13.g", "k13_grover.w"),
                                       ("k13.g", "ex5.w")],
                             ids=lambda f: f[1])
    def test_fixtures(self, monkeypatch, files):
        assert_in_place_arc_side_is_the_built_psi(
            monkeypatch, *fixture_case(*files))

    @settings(max_examples=40, deadline=None)
    @given(oracle_graphs())
    def test_random_quaternion_coins(self, graph_and_rng):
        rng, g = graph_and_rng
        with pytest.MonkeyPatch.context() as mp:
            assert_in_place_arc_side_is_the_built_psi(
                mp, g, quaternion_weights(rng, g))

    def test_graph_factors_its_lifts_once(self, monkeypatch):
        # The Cholesky factors of the grounded Laplacian and signless
        # Laplacian depend on the graph alone: the direct route, the three
        # identities and the Hashimoto side on one graph take them once.
        calls = []
        cholesky = np.linalg.cholesky

        def counting(m):
            calls.append(m.shape)
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        rng = np.random.default_rng(2)
        g = petersen_graph()
        quat, cplx = quaternion_weights(rng, g), complex_weights(rng, g)
        spectra.spectrum_direct(g, quat)
        for report in all_identities(g, quat, cplx, SAMPLES).values():
            assert report.verdict
        ihara_hashimoto(g, 0.3)
        assert calls == [(9, 9), (10, 10)]
        ihara_identity(Graph(g.n, g.edges), SAMPLES)
        assert calls == [(9, 9), (10, 10)] * 2


def minus_i_weights(rng, g):
    """Complex weights whose largest imaginary part is negative, so that
    CoinMap.turned turns them onto the -i axis, conjugated."""
    values = rng.uniform(-1, 1, (g.num_arcs, 2))
    big = np.argmax(np.abs(values[:, 1]))
    values[big, 1] = -2.0
    return CoinMap(g, [Quaternion(*v) for v in values])


class TestComplexWeightsAsGiven:
    """weighted_zeta_identity compresses the complex U itself, not the coin
    as CoinMap.turned turns it, which is conjugated on the -i axis."""

    @pytest.mark.parametrize("minus_i", [False, True],
                             ids=["plus-i", "minus-i"])
    @settings(max_examples=30, deadline=None)
    @given(oracle_graphs(), st.integers(0, 999))
    def test_equals_the_complex_walk(self, minus_i, graph_and_rng, seed):
        rng, g = graph_and_rng
        w = (minus_i_weights if minus_i and g.m else complex_weights)(rng, g)
        if minus_i and g.m:
            assert np.array_equal(w.turned(), np.conj(w.s))
        ts = default_samples(4, seed=seed)
        report = weighted_zeta_identity(g, w, ts, tol=1e-10)
        assert report.verdict, report.max_rel_err
        want = oracle_logdet(build_U(g, w).s, ts)
        got = captured_arc_sides(g, quaternion_weights(rng, g),
                                 w)["weighted"](np.array(ts))
        assert log_distance(got, want).max(initial=0.0) <= 1e-11


class TestExtremeScales:
    """Both sides compared as logs: no overflow to NaN, no underflow to an
    agreement of two zeros."""

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reversed"])
    def test_large_alpha_does_not_overflow(self, reverse):
        # m = 704, alpha = 8+8i+8j+8k: |lhs| reaches 1e51 and then leaves the
        # double range, which a product of LU pivots read as NaN.
        g = random_connected_graph(np.random.default_rng(0), 150, 0.05)
        w = CoinMap.from_alpha(g, Quaternion(8, 8, 8, 8))
        ts = default_samples(8)[::-1] if reverse else default_samples(8)
        report = quaternionic_identity(g, w, ts)
        assert g.m == 704
        assert np.isfinite(report.max_rel_err) and report.verdict
        assert not np.all(np.isfinite([s.lhs for s in report.samples]))
        arc_only, vertex_only = one_side_changed(g, w, ts, 11)
        assert not arc_only.verdict and not vertex_only.verdict

    def test_underflowing_sample_still_compares(self):
        # m = 863 is the smallest graph of this family on which a sample's
        # two sides underflow to 0 in linear form: exp of their logs.  That
        # sample still tells a changed weight apart.
        g = random_connected_graph(np.random.default_rng(3), 322, 0.01)
        w = CoinMap.from_alpha(g, Quaternion(0.3, 0.2, 0.1, 0.1))
        ts = default_samples(3)
        report = quaternionic_identity(g, w, ts)
        assert g.m == 863 and report.verdict
        tiny = [i for i, s in enumerate(report.samples)
                if s.lhs == 0 and s.rhs == 0]
        assert tiny and all(report.samples[i].rel_err <= 1e-8 for i in tiny)
        arc_only, vertex_only = one_side_changed(g, w, ts, 5)
        for i in tiny:
            assert arc_only.samples[i].rel_err > 1e-3
            assert vertex_only.samples[i].rel_err > 1e-3

    @pytest.mark.parametrize("name", ["ihara", "weighted", "quaternionic"])
    def test_identities_at_m_3894(self, name):
        # A product of LU pivots overflows here: NaN on the Ihara arc side,
        # OverflowError from the quaternionic (1 - t^2)^(2m - 2n).
        g = random_connected_graph(np.random.default_rng(3), 800, 0.01)
        ts = default_samples(3)
        if name == "ihara":
            report = ihara_identity(g, ts)
        elif name == "weighted":
            report = weighted_zeta_identity(
                g, CoinMap.from_alpha(g, Quaternion(0.3, 0.2)), ts)
        else:
            report = quaternionic_identity(
                g, CoinMap.from_alpha(g, Quaternion(0.3, 0.2, 0.1, 0.1)), ts)
        assert g.m == 3894 and report.verdict, report.max_rel_err

    def test_bass_form_beyond_the_double_range(self):
        # m = 4107: at t = 0.8i the true log-modulus, about 2576, is past the
        # double range, where the linear (1 - t^2)^(r-1) raised
        # OverflowError.  Both forms now read exp of the identity core's
        # logs: they agree in range and read inf beyond it.
        g = random_connected_graph(np.random.default_rng(0), 200, 0.2)
        assert g.m == 4107
        for t in (0.3, -0.7):
            assert ihara_bass(g, t) == pytest.approx(ihara_hashimoto(g, t),
                                                     rel=1e-10)
        assert abs(ihara_bass(g, 0.8j)) == np.inf
        assert abs(ihara_hashimoto(g, 0.8j)) == np.inf


class TestRelErr:
    """rel_err from the logs is |lhs - rhs| / max(|lhs|, |rhs|)."""

    def test_equals_the_linear_relative_error(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lhs = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-3, 3)
            rhs = (lhs * (1 + complex(*rng.normal(size=2))
                          * 10 ** rng.uniform(-12, 1)))
            want = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            # Either order, and a log's phase off by whole turns.  The logs
            # carry rounding of about eps * |log|, up to 1e-14 here.
            turns = 2j * np.pi * int(rng.integers(-3, 4))
            for a, b in ((lhs, rhs), (rhs, lhs)):
                got = zeta._rel_err(np.log(a) + turns, np.log(b))
                assert got == pytest.approx(want, rel=1e-6, abs=1e-13)

    def test_beyond_the_double_range(self):
        # 10^400 * (1 + 1e-10) against 10^400, and the same below 10^-400.
        for big in (400 * np.log(10), -400 * np.log(10)):
            for a, b in ((big + 1e-10, big), (big, big + 1e-10)):
                got = zeta._rel_err(complex(a, 0.3), complex(b, 0.3))
                assert got == pytest.approx(1e-10, rel=1e-5)

    @pytest.mark.parametrize("a, b", [(-np.inf, -np.inf), (-np.inf, 0.0),
                                      (np.nan, 0.0)],
                             ids=["both-zero", "one-zero", "nan"])
    def test_non_finite_log_is_nan(self, a, b):
        assert np.isnan(zeta._rel_err(complex(a, 0.0), complex(b, 0.0)))
        assert np.isnan(zeta._rel_err(complex(b, 0.0), complex(a, 0.0)))


class TestSamplePoints:
    def test_deterministic(self):
        assert default_samples() == default_samples()

    def test_within_disk_and_off_poles(self):
        for t in default_samples(count=50, seed=3):
            assert abs(t) <= 0.8
            assert abs(1 - t * t) > 1e-6

    def test_lhs_at_zero_is_one(self):
        g = complete_graph(3)
        w = CoinMap.grover(g)
        s = quaternionic_identity(g, w, [0.0]).samples[0]
        assert s.lhs == pytest.approx(1.0) and s.rhs == pytest.approx(1.0)
