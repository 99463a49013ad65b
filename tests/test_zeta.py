"""Determinant identities: classical, complex-weighted, and quaternionic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk import zeta
from qqwalk.graph import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from qqwalk.linalg import determinant
from qqwalk.quaternion import Quaternion
from qqwalk.walks import (
    CoinMap,
    build_B_and_J0,
    build_Bw,
    build_K_L,
    build_W_Dw,
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


# The arc side's two factorizations: the default threshold, and every arc
# matrix through the sparse LU.
ARC_PATHS = {"dense": zeta.SPARSE_LU_MIN, "sparse": 0}


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

    def test_tree_pole_raises_in_bass_form(self):
        with pytest.raises(ZeroDivisionError):
            ihara_bass(path_graph(3), 1.0)

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

    @pytest.mark.parametrize("bad, arc_path",
                             [(0, "dense"), (2, "dense"),
                              (0, "sparse"), (2, "sparse")],
                             ids=["0", "2", "sparse-0", "sparse-2"])
    def test_non_finite_sample_fails_wherever_it_falls(self, monkeypatch,
                                                       bad, arc_path):
        # Both sides of one sample overflow.  Its rel_err is NaN, which a
        # plain max over the samples kept only when it came first.
        monkeypatch.setattr(zeta, "SPARSE_LU_MIN", ARC_PATHS[arc_path])
        calls = []

        def overflowing(m):
            # Each sample computes the arc side, then the vertex side, in
            # input order.
            calls.append(m)
            if (len(calls) - 1) // 2 == bad:
                return complex(np.inf, 0.0)
            return determinant(m)

        monkeypatch.setattr(zeta, "determinant", overflowing)
        g = complete_graph(4)
        report = weighted_zeta_identity(g, CoinMap.grover(g),
                                        [0.1, 0.2, 0.3], tol=1e-8)
        sample = report.samples[bad]
        assert not np.isfinite(sample.lhs) and not np.isfinite(sample.rhs)
        assert not report.verdict
        assert not np.isfinite(report.max_rel_err)

    @pytest.mark.parametrize("arc_path", ARC_PATHS)
    def test_tiny_determinants_are_compared_relatively(self, monkeypatch,
                                                       arc_path):
        # Near the pole both sides carry (1 - t^2)^(m - n) and are tiny; an
        # error measured against a floor of 1 would pass any two of them.
        monkeypatch.setattr(zeta, "SPARSE_LU_MIN", ARC_PATHS[arc_path])
        g = complete_graph(5)
        grover = CoinMap.grover(g)
        honest = weighted_zeta_identity(g, grover, [0.999], tol=1e-8)
        assert honest.verdict and abs(honest.samples[0].lhs) < 1e-15

        def skewed_W_Dw(graph, weights):
            w, dw = build_W_Dw(graph, weights)
            return w, dw.scale(1.5)

        monkeypatch.setattr(zeta, "build_W_Dw", skewed_W_Dw)
        skewed = weighted_zeta_identity(g, grover, [0.999], tol=1e-8)
        sample = skewed.samples[0]
        assert max(abs(sample.lhs), abs(sample.rhs)) < 1e-10
        assert sample.rel_err > 0.5 and not skewed.verdict

    def test_rejects_quaternionic_weights(self):
        g = complete_graph(3)
        w = CoinMap(g, [Quaternion.J] * g.num_arcs)
        with pytest.raises(ValueError, match="j/k"):
            weighted_zeta_identity(g, w, SAMPLES)

    def test_pole_skipped(self):
        g = complete_graph(3)
        ones = CoinMap(g, [Quaternion.ONE] * g.num_arcs)
        report = weighted_zeta_identity(g, ones, [1.0, 0.5])
        assert report.skipped == [1.0]


class TestQuaternionicIdentity:
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
        # coefficient vectors; degree-complete check of the identity.
        rng = np.random.default_rng(89)
        g = cycle_graph(4)
        w = quaternion_weights(rng, g)
        deg = 2 * g.num_arcs  # 4m
        nodes = [0.6 * np.exp(2j * np.pi * k / (deg + 1))
                 for k in range(deg + 1)]
        report = quaternionic_identity(g, w, nodes, tol=1e-8)
        vandermonde = np.vander(np.array(nodes), deg + 1, increasing=True)
        lhs_coeffs = np.linalg.solve(
            vandermonde, np.array([s.lhs for s in report.samples]))
        rhs_coeffs = np.linalg.solve(
            vandermonde, np.array([s.rhs for s in report.samples]))
        assert np.abs(lhs_coeffs - rhs_coeffs).max() <= 1e-6

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
            return build_K_L(graph, CoinMap(graph, values))

        monkeypatch.setattr(zeta, "build_K_L", corrupted_K_L)
        with pytest.raises(ArithmeticError, match="resolvent"):
            quaternionic_identity(g, w, [0.3])

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


def arc_matrices(g, quat, cplx):
    """The dense X of each identity, as the dense path factors it."""
    b, j0 = build_B_and_J0(g)
    return {"quaternionic": build_Bw(g, quat).transpose().psi() - j0.psi(),
            "weighted": build_Bw(g, cplx).s.T - j0.s,
            "ihara": b.s - j0.s}


def all_identities(g, quat, cplx, ts):
    return {"quaternionic": quaternionic_identity(g, quat, ts),
            "weighted": weighted_zeta_identity(g, cplx, ts),
            "ihara": ihara_identity(g, ts)}


class TestSparseArcSide:
    """From SPARSE_LU_MIN rows up the arc side is a sparse LU of I - t*X;
    it must read what the dense LAPACK factorization reads."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_sparse_path_equals_dense(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        quat, cplx = quaternion_weights(rng, g), complex_weights(rng, g)
        ts = default_samples(4, seed=seed % 1000)
        dense = all_identities(g, quat, cplx, ts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeta, "SPARSE_LU_MIN", 0)
            sparse = all_identities(g, quat, cplx, ts)
        for name, x in arc_matrices(g, quat, cplx).items():
            assert sparse[name].verdict == dense[name].verdict, name
            for sample in sparse[name].samples:
                want = np.linalg.det(np.eye(len(x)) - sample.t * x)
                assert abs(sample.lhs - want) <= 1e-12 * abs(want), name

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    def test_arc_side_is_the_walk_matrix(self, n, extra, seed):
        # The identities factor the entries of build_U and of its psi, and
        # of B - J0: placed densely, the definition's B_w^T - J0 entry for
        # entry, and I - t*X the same array bit for bit.  On the sparse
        # path I - X*t holds exactly the nonzero entries of that array (the
        # operand order of a complex product can move its last bit).
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        quat, cplx = quaternion_weights(rng, g), complex_weights(rng, g)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeta, "_compare",
                       lambda x, *args, **kwargs: seen.append(x))
            all_identities(g, quat, cplx, [0.3])
        t = 0.3 - 0.45j
        factored = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeta, "SPARSE_LU_MIN", 0)
            mp.setattr(zeta, "determinant", factored.append)
            for x in seen:
                zeta._arc_side(zeta._arc_matrix(*x), t)
        for got, sparse, (name, want) in zip(
                seen, factored, arc_matrices(g, quat, cplx).items()):
            rows, cols, values, size = got
            x = np.zeros((size, size), dtype=complex)
            x[rows, cols] = values
            eye = np.eye(len(want))
            assert np.array_equal(x, want), name
            assert (eye - t * x).tobytes() == (eye - t * want).tobytes(), name
            assert np.array_equal(sparse.toarray(), eye - want * t), name
            assert np.count_nonzero(sparse.data) == sparse.nnz == \
                np.count_nonzero(eye - want * t), name

    @pytest.mark.parametrize("rows, sparse", [(255, False), (256, True)])
    def test_threshold(self, monkeypatch, rows, sparse):
        rng = np.random.default_rng(rows)
        x = np.zeros((rows, rows), dtype=complex)
        for _ in range(4):
            cols = rng.permutation(rows)
            x[np.arange(rows), cols] = (rng.uniform(-1, 1, rows)
                                        + 1j * rng.uniform(-1, 1, rows))
        seen = []

        def recording(m):
            seen.append(not isinstance(m, np.ndarray))
            return determinant(m)

        monkeypatch.setattr(zeta, "determinant", recording)
        t = 0.3 - 0.45j
        x_entries = (*np.nonzero(x), x[x != 0], rows)
        lhs = zeta._arc_side(zeta._arc_matrix(*x_entries), t)
        want = np.linalg.det(np.eye(rows) - t * x)
        assert seen == [sparse]
        assert abs(lhs - want) <= 1e-12 * abs(want)

    def test_sparse_resolvent_check_rejects_a_wrong_factor(self,
                                                          monkeypatch):
        # psi(L^T) is CSR on this path; L^T (1.5 K) = 1.5 W^T must still fail.
        def scaled_K_L(graph, weights):
            k, l = build_K_L(graph, weights)
            return k.scale(1.5), l

        monkeypatch.setattr(zeta, "SPARSE_LU_MIN", 0)
        monkeypatch.setattr(zeta, "build_K_L", scaled_K_L)
        g = complete_graph(3)
        with pytest.raises(ArithmeticError, match="resolvent"):
            quaternionic_identity(g, CoinMap.grover(g), [0.3])

    def test_no_arc_sized_dense_array(self, monkeypatch):
        # At m = 245 a dense 4m x 4m complex X is 15.4 MB.  The traced peak
        # outside SuperLU's factorization, with every other array of the
        # identity alive, stays below that, so no such array is made.
        import scipy.sparse.linalg
        factor = scipy.sparse.linalg.splu
        peaks = []

        def untraced(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            try:
                return factor(*args, **kwargs)
            finally:
                tracemalloc.start()

        monkeypatch.setattr(scipy.sparse.linalg, "splu", untraced)
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 110, 0.022)
        w = quaternion_weights(rng, g)
        tracemalloc.start()
        try:
            report = quaternionic_identity(g, w, default_samples(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert g.m == 245 and report.verdict
        assert len(peaks) == 4 and max(peaks) < (4 * g.m) ** 2 * 16


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
