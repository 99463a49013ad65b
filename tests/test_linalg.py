"""Complex eigensolves, determinants, and joint triangularization."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from qqwalk import linalg
from qqwalk.linalg import (
    NotSimultaneouslyTriangularizableError,
    _cluster_labels,
    _matching,
    determinant,
    eigenvalues,
    pair_conjugates,
    simultaneous_triangularize,
)
from qqwalk.spectra import compare_spectra


def cofactor_determinant(m):
    """Brute-force expansion along the first row; oracle for small matrices."""
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for col in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), col, axis=1)
        total += ((-1) ** col) * m[0, col] * cofactor_determinant(minor)
    return total


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([1, 1j, 1, -1j]))
        assert compare_spectra(vals, np.array([1, 1, 1j, -1j]),
                               tol=1e-12).verdict

    def test_zero_matrix(self):
        vals = eigenvalues(np.zeros((5, 5)))
        assert np.abs(vals).max() == 0.0

    def test_companion_of_golden_ratio_polynomial(self):
        # lambda^2 - lambda - 1: roots from the quadratic formula.
        companion = np.array([[0.0, 1.0], [1.0, 1.0]])
        vals = eigenvalues(companion)
        phi = (1 + np.sqrt(5.0)) / 2
        assert compare_spectra(vals, np.array([phi, 1 - phi]),
                               tol=1e-12).verdict

    def test_sum_and_product_match_trace_and_det(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
            vals = eigenvalues(m)
            assert np.sum(vals) == pytest.approx(np.trace(m),
                                                 rel=1e-8, abs=1e-8)
            assert np.prod(vals) == pytest.approx(
                determinant(m), rel=1e-8, abs=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_real_input_takes_the_real_solver(self, monkeypatch):
        dtypes = []
        eigvals = np.linalg.eigvals

        def recording(m):
            dtypes.append(m.dtype)
            return eigvals(m)
        monkeypatch.setattr(np.linalg, "eigvals", recording)
        m = np.random.default_rng(44).uniform(-1, 1, (6, 6))
        vals = eigenvalues(m)
        eigenvalues(m.astype(complex))
        assert dtypes == [np.dtype(float), np.dtype(complex)]
        assert vals.dtype == complex
        assert compare_spectra(vals, np.conj(vals), tol=0.0).max_dist == 0.0


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(7)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
            oracle = cofactor_determinant(m)
            assert determinant(m) == pytest.approx(oracle, rel=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(np.zeros((2, 3)))


class TestConjugatePairing:
    def test_enforces_exact_pairing(self):
        vals = np.array([1 + 1e-10j + 1j, 1 - 1j + 3e-11, 0.5 + 2e-12j,
                         0.5 - 1e-12j])
        paired = pair_conjugates(vals)
        assert compare_spectra(paired, np.conj(paired),
                               tol=0.0).max_dist == 0.0

    def test_spectra_of_complexified_matrices_pair_up(self):
        from qqwalk.qmatrix import QuatMatrix
        rng = np.random.default_rng(53)
        for _ in range(50):
            s = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            p = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            vals = eigenvalues(QuatMatrix(s, p).psi())
            assert compare_spectra(vals, np.conj(vals),
                                   tol=0.0).max_dist <= 1e-8

    def test_determinant_of_complexification_is_real_nonnegative(self):
        from qqwalk.qmatrix import QuatMatrix
        rng = np.random.default_rng(59)
        for _ in range(50):
            s = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
            p = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
            det = determinant(QuatMatrix(s, p).psi())
            assert abs(det.imag) <= 1e-8
            assert det.real >= -1e-8

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            pair_conjugates(np.array([1j, 2j, 3j]))


def _assignment_pairing(values):
    """Reference pairing: one minimal-cost assignment of all the values to
    their conjugates, each matched pair (a, b) averaged to (c, conj(c))."""
    vals = np.asarray(values, dtype=complex)
    rows, cols = linear_sum_assignment(
        np.abs(vals[:, None] - np.conj(vals)[None, :]))
    out = vals.copy()
    done = np.zeros(vals.size, dtype=bool)
    for a, b in zip(rows, cols):
        if done[a]:
            continue
        if a == b:
            out[a] = vals[a].real
        else:
            out[a] = (vals[a] + np.conj(vals[b])) / 2.0
            out[b] = np.conj(out[a])
        done[a] = done[b] = True
    return np.sort_complex(out)


def _refuse(*args, **kwargs):
    raise AssertionError("linear_sum_assignment called")


def _conjugate_closed(rng):
    """A shuffled conjugate-closed multiset: complex pairs with planted
    exact duplicates, near-real pairs (|im| <= 1e-14), real values of odd
    multiplicity, +-1 padding, and rounding noise on half of the values."""
    upper = rng.uniform(-2, 2, 6) + 1j * rng.uniform(0.05, 2, 6)
    upper = np.concatenate([upper, np.repeat(upper[:2], rng.integers(1, 4, 2))])
    near_real = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-1e-14, 1e-14, 3)
    half = np.concatenate([upper, near_real])
    real = np.repeat(rng.uniform(-2, 2, 2), [3, 1])
    pad = np.repeat([1.0, -1.0], 2 * int(rng.integers(1, 6)))
    vals = np.concatenate([half, np.conj(half), real, pad]).astype(complex)
    noisy = rng.random(vals.size) < 0.5
    vals[noisy] *= 1 + 1e-15 * (rng.standard_normal(noisy.sum())
                                + 1j * rng.standard_normal(noisy.sum()))
    return rng.permutation(vals)


class TestSortBasedPairing:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_the_assignment_without_running_it(self, seed):
        vals = _conjugate_closed(np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.optimize, "linear_sum_assignment", _refuse)
            got = pair_conjugates(vals)
            again = pair_conjugates(got)
        assert np.array_equal(again, got)
        assert compare_spectra(got, np.conj(got), tol=0.0).max_dist == 0.0
        assert compare_spectra(got, _assignment_pairing(vals),
                               tol=0.0).max_dist <= 1e-12

    def test_defective_split_falls_back_to_the_assignment(self):
        # A triple eigenvalue split by 1e-6 around lambda and, rotated,
        # around conj(lambda): no sorted neighbour is within the pairing
        # tolerance, so only those six values are matched by assignment.
        lam = 0.3 + 0.7j
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        split = np.concatenate([lam + 1e-6 * roots,
                                np.conj(lam) + 1e-6 * roots * np.exp(0.4j)])
        vals = np.concatenate([split, [2 + 1j, 2 - 1j, 0.5, 0.5, 1, 1]])
        sizes = []

        def counting(cost):
            sizes.append(cost.shape)
            return linear_sum_assignment(cost)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.optimize, "linear_sum_assignment", counting)
            got = pair_conjugates(vals)
        assert sizes == [(6, 6)]
        assert compare_spectra(got, np.conj(got), tol=0.0).max_dist == 0.0
        assert compare_spectra(got, _assignment_pairing(vals),
                               tol=0.0).max_dist <= 1e-12
        assert np.array_equal(pair_conjugates(got), got)

    def test_non_finite_values_reach_the_assignment(self):
        with pytest.raises(ValueError):
            pair_conjugates(np.array([np.nan, 1.0, 1j, -1j]))


def _exactly_paired(rng):
    """A shuffled spectrum closed under conjugation to the bit: clusters of
    values 1e-12 apart, exact duplicates, near-real, imaginary and real
    values, zero, +-1 padding, and -0.0 imaginary parts from conjugating
    real values."""
    centers = rng.uniform(-2, 2, 3) + 1j * rng.uniform(0.05, 2, 3)
    cluster = (np.repeat(centers, 3) + 1e-12 * (rng.standard_normal(9)
               + 1j * rng.standard_normal(9)))
    upper = np.concatenate([cluster, cluster[:2],
                            rng.uniform(-2, 2, 2)
                            + 1j * rng.uniform(-1e-14, 1e-14, 2),
                            [1j, 0.5j]])
    real = np.concatenate([rng.uniform(-2, 2, 3), [0.0, 1.0, -1.0]])
    half = np.concatenate([upper, real]).astype(complex)
    vals = np.concatenate([half, np.conj(half)])
    return rng.permutation(vals)


class TestExactlyPairedSpectra:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fast_path_is_the_cluster_pairing_to_the_bit(self, seed):
        vals = _exactly_paired(np.random.default_rng(seed))
        assert np.signbit(vals.imag[vals.imag == 0]).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_cluster_labels", _refuse)
            fast = pair_conjugates(vals)
        slow = linalg._pair_by_clusters(vals)
        assert fast.tobytes() == slow.tobytes()
        assert not np.signbit(fast.imag[fast.imag == 0]).any()

    @pytest.mark.parametrize("vals", [
        [1 + 1j, 1 - 1j + 1e-16j, 0.5, 0.5],
        [complex(-0.0, 1.0), complex(-0.0, -1.0), -0.0, 0.0]])
    def test_other_spectra_take_the_clusters(self, vals):
        # Paired only up to rounding, or with a -0.0 real part: the
        # clusters' result, which keeps a -0.0 real part only below the
        # real axis.
        vals = np.array(vals)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_cluster_labels", lambda *args: calls.append(
                args) or _cluster_labels(*args))
            got = pair_conjugates(vals)
        assert len(calls) == 1
        assert got.tobytes() == linalg._pair_by_clusters(vals).tobytes()


class TestMultisetComparison:
    def test_identical(self):
        a = np.array([1, 2, 3 + 1j])
        assert compare_spectra(a, a, tol=0.0).max_dist == 0.0

    def test_permutation_invariant(self):
        a = np.array([1, 2, 3 + 1j])
        assert compare_spectra(a, a[::-1], tol=0.0).max_dist == 0.0

    def test_perturbation_detected(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0 + 1e-3])
        assert compare_spectra(a, b, tol=0.0).max_dist == pytest.approx(1e-3)
        assert not compare_spectra(a, b, tol=1e-7).verdict

    def test_cardinality_mismatch(self):
        a, b = np.array([1.0]), np.array([1.0, 2.0])
        assert compare_spectra(a, b, tol=0.0).max_dist == np.inf
        assert not compare_spectra(a, b).verdict


def _full_matching(a, b):
    """Reference: minimal-cost assignment over all values, its largest
    distance and the pair attaining it."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    i = int(np.argmax(cost[rows, cols]))
    return float(cost[rows[i], cols[i]]), (complex(a[rows[i]]),
                                           complex(b[cols[i]]))


def _spectrum_pair(rng, moved):
    """A spectrum-like multiset (repeats, conjugate pairs, +-1 padding) and
    a shuffled copy with rounding noise and `moved` values moved by 1e-4
    to 1e-1."""
    half = rng.uniform(-2, 2, 8) + 1j * rng.uniform(0, 2, 8)
    a = np.concatenate([half, np.conj(half), np.repeat(half[:2], 2),
                        np.repeat([1.0, -1.0], 3)])
    b = a * (1 + 1e-13 * rng.standard_normal(a.size))
    idx = rng.choice(a.size, moved, replace=False)
    b[idx] += 10.0 ** rng.uniform(-4, -1, moved) * np.exp(
        2j * np.pi * rng.random(moved))
    return a, rng.permutation(b)


class TestSortBasedMatching:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_near_equal_multisets_match_without_the_assignment(self, seed):
        a, b = _spectrum_pair(np.random.default_rng(seed), 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.optimize, "linear_sum_assignment", _refuse)
            dist, _ = _matching(a, b, 1e-9)
            assert compare_spectra(a, a[::-1], tol=0.0).max_dist == 0.0
        assert dist <= 1e-9
        assert dist == pytest.approx(_full_matching(a, b)[0], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_a_failed_match_keeps_the_assignment_worst_pair(self, seed,
                                                            moved):
        a, b = _spectrum_pair(np.random.default_rng(seed), moved)
        assert _matching(a, b, 1e-9) == _full_matching(a, b)
        assert not compare_spectra(a, b, tol=1e-9).verdict

    def test_assignment_sees_only_the_clusters_that_need_it(self):
        # 3 in a against 3 + 1e-3 in b: two singleton clusters, counts
        # uneven, matched by one 1 x 1 assignment; the rest pair by sorting.
        a = np.array([1.0, 2.0, 2.0, 3.0, 1j, -1j])
        b = np.array([-1j, 2.0, 1j, 3.001, 1.0, 2.0 + 1e-12])
        sizes = []

        def counting(cost):
            sizes.append(cost.shape)
            return linear_sum_assignment(cost)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.optimize, "linear_sum_assignment", counting)
            dist, worst = _matching(a, b, 1e-9)
        assert sizes == [(1, 1)]
        assert dist == pytest.approx(1e-3) and worst == (3.0, 3.001)

    def test_a_cluster_that_sorting_pairs_badly_goes_to_the_assignment(self):
        # One cluster at tol = 0.2 (0 - 0.12 - 0.1+0.15i - 0.1+0.3i chain),
        # three of a and three of b; (re, im) order pairs 0 with 0.05+0.3i,
        # 0.30 apart, while the assignment pairs every value within 0.12.
        a = np.array([0.0, 0.1 + 0.3j, 0.1 + 0.15j])
        b = np.array([0.05 + 0.3j, 0.12, 0.1 + 0.15j])
        dist, _ = _matching(a, b, 0.2)
        assert dist == pytest.approx(0.12)
        assert compare_spectra(a, b, tol=0.2).verdict


class TestClusterLabels:
    def test_labels_follow_input_order(self):
        labels = _cluster_labels(
            np.array([1 + 0.5j, 5.0, 1 + 1e-12, 1 + 2e-12 + 0.5j]), 1e-7)
        assert labels[0] == labels[3]
        assert len({labels[0], labels[1], labels[2]}) == 3
        assert sorted(set(labels)) == [0, 1, 2]


def _single_linkage_reference(z, tol):
    """Components of the graph linking every pair within tol, by search."""
    near = np.abs(z[:, None] - z[None, :]) <= tol
    label = np.full(z.size, -1)
    for start in range(z.size):
        if label[start] < 0:
            label[start] = start
            stack = [start]
            while stack:
                i = stack.pop()
                for j in np.nonzero(near[i] & (label < 0))[0]:
                    label[j] = start
                    stack.append(j)
    return label


class TestClusterLabelsAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_exact_duplicates_and_near_values(self, seed):
        rng = np.random.default_rng(seed)
        tol = 1e-8
        base = (rng.uniform(0, 20 * tol, 10)
                + 1j * rng.choice([0.0, 1.0], 10) * rng.uniform(0, 4 * tol, 10))
        z = rng.permutation(np.repeat(base, rng.integers(1, 5, 10)))
        got = _cluster_labels(z, tol)
        ref = _single_linkage_reference(z, tol)
        assert np.array_equal(got[:, None] == got[None, :],
                              ref[:, None] == ref[None, :])
        # Labels count up in the (re, im) order of each cluster's least
        # member.
        firsts = []
        for i in np.lexsort((z.imag, z.real)):
            if got[i] not in firsts:
                firsts.append(got[i])
        assert firsts == list(range(len(firsts)))


def _noncommuting_triangular_pair(n, seed, t1_kind):
    """a = P T1 P^H, b = P T2 P^H with P unitary and T1, T2 upper triangular.

    T1 is nilpotent of index 2 (Jordan blocks of size at most 2, like the
    star's psi(W^T)), has a diagonal drawn from {0, 1} (repeated
    eigenvalues in Jordan blocks) or, for "generic", is Gaussian upper
    triangular like T2, whose random diagonal is distinct.
    """
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    p, _ = np.linalg.qr(gauss(n, n))
    if t1_kind == "nilpotent":
        t1 = np.zeros((n, n), dtype=complex)
        t1[:n // 2, n // 2:] = gauss(n // 2, n - n // 2)
    elif t1_kind == "generic":
        t1 = np.triu(gauss(n, n))
    else:
        t1 = np.triu(gauss(n, n), 1) + np.diag(rng.choice([0.0, 1.0], n))
    t2 = np.triu(gauss(n, n))
    return p @ t1 @ p.conj().T, p @ t2 @ p.conj().T, t1, t2


class TestSimultaneousTriangularization:
    def test_identity_pair(self):
        p, da, db = simultaneous_triangularize(np.eye(3), np.eye(3))
        assert np.allclose(da, 1.0) and np.allclose(db, 1.0)
        assert np.allclose(p.conj().T @ p, np.eye(3))

    def test_commuting_diagonals(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([4.0 + 1j, 5.0, 6.0])
        p, da, db = simultaneous_triangularize(a, b)
        # Diagonals may be consistently permuted.
        pairs = sorted(zip(np.round(da, 8), np.round(db, 8)),
                       key=lambda t: t[0].real)
        assert [x for x, _ in pairs] == pytest.approx([1, 2, 3])
        assert [y for _, y in pairs] == pytest.approx([4 + 1j, 5, 6])

    def test_commuting_random(self):
        rng = np.random.default_rng(61)
        m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
        a = m @ m + 2 * m
        b = 3 * m @ m - m  # polynomials in m commute
        p, da, db = simultaneous_triangularize(a, b)
        ta = p.conj().T @ a @ p
        tb = p.conj().T @ b @ p
        assert np.abs(np.tril(ta, -1)).max() <= 1e-8
        assert np.abs(np.tril(tb, -1)).max() <= 1e-8

    def test_weighted_star_pair_alignment(self):
        # Non-commuting but jointly triangularizable pair from the weighted
        # star walk; aligned diagonal pairs form a known multiset.
        from qqwalk.graph import star_graph
        from qqwalk.quaternion import Quaternion
        from qqwalk.walks import CoinMap, build_W_Dw
        g = star_graph(3)
        w = CoinMap.from_arc_values(g, {0: Quaternion(1, 1),
                                        2: Quaternion(1, 0, -1),
                                        4: Quaternion(2)})
        wq, dwq = build_W_Dw(g, w)
        _, mus, xis = simultaneous_triangularize(wq.transpose().psi(),
                                                 dwq.psi())
        assert np.abs(mus).max() <= 1e-8
        expected_xis = np.array([1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j,
                                 2, 2, 0, 0])
        assert compare_spectra(xis, expected_xis, tol=1e-8).verdict

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_schur_goes_on_to_the_deflation(self, monkeypatch, k):
        # a = Q diag(theta*(1..k), 0) Q^H and b = Q diag(0, 1..k) Q^H
        # commute, but every eigenvalue of a + theta*b is double, so a
        # Schur basis of that one combination would mix each pair.  One
        # deflation triangularizes the pair: its clusters of a split by b.
        runs = _counting_deflations(monkeypatch)
        rng = np.random.default_rng(k)
        q, _ = np.linalg.qr(rng.standard_normal((2 * k, 2 * k))
                            + 1j * rng.standard_normal((2 * k, 2 * k)))
        steps = np.arange(1.0, k + 1)
        t1 = np.diag(np.r_[0.6180339887 * steps, np.zeros(k)])
        t2 = np.diag(np.r_[np.zeros(k), steps])
        a, b = q @ t1 @ q.conj().T, q @ t2 @ q.conj().T
        p, da, db = simultaneous_triangularize(a, b)
        assert len(runs) == 1
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        for x in (a, b):
            assert (np.abs(np.tril(p.conj().T @ x @ p, -1)).max()
                    <= 1e-12 * scale)
        _assert_planted_diagonals(da, db, t1, t2, 1e-12 * scale)

    def test_generic_noncommuting_rejected(self):
        rng = np.random.default_rng(67)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        with pytest.raises(NotSimultaneouslyTriangularizableError):
            simultaneous_triangularize(a, b)

    @pytest.mark.parametrize("scale", [1e8, 1e10])
    def test_tolerances_are_relative_to_the_scale(self, scale):
        # Rounding grows with the entries, so a commuting pair and a jointly
        # triangular non-commuting pair, scaled, still triangularize within
        # 1e-8 of their largest entry, and a generic pair is still refused.
        rng = np.random.default_rng(61)
        m = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
        pairs = [(m @ m + 2 * m, 3 * m @ m - m),
                 _noncommuting_triangular_pair(8, 3, "nilpotent")[:2]]
        for a, b in pairs:
            a, b = scale * a, scale * b
            p, _, _ = simultaneous_triangularize(a, b)
            for x in (a, b):
                lower = np.abs(np.tril(p.conj().T @ x @ p, -1)).max()
                assert lower <= 1e-8 * max(np.abs(a).max(), np.abs(b).max())
        a, b = (scale * rng.uniform(-1, 1, (4, 4)) for _ in range(2))
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match="not nilpotent"):
            simultaneous_triangularize(a, b)

    def test_classes_of_d_align(self):
        # a is block diagonal over the two classes of d, so the pair
        # commutes: the aligned diagonals are each class's eigenvalues of a
        # beside its value of d.
        a = np.zeros((5, 5), dtype=complex)
        a[:2, :2] = [[0, 1], [2, 0]]
        a[2:, 2:] = np.random.default_rng(4).normal(size=(3, 3))
        d = np.array([3.0, 3.0, 1j, 1j, 1j])
        _, mu, xi = simultaneous_triangularize(a, np.diag(d))
        per_class = np.concatenate((np.linalg.eigvals(a[:2, :2]),
                                    np.linalg.eigvals(a[2:, 2:])))
        _assert_planted_diagonals(mu, xi, np.diag(per_class), np.diag(d),
                                  1e-12)

    def test_commute_bound_scales_with_both_matrices(self):
        # The theorem8 pair of a 1e8 alpha coin commutes up to the rounding
        # of its out-sums, about 1e-16 * max|a| * max|b|: the bound follows
        # that product, so theorem8's test that the diagonal b is scalar,
        # which reads the bound, takes the pair.
        from qqwalk.graph import random_connected_graph
        from qqwalk.quaternion import Quaternion
        from qqwalk.spectra import _operand, _vertex_pair
        from qqwalk.walks import CoinMap

        g = random_connected_graph(np.random.default_rng(0), 60, 0.15)
        coin = CoinMap.from_alpha(g, Quaternion(1e8, 1e8, 1e8, 1e8))
        a, b = _vertex_pair(g, _operand(coin)[0])
        assert linalg._scalar_pairs(a, b) is not None

    def test_noncommuting_pair_at_scale_still_deflates(self, monkeypatch):
        a, b, _, _ = _noncommuting_triangular_pair(8, 3, "nilpotent")
        a, b = 1e8 * a, 1e8 * b
        calls = []
        deflate = linalg._deflation_triangularize

        def counting(*args, **kwargs):
            calls.append(1)
            return deflate(*args, **kwargs)
        monkeypatch.setattr(linalg, "_deflation_triangularize", counting)
        simultaneous_triangularize(a, b)
        assert calls == [1]
        rng = np.random.default_rng(5)
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match="not nilpotent"):
            simultaneous_triangularize(
                *(1e8 * rng.uniform(-1, 1, (6, 6)) for _ in range(2)))

    @pytest.mark.parametrize("k", [3, 4])
    def test_directed_cycle_rejected_before_deflation(self, monkeypatch, k):
        # a is a weighted directed k-cycle, as the pair of a walk block
        # whose support runs one way round a cycle, and b is diagonal with
        # distinct values: C = ab - ba is a weighted k-cycle too, so
        # tr(C^j) = 0 for j < k, but C^k is a nonzero multiple of I.
        def entered(*args, **kwargs):
            raise AssertionError("deflation entered on a directed cycle")

        monkeypatch.setattr(linalg, "_deflation_triangularize", entered)
        a = np.roll(np.diag(np.arange(1.0, k + 1)), 1, axis=0)
        b = np.diag(2.0 ** np.arange(k))
        c = a @ b - b @ a
        assert np.trace(c @ c) == 0.0
        with pytest.raises(NotSimultaneouslyTriangularizableError,
                           match=rf"not nilpotent, \|tr\(C\^{k}\)"):
            simultaneous_triangularize(a, b)

    def test_generic_pair_rejected_before_deflation(self, monkeypatch):
        def entered(*args, **kwargs):
            raise AssertionError("deflation entered on a generic pair")

        monkeypatch.setattr(linalg, "_deflation_triangularize", entered)
        rng = np.random.default_rng(71)
        for n in (2, 4, 9, 30):
            a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            with pytest.raises(NotSimultaneouslyTriangularizableError,
                               match=r"\|tr\(C\^2\)\|/\|\|C\|\|_F\^2 = "):
                simultaneous_triangularize(a, b)

    @pytest.mark.parametrize("n, t1_kind", [(24, "generic"),
                                            (24, "repeated"),
                                            (40, "nilpotent")])
    def test_robustness_record(self, n, t1_kind):
        # Seeds 0-4 at the largest size at which every pair of the kind
        # still triangularizes: generic pairs lose 4 of 5 at n = 40,
        # "repeated" ones 3 of 5 at n = 32 and all 5 at n = 40, to
        # ill-conditioned eigenvectors.
        for seed in range(5):
            a, b, t1, t2 = _noncommuting_triangular_pair(n, seed, t1_kind)
            p, da, db = simultaneous_triangularize(a, b)
            scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
            for x in (a, b):
                assert (np.abs(np.tril(p.conj().T @ x @ p, -1)).max()
                        <= 1e-8 * scale)
            _assert_planted_diagonals(da, db, t1, t2, 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(["nilpotent", "repeated"]))
    def test_noncommuting_pairs_with_repeated_eigenvalues(self, n, seed,
                                                          t1_kind):
        # Sizes stop at 12: the eigenvectors of random Gaussian triangular
        # matrices grow exponentially ill-conditioned with n (condition
        # about 2e2 at n = 12, 4e7 at n = 24), beyond what a 1e-8
        # triangularity check can resolve.
        a, b, t1, t2 = _noncommuting_triangular_pair(n, seed, t1_kind)
        assert np.abs(a @ b - b @ a).max() > 1e-9
        p, da, db = simultaneous_triangularize(a, b)
        ta = p.conj().T @ a @ p
        tb = p.conj().T @ b @ p
        assert np.abs(np.tril(ta, -1)).max() <= 1e-8
        assert np.abs(np.tril(tb, -1)).max() <= 1e-8
        # The aligned diagonal pairs are those of (T1, T2) as a multiset:
        # T2's diagonal is distinct, so match on it and compare T1's.
        order = np.argmin(np.abs(db[:, None] - np.diag(t2)[None, :]), axis=1)
        assert sorted(order) == list(range(n))
        assert np.abs(db - np.diag(t2)[order]).max() <= 1e-6
        assert np.abs(da - np.diag(t1)[order]).max() <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_deflation_agrees_with_exact_pairs(self, n, seed):
        # Commuting pairs (p(M), q(M)) with M = P J P^-1, J in Jordan blocks
        # of sizes 1-3, one eigenvalue sometimes shared by two blocks.  A
        # defective eigenvalue splits by about eps^(1/k), evenly about its
        # value, so the aligned pairs are grouped at the exact
        # (p(lambda), q(lambda)): the groups must have the exact
        # multiplicities and means within 1e-12 * scale, their members
        # within 1e-4 * scale.
        import scipy.linalg

        rng = np.random.default_rng(seed)
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(min(rng.integers(1, 4), n - sum(sizes))))
        lam = rng.standard_normal(len(sizes)) + 1j * rng.standard_normal(
            len(sizes))
        if len(sizes) > 1 and rng.random() < 0.5:
            lam[1] = lam[0]
        # M = lambda*I gives a pair of multiples of I, triangular as it is.
        assume(max(sizes) > 1 or np.unique(lam).size > 1)
        m = scipy.linalg.block_diag(*[x * np.eye(k) + np.eye(k, k=1)
                                      for x, k in zip(lam, sizes)])
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = p @ m @ np.linalg.inv(p)
        c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        a, b = (c[i, 0] * np.eye(n) + c[i, 1] * m + c[i, 2] * m @ m
                for i in (0, 1))
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        values, where = np.unique(lam, return_inverse=True)
        counts = np.bincount(where, weights=sizes).astype(int)
        exact = c[:, :1] + c[:, 1:2] * values + c[:, 2:] * values ** 2
        gaps = np.abs(exact[:, :, None] - exact[:, None, :]).sum(axis=0)
        assume(gaps[~np.eye(values.size, dtype=bool)].min(initial=np.inf)
               > 1e-2 * scale)

        _, da, db = simultaneous_triangularize(a, b)
        dist = np.abs(da[:, None] - exact[0]) + np.abs(db[:, None] - exact[1])
        group = np.argmin(dist, axis=1)
        assert dist[np.arange(n), group].max() <= 1e-4 * scale
        assert np.array_equal(np.bincount(group, minlength=values.size),
                              counts)
        means = np.zeros((2, values.size), dtype=complex)
        np.add.at(means, (0, group), da)
        np.add.at(means, (1, group), db)
        assert np.abs(means / counts - exact).max() <= 1e-12 * scale


def _eigen_residuals(a, b, v):
    """Worst eigen-residual ||M v - (v^H M v) v|| over M in (a, b), per
    unit column of v."""
    res = np.zeros(v.shape[1])
    for m in (a, b):
        mv = m @ v
        res = np.maximum(res, np.linalg.norm(
            mv - v * np.sum(v.conj() * mv, axis=0), axis=0))
    return res


def _step_tol(a, b):
    """The clustering tolerance of a deflation step on (a, b)."""
    return 1e-8 * max(np.abs(a).max(), np.abs(b).max(), 1.0) * a.shape[0]


def _recording_steps(monkeypatch):
    """Record (size, vectors found) of every deflation step."""
    steps = []
    joint = linalg._joint_eigenvectors

    def recording(a, b, tol):
        v = joint(a, b, tol)
        steps.append((a.shape[0], v.shape[1]))
        return v
    monkeypatch.setattr(linalg, "_joint_eigenvectors", recording)
    return steps


def _counting_deflations(monkeypatch):
    """Record the basis of every deflation run."""
    runs = []
    deflate = linalg._deflation_triangularize

    def recording(*args, **kwargs):
        runs.append(deflate(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(linalg, "_deflation_triangularize", recording)
    return runs


def _weighted_star(leaves):
    """K_{1,leaves} with seeded random quaternion weights on the leaf ->
    center arcs and zero on the others, the ex5.w pattern."""
    from qqwalk.graph import star_graph
    from qqwalk.quaternion import Quaternion
    from qqwalk.walks import CoinMap
    rng = np.random.default_rng(leaves)
    g = star_graph(leaves)
    return g, CoinMap.from_arc_values(
        g, {2 * i: Quaternion(*rng.uniform(-1, 1, 4)) for i in range(leaves)})


def _star_pair(g, coin):
    """The vertex pair that theorem8 builds for the coin: a star's is the
    whole pair the deflation meets when it is triangularized unsplit."""
    from qqwalk.spectra import _operand, _vertex_pair
    return _vertex_pair(g, _operand(coin)[0])


def _pair_spectrum(g, mus, xis):
    """The walk spectrum read off the aligned diagonals of the coin's
    triangularized vertex pair, as theorem8 reads it."""
    from qqwalk.qmatrix import psi_spectrum
    from qqwalk.spectra import _quadratic_values
    return _quadratic_values(g, psi_spectrum(mus, g.n),
                             psi_spectrum(xis, g.n))


def _ex5_star():
    """K_{1,3} with the weights of the ex5.w fixture."""
    from pathlib import Path

    from qqwalk.graph import load_graph
    from qqwalk.walks import parse_coin_file
    fixtures = Path(linalg.__file__).parent / "fixtures"
    g = load_graph(fixtures / "k13.g")
    return g, parse_coin_file((fixtures / "ex5.w").read_text(), g)


def _counting_svd(monkeypatch):
    """Record the shape of every np.linalg.svd call."""
    shapes = []
    svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def _planted_commuting_tail(seed, lead, ta, tb):
    """a = P T1 P^H, b = P T2 P^H with P unitary and T1, T2 Gaussian upper
    triangular on their first `lead` rows and (ta, tb) below them: the
    trailing block the deflation meets once the leading vectors are split
    off."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    n = lead + ta.shape[0]
    t1, t2 = np.triu(gauss(n, n)), np.triu(gauss(n, n))
    t1[lead:, lead:], t2[lead:, lead:] = ta, tb
    p, _ = np.linalg.qr(gauss(n, n))
    return p @ t1 @ p.conj().T, p @ t2 @ p.conj().T, t1, t2


def _assert_planted_diagonals(da, db, t1, t2, tol):
    """The aligned diagonal pairs (da, db) are those of (T1, T2) as a
    multiset."""
    cost = (np.abs(da[:, None] - np.diag(t1)[None, :])
            + np.abs(db[:, None] - np.diag(t2)[None, :]))
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= tol


class TestClassPairs:
    """A pair (a, b) whose b is scalar within the commute bound takes one
    eigensolve of a (linalg._scalar_pairs); any other b leaves it to the
    triangularization."""

    def test_pair_that_does_not_commute_is_left_alone(self):
        # An entry of a between two values of d: ab != ba.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert linalg._scalar_pairs(a, np.diag([1.0, 2.0])) is None
        assert linalg._scalar_pairs(a, np.diag([1.0, 1.0])) is not None

    def test_close_classes_fail_the_final_check(self):
        # d's two values are 1e-7 apart and the coupling 1e-3 between them
        # commutes within 1e-9, but a's eigenvectors mix the two values, so
        # a's eigenvalues beside d's entries would be off by 5e-8, beyond
        # rounding: b is not scalar.
        a = np.array([[0.0, 1e-3], [1e-3, 0.0]])
        b = np.diag([1.0, 1.0 + 1e-7])
        assert np.abs(a @ b - b @ a).max() <= linalg.COMMUTE_TOL
        assert linalg._scalar_pairs(a, b) is None


class TestBlockDeflation:
    @pytest.mark.parametrize("leaves", [24, 32])
    def test_weighted_stars_split_off_in_few_steps(self, monkeypatch,
                                                   leaves):
        # theorem8 splits a star into one-vertex blocks; its whole pair is
        # triangularized here as one.
        from qqwalk.walks import build_U
        g, coin = _weighted_star(leaves)
        a, b = _star_pair(g, coin)
        steps = _recording_steps(monkeypatch)
        _, mus, xis = simultaneous_triangularize(a, b)
        assert 1 <= len(steps) <= 3, steps
        assert compare_spectra(
            _pair_spectrum(g, mus, xis),
            np.linalg.eigvals(build_U(g, coin).psi()),
            tol=0.0).max_dist <= 1e-9
        # The first step's vectors are joint eigenvectors within the step's
        # tolerance, each at least half outside the span of those before.
        v = linalg._joint_eigenvectors(a, b, _step_tol(a, b))
        assert v.shape[1] > 1
        assert _eigen_residuals(a, b, v).max() <= _step_tol(a, b)
        r = np.linalg.qr(v, mode="r")
        assert np.abs(np.diag(r)).min() >= linalg._INDEPENDENCE_FLOOR

    def test_nearly_parallel_candidates_give_one_vector(self):
        # A generic triangular pair has one joint eigenvector, which both
        # matrices offer: two candidates pass the residual test, parallel
        # up to rounding, and only one of them may be split off.
        a, b, _, _ = _noncommuting_triangular_pair(5, 7, "generic")
        tol = _step_tol(a, b)
        cands = np.hstack([linalg._eigen_candidates(a, b, tol),
                           linalg._eigen_candidates(b, a, tol)])
        passing = cands[:, _eigen_residuals(a, b, cands) <= tol]
        assert passing.shape[1] == 2
        assert abs(np.vdot(passing[:, 0], passing[:, 1])) > 1 - 1e-12
        v = linalg._joint_eigenvectors(a, b, tol)
        assert v.shape[1] == 1
        assert abs(np.vdot(v[:, 0], passing[:, 0])) > 1 - 1e-12

    def test_prefix_check_trims_a_near_eigenvector(self, monkeypatch):
        # Upper triangular pair with one joint eigenvector e1; at size 3 the
        # step tolerance is 3e-8.  u = (e1 + e3)/sqrt(2) is an exact
        # eigenvector of b, and a maps e3 to c*e2 with c = 3e-8, so u's
        # residual for a, c/sqrt(2), is within 3e-8: the step takes two
        # vectors, e1 and a near-eigenvector about u (a's cluster at 0 offers
        # the best one).  Orthogonal to e1 it leaves about e3, whose column
        # of q^H a q holds about c/2 below the diagonal, above the final
        # bound 1e-8: the step keeps e1 alone and the next one splits off e2.
        c = 3e-8
        a = np.array([[0, 0.5, 0], [0, 0.5, c], [0, 0, 0]], dtype=complex)
        b = np.array([[0, 0.3, 0.75], [0, 0.25, 0], [0, 0, 0.75]],
                     dtype=complex)
        u = np.array([1, 0, 1]) / np.sqrt(2)
        cands = linalg._eigen_candidates(b, a, _step_tol(a, b))
        assert max(abs(np.vdot(u, cands[:, j])) for j in range(3)) > 1 - 1e-12
        assert 1e-8 < _eigen_residuals(a, b, u[:, None])[0] <= 3e-8
        steps = _recording_steps(monkeypatch)
        p, da, db = simultaneous_triangularize(a, b)
        assert steps == [(3, 2), (2, 1)]
        assert np.abs(np.tril(p.conj().T @ a @ p, -1)).max() <= 1e-8
        assert np.abs(da - [0, 0.5, 0]).max() <= 1e-12
        assert np.abs(db - [0, 0.25, 0.75]).max() <= 1e-12

    @pytest.mark.parametrize("leaves", [24, 32])
    def test_weighted_star_finishes_after_one_step(self, monkeypatch,
                                                   leaves):
        # The star's first step splits off its joint eigenvectors and leaves
        # a commuting pair (its a is 0), which the next step splits off
        # whole.
        from qqwalk.walks import build_U
        g, coin = _weighted_star(leaves)
        a, b = _star_pair(g, coin)
        steps = _recording_steps(monkeypatch)
        p, mus, xis = simultaneous_triangularize(a, b)
        size = 2 * leaves + 2
        assert len(steps) == 2 and steps[0][0] == size
        assert steps[1] == (size - steps[0][1], size - steps[0][1])
        for x in (a, b):
            assert np.abs(np.tril(p.conj().T @ x @ p, -1)).max() <= 1e-8
        assert compare_spectra(
            _pair_spectrum(g, mus, xis),
            np.linalg.eigvals(build_U(g, coin).psi()),
            tol=0.0).max_dist <= 1e-9

    def test_weighted_star_takes_one_full_eigendecomposition(self,
                                                            monkeypatch):
        # Each step takes one full eigendecomposition of each matrix, and
        # one small eig per cluster of repeated eigenvalues that does not
        # span the whole space: at the first step a's 48 eigenvalues at 0
        # and b's pair.  At the second a is 0, one cluster over the whole
        # space, whose compression would be b solved a second time.
        from qqwalk.walks import build_W_Dw
        w, dw = build_W_Dw(*_weighted_star(24))
        a, b = w.transpose().psi(), dw.psi()
        sizes = []
        eig = np.linalg.eig

        def recording(m):
            sizes.append(m.shape[0])
            return eig(m)
        monkeypatch.setattr(np.linalg, "eig", recording)
        steps = _recording_steps(monkeypatch)
        p, _, _ = simultaneous_triangularize(a, b)
        assert steps == [(50, 2), (48, 48)]
        assert sizes == [50, 48, 50, 2, 48, 48]
        for x in (a, b):
            assert np.abs(np.tril(p.conj().T @ x @ p, -1)).max() <= 1e-8

    @pytest.mark.parametrize("leaves", [24, 32])
    def test_scaled_star_takes_the_same_steps(self, monkeypatch, leaves):
        # Scaled by 1e4, the star splits off as it does unscaled: the step
        # tolerance and the prefix bound grow with the scale.
        from qqwalk.walks import build_W_Dw
        w, dw = build_W_Dw(*_weighted_star(leaves))
        steps = _recording_steps(monkeypatch)
        simultaneous_triangularize(w.transpose().psi(), dw.psi())
        unscaled = list(steps)
        steps.clear()
        a, b = 1e4 * w.transpose().psi(), 1e4 * dw.psi()
        p, _, _ = simultaneous_triangularize(a, b)
        assert steps == unscaled and len(steps) == 2
        for x in (a, b):
            assert (np.abs(np.tril(p.conj().T @ x @ p, -1)).max()
                    <= 1e-8 * max(np.abs(a).max(), np.abs(b).max()))

    def test_jordan_tail_takes_the_svd_basis(self, monkeypatch):
        # The trailing pair commutes, but a and b = 2a + a^2 have a Jordan
        # block there: the eigenvectors from eig are parallel to rounding,
        # so at both steps that meet it, at sizes 4 and 3, the cluster's
        # basis comes from the SVD of m - lambda*I.
        ta = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=complex)
        a, b, t1, t2 = _planted_commuting_tail(1, 1, ta, 2 * ta + ta @ ta)
        steps = _recording_steps(monkeypatch)
        svds = _counting_svd(monkeypatch)
        p, da, db = simultaneous_triangularize(a, b)
        assert (3, 2) in steps
        assert (4, 4) in svds and (3, 3) in svds
        for x in (a, b):
            assert np.abs(np.tril(p.conj().T @ x @ p, -1)).max() <= 1e-8
        _assert_planted_diagonals(da, db, t1, t2, 1e-8)

    def test_steps_meet_a_pair_whose_x_is_ill_conditioned(self, monkeypatch):
        # The trailing pair commutes within the 1e-9 bound (3e-10) but not
        # exactly: b couples a's eigenvectors by 3e-7, and x = a + theta*b
        # has eigenvalues only 4e-7 apart, so the eigenbasis of x is
        # ill-conditioned and turned far from a's; in it q^H a q would keep
        # about 5e-4 below the diagonal, above the caller's 1e-6.  The steps
        # take a's own eigenvectors, one joint eigenvector at a time.
        theta = 0.6180339887
        ta = np.diag([1e-3, 0.0]).astype(complex)
        tb = np.array([[-(1e-3 - 1e-7) / theta, 3e-7], [3e-7, 0.0]],
                      dtype=complex)
        assert np.abs(ta @ tb - tb @ ta).max() <= 1e-9
        a, b, t1, t2 = _planted_commuting_tail(2, 1, ta, tb)
        steps = _recording_steps(monkeypatch)
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-6)
        p, da, db = simultaneous_triangularize(a, b)
        assert steps == [(3, 1), (2, 1)]
        for x in (a, b):
            assert np.abs(np.tril(p.conj().T @ x @ p, -1)).max() <= 1e-6
        _assert_planted_diagonals(da, db, t1, t2, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_planted_diagonals_with_a_commuting_tail(self, lead, tail, seed):
        # The tail (A, c0 + c1 A + c2 A^2) commutes; the leading rows and the
        # coupling do not.  The steps split off the leading rows and then
        # the tail.
        rng = np.random.default_rng(seed)
        ta = np.triu(rng.standard_normal((tail, tail))
                     + 1j * rng.standard_normal((tail, tail)))
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        tb = c[0] * np.eye(tail) + c[1] * ta + c[2] * ta @ ta
        a, b, t1, t2 = _planted_commuting_tail(seed, lead, ta, tb)
        assert np.abs(a @ b - b @ a).max() > 1e-9
        p, da, db = simultaneous_triangularize(a, b)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        for x in (a, b):
            assert (np.abs(np.tril(p.conj().T @ x @ p, -1)).max()
                    <= 1e-8 * scale)
        _assert_planted_diagonals(da, db, t1, t2, 1e-6 * scale)

    def test_repeated_pair_takes_one_deflation(self, monkeypatch):
        # a has the repeated eigenvalues 0 and 1 in Jordan blocks; the one
        # deflation, on candidates from a and from b, recovers the planted
        # diagonals.
        a, b, t1, t2 = _noncommuting_triangular_pair(24, 0, "repeated")
        runs = _counting_deflations(monkeypatch)
        p, da, db = simultaneous_triangularize(a, b)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        assert len(runs) == 1
        for x in (a, b):
            assert (np.abs(np.tril(p.conj().T @ x @ p, -1)).max()
                    <= 1e-8 * scale)
        _assert_planted_diagonals(da, db, t1, t2, 1e-6)

    @pytest.mark.parametrize("star", ["ex5.w", 24, 32])
    def test_star_pairs_deflate_to_a_certified_spectrum(self, monkeypatch,
                                                        star):
        # The whole pair of a star, triangularized unsplit, deflates to
        # aligned diagonals whose walk spectrum the certificate accepts.
        from qqwalk.spectra import _certificate

        g, coin = _ex5_star() if star == "ex5.w" else _weighted_star(star)
        pair = _star_pair(g, coin)
        steps = _recording_steps(monkeypatch)
        _, mus, xis = simultaneous_triangularize(*pair)
        assert steps
        assert _certificate(g, coin, _pair_spectrum(g, mus, xis)).verdict

    def test_cluster_wider_than_tol_takes_the_svd(self, monkeypatch):
        # Single linkage chains the eigenvalues 0, 0.9, 1.8 and 2.7 (times
        # tol) into one cluster, whose outer eigenvectors leave residuals of
        # 1.35 * tol against the mean: the basis is the SVD's near-nullspace
        # of x - mean*I, the two middle eigenvectors.  The two single
        # eigenvalues offer their eigenvectors first.
        tol = 1e-8
        x = np.diag(np.r_[tol * np.array([0.0, 0.9, 1.8, 2.7]), 1.0, 2.0])
        y = np.random.default_rng(3).standard_normal((6, 6))
        assert list(linalg._cluster_labels(np.diag(x), tol)) == [
            0, 0, 0, 0, 1, 2]
        svds = _counting_svd(monkeypatch)
        cands = linalg._eigen_candidates(x.astype(complex), y.astype(complex),
                                         tol)
        assert svds == [(6, 6)]
        assert cands.shape == (6, 4)
        assert np.abs(cands[[0, 3, 4, 5]][:, 2:]).max() <= 1e-12
