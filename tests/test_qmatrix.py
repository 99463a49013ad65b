"""Quaternionic matrices, the complexification map, and unitarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqwalk.qmatrix import (
    AXIS_TOL,
    QuatMatrix,
    class_reps,
    dedupe_class_reps,
    psi_block,
    psi_blocks,
    psi_homomorphism_check,
    psi_spectrum,
    right_eigenvalues,
)
from qqwalk.quaternion import Quaternion
from qqwalk.spectra import compare_spectra

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K


def random_qmatrix(rng, rows, cols=None):
    cols = rows if cols is None else cols
    s = rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))
    p = rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))
    return QuatMatrix(s, p)


def axis_qmatrix(rng, n, axis, scale=1.0):
    """Entries a + b*u with u = axis/|axis|, a and b of either sign."""
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    a, b = scale * rng.uniform(-1, 1, (2, n, n))
    return QuatMatrix(a + 1j * b * u[0], b * (u[1] - 1j * u[2]))


class TestSymplecticParts:
    def test_complex_matrix_has_zero_perplex(self):
        m = QuatMatrix.from_entries([[Quaternion(1, 1)]])
        s, p = m.s, m.p
        assert s[0, 0] == 1 + 1j and p[0, 0] == 0

    def test_pure_j(self):
        m = QuatMatrix.from_entries([[J]])
        s, p = m.s, m.p
        assert s[0, 0] == 0 and p[0, 0] == 1

    def test_one_minus_j_reconstructs(self):
        m = QuatMatrix.from_entries([[Quaternion(1, 0, -1)]])
        s, p = m.s, m.p
        assert s[0, 0] == 1 and p[0, 0] == -1
        # M = S + j*P entrywise
        rebuilt = Quaternion(s[0, 0].real, s[0, 0].imag) + J * Quaternion(
            p[0, 0].real, p[0, 0].imag)
        assert rebuilt.isclose(m[0, 0])

    def test_decomposition_uniqueness_random(self):
        rng = np.random.default_rng(3)
        m = random_qmatrix(rng, 4)
        s, p = m.s, m.p
        for u in range(4):
            for v in range(4):
                q = m[u, v]
                assert q.simplex == pytest.approx(s[u, v])
                assert q.perplex == pytest.approx(p[u, v])


class TestPsi:
    def test_diag_one_i(self):
        m = QuatMatrix.from_entries([[ONE, Quaternion.ZERO],
                                     [Quaternion.ZERO, I]])
        expected = np.diag([1, 1j, 1, -1j])
        assert np.allclose(m.psi(), expected)

    def test_identity_maps_to_identity(self):
        assert np.allclose(QuatMatrix.identity(5).psi(), np.eye(10))

    def test_mixed_basis_block_matrix(self):
        # [[1, j], [k, i]] complexifies to a 4x4 whose spectrum is the
        # golden-ratio-like quadruple below.
        m = QuatMatrix.from_entries([[ONE, J], [K, I]])
        expected = np.array([
            [1, 0, 0, -1],
            [0, 1j, -1j, 0],
            [0, 1, 1, 0],
            [-1j, 0, 0, -1j],
        ])
        assert np.allclose(m.psi(), expected)

    def test_real_linear(self):
        rng = np.random.default_rng(5)
        m, n = random_qmatrix(rng, 3), random_qmatrix(rng, 3)
        lhs = (m + n).psi()
        assert np.allclose(lhs, m.psi() + n.psi())
        assert np.allclose(m.scale(2.5).psi(), 2.5 * m.psi())

    def test_injective_on_square(self):
        rng = np.random.default_rng(7)
        m = random_qmatrix(rng, 3)
        bumped = QuatMatrix(m.s + np.eye(3) * 1e-6, m.p)
        assert np.abs(m.psi() - bumped.psi()).max() > 0


class TestPsiHomomorphism:
    def test_random_rectangular(self):
        rng = np.random.default_rng(11)
        m = random_qmatrix(rng, 3, 2)
        n = random_qmatrix(rng, 2, 4)
        assert psi_homomorphism_check(m, n)

    def test_identity(self):
        m = QuatMatrix.identity(3)
        assert psi_homomorphism_check(m, m)

    def test_j_times_i_explicit(self):
        # ji = -k; both sides computed by hand.
        mj = QuatMatrix.from_entries([[J]])
        mi = QuatMatrix.from_entries([[I]])
        assert psi_homomorphism_check(mj, mi)
        assert (mj @ mi)[0, 0].isclose(-K)
        assert np.allclose(mj.psi() @ mi.psi(),
                           QuatMatrix.from_entries([[-K]]).psi())

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            psi_homomorphism_check(random_qmatrix(rng, 2, 3),
                                   random_qmatrix(rng, 2, 3))

    def test_many_random_squares(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_qmatrix(rng, 3)
            n = random_qmatrix(rng, 3)
            assert psi_homomorphism_check(m, n)


class TestConjTranspose:
    def test_row_of_imaginaries(self):
        m = QuatMatrix.from_entries([[I, J]])
        star = m.conj_transpose()
        assert star.shape == (2, 1)
        assert star[0, 0].isclose(-I)
        assert star[1, 0].isclose(-J)

    def test_real_symmetric_fixed(self):
        m = QuatMatrix.from_complex(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert m.conj_transpose().isclose(m)

    def test_product_rule(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m = random_qmatrix(rng, 3)
            n = random_qmatrix(rng, 3)
            assert (m @ n).conj_transpose().isclose(
                n.conj_transpose() @ m.conj_transpose(), atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(23)
        m = random_qmatrix(rng, 4)
        assert m.conj_transpose().conj_transpose().isclose(m)

    def test_psi_intertwines_star(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = random_qmatrix(rng, 3)
            assert np.abs(m.conj_transpose().psi()
                          - m.psi().conj().T).max() <= 1e-12


class TestIsUnitary:
    def test_identity(self):
        assert QuatMatrix.identity(4).is_unitary(1e-12)

    def test_diag_j_k(self):
        m = QuatMatrix.from_entries([[J, Quaternion.ZERO],
                                     [Quaternion.ZERO, K]])
        assert m.is_unitary(1e-12)

    def test_grover_matrix_of_triangle(self):
        from qqwalk.graph import complete_graph
        from qqwalk.walks import grover_matrix
        assert grover_matrix(complete_graph(3)).is_unitary(1e-12)

    def test_non_square_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            random_qmatrix(rng, 2, 3).is_unitary(1e-9)

    def test_equivalent_to_complex_unitarity_of_psi(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = random_qmatrix(rng, 3)
            psi_unitary = bool(
                np.abs(m.psi().conj().T @ m.psi() - np.eye(6)).max() <= 1e-9)
            assert m.is_unitary(1e-9) == psi_unitary
        # positive direction: a known unitary
        u = QuatMatrix.from_entries([[J]])
        assert u.is_unitary(1e-12)
        assert np.abs(u.psi().conj().T @ u.psi() - np.eye(2)).max() <= 1e-12


class TestRightEigenvalues:
    def test_diag_one_i(self):
        m = QuatMatrix.from_entries([[ONE, Quaternion.ZERO],
                                     [Quaternion.ZERO, I]])
        vals = right_eigenvalues(m)
        expected = np.array([1, 1, 1j, -1j])
        assert compare_spectra(vals, expected, tol=0.0).max_dist <= 1e-9

    def test_mixed_basis_matrix(self):
        m = QuatMatrix.from_entries([[ONE, J], [K, I]])
        vals = right_eigenvalues(m)
        s3 = np.sqrt(3.0)
        expected = np.array([
            (1 + s3) / 2 + (1 - s3) / 2 * 1j,
            (1 + s3) / 2 - (1 - s3) / 2 * 1j,
            (1 - s3) / 2 + (1 + s3) / 2 * 1j,
            (1 - s3) / 2 - (1 + s3) / 2 * 1j,
        ])
        assert compare_spectra(vals, expected, tol=0.0).max_dist <= 1e-9

    def test_class_reps(self):
        m = QuatMatrix.from_entries([[ONE, Quaternion.ZERO],
                                     [Quaternion.ZERO, I]])
        reps = class_reps(right_eigenvalues(m))
        values = [r for r, _ in reps]
        assert values[0] == pytest.approx(0 + 1j)
        assert values[1] == pytest.approx(1 + 0j)
        assert [mult for _, mult in reps] == [2, 2]

    @pytest.mark.parametrize("kind", ["axis", "real", "complex", "generic"])
    def test_against_psi_spectrum(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(5):
            if kind == "axis":
                m = axis_qmatrix(rng, 6, rng.normal(size=3))
            elif kind == "real":
                m = QuatMatrix.from_complex(rng.uniform(-1, 1, (6, 6)))
            elif kind == "complex":
                m = QuatMatrix.from_complex(random_qmatrix(rng, 6).s)
            else:
                m = random_qmatrix(rng, 6)
            vals = right_eigenvalues(m)
            assert vals.size == 12
            assert compare_spectra(vals, np.conj(vals),
                                   tol=0.0).max_dist == 0.0
            assert compare_spectra(vals, np.linalg.eigvals(m.psi()),
                                   tol=0.0).max_dist <= 1e-12


class TestPsiBlock:
    @staticmethod
    def psi_eigs(m):
        return np.linalg.eigvals(m.psi())

    def test_shared_axis_gives_the_half_sized_block(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = axis_qmatrix(rng, 5, rng.normal(size=3))
            block = psi_block(m)
            assert block.shape == (5, 5) and np.iscomplexobj(block)
            vals = psi_spectrum(np.linalg.eigvals(block), m.rows)
            assert compare_spectra(vals, self.psi_eigs(m),
                                   tol=0.0).max_dist <= 1e-12

    def test_block_entries_are_the_entries_turned_onto_i(self):
        # a + b*u with u = (2j - 2k)/|..| maps to a + b*i, or its conjugate
        # when the axis is taken as -u.
        m = QuatMatrix.from_entries([[Quaternion(1, 0, 2, -2), ONE],
                                     [Quaternion(0, 0, -1, 1), Quaternion(3)]])
        r = np.sqrt(8.0)
        expected = np.array([[1 + r * 1j, 1], [-r / 2 * 1j, 3]])
        block = psi_block(m)
        assert (np.allclose(block, expected, atol=1e-15)
                or np.allclose(block, np.conj(expected), atol=1e-15))

    def test_complex_matrix_gives_itself_up_to_conjugation(self):
        m = random_qmatrix(np.random.default_rng(4), 4)
        m = QuatMatrix.from_complex(m.s)
        block = psi_block(m)
        assert (np.array_equal(block, m.s)
                or np.array_equal(block, np.conj(m.s)))

    def test_real_matrix_stays_real(self):
        s = np.random.default_rng(5).uniform(-1, 1, (4, 4))
        block = psi_block(QuatMatrix.from_complex(s))
        assert block.dtype == float and np.array_equal(block, s)

    def test_generic_matrix_gives_psi(self):
        m = random_qmatrix(np.random.default_rng(6), 4)
        assert np.array_equal(psi_block(m), m.psi())

    def test_empty_matrix(self):
        block = psi_block(QuatMatrix.zeros(0))
        assert block.shape == (0, 0)
        assert psi_spectrum(np.linalg.eigvals(block), 0).size == 0

    @pytest.mark.parametrize("factor, halved", [(0.5, True), (4.0, False)])
    def test_off_axis_part_is_dropped_only_below_the_bound(self, factor,
                                                          halved):
        # One entry moved off the axis by factor * AXIS_TOL * eps * max|entry|.
        rng = np.random.default_rng(7)
        m = axis_qmatrix(rng, 4, (0.0, 1.0, 0.0), scale=10.0)
        big = np.sqrt(np.abs(m.s) ** 2 + np.abs(m.p) ** 2).max()
        p = m.p.copy()
        p[1, 2] -= 1j * factor * AXIS_TOL * np.finfo(float).eps * big
        block = psi_block(QuatMatrix(m.s, p))
        assert block.shape == ((4, 4) if halved else (8, 8))


class TestPsiBlocks:
    """One axis for several matrices: psi_blocks."""

    @staticmethod
    def along(rng, n, u, sign):
        """Entries a + b*u with b of the given sign; the diagonal ones larger."""
        a, b = rng.uniform(-1, 1, (2, n, n))
        b = sign * (np.abs(b) + 3.0 * np.eye(n))
        return QuatMatrix(a + 1j * b * u[0], b * (u[1] - 1j * u[2]))

    def test_axis_is_chosen_for_the_pair(self):
        # X's largest entry points along +u and Y's along -u: one axis turns
        # both onto i, so det(X' + Y') det(conj(X' + Y')) = det psi(X + Y),
        # while the axis taken per matrix conjugates one against the other.
        rng = np.random.default_rng(8)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x, y = self.along(rng, 4, u, 1.0), self.along(rng, 4, u, -2.0)
        bx, by = psi_blocks(x, y)
        assert bx.shape == by.shape == (4, 4)
        exact = np.linalg.det((x + y).psi())
        joint = np.linalg.det(bx + by)
        assert joint * np.conj(joint) == pytest.approx(exact, rel=1e-12)
        alone = np.linalg.det(psi_block(x) + psi_block(y))
        assert abs(alone * np.conj(alone) - exact) > 1e-3 * abs(exact)

    def test_one_similarity_for_all(self):
        # Products too: psi(X @ Y) splits as X' @ Y' and its conjugate.
        rng = np.random.default_rng(9)
        u = rng.normal(size=3)
        x, y = (axis_qmatrix(rng, 5, u) for _ in range(2))
        bx, by = psi_blocks(x, y)
        vals = psi_spectrum(np.linalg.eigvals(bx @ by), 5)
        assert compare_spectra(vals, np.linalg.eigvals((x @ y).psi()),
                               tol=0.0).max_dist <= 1e-12

    def test_real_pair_stays_real(self):
        rng = np.random.default_rng(10)
        s, d = rng.uniform(-1, 1, (2, 4, 4))
        blocks = psi_blocks(QuatMatrix.from_complex(s),
                            QuatMatrix.from_complex(np.diag(np.diag(d))))
        assert [b.dtype for b in blocks] == [np.dtype(float)] * 2
        assert np.array_equal(blocks[0], s)

    def test_pair_off_a_shared_axis_gives_psi_of_each(self):
        # Each matrix shares an axis with itself, not with the other.
        rng = np.random.default_rng(11)
        x = axis_qmatrix(rng, 3, (1.0, 0.0, 0.0))
        y = axis_qmatrix(rng, 3, (0.0, 1.0, 0.0))
        bx, by = psi_blocks(x, y)
        assert np.array_equal(bx, x.psi()) and np.array_equal(by, y.psi())
        assert psi_block(x).shape == psi_block(y).shape == (3, 3)


class TestDedupe:
    def test_equal_values_split_by_sort_order_join(self):
        # Sorted by (re, im), 1 + 1e-12 falls between the two values near
        # 1 + 0.5i; they still form one group.
        groups = dedupe_class_reps([1 + 0.5j, 1 + 1e-12, 1 + 2e-12 + 0.5j])
        assert [size for _, size in groups] == [1, 2]
        assert groups[1][0] == pytest.approx(1 + 0.5j)

    def test_single_linkage_chains(self):
        groups = dedupe_class_reps([0.0, 0.6e-7, 1.2e-7, 5.0], tol=1e-7)
        assert [size for _, size in groups] == [3, 1]

    def test_distance_is_relative_above_tol_over_pair_tol(self):
        # Up to max|value| = tol / PAIR_TOL = 100 the distance is tol.
        assert [s for _, s in dedupe_class_reps([1.0, 1.0 + 1.5e-7, 100.0])] \
            == [1, 1, 1]
        assert [s for _, s in dedupe_class_reps([1.0, 1.0 + 0.5, 1e9])] \
            == [2, 1]
        assert [s for _, s in dedupe_class_reps([1.0, 3.0, 1e9])] \
            == [1, 1, 1]
        assert [s for _, s in class_reps(np.array([3 + 0.5j, 3 - 0.5j,
                                                   1e9]))] == [2, 1]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                              st.integers(1, 4)), max_size=12),
           st.integers(0, 2**32 - 1))
    def test_groups_are_the_separated_clusters(self, centers, seed):
        # Clusters of jittered copies around grid points 1e-3 apart: the
        # groups are the grid points with their total counts, pairwise
        # farther apart than tol.
        tol = 1e-7
        rng = np.random.default_rng(seed)
        counts = {}
        for x, y, size in centers:
            counts[(x, y)] = counts.get((x, y), 0) + size
        values = [complex(x, y) * 1e-3 + complex(*rng.uniform(-1, 1, 2)) * 1e-9
                  for (x, y), size in counts.items() for _ in range(size)]
        groups = dedupe_class_reps(rng.permutation(np.array(values, complex)),
                                   tol=tol)
        assert sorted(size for _, size in groups) == sorted(counts.values())
        means = np.array([mean for mean, _ in groups])
        gaps = np.abs(means[:, None] - means[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.size == 0 or gaps.min() > tol
