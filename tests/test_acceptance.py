"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
"criterion N: PASS/FAIL" line (run pytest with -s or inspect captured
output) in addition to its assertions.
"""

import time

import numpy as np

from qqwalk.graph import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from qqwalk.qmatrix import (
    QuatMatrix,
    class_reps,
    psi_homomorphism_check,
    right_eigenvalues,
)
from qqwalk.quaternion import Quaternion
from qqwalk.spectra import (
    compare_spectra,
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from qqwalk.walks import CoinMap, build_U, quat_cond_check, unitarity_condition
from qqwalk.zeta import default_samples, quaternionic_identity

ONE, I, J, K = Quaternion.ONE, Quaternion.I, Quaternion.J, Quaternion.K
S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


def report(number: int, passed: bool) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'}")
    assert passed


def doubled(values) -> np.ndarray:
    """A walk spectrum together with its conjugate (complexified form)."""
    arr = np.asarray(values, dtype=complex)
    return np.concatenate([arr, np.conj(arr)])


def weighted_star():
    g = star_graph(3)
    w = CoinMap.from_arc_values(g, {0: Quaternion(1, 1),
                                    2: Quaternion(1, 0, -1),
                                    4: Quaternion(2)})
    return g, w


class TestAcceptance:
    def test_criterion_1_triangle_grover_spectrum(self):
        start = time.monotonic()
        g = complete_graph(3)
        got = spectrum_direct(g, CoinMap.grover(g)).psi_spectrum
        expected = doubled([1, 1,
                            (-1 + S3 * 1j) / 2, (-1 + S3 * 1j) / 2,
                            (-1 - S3 * 1j) / 2, (-1 - S3 * 1j) / 2])
        ok = compare_spectra(got, expected, tol=0.0).max_dist <= 1e-9
        ok = ok and (time.monotonic() - start) < 1.0
        report(1, ok)

    def test_criterion_2_star_grover_spectrum(self):
        g = star_graph(3)
        got = spectrum_direct(g, CoinMap.grover(g)).psi_spectrum
        expected = doubled([1j, 1j, -1j, -1j, 1, -1])
        report(2, compare_spectra(got, expected, tol=0.0).max_dist <= 1e-9)

    def test_criterion_3_right_eigenvalue_examples(self):
        m1 = QuatMatrix.from_entries([[ONE, Quaternion.ZERO],
                                      [Quaternion.ZERO, I]])
        got1 = right_eigenvalues(m1)
        ok = compare_spectra(got1, np.array([1, 1, 1j, -1j]),
                             tol=0.0).max_dist <= 1e-9

        m2 = QuatMatrix.from_entries([[ONE, J], [K, I]])
        got2 = right_eigenvalues(m2)
        a, b = (1 + S3) / 2, (1 - S3) / 2
        expected2 = np.array([a + b * 1j, a - b * 1j, b + a * 1j, b - a * 1j])
        ok = ok and compare_spectra(got2, expected2, tol=0.0).max_dist <= 1e-9
        report(3, ok)

    def test_criterion_4_weighted_star_both_routes(self):
        g, w = weighted_star()
        expected = np.array([(1 - 1j) / S2, -(1 - 1j) / S2,
                             (1 - 1j) / S2, -(1 - 1j) / S2,
                             (1 + 1j) / S2, -(1 + 1j) / S2,
                             (1 + 1j) / S2, -(1 + 1j) / S2,
                             1j, 1j, -1j, -1j])
        direct = spectrum_direct(g, w)
        ok = compare_spectra(direct.psi_spectrum, expected,
                             tol=0.0).max_dist <= 1e-7

        reps = sorted((v for v, _ in class_reps(direct.psi_spectrum)),
                      key=lambda z: (z.real, z.imag))
        expected_reps = sorted([1j, (1 + 1j) / S2, -(1 - 1j) / S2],
                               key=lambda z: (z.real, z.imag))
        ok = ok and all(abs(r - e) <= 1e-7
                        for r, e in zip(reps, expected_reps))
        ok = ok and [m for _, m in class_reps(direct.psi_spectrum)] == [4, 4, 4]

        formula = spectrum_theorem_general(g, w)
        ok = ok and compare_spectra(formula.psi_spectrum, expected,
                                    tol=0.0).max_dist <= 1e-7
        ok = ok and formula.cross_check.verdict
        ok = ok and formula.cross_check.max_dist <= 1e-7
        ok = ok and compare_spectra(formula, direct, tol=1e-7).verdict
        report(4, ok)

    def test_criterion_5_determinant_identity_random(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        samples = default_samples(count=8, seed=1)
        ok = True
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 9)))
            w = CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 4))
                            for _ in range(g.num_arcs)])
            rep = quaternionic_identity(g, w, samples, tol=1e-8)
            ok = ok and rep.verdict
        ok = ok and (time.monotonic() - start) < 30.0
        report(5, ok)

    def test_criterion_6_unitarity_equivalence(self):
        rng = np.random.default_rng(777)
        ok = True
        for trial in range(50):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            if trial % 2 == 0:
                # Per-vertex coin on the unitarity locus: q0 in [0, 2/d]
                # and |Im(q)| = sqrt(2 q0/d - q0^2).
                per_vertex = {}
                for u in range(g.n):
                    d = g.degree(u)
                    q0 = rng.uniform(0.0, 2.0 / d)
                    imag = np.sqrt(max(2.0 * q0 / d - q0 * q0, 0.0))
                    axis = rng.normal(size=3)
                    axis /= np.linalg.norm(axis)
                    per_vertex[u] = Quaternion(q0, *(imag * axis))
                coin = CoinMap.from_vertex_values(g, per_vertex)
            else:
                while True:
                    coin = CoinMap(g, [Quaternion(*rng.uniform(-1, 1, 4))
                                       for _ in range(g.num_arcs)])
                    residuals = [
                        abs(coin[e].norm_sq()
                            - 2 * coin[e].x0 / g.degree(g.origin[e]))
                        for e in range(g.num_arcs)]
                    if max(residuals) > 1e-3:
                        break
            ok = ok and (unitarity_condition(g, coin, tol=1e-9)
                         == build_U(g, coin).is_unitary(1e-9))
        report(6, ok)

    def test_criterion_7_column_sum_vs_commutation(self):
        rng = np.random.default_rng(888)
        ok = True
        for trial in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            if trial % 2 == 0:
                coin = CoinMap.from_alpha(g, Quaternion(*rng.uniform(-1, 1, 4)))
            else:
                coin = CoinMap(g, [Quaternion(*q) for q in
                                   rng.uniform(0.2, 1.0, (g.num_arcs, 4))])
            from qqwalk.walks import build_W_Dw
            wq, dwq = build_W_Dw(g, coin)
            wt = wq.transpose()
            comm = (wt @ dwq) - (dwq @ wt)
            commutes = max(np.abs(comm.s).max(initial=0.0),
                           np.abs(comm.p).max(initial=0.0)) <= 1e-9
            ok = ok and quat_cond_check(g, coin, tol=1e-9)[0] == commutes
        report(7, ok)

    def test_criterion_8_grover_mapping_route(self):
        rng = np.random.default_rng(999)
        ok = True
        count = 0
        while count < 10:
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            if g.is_tree:
                continue
            count += 1
            rep = spectrum_grover(g)
            direct = spectrum_direct(g, CoinMap.grover(g))
            ok = ok and compare_spectra(rep.psi_spectrum, direct.psi_spectrum,
                                        tol=0.0).max_dist <= 1e-7
        # Tree protocol: trimmed values are cross-checked, never silently
        # collapsed, and the trim is recorded on the report.
        for tree in (star_graph(3), star_graph(5)):
            rep = spectrum_grover(tree)
            ok = ok and rep.cross_check is not None
            ok = ok and rep.cross_check.verdict
            ok = ok and "tree" in (rep.cross_check.note or "")
            ok = ok and compare_spectra(
                rep, spectrum_direct(tree, CoinMap.grover(tree)),
                tol=1e-7).verdict
        report(8, ok)

    def test_criterion_9_alpha_route_grid(self):
        graphs = [complete_graph(3), cycle_graph(4), star_graph(3),
                  petersen_graph()]
        alphas = [Quaternion(2), Quaternion(1, 1), Quaternion(1, 1, 1, 1),
                  Quaternion(0.5, 0, 0.5)]
        ok = True
        for g in graphs:
            for alpha in alphas:
                rep = spectrum_alpha_coin(g, alpha)
                ok = ok and rep.cross_check.verdict
                ok = ok and rep.cross_check.max_dist <= 1e-7
                ok = ok and compare_spectra(
                    rep, spectrum_direct(g, CoinMap.from_alpha(g, alpha)),
                    tol=1e-7).verdict
        report(9, ok)

    def test_criterion_10_property_suites(self):
        rng = np.random.default_rng(31337)
        ok = True

        # psi is multiplicative on 1000 random pairs.
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            def rand(rows, cols):
                return QuatMatrix(
                    rng.uniform(-1, 1, (rows, cols))
                    + 1j * rng.uniform(-1, 1, (rows, cols)),
                    rng.uniform(-1, 1, (rows, cols))
                    + 1j * rng.uniform(-1, 1, (rows, cols)))
            ok = ok and psi_homomorphism_check(rand(n, n), rand(n, n))

        # Spectra of complexified matrices close under conjugation.
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            m = QuatMatrix(
                rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)),
                rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
            vals = right_eigenvalues(m)
            ok = ok and compare_spectra(vals, np.conj(vals),
                                        tol=0.0).max_dist <= 1e-7

        # Quaternion norm is multiplicative.
        for _ in range(1000):
            p = Quaternion(*rng.uniform(-2, 2, 4))
            q = Quaternion(*rng.uniform(-2, 2, 4))
            ok = ok and abs((p * q).norm() - p.norm() * q.norm()) <= 1e-10

        # Unitary coins give unit-modulus walk spectra.
        for _ in range(1000):
            g = random_connected_graph(rng, int(rng.integers(2, 6)))
            per_vertex = {}
            for u in range(g.n):
                d = g.degree(u)
                q0 = rng.uniform(0.0, 2.0 / d)
                imag = np.sqrt(max(2.0 * q0 / d - q0 * q0, 0.0))
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                per_vertex[u] = Quaternion(q0, *(imag * axis))
            coin = CoinMap.from_vertex_values(g, per_vertex)
            vals = spectrum_direct(g, coin).psi_spectrum
            ok = ok and np.abs(np.abs(vals) - 1.0).max() <= 1e-8

        report(10, ok)
