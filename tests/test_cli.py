"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qqwalk import cli
from qqwalk.cli import main
from qqwalk.graph import random_connected_graph

K3 = "3 3\n0 1\n1 2\n2 0\n"
STAR = "4 3\n3 0\n3 1\n3 2\n"
WEIGHTS = "a 0 1+i\na 2 1-j\na 4 2\n"
STAR_LEAF_FIRST = "4 3\n0 3\n1 3\n2 3\n"


@pytest.fixture
def k3_path(tmp_path):
    p = tmp_path / "k3.g"
    p.write_text(K3)
    return str(p)


@pytest.fixture
def star_path(tmp_path):
    p = tmp_path / "star.g"
    p.write_text(STAR_LEAF_FIRST)
    return str(p)


@pytest.fixture
def weights_path(tmp_path):
    p = tmp_path / "w.w"
    p.write_text(WEIGHTS)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_grover_direct_json(self, capsys, k3_path):
        code, out, _ = run(capsys, "spectrum", "--graph", k3_path, "--grover")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "direct"
        assert sum(e["mult"] for e in payload["psi_spectrum"]) == 12
        reps = {(round(e["re"], 6), round(e["im"], 6))
                for e in payload["class_reps"]}
        assert (1.0, 0.0) in reps

    def test_formula_route(self, capsys, star_path, weights_path):
        code, out, _ = run(capsys, "spectrum", "--graph", star_path,
                           "--coin", weights_path, "--method", "theorem8")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "theorem8"
        assert payload["cross_check"]["verdict"] is True

    def test_alpha_route(self, capsys, k3_path):
        code, out, _ = run(capsys, "spectrum", "--graph", k3_path,
                           "--alpha", "1+i+j+k", "--method", "theorem10")
        assert code == 0
        assert json.loads(out)["cross_check"]["verdict"] is True

    def test_alpha_route_rejects_nonconstant_coin(self, capsys, star_path,
                                                  weights_path):
        code, _, err = run(capsys, "spectrum", "--graph", star_path,
                           "--coin", weights_path, "--method", "theorem10")
        assert code == 2
        assert "vertex-independent" in err

    def test_alpha_route_rejects_an_uneven_split(self, capsys, tmp_path):
        # Every vertex's outgoing sum is the same alpha, but split over its
        # arcs in shares 1 : 2 : ... : d, not alpha/d each: the route would
        # certify the spectrum of the even split, not of this coin.
        from qqwalk.walks import parse_coin_file, quat_cond_check
        g = random_connected_graph(np.random.default_rng(5), 8, 0.4)
        assert g.m == 17
        graph = tmp_path / "g.g"
        graph.write_text(f"{g.n} {g.m}\n"
                         + "".join(f"{u} {v}\n" for u, v in g.edges))
        share = np.zeros(g.num_arcs)
        for v in range(g.n):
            arcs = np.nonzero(g.origin == v)[0]
            share[arcs] = np.arange(1, arcs.size + 1) / arcs.size / (
                (arcs.size + 1) / 2)
        coin = tmp_path / "uneven.w"
        coin.write_text("".join(
            f"a {e} {0.7 * c:.17g}{0.2 * c:+.17g}i{-0.3 * c:+.17g}j"
            f"{0.1 * c:+.17g}k\n" for e, c in enumerate(share)))
        assert quat_cond_check(g, parse_coin_file(coin.read_text(), g))[0]
        code, out, err = run(capsys, "spectrum", "--graph", str(graph),
                             "--coin", str(coin), "--method", "theorem10")
        assert code == 2 and out == ""
        assert "alpha/deg(o(e)) on every arc" in err

    @staticmethod
    def rnd40(tmp_path):
        g = random_connected_graph(np.random.default_rng(3), 40, 0.1)
        graph = tmp_path / "rnd40.g"
        graph.write_text(f"{g.n} {g.m}\n"
                         + "".join(f"{u} {v}\n" for u, v in g.edges))
        return g, str(graph)

    def test_alpha_coin_check_is_relative(self, capsys, tmp_path):
        # Out-sums of size 2e8 round far above the absolute 1e-9.
        _, graph = self.rnd40(tmp_path)
        code, out, err = run(capsys, "spectrum", "--graph", graph,
                             "--alpha=1e8+1e8i+1e8j+1e8k",
                             "--method", "theorem10")
        assert code == 0, err
        assert json.loads(out)["cross_check"]["verdict"] is True

    def test_alpha_coin_check_refuses_a_small_uneven_split_at_scale(
            self, capsys, tmp_path):
        # The even split of alpha = 1e8(1+i+j+k), with 1e-6*|alpha| moved
        # between two arcs of one vertex: every out-sum stays alpha, and the
        # split is uneven by far more than tol * |alpha| = 0.2.
        g, graph = self.rnd40(tmp_path)
        share = 1.0 / g.degrees[g.origin]
        first, second = np.nonzero(g.origin == g.origin[0])[0][:2]
        share[first] += 1e-6
        share[second] -= 1e-6
        coin = tmp_path / "split.w"

        def route():
            coin.write_text("".join(f"a {e} {1e8 * c:.17g}{1e8 * c:+.17g}i"
                                    f"{1e8 * c:+.17g}j{1e8 * c:+.17g}k\n"
                                    for e, c in enumerate(share)))
            return run(capsys, "spectrum", "--graph", graph, "--coin",
                       str(coin), "--method", "theorem10")

        code, out, err = route()
        assert code == 2 and out == ""
        assert "alpha/deg(o(e)) on every arc" in err
        # Split evenly, the same coin passes.
        share[[first, second]] = 1.0 / g.degrees[g.origin[0]]
        code, _, err = route()
        assert code == 0, err

    @pytest.mark.parametrize("method", ["direct", "theorem8"])
    def test_tol_is_read_only_by_the_theorem10_check(self, capsys, k3_path,
                                                     method):
        outs = {run(capsys, "spectrum", "--graph", k3_path, "--grover",
                    "--method", method, "--tol", tol)[1]
                for tol in ("1e-30", "0.5")}
        assert len(outs) == 1 and outs != {""}

    def test_coin_options_are_exclusive(self, capsys, k3_path):
        code, _, err = run(capsys, "spectrum", "--graph", k3_path,
                           "--grover", "--alpha", "2")
        assert code == 2
        assert "exactly one" in err

    def test_deterministic_output(self, capsys, k3_path):
        _, first, _ = run(capsys, "spectrum", "--graph", k3_path, "--grover")
        _, second, _ = run(capsys, "spectrum", "--graph", k3_path, "--grover")
        assert first == second

    def test_csv_output(self, capsys, k3_path):
        code, out, _ = run(capsys, "spectrum", "--graph", k3_path,
                           "--grover", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,mult,method"
        assert all(line.endswith(",direct") for line in lines[1:])


class TestGroverSubcommand:
    def test_triangle(self, capsys, k3_path):
        code, out, _ = run(capsys, "grover", "--graph", k3_path)
        assert code == 0
        assert json.loads(out)["method"] == "grover"

    def test_tree_note(self, capsys, star_path):
        code, out, _ = run(capsys, "grover", "--graph", star_path)
        assert code == 0
        assert "tree" in json.loads(out)["cross_check"]["note"]


    def test_edgeless_graph(self, capsys, tmp_path):
        one = tmp_path / "one.g"
        one.write_text("1 0\n")
        for argv in (["grover"],
                     ["spectrum", "--grover", "--method", "theorem10"]):
            code, out, err = run(capsys, *argv, "--graph", str(one))
            assert code == 0, err
            payload = json.loads(out)
            assert payload["psi_spectrum"] == []
            assert payload["cross_check"]["verdict"] is True


class TestUnitarity:
    def test_grover_unitary(self, capsys, k3_path):
        code, out, _ = run(capsys, "unitarity", "--graph", k3_path, "--grover")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"agree": True, "condition_holds": True,
                           "matrix_unitary": True}

    def test_non_unitary_coin_exits_one(self, capsys, k3_path, tmp_path):
        coin = tmp_path / "bad.w"
        coin.write_text("v 0 0.3\nv 1 0.3\nv 2 0.3\n")
        code, out, _ = run(capsys, "unitarity", "--graph", k3_path,
                           "--coin", str(coin))
        assert code == 1
        payload = json.loads(out)
        assert payload["condition_holds"] is False
        assert payload["agree"] is True


class TestZeta:
    def test_ihara(self, capsys, k3_path):
        code, out, _ = run(capsys, "zeta-ihara", "--graph", k3_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert len(payload["samples"]) == 8

    def test_weighted(self, capsys, k3_path, tmp_path):
        coin = tmp_path / "c.w"
        coin.write_text("v 0 1+2i\nv 1 -0.5i\nv 2 3\n")
        code, out, _ = run(capsys, "zeta-weighted", "--graph", k3_path,
                           "--coin", str(coin))
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_weighted_rejects_quaternionic(self, capsys, star_path,
                                           weights_path):
        code, _, err = run(capsys, "zeta-weighted", "--graph", star_path,
                           "--coin", weights_path)
        assert code == 2
        assert "zeta-quat" in err

    def test_quaternionic(self, capsys, star_path, weights_path):
        code, out, _ = run(capsys, "zeta-quat", "--graph", star_path,
                           "--coin", weights_path)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_overflowed_sides_print_as_strict_json(self, capsys, tmp_path):
        # At alpha = 1e8(1+i+j+k) on m = 61 edges both sides of every sample
        # overflow a double, and a rel_err near 1e-7 misses the default
        # tolerance: the exit code says so, and the output still parses as
        # strict JSON, the overflowed values as null.
        g = random_connected_graph(np.random.default_rng(2), 30, 0.08)
        assert g.m == 61
        graph = tmp_path / "g.g"
        graph.write_text(f"{g.n} {g.m}\n"
                         + "".join(f"{u} {v}\n" for u, v in g.edges))

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        code, out, _ = run(capsys, "zeta-quat", "--graph", str(graph),
                           "--alpha=1e8+1e8i+1e8j+1e8k")
        assert code == 1
        payload = json.loads(out, parse_constant=reject)
        assert payload["verdict"] is False
        assert any(None in (s["lhs"]["re"], s["rhs"]["re"])
                   for s in payload["samples"])

    def test_csv_samples(self, capsys, k3_path):
        code, out, _ = run(capsys, "zeta-ihara", "--graph", k3_path,
                           "--output", "csv", "--samples", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t_re,t_im,lhs_re")
        assert len(lines) == 4


class TestErrorsAndEnvironment:
    def test_missing_graph_file(self, capsys):
        code, _, err = run(capsys, "zeta-ihara", "--graph", "/no/such/file")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_graph(self, capsys, tmp_path):
        p = tmp_path / "bad.g"
        p.write_text("2 1\n0 0\n")
        code, _, err = run(capsys, "zeta-ihara", "--graph", str(p))
        assert code == 2
        assert "loop" in err

    def test_bad_alpha_literal(self, capsys, k3_path):
        code, _, err = run(capsys, "spectrum", "--graph", k3_path,
                           "--alpha", "1+q")
        assert code == 2

    def test_non_finite_alpha_is_an_input_error(self, capsys, k3_path):
        code, out, err = run(capsys, "spectrum", "--graph", k3_path,
                             "--alpha", "1e400")
        assert code == 2 and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("count", ["-1", "0"])
    @pytest.mark.parametrize("coin", [(), ("--grover",)])
    def test_samples_below_one_rejected(self, capsys, k3_path, count, coin):
        sub = "zeta-quat" if coin else "zeta-ihara"
        code, out, err = run(capsys, sub, "--graph", k3_path, *coin,
                             "--samples", count)
        assert code == 2 and out == ""
        assert "--samples" in err

    @pytest.mark.parametrize("argv", [
        ("zeta-ihara",), ("zeta-weighted", "--grover"),
        ("zeta-quat", "--grover"), ("selftest",)])
    def test_negative_seed_rejected(self, capsys, k3_path, argv):
        graph = () if argv[0] == "selftest" else ("--graph", k3_path)
        code, out, err = run(capsys, *argv, *graph, "--seed", "-1")
        assert code == 2 and out == ""
        assert "--seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_option_rejected(self, capsys, k3_path, value):
        for argv in (("unitarity", "--grover"),
                     ("spectrum", "--grover", "--method", "theorem10")):
            code, out, err = run(capsys, argv[0], "--graph", k3_path,
                                 *argv[1:], f"--tol={value}")
            assert code == 2 and out == ""
            assert "--tol must be finite and >= 0" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    def test_bad_tol_env_rejected(self, capsys, k3_path, monkeypatch, value):
        monkeypatch.setenv("QQWALK_TOL", value)
        code, out, err = run(capsys, "unitarity", "--graph", k3_path,
                             "--grover")
        assert code == 2 and out == ""
        assert "QQWALK_TOL must be finite and >= 0" in err

    def test_zero_tol_accepted(self, capsys, k3_path, monkeypatch):
        assert run(capsys, "unitarity", "--graph", k3_path, "--grover",
                   "--tol", "0")[0] == 0
        monkeypatch.setenv("QQWALK_TOL", "0")
        assert run(capsys, "unitarity", "--graph", k3_path, "--grover")[0] == 0

    def test_tol_env_override(self, capsys, k3_path, monkeypatch):
        monkeypatch.setenv("QQWALK_TOL", "not-a-number")
        code, _, err = run(capsys, "unitarity", "--graph", k3_path, "--grover")
        assert code == 2
        assert "QQWALK_TOL" in err
        monkeypatch.setenv("QQWALK_TOL", "1e-6")
        code, _, _ = run(capsys, "unitarity", "--graph", k3_path, "--grover")
        assert code == 0

    def test_tol_env_ignored_without_tol_option(self, capsys, k3_path,
                                                monkeypatch):
        monkeypatch.setenv("QQWALK_TOL", "junk")
        assert run(capsys, "grover", "--graph", k3_path)[0] == 0
        assert run(capsys, "selftest")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--grover", "--seed", "1"),
        ("spectrum", "--grover", "--samples", "3"),
        ("unitarity", "--grover", "--seed", "1"),
        ("unitarity", "--grover", "--samples", "3"),
        ("grover", "--seed", "1"),
        ("grover", "--samples", "3"),
        ("grover", "--tol", "1e-9"),
        ("selftest", "--tol", "1e-9"),
        ("selftest", "--output", "csv"),
    ])
    def test_unread_options_rejected(self, capsys, k3_path, argv):
        graph = () if argv[0] == "selftest" else ("--graph", k3_path)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *graph, *argv[1:]])
        assert exc.value.code == 2

    def test_explicit_tol_beats_env(self, capsys, k3_path, monkeypatch):
        monkeypatch.setenv("QQWALK_TOL", "garbage")
        code, _, _ = run(capsys, "unitarity", "--graph", k3_path, "--grover",
                         "--tol", "1e-9")
        assert code == 0


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "all checks passed"
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert len(lines) == 7

    def test_formula_agreement_compares_with_direct(self, capsys,
                                                    monkeypatch):
        # A theorem8 report whose certificate passes but whose values are
        # off must still fail the agreement check.
        honest = cli.spectrum_theorem_general

        def shifted(graph, coin):
            report = honest(graph, coin)
            report.psi_spectrum = report.psi_spectrum + 1e-3
            return report

        monkeypatch.setattr(cli, "spectrum_theorem_general", shifted)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL  star-weighted-formula-agreement" in out.splitlines()

    def test_seed_option(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "12345")
        assert code == 0
        assert out.strip().endswith("all checks passed")


def write_random_graph_and_coin(tmp_path):
    """A random graph with m >= 128 (so 2m >= 256 arc rows) and a per-arc
    quaternion coin on it, as files."""
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 40, 0.15)
    assert g.m >= 128
    graph = tmp_path / "random.g"
    graph.write_text(f"{g.n} {g.m}\n"
                     + "".join(f"{u} {v}\n" for u, v in g.edges))
    coin = tmp_path / "random.w"
    coin.write_text("".join(
        f"a {arc} {x0:.6f}{x1:+.6f}i{x2:+.6f}j{x3:+.6f}k\n"
        for arc, (x0, x1, x2, x3) in enumerate(
            rng.uniform(-1, 1, (g.num_arcs, 4)))))
    return str(graph), str(coin)


def write_unit_sum_coin(tmp_path):
    """An 8-vertex random graph and a coin on it whose out-sum is exactly 1
    at every vertex, with values on the i, j and k axes, as files: its
    theorem8 vertex pair commutes (D_w = I) in the psi layout."""
    g = random_connected_graph(np.random.default_rng(2), 8, 0.2)
    values = {1: ["1"], 2: ["1+0.5i", "-0.5i"],
              3: ["1+0.5j", "-0.5j+0.5k", "-0.5k"]}
    lines = []
    for v in range(g.n):
        arcs = np.flatnonzero(g.origin == v)
        weights = values[min(arcs.size, 3)]
        lines += [f"a {arc} {w}\n" for arc, w in zip(arcs, weights)]
    graph, coin = tmp_path / "unit.g", tmp_path / "unit.w"
    graph.write_text(f"{g.n} {g.m}\n"
                     + "".join(f"{u} {v}\n" for u, v in g.edges))
    coin.write_text("".join(lines))
    return str(graph), str(coin)


class TestImportCost:
    # Every command below runs on numpy alone: scipy is imported only for
    # the clusters that multiset matching and conjugate pairing cannot pair
    # by sorting (theorem8 solves a block whose D is scalar, in either
    # layout, by one numpy eigensolve, and triangularizes a commuting
    # psi-layout block with a non-scalar D by numpy's eigensolves), and
    # importing it costs more than all the rest of a short CLI process.
    # The zeta identities take no sparse factorization at any size: the
    # random graph has m >= 128 edges.
    SCRIPT = """
import json
import sys
from qqwalk.cli import main
for arg in sys.argv[1:]:
    code = main(json.loads(arg))
    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
    if code != 0 or loaded:
        print(f'{arg}: exit {code}, scipy modules {loaded[:3]}')
        sys.exit(1)
"""

    def test_common_commands_do_not_import_scipy(self, tmp_path):
        fixtures = Path(cli.__file__).parent / "fixtures"
        k3, k13 = str(fixtures / "k3.g"), str(fixtures / "k13.g")
        grover_w, ex5 = str(fixtures / "k3_grover.w"), str(fixtures / "ex5.w")
        big, big_w = write_random_graph_and_coin(tmp_path)
        unit, unit_w = write_unit_sum_coin(tmp_path)
        commands = [
            ["spectrum", "--graph", k3, "--grover"],
            ["spectrum", "--graph", k13, "--coin", ex5],
            ["spectrum", "--graph", k13, "--coin", ex5, "--method", "theorem8"],
            ["spectrum", "--graph", k3, "--alpha=1+i+j+k", "--method",
             "theorem8"],
            ["spectrum", "--graph", k3, "--coin", grover_w, "--method",
             "theorem8"],
            ["spectrum", "--graph", unit, "--coin", unit_w, "--method",
             "theorem8"],
            ["grover", "--graph", k13],
            ["unitarity", "--graph", k3, "--alpha=2"],
            ["zeta-ihara", "--graph", k3],
            ["zeta-weighted", "--graph", k3, "--coin", grover_w],
            ["zeta-quat", "--graph", k13, "--coin", ex5],
            ["zeta-ihara", "--graph", big],
            ["zeta-quat", "--graph", big, "--coin", big_w],
            ["zeta-quat", "--graph", big, "--alpha=0.3+0.2i+0.1j+0.1k"],
            ["selftest"],
        ]
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *map(json.dumps, commands)],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]

    def test_unit_sum_coin_takes_one_eigensolve(self, tmp_path, monkeypatch):
        # The unit-sum coin's psi-layout pair is one strong component with
        # D = I: one 2n x 2n eigensolve of its Y and no triangularization.
        from qqwalk import linalg, spectra
        from qqwalk.graph import load_graph
        from qqwalk.walks import parse_coin_file

        unit, unit_w = write_unit_sum_coin(tmp_path)
        g = load_graph(unit)
        coin = parse_coin_file(Path(unit_w).read_text(), g)
        shapes = []
        eigenvalues = linalg.eigenvalues
        monkeypatch.setattr(linalg, "eigenvalues",
                            lambda m: shapes.append(m.shape) or eigenvalues(m))
        monkeypatch.setattr(spectra, "simultaneous_triangularize", None)
        report = spectra.spectrum_theorem_general(g, coin)
        assert shapes == [(2 * g.n, 2 * g.n)]
        assert report.cross_check.verdict, report.cross_check
        monkeypatch.undo()
        direct = spectra.spectrum_direct(g, coin)
        assert spectra.compare_spectra(report, direct,
                                       tol=spectra.CROSS_TOL).verdict
