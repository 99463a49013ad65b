"""The four workloads: seeded inputs, the jobs that run them, and their checks.

Each builder takes a numpy Generator and returns a list of Jobs.  A job's
``run(tracer)`` is the timed call; ``check(output)`` returns the problems
found in its output and, separately, the named grouping fault when the
output shows it.  Library jobs look the program's functions up on their
modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
CLI_TRACE = HERE / "cli_trace.py"

# (vertices, edges) of the random connected graphs.  The largest rungs set
# the pass time; they are as large as lets two timed passes, with their
# calibration, of every workload, 92 runs in all for a comparison of two
# commits, fit in an hour on two cores.  A size given more than once gets
# that many inputs: job_p50_s falls on those jobs, and a median over several
# inputs varies less from seed to seed than one input's time.  Larger jobs
# sit between them, so that they meet different host speeds; the first
# entry is the smallest, for the warm-up.
SPECTRUM_LADDER = ((20, 40), (40, 90), (90, 200), (40, 90))
ZETA_LADDER = ((25, 50), (70, 160), (110, 250), (70, 160), (70, 160))
STAR_LEAVES = (8, 12, 24, 12, 24, 12)
ZETA_SAMPLES = 3
CLI_SAMPLES = 4


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable
    subprocess: bool = False


# -- inputs -----------------------------------------------------------

def random_graph(rng, n, m):
    """Random recursive spanning tree plus uniform extra edges: exactly n, m."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    present = set(edges)
    while len(edges) < m:
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    return edges


def per_origin(n, edges, alpha):
    """Quaternion rows alpha / d(o(e)) for every arc."""
    origin, _ = checks.arcs(edges)
    deg = np.bincount(origin, minlength=n)
    return np.asarray(alpha, dtype=float)[None, :] / deg[origin][:, None]


def sample_points(rng, count, radius=0.8):
    r = radius * np.sqrt(rng.random(count))
    a = 2.0 * np.pi * rng.random(count)
    return [complex(x) for x in r * np.exp(1j * a)]


def _program_graph(n, edges):
    from qqwalk.graph import Graph
    return Graph(n, list(edges))


def _program_coin(graph, q4):
    from qqwalk.quaternion import Quaternion
    from qqwalk.walks import CoinMap
    return CoinMap(graph, [Quaternion(*map(float, row)) for row in q4])


def _call(module, name, *args):
    """A job body that looks ``module.name`` up when it runs."""
    return lambda tracer=None: getattr(module, name)(*args)


def _bundle(module, calls):
    """A job body making several calls, ``{name: args}``, in order; its
    output is the tuple of their results."""
    return lambda tracer=None: tuple(getattr(module, name)(*args)
                                     for name, args in calls.items())


# -- spectrum checks --------------------------------------------------

def _lazy(make):
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]
    return get


def _spectrum_check(make_psi, cross_check=True, unit_modulus=False,
                    reference_eig=False):
    """Checks of one route's report; the reference is built on first use."""
    psi_u = _lazy(make_psi)
    ref = _lazy(lambda: checks.SpectrumReference(psi_u()))
    eig = _lazy(lambda: np.linalg.eigvals(psi_u()))

    def check(report):
        vals = np.asarray(report.psi_spectrum, dtype=complex)
        problems = ref().problems(vals)
        if unit_modulus:
            dev = float(np.abs(np.abs(vals) - 1.0).max(initial=0.0))
            if dev > 1e-9:
                problems.append(f"Grover eigenvalue off the unit circle by {dev:.2e}")
        if reference_eig:
            problems += checks.match_problems(vals, eig())
        if cross_check and not (report.cross_check and report.cross_check.verdict):
            problems.append(f"cross-check verdict false: {report.cross_check}")
        return problems, None
    return check


def _check_each(named):
    """Checks a bundle's outputs with ``{name: check}``, in order."""
    def check(outputs):
        return [f"{name}: {p}" for (name, one), out in zip(named.items(), outputs)
                for p in one(out)[0]], None
    return check


def _identity_check(make_ref, ts):
    ref = _lazy(make_ref)

    def check(report):
        samples = [(s.t, s.lhs, s.rhs) for s in report.samples]
        return ref().problems(report.verdict, samples, ts), None
    return check


# -- library workloads ------------------------------------------------

def spectrum_routes(rng, workdir):
    """Four routes on each rung: direct, theorem10 and theorem8 with a random
    alpha coin, and the Grover route."""
    from qqwalk import spectra
    from qqwalk.quaternion import Quaternion
    jobs = []
    for i, (n, m) in enumerate(SPECTRUM_LADDER):
        edges = random_graph(rng, n, m)
        alpha = rng.uniform(-1.0, 1.0, 4)
        graph = _program_graph(n, edges)
        q4 = per_origin(n, edges, alpha)
        coin = _program_coin(graph, q4)
        psi_alpha = _lazy(lambda e=edges, q=q4: checks.walk_psi(e, q))
        psi_grover = lambda e=edges, n=n: checks.walk_psi(  # noqa: E731
            e, checks.grover_coin(n, e))
        alpha_check = _spectrum_check(psi_alpha)
        jobs += [
            Job(f"direct/m{m}-{i}", _call(spectra, "spectrum_direct", graph, coin),
                _spectrum_check(psi_alpha, cross_check=False)),
            Job(f"theorem10/m{m}-{i}",
                _call(spectra, "spectrum_alpha_coin", graph,
                      Quaternion(*map(float, alpha))), alpha_check),
            Job(f"grover/m{m}-{i}", _call(spectra, "spectrum_grover", graph),
                _spectrum_check(psi_grover, unit_modulus=True)),
            Job(f"theorem8/m{m}-{i}",
                _call(spectra, "spectrum_theorem_general", graph, coin),
                alpha_check),
        ]
    return jobs


def zeta_identities(rng, workdir):
    """The three identities on each rung, with random per-arc weights.

    One job makes all three calls on one graph: job_p50_s then stands for a
    typical graph, not for the cheapest identity on it."""
    from qqwalk import zeta
    jobs = []
    for i, (n, m) in enumerate(ZETA_LADDER):
        edges = random_graph(rng, n, m)
        origin, _ = checks.arcs(edges)
        deg = np.bincount(origin, minlength=n)[origin][:, None]
        quat = rng.uniform(-1.0, 1.0, (2 * m, 4)) / deg
        cplx = np.zeros((2 * m, 4))
        cplx[:, :2] = rng.uniform(-1.0, 1.0, (2 * m, 2)) / deg
        ts = sample_points(rng, ZETA_SAMPLES)
        graph = _program_graph(n, edges)
        calls = {
            "quaternionic_identity": (
                (graph, _program_coin(graph, quat), ts),
                lambda e=edges, q=quat, n=n: checks.quaternionic_reference(n, e, q)),
            "weighted_zeta_identity": (
                (graph, _program_coin(graph, cplx), ts),
                lambda e=edges, q=cplx, n=n: checks.complex_reference(
                    n, e, q[:, 0] + 1j * q[:, 1])),
            "ihara_identity": (
                (graph, ts),
                lambda e=edges, n=n: checks.complex_reference(
                    n, e, np.ones(len(e) * 2))),
        }
        jobs.append(Job(f"identities/m{m}-{i}",
                        _bundle(zeta, {k: a for k, (a, _) in calls.items()}),
                        _check_each({k: _identity_check(ref, ts)
                                     for k, (_, ref) in calls.items()})))
    return jobs


def theorem8_stars(rng, workdir):
    """theorem8 on K_{1,k}: random quaternion weights on the leaf -> center
    arcs, zero on the center -> leaf arcs (the ex5.w pattern)."""
    from qqwalk import spectra
    jobs = []
    for i, k in enumerate(STAR_LEAVES):
        edges = [(i, k) for i in range(k)]
        q4 = np.zeros((2 * k, 4))
        q4[0::2] = rng.uniform(-1.0, 1.0, (k, 4))
        graph = _program_graph(k + 1, edges)
        coin = _program_coin(graph, q4)
        jobs.append(Job(
            f"theorem8/k{k}-{i}",
            _call(spectra, "spectrum_theorem_general", graph, coin),
            _spectrum_check(lambda e=edges, q=q4: checks.walk_psi(e, q),
                            reference_eig=True)))
    return jobs


# -- CLI workload -----------------------------------------------------

def _graph_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _literal(q):
    a, b, c, d = (repr(float(x)) for x in q)
    return "".join([a] + [("" if x.startswith("-") else "+") + x + axis
                          for x, axis in ((b, "i"), (c, "j"), (d, "k"))])


def _coin_text(q4):
    return "".join(f"a {i} {_literal(row)}\n" for i, row in enumerate(q4)
                   if np.any(row))


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
C8 = [(i, (i + 1) % 8) for i in range(8)]
K3 = [(0, 1), (1, 2), (2, 0)]
K13 = [(0, 3), (1, 3), (2, 3)]
STAR5 = [(i, 5) for i in range(5)]
EX5 = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0],
                [2, 0, 0, 0], [0, 0, 0, 0]], dtype=float)


def cli_env():
    """The CLI children's environment: this one, with src/ importable."""
    env = dict(os.environ)
    env.pop("QQWALK_TOL", None)  # the CLI's default tolerance, not the caller's
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _cli_job(name, args, workdir, check):
    env = cli_env()

    def run(tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "qqwalk.cli", *args]
        else:
            out = workdir / f"spans-{name}.json"
            argv = [sys.executable, str(CLI_TRACE), str(out), *args]
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                              text=True, check=False)
        if tracer is not None:
            tracer.absorb(json.loads(out.read_text()))
        return proc
    return Job(name, run, check, subprocess=True)


def _cli_payload(proc):
    if proc.returncode != 0:
        return None, [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        return json.loads(proc.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _cli_spectrum_check(expected):
    expected = _lazy(expected)

    def check(proc):
        payload, problems = _cli_payload(proc)
        if payload is None:
            return problems, None
        rows = payload["psi_spectrum"]
        groups = [complex(r["re"], r["im"]) for r in rows]
        vals = np.repeat(groups, [r["mult"] for r in rows])
        problems += checks.match_problems(vals, expected())
        cc = payload.get("cross_check")
        if cc is not None and cc.get("verdict") is not True:
            problems.append(f"cross-check verdict false: {cc}")
        reps = [complex(r["re"], r["im"]) for r in payload["class_reps"]]
        fault = checks.group_problems(groups) + checks.group_problems(reps)
        return problems, "; ".join(fault) or None
    return check


def _cli_identity_check(make_ref):
    ref = _lazy(make_ref)

    def check(proc):
        payload, problems = _cli_payload(proc)
        if payload is None:
            return problems, None
        samples = [(complex(s["t"]["re"], s["t"]["im"]),
                    complex(s["lhs"]["re"], s["lhs"]["im"]),
                    complex(s["rhs"]["re"], s["rhs"]["im"]))
                   for s in payload["samples"]]
        return ref().problems(payload["verdict"], samples, CLI_SAMPLES), None
    return check


def _unitarity_check(edges, q4):
    def check(proc):
        payload, problems = _cli_payload(proc)
        if payload is None:
            return problems, None
        psi_u = checks.walk_psi(edges, q4)
        defect = float(np.abs(psi_u.conj().T @ psi_u - np.eye(len(psi_u))).max())
        if defect > 1e-9:
            problems.append(f"reference U is not unitary ({defect:.2e})")
        want = {"condition_holds": True, "matrix_unitary": True, "agree": True}
        if payload != want:
            problems.append(f"unitarity payload {payload}")
        return problems, None
    return check


def _selftest_check(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[-1] != "all checks passed":
        return [f"selftest failed: {proc.stdout.strip()[-300:]}"], None
    return [], None


def cli_small(rng, workdir):
    """Fresh ``python -m qqwalk.cli`` runs covering all seven subcommands.

    Spectrum outputs use fixed inputs; the seed draws the unitary alpha, the
    weights of the identity runs and their sample-point seed.
    """
    u = rng.normal(size=4)
    alpha = np.array([1.0, 0.0, 0.0, 0.0]) + u / np.linalg.norm(u)
    star_w = np.zeros((10, 4))
    star_w[0::2] = rng.uniform(-1.0, 1.0, (5, 4))
    pet_w = np.zeros((30, 4))
    pet_w[:, :2] = rng.uniform(-1.0, 1.0, (30, 2)) / 3.0
    sample_seed = str(int(rng.integers(0, 2**31)))
    files = {
        "k3.g": _graph_text(3, K3), "k13.g": _graph_text(4, K13),
        "petersen.g": _graph_text(10, PETERSEN), "c8.g": _graph_text(8, C8),
        "star5.g": _graph_text(6, STAR5), "ex5.w": _coin_text(EX5),
        "star5.w": _coin_text(star_w), "petersen.w": _coin_text(pet_w),
    }
    for name, text in files.items():
        (workdir / name).write_text(text)

    def grover_eigs(n, edges):
        return lambda: np.linalg.eigvals(
            checks.walk_psi(edges, checks.grover_coin(n, edges)))

    zeta_opts = ["--seed", sample_seed, "--samples", str(CLI_SAMPLES)]
    specs = [
        ("spectrum_k3_grover", ["spectrum", "--graph", "k3.g", "--grover"],
         _cli_spectrum_check(lambda: checks.CLOSED_FORMS["k3_grover"])),
        ("spectrum_ex5_theorem8",
         ["spectrum", "--graph", "k13.g", "--coin", "ex5.w",
          "--method", "theorem8"],
         _cli_spectrum_check(lambda: checks.CLOSED_FORMS["k13_ex5"])),
        ("grover_petersen", ["grover", "--graph", "petersen.g"],
         _cli_spectrum_check(grover_eigs(10, PETERSEN))),
        ("grover_c8", ["grover", "--graph", "c8.g"],
         _cli_spectrum_check(grover_eigs(8, C8))),
        ("unitarity_petersen",
         ["unitarity", "--graph", "petersen.g", f"--alpha={_literal(alpha)}"],
         _unitarity_check(PETERSEN, per_origin(10, PETERSEN, alpha))),
        ("zeta_ihara_c8", ["zeta-ihara", "--graph", "c8.g", *zeta_opts],
         _cli_identity_check(
             lambda: checks.complex_reference(8, C8, np.ones(16)))),
        ("zeta_weighted_petersen",
         ["zeta-weighted", "--graph", "petersen.g", "--coin", "petersen.w",
          *zeta_opts],
         _cli_identity_check(lambda: checks.complex_reference(
             10, PETERSEN, pet_w[:, 0] + 1j * pet_w[:, 1]))),
        ("zeta_quat_star5",
         ["zeta-quat", "--graph", "star5.g", "--coin", "star5.w", *zeta_opts],
         _cli_identity_check(
             lambda: checks.quaternionic_reference(6, STAR5, star_w))),
        ("selftest", ["selftest"], _selftest_check),
    ]
    return [_cli_job(name, args, workdir, check) for name, args, check in specs]


# How many of a workload's first jobs the untimed warm-up runs: one of each
# kind of call, on the smallest input, so imports and first-call costs are
# paid before timing without a whole untimed pass.
WARM_UP_JOBS = {
    "spectrum_routes": 4,
    "zeta_identities": 1,
    "theorem8_stars": 1,
    "cli_small": 1,
}

WORKLOADS = {
    "spectrum_routes": spectrum_routes,
    "zeta_identities": zeta_identities,
    "theorem8_stars": theorem8_stars,
    "cli_small": cli_small,
}
