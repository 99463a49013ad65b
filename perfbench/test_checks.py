"""Each output check rejects one perturbed eigenvalue and one perturbed
determinant, the references agree with the program's own matrices, every
kept output is counted, and tracing survives a target that no longer
exists.

Run: PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]
N = 5
DELTA = 1e-4


def _coin(seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * len(EDGES), 4)) / 2


def _bump(vals, i=0):
    out = np.array(vals, dtype=complex)
    out[i] += DELTA
    return out


def test_reference_matches_program_matrices():
    from qqwalk.graph import Graph
    from qqwalk.walks import build_U, build_W_Dw
    q4 = _coin()
    graph = Graph(N, EDGES)
    coin = workloads._program_coin(graph, q4)
    assert np.allclose(checks.walk_psi(EDGES, q4), build_U(graph, coin).psi())
    w, dw = build_W_Dw(graph, coin)
    ref_wt, ref_dw = checks.vertex_psi(N, EDGES, q4)
    assert np.allclose(ref_wt, w.transpose().psi())
    assert np.allclose(ref_dw, dw.psi())


def test_certificate_rejects_one_perturbed_eigenvalue():
    psi_u = checks.walk_psi(EDGES, _coin())
    ref = checks.SpectrumReference(psi_u)
    vals = np.linalg.eigvals(psi_u)
    assert ref.problems(vals) == []
    problems = ref.problems(_bump(vals))
    assert any("conjugation" in p for p in problems)
    assert any("certificate" in p for p in problems)
    # Moving a value and its conjugate together keeps the multiset closed;
    # the certificate still sees it.
    i = int(np.argmax(np.abs(vals.imag)))
    j = int(np.argmin(np.abs(vals - np.conj(vals[i]))))
    pair = np.array(vals)
    pair[i] += DELTA
    pair[j] = np.conj(pair[i])
    assert [p for p in ref.problems(pair) if "certificate" in p]
    assert ref.problems(vals[1:])


def test_match_rejects_one_perturbed_eigenvalue():
    closed = checks.CLOSED_FORMS["k13_ex5"]
    assert checks.match_problems(closed[::-1], closed) == []
    assert checks.match_problems(_bump(closed), closed)


def test_group_separation():
    assert checks.group_problems([1.0, 1.0 + 1e-3j]) == []
    assert checks.group_problems([1.0, 1.0 + 5.6e-17j])


@pytest.mark.parametrize("make", [
    lambda: checks.quaternionic_reference(N, EDGES, _coin()),
    lambda: checks.complex_reference(N, EDGES, _coin()[:, 0] + 0.5j),
])
def test_identity_rejects_one_perturbed_determinant(make):
    ref = make()
    ts = [0.3 + 0.2j, -0.5j]
    n = ref.vert_mat.shape[0]
    samples = []
    for t in ts:
        lhs = np.linalg.det(np.eye(ref.arc_mat.shape[0]) - t * ref.arc_mat)
        rhs = (1 - t * t) ** ref.exponent * np.linalg.det(
            np.eye(n) - t * ref.vert_mat + t * t * (ref.diag_mat - np.eye(n)))
        samples.append((t, lhs, rhs))
    assert ref.problems(True, samples, ts) == []
    t, lhs, rhs = samples[0]
    assert ref.problems(True, [(t, lhs * (1 + 1e-6), rhs)] + samples[1:], ts)
    assert ref.problems(True, [(t, lhs, rhs * (1 - 1e-6j))] + samples[1:], ts)
    assert ref.problems(False, samples, ts)
    assert ref.problems(True, samples[1:], ts)


def test_bundle_check_names_the_member_that_fails():
    ok = lambda out: ([], None)  # noqa: E731
    bad = lambda out: (["off"], None)  # noqa: E731
    check = workloads._check_each({"first": ok, "second": bad})
    assert check(("a", "b")) == (["second: off"], None)


def _proc(payload):
    return subprocess.CompletedProcess([], 0, json.dumps(payload), "")


def test_cli_checks_reject_perturbations():
    closed = checks.CLOSED_FORMS["k13_ex5"]
    values, mults = np.unique(closed, return_counts=True)
    rows = [{"re": v.real, "im": v.imag, "mult": int(k)}
            for v, k in zip(values, mults)]
    check = workloads._cli_spectrum_check(lambda: closed)
    payload = {"psi_spectrum": rows, "class_reps": rows[:1]}
    assert check(_proc(payload)) == ([], None)
    bumped = [dict(rows[0], re=rows[0]["re"] + DELTA)] + rows[1:]
    assert check(_proc(dict(payload, psi_spectrum=bumped)))[0]
    # A group split in two keeps the multiset right: only the fault shows.
    split = [dict(rows[0], mult=1), dict(rows[0], mult=1, re=rows[0]["re"] + 1e-17)]
    split += rows[1:]
    problems, fault = check(_proc(dict(payload, psi_spectrum=split)))
    assert fault and not problems

    ref = checks.complex_reference(N, EDGES, np.ones(2 * len(EDGES)))
    ts = [0.1 + 0.4j, 0.2 - 0.1j, -0.3j, 0.5]
    samples = []
    for t in ts:
        lhs, rhs = (np.exp(x) for x in ref.sides(t))
        samples.append({"t": {"re": t.real, "im": t.imag},
                        "lhs": {"re": lhs.real, "im": lhs.imag},
                        "rhs": {"re": rhs.real, "im": rhs.imag}})
    identity = workloads._cli_identity_check(lambda: ref)
    assert identity(_proc({"verdict": True, "samples": samples})) == ([], None)
    samples[2]["lhs"]["re"] *= 1 + 1e-6
    assert identity(_proc({"verdict": True, "samples": samples}))[0]


def test_tally_counts_every_output_and_checks_each_distinct_one_once():
    seen = []

    def check(out):
        seen.append(out)
        return ([], "split groups") if out == "bad" else ([], None)

    tally = run.Tally()
    job = workloads.Job("job", None, check)
    tally.check_all([job], [["ok", "ok", "bad", "bad", run.RaisedError("boom")]])
    assert seen == ["ok", "bad"]
    assert (tally.attempted, tally.failed, tally.problems) == (5, 3, [])
    assert tally.faults == {"job": "raised boom"}


def test_tracing_reports_absent_targets(monkeypatch):
    from qqwalk import linalg, spectra
    original = spectra.eigenvalues
    gone = ("qqwalk.spectra", "spectrum_removed", "spectra.removed", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    monkeypatch.setitem(tracing.LAYERS, "spectra.removed_s",
                        ("s", {"spectra.removed"}, lambda sp: 0.0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectra.eigenvalues is not original
        assert spectra.eigenvalues is linalg.eigenvalues
        spectra.eigenvalues(np.eye(3))
    finally:
        tracer.uninstall()
    assert spectra.eigenvalues is original
    values = tracing.layer_values(tracer.take(), tracer.absent)
    assert "spectra.removed" in tracer.absent
    assert values["spectra.removed_s"] is None
    assert values["linalg.eig_calls"] == 1
    assert values["linalg.eig_work"] == 27
