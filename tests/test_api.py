"""Every name a qqwalk module exports in __all__ resolves, every function
the benchmark tracer wraps exists, and the library writes nothing to
stdout."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qqwalk
from qqwalk.graph import random_connected_graph, star_graph
from qqwalk.linalg import simultaneous_triangularize
from qqwalk.quaternion import Quaternion
from qqwalk.spectra import (
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from qqwalk.walks import CoinMap, build_W_Dw
from qqwalk.zeta import (
    default_samples,
    ihara_identity,
    quaternionic_identity,
    weighted_zeta_identity,
)

MODULES = ["qqwalk"] + [f"qqwalk.{info.name}"
                        for info in pkgutil.iter_modules(qqwalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_every_tracer_target_resolves():
    # perfbench/tracing.py wraps the program's functions by name; a renamed
    # or deleted one is listed as absent and its layer metrics read null.
    # Only linalg.multiset_distance, gone before this check, may be absent.
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent <= {"linalg.multiset_distance"}
    finally:
        tracer.uninstall()


def test_the_library_writes_nothing_to_stdout(capfd):
    # The CLI's JSON and the benchmark's result are the last stdout line, so
    # no library call may print, from Python or below it (capfd reads the
    # file descriptor).
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 40, 0.12)
    alpha = Quaternion(0.3, 0.2, 0.1, 0.1)

    def arc_weights(parts):
        return CoinMap.from_arc_values(g, {
            arc: Quaternion(*rng.uniform(-1, 1, parts))
            for arc in range(g.num_arcs)})

    samples = default_samples(2)
    spectrum_direct(g, CoinMap.from_alpha(g, alpha))
    spectrum_theorem_general(g, CoinMap.from_alpha(g, alpha))
    spectrum_alpha_coin(g, alpha)
    spectrum_grover(g)
    ihara_identity(g, samples)
    weighted_zeta_identity(g, arc_weights(2), samples)
    quaternionic_identity(g, arc_weights(4), samples)
    # The deflation on a commuting pair and on a non-commuting one.
    m = rng.uniform(-1, 1, (6, 6))
    simultaneous_triangularize(m @ m, 2 * m - np.eye(6))
    star = star_graph(8)
    w, dw = build_W_Dw(star, CoinMap.from_arc_values(star, {
        2 * i: Quaternion(*rng.uniform(-1, 1, 4)) for i in range(8)}))
    simultaneous_triangularize(w.transpose().psi(), dw.psi())
    assert capfd.readouterr().out == ""
