"""Spans around the program's public functions, and the per-layer metrics.

``Tracer.install`` wraps each target function under every name a qqwalk
module holds it by (``qqwalk.spectra.eigenvalues`` as well as
``qqwalk.linalg.eigenvalues``), so calls between modules are seen.  A target
that a later change removed or renamed is listed as absent and every metric
that rests only on absent targets reads null.

A span is ``(name, parent, route, seconds, self_seconds, work)``: the
parent is the enclosing span's name, the route the nearest enclosing
spectrum route, self time the duration minus that of child spans, and work
a count computed from the arguments.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

NAME, PARENT, ROUTE, DUR, SELF, WORK = range(6)


def _cube(args):
    return int(args[0].shape[0]) ** 3


def _size(args):
    return int(args[0].size)


def _entries(args):
    return sum(len(row) for row in args[1])


# (module, attribute, span name, work from the positional arguments)
TARGETS = (
    ("qqwalk.graph", "Graph.__init__", "graph.Graph", None),
    ("qqwalk.graph", "parse_graph", "graph.parse_graph", None),
    ("qqwalk.graph", "load_graph", "graph.load_graph", None),
    ("qqwalk.walks", "build_U", "walks.build_U", None),
    ("qqwalk.walks", "grover_matrix", "walks.grover_matrix", None),
    ("qqwalk.walks", "build_Bw", "walks.build_Bw", None),
    ("qqwalk.walks", "build_B_and_J0", "walks.build_B_and_J0", None),
    ("qqwalk.walks", "build_K_L", "walks.build_K_L", None),
    ("qqwalk.walks", "build_W_Dw", "walks.build_W_Dw", None),
    ("qqwalk.qmatrix", "QuatMatrix.from_entries", "qmatrix.from_entries", _entries),
    ("qqwalk.qmatrix", "QuatMatrix.psi", "qmatrix.psi", None),
    ("qqwalk.linalg", "eigenvalues", "linalg.eigenvalues", _cube),
    ("qqwalk.linalg", "pair_conjugates", "linalg.pair_conjugates", None),
    ("qqwalk.linalg", "multiset_distance", "linalg.multiset_distance", None),
    ("qqwalk.linalg", "simultaneous_triangularize",
     "linalg.simultaneous_triangularize", None),
    ("qqwalk.linalg", "determinant", "linalg.determinant", _cube),
    ("scipy.optimize", "linear_sum_assignment", "linear_sum_assignment", _size),
    ("qqwalk.spectra", "spectrum_direct", "spectra.spectrum_direct", None),
    ("qqwalk.spectra", "spectrum_alpha_coin", "spectra.spectrum_alpha_coin", None),
    ("qqwalk.spectra", "spectrum_grover", "spectra.spectrum_grover", None),
    ("qqwalk.spectra", "spectrum_theorem_general",
     "spectra.spectrum_theorem_general", None),
    ("qqwalk.spectra", "compare_spectra", "spectra.compare_spectra", None),
    ("qqwalk.zeta", "quaternionic_identity", "zeta.quaternionic_identity", None),
    ("qqwalk.zeta", "weighted_zeta_identity", "zeta.weighted_zeta_identity", None),
    ("qqwalk.zeta", "ihara_identity", "zeta.ihara_identity", None),
    ("qqwalk.zeta", "ihara_hashimoto", "zeta.ihara_hashimoto", None),
    ("qqwalk.zeta", "ihara_bass", "zeta.ihara_bass", None),
    ("qqwalk.cli", "main", "cli.main", None),
)

ROUTES = {"spectra.spectrum_direct", "spectra.spectrum_alpha_coin",
          "spectra.spectrum_grover", "spectra.spectrum_theorem_general"}
GRAPH = {"graph.Graph", "graph.parse_graph", "graph.load_graph"}
BUILD_U = {"walks.build_U", "walks.grover_matrix"}
BUILD_ZETA = {"walks.build_Bw", "walks.build_B_and_J0", "walks.build_K_L",
              "walks.build_W_Dw"}
SPECTRA = ROUTES | {"spectra.compare_spectra"}
ZETA = {"zeta.quaternionic_identity", "zeta.weighted_zeta_identity",
        "zeta.ihara_identity", "zeta.ihara_hashimoto", "zeta.ihara_bass"}
EIG = {"linalg.eigenvalues"}
LSA = {"linalg.multiset_distance", "linear_sum_assignment"}


def _total(spans, names, field, keep=None):
    return sum(s[field] for s in spans
               if s[NAME] in names and (keep is None or keep(s)))


def _count(spans, names):
    return sum(1 for s in spans if s[NAME] in names)


def _crosscheck(s):
    """Direct eigensolve work done inside a non-direct route."""
    if s[NAME] == "spectra.spectrum_direct":
        return s[ROUTE] is not None
    return s[PARENT] == "spectra.spectrum_grover"


# metric -> (unit, span names it rests on, value from a list of spans)
LAYERS = {
    "graph.build_s": ("s", GRAPH, lambda sp: _total(
        sp, GRAPH, DUR, lambda s: s[PARENT] not in GRAPH)),
    "walks.build_U_s": ("s", BUILD_U, lambda sp: _total(
        sp, BUILD_U, DUR, lambda s: s[PARENT] not in BUILD_U)),
    "walks.build_zeta_s": ("s", BUILD_ZETA, lambda sp: _total(
        sp, BUILD_ZETA, DUR, lambda s: s[PARENT] not in BUILD_ZETA)),
    "qmatrix.from_entries_n": ("count", {"qmatrix.from_entries"},
                               lambda sp: _total(sp, {"qmatrix.from_entries"}, WORK)),
    "qmatrix.psi_s": ("s", {"qmatrix.psi"},
                      lambda sp: _total(sp, {"qmatrix.psi"}, DUR)),
    "linalg.eig_s": ("s", EIG, lambda sp: _total(sp, EIG, DUR)),
    "linalg.eig_calls": ("count", EIG, lambda sp: _count(sp, EIG)),
    "linalg.eig_work": ("count", EIG, lambda sp: _total(sp, EIG, WORK)),
    "linalg.pairing_s": ("s", {"linalg.pair_conjugates"},
                         lambda sp: _total(sp, {"linalg.pair_conjugates"}, DUR)),
    "linalg.match_s": ("s", LSA, lambda sp: _total(
        sp, LSA, DUR, lambda s: s[NAME] == "linalg.multiset_distance"
        or s[PARENT] == "spectra.compare_spectra")),
    "linalg.assignment_calls": ("count", {"linear_sum_assignment"},
                                lambda sp: _count(sp, {"linear_sum_assignment"})),
    "linalg.assignment_work": ("count", {"linear_sum_assignment"},
                               lambda sp: _total(sp, {"linear_sum_assignment"}, WORK)),
    "spectra.crosscheck_s": ("s", {"spectra.spectrum_direct"}, lambda sp: _total(
        sp, {"spectra.spectrum_direct", "walks.grover_matrix",
             "linalg.eigenvalues"}, DUR, _crosscheck)),
    "spectra.self_s": ("s", SPECTRA, lambda sp: _total(sp, SPECTRA, SELF)),
    "linalg.triangularize_s": ("s", {"linalg.simultaneous_triangularize"},
                               lambda sp: _total(
                                   sp, {"linalg.simultaneous_triangularize"}, DUR)),
    "linalg.triangularize_calls": ("count", {"linalg.simultaneous_triangularize"},
                                   lambda sp: _count(
                                       sp, {"linalg.simultaneous_triangularize"})),
    "linalg.det_s": ("s", {"linalg.determinant"},
                     lambda sp: _total(sp, {"linalg.determinant"}, DUR)),
    "linalg.det_work": ("count", {"linalg.determinant"},
                        lambda sp: _total(sp, {"linalg.determinant"}, WORK)),
    "zeta.self_s": ("s", ZETA, lambda sp: _total(sp, ZETA, SELF)),
    "cli.main_self_s": ("s", {"cli.main"},
                        lambda sp: _total(sp, {"cli.main"}, SELF)),
}


def layer_values(spans, absent):
    """Every layer metric over one list of spans; None where absent."""
    return {name: None if names <= absent else fn(spans)
            for name, (_, names, fn) in LAYERS.items()}


class Tracer:
    """Records spans while installed; ``take`` hands them over and resets."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, work):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, route = (stack[-1][0], stack[-1][2]) if stack else (None, None)
            frame = [name, 0.0, name if name in ROUTES else route]
            amount = work(args) if work else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append((name, parent, route, dur, dur - frame[1], amount))
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.absent = set()
        for module_name, path, name, work in TARGETS:
            try:
                module = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.add(name)
                continue
            if isinstance(original, classmethod):
                self._set(owner, attr,
                          classmethod(self._wrap(name, original.__func__, work)))
                continue
            wrapper = self._wrap(name, original, work)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            holders = [m for key, m in list(sys.modules.items())
                       if key == module_name or key.startswith("qqwalk")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        return spans

    def absorb(self, record):
        """Add the spans a traced child process wrote."""
        self.spans.extend(tuple(s) for s in record["spans"])
        self.absent |= set(record["absent"])
