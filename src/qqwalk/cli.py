"""Command-line front end.

Subcommands:

* ``spectrum``     full complexified walk spectrum (direct or a formula route)
* ``grover``       formula route for the Grover walk (the alpha = 2 case)
* ``unitarity``    per-arc unitarity condition vs. actual matrix unitarity
* ``zeta-ihara``   classical determinant identity at sample points
* ``zeta-weighted``complex-weighted identity (B_w^T and W^T form)
* ``zeta-quat``    quaternionic identity through the complexification map
* ``selftest``     bundled golden suite plus seeded random route agreement

Four handlers serve them: ``spectrum`` with ``grover``, the three zeta
commands, ``unitarity`` and ``selftest``.  Exit codes: 0 success / verdict
true, 1 verdict false or numerical failure, 2 input error.  The environment
variable QQWALK_TOL overrides the default tolerance of the subcommands that
take ``--tol``; ``unitarity``'s matrix check and the zeta comparisons raise
a smaller one to a floor each.  JSON output is strict: a number that is not
finite, such as an overflowed determinant, prints as null.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .graph import (Graph, LineFormatError, load_graph, parse_graph,
                    random_connected_graph)
from .linalg import NotSimultaneouslyTriangularizableError
from .quaternion import Quaternion, QuaternionFormatError, parse_quaternion
from .spectra import (
    CROSS_TOL,
    SpectrumConsistencyError,
    compare_spectra,
    spectrum_alpha_coin,
    spectrum_direct,
    spectrum_grover,
    spectrum_theorem_general,
)
from .walks import (
    CoinMap,
    _within,
    build_U,
    parse_coin_file,
    unitarity_condition,
)
from .zeta import (
    default_samples,
    ihara_identity,
    quaternionic_identity,
    weighted_zeta_identity,
)

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_INPUT_ERROR = 2

DEFAULT_TOL = 1e-9


class InputError(Exception):
    pass


def _tol(args) -> float:
    """--tol, else QQWALK_TOL, else DEFAULT_TOL; finite and >= 0."""
    source, tol = "--tol", args.tol
    if tol is None:
        source, env = "QQWALK_TOL", os.environ.get("QQWALK_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise InputError(f"QQWALK_TOL is not a number: {env!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"{source} must be finite and >= 0, got {tol!r}")
    return tol


@contextlib.contextmanager
def _reading(what: str):
    """Turn a failure to read or parse the graph or coin file into an
    InputError."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc
    except LineFormatError as exc:
        raise InputError(f"{what} parse error: {exc}") from exc


def _load_coin(args, graph: Graph) -> CoinMap:
    if sum(map(bool, (args.coin, args.alpha, args.grover))) != 1:
        raise InputError(
            "exactly one of --coin, --alpha, --grover must be given")
    if args.grover:
        return CoinMap.grover(graph)
    if args.alpha:
        try:
            return CoinMap.from_alpha(graph, parse_quaternion(args.alpha))
        except QuaternionFormatError as exc:
            raise InputError(f"bad --alpha literal: {exc}") from exc
    with _reading("coin"), open(args.coin, "r", encoding="utf-8") as fh:
        return parse_coin_file(fh.read(), graph)


def _finite(value):
    """The payload with every non-finite float replaced by None (null)."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(payload: dict, args) -> None:
    if args.output == "json":
        sys.stdout.write(json.dumps(_finite(payload), indent=2,
                                    sort_keys=True, allow_nan=False) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "psi_spectrum" in payload:
        writer.writerow(["re", "im", "mult", "method"])
        for row in payload["psi_spectrum"]:
            writer.writerow([row["re"], row["im"], row["mult"],
                             payload["method"]])
    elif "samples" in payload:
        writer.writerow(["t_re", "t_im", "lhs_re", "lhs_im",
                         "rhs_re", "rhs_im", "rel_err"])
        for s in payload["samples"]:
            writer.writerow([s["t"]["re"], s["t"]["im"],
                             s["lhs"]["re"], s["lhs"]["im"],
                             s["rhs"]["re"], s["rhs"]["im"], s["rel_err"]])
    else:
        writer.writerow(sorted(payload))
        writer.writerow([payload[k] for k in sorted(payload)])
    sys.stdout.write(buf.getvalue())


# -- subcommand handlers ----------------------------------------------

def _cmd_spectrum(args) -> int:
    """``spectrum`` and ``grover``, whose parser sets method "grover"; the
    exit code follows the report's cross-check."""
    with _reading("graph"):
        graph = load_graph(args.graph)
    if args.method == "grover":
        report = spectrum_grover(graph)
    elif args.method == "theorem10":
        coin = _load_coin(args, graph)
        first = graph.origin == 0
        alpha = Quaternion.from_complex_pair(complex(coin.s[first].sum()),
                                             complex(coin.p[first].sum()))
        even = CoinMap.from_alpha(graph, alpha)
        if not np.all(_within(coin.s - even.s, coin.p - even.p,
                              args.tol * max(1.0, alpha.norm()))):
            raise InputError(
                "the alpha-coin route needs q(e) = alpha/deg(o(e)) on every "
                "arc: a vertex-independent outgoing coin sum, split evenly")
        report = spectrum_alpha_coin(graph, alpha)
    else:
        route = (spectrum_direct if args.method == "direct"
                 else spectrum_theorem_general)
        report = route(graph, _load_coin(args, graph))
    _emit(report.to_dict(), args)
    if report.cross_check is not None and not report.cross_check.verdict:
        return EXIT_VERDICT_FALSE
    return EXIT_OK


def _cmd_unitarity(args) -> int:
    with _reading("graph"):
        graph = load_graph(args.graph)
    coin = _load_coin(args, graph)
    condition = unitarity_condition(graph, coin, tol=args.tol)
    actual = build_U(graph, coin).is_unitary(tol=max(args.tol, 1e-9))
    _emit({"condition_holds": condition, "matrix_unitary": actual,
           "agree": condition == actual}, args)
    return EXIT_OK if condition else EXIT_VERDICT_FALSE


def _cmd_zeta(args) -> int:
    """The three zeta commands, at sample points drawn from --seed."""
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    with _reading("graph"):
        graph = load_graph(args.graph)
    samples = default_samples(args.samples, seed=args.seed)
    tol = max(args.tol, 1e-10)
    if args.subcommand == "zeta-ihara":
        report = ihara_identity(graph, samples, tol=tol)
    else:
        coin = _load_coin(args, graph)
        if args.subcommand == "zeta-quat":
            report = quaternionic_identity(graph, coin, samples, tol=tol)
        elif coin.is_complex_valued():
            report = weighted_zeta_identity(graph, coin, samples, tol=tol)
        else:
            raise InputError(
                "weights have j/k parts; use the zeta-quat subcommand")
    _emit(report.to_dict(), args)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


# -- selftest ---------------------------------------------------------

def _fixture_text(name: str) -> str:
    return resources.files("qqwalk.fixtures").joinpath(name).read_text()


def _selftest_checks(seed: int):
    """Yield (name, passed) pairs for the golden + randomized suite."""
    k3 = parse_graph(_fixture_text("k3.g"))
    k13 = parse_graph(_fixture_text("k13.g"))
    ex_coin = parse_coin_file(_fixture_text("ex5.w"), k13)

    w = (-1 + np.sqrt(3.0) * 1j) / 2
    for name, graph, values in (
            ("triangle-grover-spectrum", k3,
             [1.0, 1.0, w, w, np.conj(w), np.conj(w)]),
            ("star-grover-spectrum", k13, [1j, 1j, -1j, -1j, 1.0, -1.0])):
        rep = spectrum_direct(graph, CoinMap.grover(graph))
        yield name, compare_spectra(
            rep.psi_spectrum, np.concatenate([values, np.conj(values)]),
            tol=1e-9).verdict

    s = 1.0 / np.sqrt(2.0)
    half = np.array([s - s * 1j, -s + s * 1j, s - s * 1j, -s + s * 1j,
                     s + s * 1j, -s - s * 1j, s + s * 1j, -s - s * 1j,
                     1j, -1j, 1j, -1j])
    direct = spectrum_direct(k13, ex_coin)
    yield "star-weighted-direct", compare_spectra(
        direct.psi_spectrum, half, tol=1e-7).verdict
    formula = spectrum_theorem_general(k13, ex_coin)
    yield "star-weighted-formula-agreement", (
        formula.cross_check.verdict
        and compare_spectra(formula, direct, tol=CROSS_TOL).verdict)

    report = quaternionic_identity(k13, ex_coin, default_samples(8, seed))
    yield "star-weighted-determinant-identity", report.verdict

    rng = np.random.default_rng(seed)
    agree = True
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 9)))
        alpha = Quaternion(*rng.uniform(-1.0, 1.0, 4))
        agree = spectrum_alpha_coin(g, alpha).cross_check.verdict
        if not agree:
            break
    yield "random-alpha-route-agreement", agree


def _cmd_selftest(args) -> int:
    failures = []
    for name, passed in _selftest_checks(args.seed):
        sys.stdout.write(f"{'PASS' if passed else 'FAIL'}  {name}\n")
        if not passed:
            failures.append(name)
    if failures:
        sys.stdout.write("failed: " + ", ".join(failures) + "\n")
        return EXIT_VERDICT_FALSE
    sys.stdout.write("all checks passed\n")
    return EXIT_OK


# -- argument parsing -------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, coin: bool = True,
                tol: str | None = "tolerance >= 0",
                samples: bool = False) -> None:
    parser.add_argument("--graph", required=True, help="edge-list graph file")
    if coin:
        parser.add_argument("--coin", help="coin/weight file")
        parser.add_argument("--alpha",
                            help="quaternion literal for q(e) = alpha/d")
        parser.add_argument("--grover", action="store_true",
                            help="use the Grover coin 2/d")
    if tol:
        parser.add_argument("--tol", type=float, default=None,
                            help=f"{tol} (default 1e-9; QQWALK_TOL)")
    if samples:
        parser.add_argument("--samples", type=int, default=8,
                            help="number (>= 1) of identity sample points")
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for the sample points")
    parser.add_argument("--output", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqwalk",
        description="Quaternionic quantum walks on graphs: spectra and "
                    "zeta-function determinant identities")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="complexified walk spectrum")
    _add_common(p, tol="tolerance >= 0, read by the theorem10 check only")
    p.add_argument("--method", choices=("direct", "theorem8", "theorem10"),
                   default="direct")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("grover", help="alpha = 2 formula route (Grover walk)")
    _add_common(p, coin=False, tol=None)
    p.set_defaults(handler=_cmd_spectrum, method="grover")

    p = sub.add_parser("unitarity", help="unitarity condition check")
    _add_common(p)
    p.set_defaults(handler=_cmd_unitarity)

    p = sub.add_parser("zeta-ihara", help="classical determinant identity")
    _add_common(p, coin=False, samples=True)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("zeta-weighted", help="complex-weighted identity")
    _add_common(p, samples=True)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("zeta-quat", help="quaternionic identity")
    _add_common(p, samples=True)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("selftest", help="golden + randomized suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in vars(args):
            args.tol = _tol(args)
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.handler(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (np.linalg.LinAlgError, NotSimultaneouslyTriangularizableError,
            SpectrumConsistencyError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_VERDICT_FALSE


if __name__ == "__main__":
    sys.exit(main())
