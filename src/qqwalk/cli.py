"""Command-line front end.

Subcommands:

* ``spectrum``     full complexified walk spectrum (direct or a formula route)
* ``grover``       formula route for the Grover walk (the alpha = 2 case)
* ``unitarity``    per-arc unitarity condition vs. actual matrix unitarity
* ``zeta-ihara``   classical determinant identity at sample points
* ``zeta-weighted``complex-weighted identity (B_w^T and W^T form)
* ``zeta-quat``    quaternionic identity through the complexification map
* ``selftest``     bundled golden suite plus seeded random route agreement

Exit codes: 0 success / verdict true, 1 verdict false or numerical failure,
2 input error.  The environment variable QQWALK_TOL overrides the default
tolerance of the subcommands that take ``--tol``.  JSON output is strict:
a number that is not finite, such as an overflowed determinant, prints as
null.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .graph import Graph, GraphFormatError, load_graph, random_connected_graph
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
    CoinFormatError,
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


def _default_tol() -> float:
    env = os.environ.get("QQWALK_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError:
        raise InputError(f"QQWALK_TOL is not a number: {env!r}") from None
    return _checked_tol(tol, "QQWALK_TOL")


def _checked_tol(tol: float, source: str) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"{source} must be finite and >= 0, got {tol!r}")
    return tol


def _load_graph(path: str) -> Graph:
    try:
        return load_graph(path)
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}") from exc
    except GraphFormatError as exc:
        raise InputError(f"graph parse error: {exc}") from exc


def _load_coin(args, graph: Graph) -> CoinMap:
    chosen = [bool(getattr(args, "coin", None)),
              bool(getattr(args, "alpha", None)),
              bool(getattr(args, "grover", False))]
    if sum(chosen) != 1:
        raise InputError(
            "exactly one of --coin, --alpha, --grover must be given")
    if args.grover:
        return CoinMap.grover(graph)
    if args.alpha:
        try:
            return CoinMap.from_alpha(graph, parse_quaternion(args.alpha))
        except QuaternionFormatError as exc:
            raise InputError(f"bad --alpha literal: {exc}") from exc
    try:
        with open(args.coin, "r", encoding="utf-8") as fh:
            return parse_coin_file(fh.read(), graph)
    except OSError as exc:
        raise InputError(f"cannot read coin file: {exc}") from exc
    except CoinFormatError as exc:
        raise InputError(f"coin parse error: {exc}") from exc


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
    graph = _load_graph(args.graph)
    coin = _load_coin(args, graph)
    if args.method == "direct":
        report = spectrum_direct(graph, coin)
    elif args.method == "theorem8":
        report = spectrum_theorem_general(graph, coin)
    elif args.method == "theorem10":
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
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown method {args.method!r}")
    return _emit_spectrum(report, args)


def _cmd_grover(args) -> int:
    return _emit_spectrum(spectrum_grover(_load_graph(args.graph)), args)


def _emit_spectrum(report, args) -> int:
    """Print a spectrum report; the exit code follows its cross-check."""
    _emit(report.to_dict(), args)
    if report.cross_check is not None and not report.cross_check.verdict:
        return EXIT_VERDICT_FALSE
    return EXIT_OK


def _cmd_unitarity(args) -> int:
    graph = _load_graph(args.graph)
    coin = _load_coin(args, graph)
    condition = unitarity_condition(graph, coin, tol=args.tol)
    actual = build_U(graph, coin).is_unitary(tol=max(args.tol, 1e-9))
    payload = {"condition_holds": condition, "matrix_unitary": actual,
               "agree": condition == actual}
    _emit(payload, args)
    return EXIT_OK if condition else EXIT_VERDICT_FALSE


def _zeta_common(args, runner) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    graph = _load_graph(args.graph)
    samples = default_samples(args.samples, seed=args.seed)
    report = runner(graph, samples)
    _emit(report.to_dict(), args)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def _cmd_zeta_ihara(args) -> int:
    return _zeta_common(
        args, lambda g, ts: ihara_identity(g, ts, tol=max(args.tol, 1e-10)))


def _cmd_zeta_weighted(args) -> int:
    def run(graph, samples):
        coin = _load_coin(args, graph)
        if not coin.is_complex_valued():
            raise InputError(
                "weights have j/k parts; use the zeta-quat subcommand")
        return weighted_zeta_identity(graph, coin, samples,
                                      tol=max(args.tol, 1e-10))
    return _zeta_common(args, run)


def _cmd_zeta_quat(args) -> int:
    def run(graph, samples):
        coin = _load_coin(args, graph)
        return quaternionic_identity(graph, coin, samples,
                                     tol=max(args.tol, 1e-10))
    return _zeta_common(args, run)


# -- selftest ---------------------------------------------------------

def _fixture_text(name: str) -> str:
    return resources.files("qqwalk.fixtures").joinpath(name).read_text()


def _selftest_checks(seed: int):
    """Yield (name, passed) pairs for the golden + randomized suite."""
    from .graph import parse_graph

    k3 = parse_graph(_fixture_text("k3.g"))
    k13 = parse_graph(_fixture_text("k13.g"))
    ex_coin = parse_coin_file(_fixture_text("ex5.w"), k13)

    sqrt3 = np.sqrt(3.0)
    k3_expected = np.array(
        [1.0, 1.0, (-1 + sqrt3 * 1j) / 2, (-1 + sqrt3 * 1j) / 2,
         (-1 - sqrt3 * 1j) / 2, (-1 - sqrt3 * 1j) / 2])
    rep = spectrum_direct(k3, CoinMap.grover(k3))
    check = compare_spectra(
        rep.psi_spectrum, np.concatenate([k3_expected, np.conj(k3_expected)]),
        tol=1e-9)
    yield "triangle-grover-spectrum", check.verdict

    k13_expected = np.array([1j, 1j, -1j, -1j, 1.0, -1.0])
    rep = spectrum_direct(k13, CoinMap.grover(k13))
    check = compare_spectra(
        rep.psi_spectrum,
        np.concatenate([k13_expected, np.conj(k13_expected)]), tol=1e-9)
    yield "star-grover-spectrum", check.verdict

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
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n)
        coords = rng.uniform(-1.0, 1.0, 4)
        alpha = Quaternion(*coords)
        rep10 = spectrum_alpha_coin(g, alpha)
        if not rep10.cross_check.verdict:
            agree = False
            break
    yield "random-alpha-route-agreement", agree


def _cmd_selftest(args) -> int:
    failures = []
    for name, passed in _selftest_checks(args.seed):
        line = f"{'PASS' if passed else 'FAIL'}  {name}"
        sys.stdout.write(line + "\n")
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
    p.set_defaults(handler=_cmd_grover)

    p = sub.add_parser("unitarity", help="unitarity condition check")
    _add_common(p)
    p.set_defaults(handler=_cmd_unitarity)

    p = sub.add_parser("zeta-ihara", help="classical determinant identity")
    _add_common(p, coin=False, samples=True)
    p.set_defaults(handler=_cmd_zeta_ihara)

    p = sub.add_parser("zeta-weighted", help="complex-weighted identity")
    _add_common(p, samples=True)
    p.set_defaults(handler=_cmd_zeta_weighted)

    p = sub.add_parser("zeta-quat", help="quaternionic identity")
    _add_common(p, samples=True)
    p.set_defaults(handler=_cmd_zeta_quat)

    p = sub.add_parser("selftest", help="golden + randomized suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in vars(args):
            args.tol = (_default_tol() if args.tol is None
                        else _checked_tol(args.tol, "--tol"))
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.handler(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (np.linalg.LinAlgError, NotSimultaneouslyTriangularizableError,
            SpectrumConsistencyError, ArithmeticError,
            ZeroDivisionError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_VERDICT_FALSE


if __name__ == "__main__":
    sys.exit(main())
