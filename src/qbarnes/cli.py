"""Command line front end.

Two commands: `compute` evaluates a single quantity exactly and prints it,
`verify` runs one of the identity suites (or all of them) and reports every
check. Output is deterministic JSON by default, CSV on request. Rational
numbers are printed as "num/den" strings; p-adic numbers as
{"p", "M", "valuation", "unit"} objects.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .characters_lfunctions import (
    DirichletCharacter,
    h_chi,
    l_at_negative,
    l_riemann,
    twist_teichmuller,
)
from .errors import PreconditionError, QBarnesError
from .exact_numbers import (
    INFINITY,
    PadicContext,
    PadicNumber,
    agreement_valuation,
    format_rational,
    parse_rational,
)
from .euler_barnes import (
    BarnesParams,
    h_carlitz,
    h_closed,
    h_rational_in_q,
    limit_q_to_1,
)
from .padic_integration import (
    DEFAULT_BUDGET,
    AdmissibleU,
    MeasureCell,
    measure_E_value,
    mu_value,
)
from .qnum import QBase
from .series import classical_gf_coefficients, q_gf_coefficients
from .verify import SUITES, run_suite


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PreconditionError(
            f"expected comma-separated integers, got {text!r}", parameter="a"
        )


def _parse_character(spec: str, context: PadicContext | None) -> DirichletCharacter:
    if spec.startswith("{"):
        try:
            obj = json.loads(spec)
            modulus = int(obj["modulus"])
            values = [parse_rational(v) for v in obj["values"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(
                f"bad character JSON: {exc}", parameter="char"
            )
        return DirichletCharacter(modulus, values)
    if spec == "teichmuller":
        if context is None:
            raise PreconditionError(
                "teichmuller character needs --p and --precision", parameter="char"
            )
        return DirichletCharacter.teichmuller_character(context)
    kind, _, rest = spec.partition(":")
    if kind in ("trivial", "quadratic"):
        try:
            modulus = int(rest or "1")
        except ValueError:
            raise PreconditionError(
                f"bad character modulus {rest!r} in {spec!r}", parameter="char"
            )
        return getattr(DirichletCharacter, kind)(modulus)
    raise PreconditionError(
        f"unrecognized character spec {spec!r}; use trivial:D, quadratic:D, "
        "teichmuller, or a JSON object",
        parameter="char",
    )


def _value_json(value) -> object:
    if isinstance(value, PadicNumber):
        return value.to_json_dict()
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if "checks" in payload:
        writer.writerow(["suite", "name", "pass", "residual", "error_valuation"])
        for check in payload["checks"]:
            writer.writerow(
                [
                    payload["suite"],
                    check["name"],
                    check["pass"],
                    check.get("residual", ""),
                    check.get("error_valuation", ""),
                ]
            )
        writer.writerow([payload["suite"], "ALL", payload["pass"], "", ""])
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list):
            for i, item in enumerate(value):
                writer.writerow([f"{key}[{i}]", item])
        elif isinstance(value, dict):
            for sub in sorted(value):
                writer.writerow([f"{key}.{sub}", value[sub]])
        else:
            writer.writerow([key, value])


def _context_from_args(args) -> PadicContext | None:
    if getattr(args, "p", None) is None:
        return None
    return PadicContext(args.p, args.precision)


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise PreconditionError(
            "missing required flags: " + ", ".join("--" + n for n in missing)
        )


def _add_common(parser, *flags) -> None:
    table = {
        "q": lambda: parser.add_argument("--q", type=parse_rational, help="base q as num/den"),
        "u": lambda: parser.add_argument("--u", type=parse_rational, help="parameter u as num/den"),
        "a": lambda: parser.add_argument("--a", type=_parse_int_list, help="comma-separated nonzero integers a_1,..,a_r"),
        "n": lambda: parser.add_argument("--n", type=int, help="degree / order"),
        "k": lambda: parser.add_argument("--k", type=int, help="moment / twist index"),
        "w": lambda: parser.add_argument("--w", type=int, help="shift argument w"),
        "r": lambda: parser.add_argument("--r", type=int, help="rank (defaults to len(a))"),
        "x": lambda: parser.add_argument("--x", type=int, help="cell base point / power-series shift"),
        "f": lambda: parser.add_argument("--f", type=int, default=1, help="tame modulus factor"),
        "d": lambda: parser.add_argument("--d", type=int, default=1, help="arithmetic-progression step"),
        "p": lambda: parser.add_argument("--p", type=int, help="odd prime p"),
        "precision": lambda: parser.add_argument("--precision", type=int, default=8, help="p-adic working digits (default 8)"),
        "level-N": lambda: parser.add_argument("--level-N", dest="level_N", type=int, default=0, help="cell refinement level N"),
        "char": lambda: parser.add_argument("--char", help="character: trivial:D, quadratic:D, teichmuller, or JSON"),
        "budget": lambda: parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="summation budget"),
    }
    for flag in flags:
        table[flag]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbarnes",
        description="Exact q-deformed Euler-Barnes numbers, p-adic measures, "
        "and p-adic L-values, with identity verification suites.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (verify)")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate one quantity exactly")
    ops = compute.add_subparsers(dest="op", required=True)

    p_h = ops.add_parser("hbarnes", help="closed-form H_n(w, u, q | a)")
    _add_common(p_h, "n", "w", "a", "u", "q")

    p_poly = ops.add_parser(
        "hbarnes-poly", help="H_n(w) as a reduced rational function of q"
    )
    _add_common(p_poly, "n", "w", "a", "u", "r")

    p_gf = ops.add_parser(
        "gf-coeffs", help="n!-scaled generating-function coefficients"
    )
    _add_common(p_gf, "n", "a", "u", "q", "x")

    p_cl = ops.add_parser(
        "classical", help="classical Frobenius-Euler numbers H_n(w, v | a)"
    )
    _add_common(p_cl, "n", "w", "a", "u")

    p_ca = ops.add_parser("carlitz", help="umbral recurrence values H_k(u, q)")
    _add_common(p_ca, "k", "u", "q")

    p_hc = ops.add_parser("hchi", help="character-twisted H_{k,chi}(u, q | a)")
    _add_common(p_hc, "k", "a", "u", "q", "char", "p", "precision")

    p_lv = ops.add_parser(
        "lvalue", help="p-adic L-value at s = -k, with optional level check"
    )
    _add_common(p_lv, "k", "a", "u", "q", "char", "p", "precision", "level-N", "budget")

    p_me = ops.add_parser("measure", help="k-th moment measure of one cell")
    _add_common(p_me, "k", "x", "f", "level-N", "u", "q", "a", "p")

    p_mu = ops.add_parser("mu", help="basic measure mu_u of one cell")
    _add_common(p_mu, "x", "f", "d", "level-N", "u", "p")

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("suite", choices=[*SUITES, "all"])
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    return parser


def _dispatch_compute(args) -> dict:
    op = args.op
    if op == "hbarnes":
        _require(args, "n", "w", "a", "u", "q")
        params = BarnesParams(args.a, args.u, QBase(args.q))
        value = h_closed(args.n, args.w, params)
        return {
            "op": op,
            "n": args.n,
            "w": args.w,
            "a": list(args.a),
            "u": format_rational(args.u),
            "q": format_rational(args.q),
            "value": _value_json(value),
        }
    if op == "hbarnes-poly":
        _require(args, "n", "w", "a", "u")
        r = args.r if args.r is not None else len(args.a)
        ratfn = h_rational_in_q(args.n, args.w, r, args.a, args.u)
        return {
            "op": op,
            "n": args.n,
            "w": args.w,
            "a": list(args.a),
            "r": r,
            "u": format_rational(args.u),
            "numerator": [format_rational(c) for c in ratfn.numerator.coeffs],
            "denominator": [format_rational(c) for c in ratfn.denominator.coeffs],
            "limit_q1": format_rational(limit_q_to_1(args.n, args.w, r, args.a, args.u)),
        }
    if op == "gf-coeffs":
        _require(args, "n", "a", "u", "q")
        params = BarnesParams(args.a, args.u, QBase(args.q))
        coeffs = q_gf_coefficients(params, args.x, args.n)
        return {
            "op": op,
            "n_max": args.n,
            "a": list(args.a),
            "u": format_rational(args.u),
            "q": format_rational(args.q),
            "x": args.x,
            "coefficients": [format_rational(c) for c in coeffs],
        }
    if op == "classical":
        _require(args, "n", "w", "a", "u")
        coeffs = classical_gf_coefficients(args.w, args.u, args.a, args.n)
        return {
            "op": op,
            "n_max": args.n,
            "w": args.w,
            "a": list(args.a),
            "v": format_rational(args.u),
            "coefficients": [format_rational(c) for c in coeffs],
        }
    if op == "carlitz":
        _require(args, "k", "u", "q")
        value = h_carlitz(args.k, args.u, args.q)
        return {
            "op": op,
            "k": args.k,
            "u": format_rational(args.u),
            "q": format_rational(args.q),
            "value": _value_json(value),
        }
    if op == "hchi":
        _require(args, "k", "a", "u", "q", "char")
        context = _context_from_args(args)
        chi = _parse_character(args.char, context)
        value = h_chi(args.k, len(args.a), args.a, args.u, args.q, chi)
        return {
            "op": op,
            "k": args.k,
            "a": list(args.a),
            "u": format_rational(args.u),
            "q": format_rational(args.q),
            "char": args.char,
            "value": _value_json(value),
        }
    if op == "lvalue":
        _require(args, "k", "a", "u", "q", "char", "p")
        context = _context_from_args(args)
        chi = _parse_character(args.char, context)
        uu = AdmissibleU(args.u, args.p)
        a1 = args.a[0]
        closed = l_at_negative(args.k, chi, uu, args.q, a1, context)
        payload = {
            "op": op,
            "k": args.k,
            "a1": a1,
            "u": format_rational(args.u),
            "q": format_rational(args.q),
            "char": args.char,
            "p": args.p,
            "value": _value_json(closed),
        }
        if args.level_N > 0:
            twist = twist_teichmuller(chi, args.k, context)
            level = l_riemann(
                -args.k, twist, uu, args.q, a1, context, args.level_N, args.budget
            )
            ag = agreement_valuation(level, closed)
            payload["riemann"] = _value_json(level)
            payload["level_N"] = args.level_N
            payload["agreement_valuation"] = "inf" if ag == INFINITY else int(ag)
        return payload
    if op == "measure":
        _require(args, "k", "x", "u", "q", "p")
        uu = AdmissibleU(args.u, args.p)
        cell = MeasureCell(args.x, args.f, args.level_N)
        cell.check(args.p)
        a1 = args.a[0] if args.a else 1
        value = measure_E_value(cell, args.k, uu, args.q, a1)
        return {
            "op": op,
            "k": args.k,
            "x": args.x,
            "f": args.f,
            "N": args.level_N,
            "a1": a1,
            "u": format_rational(args.u),
            "q": format_rational(args.q),
            "p": args.p,
            "value": _value_json(value),
        }
    if op == "mu":
        _require(args, "x", "u", "p")
        uu = AdmissibleU(args.u, args.p)
        cell = MeasureCell(args.x, args.f, args.level_N, args.d)
        cell.check(args.p)
        value = mu_value(cell, uu)
        return {
            "op": op,
            "x": args.x,
            "f": args.f,
            "N": args.level_N,
            "d": args.d,
            "u": format_rational(args.u),
            "p": args.p,
            "value": _value_json(value),
        }
    raise PreconditionError(f"unknown compute op {op!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "compute":
            payload = _dispatch_compute(args)
            _emit(payload, args.format)
            return 0
        report = run_suite(args.suite, seed=args.seed, budget=args.budget)
        _emit(report.to_dict(), args.format)
        return 0 if report.passed else 1
    except QBarnesError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if exc.parameter is not None:
            payload["parameter"] = exc.parameter
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
