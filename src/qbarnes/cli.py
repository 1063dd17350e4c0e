"""Command line front end.

Two commands: `compute` evaluates a single quantity exactly and prints it,
`verify` runs one of the identity suites (or all of them) and reports every
check. Output is deterministic JSON by default, CSV on request. Rational
numbers are printed as "num/den" strings; p-adic numbers as
{"p", "M", "valuation", "unit"} objects.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .characters_lfunctions import (
    DirichletCharacter,
    h_chi,
    l_at_negative,
    l_riemann,
    twist_teichmuller,
)
from .errors import PreconditionError, QBarnesError
from .exact_numbers import (
    PadicContext,
    PadicNumber,
    agreement_valuation,
    format_rational,
    format_valuation,
    parse_rational,
)
from .euler_barnes import (
    BarnesParams,
    h_carlitz,
    h_closed,
    h_rational_in_q,
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
        raise PreconditionError(f"expected comma-separated integers, got {text!r}")


def _json_rational(value: object) -> Fraction:
    """A JSON character value: a rational string, or an integer (not a bool)."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise PreconditionError(
        f"character value {json.dumps(value)} is not a string or an integer"
    )


def _parse_character(spec: str, context: PadicContext | None) -> DirichletCharacter:
    if spec.startswith("{"):
        try:
            obj = json.loads(spec)
            modulus, values = obj["modulus"], obj["values"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise PreconditionError(f"bad character JSON: {exc}")
        # json.loads reads true and false as bools, which are ints to isinstance
        int_modulus = isinstance(modulus, int) and not isinstance(modulus, bool)
        if not (int_modulus and isinstance(values, list)):
            raise PreconditionError(
                "character JSON needs an integer modulus and an array of values"
            )
        return DirichletCharacter(modulus, [_json_rational(v) for v in values])
    if spec == "teichmuller":
        if context is None:
            raise PreconditionError("teichmuller character needs --p")
        return DirichletCharacter.teichmuller_character(context)
    kind, _, rest = spec.partition(":")
    if kind in ("trivial", "quadratic"):
        try:
            modulus = int(rest or "1")
        except ValueError:
            raise PreconditionError(f"bad character modulus {rest!r} in {spec!r}")
        return getattr(DirichletCharacter, kind)(modulus)
    raise PreconditionError(
        f"unrecognized character spec {spec!r}; use trivial:D, quadratic:D, "
        "teichmuller, or a JSON object"
    )


def _named(flag: str, parse):
    """`parse`, with any PreconditionError it raises naming `--flag`."""

    def parse_flag(*args):
        try:
            return parse(*args)
        except PreconditionError as exc:
            exc.parameter = flag
            raise

    return parse_flag


_character = _named("char", _parse_character)


def _parse_budget(text: str) -> int:
    """A --budget value, of verify and of compute alike: at least 1 point,
    checked before any work (and before `verify all` starts its workers)."""
    try:
        budget = int(text)
    except ValueError:  # argparse's usage error, worded as for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if budget < 1:
        raise PreconditionError("budget must be >= 1", parameter="budget")
    return budget


def _value_json(value) -> object:
    if isinstance(value, PadicNumber):
        return value.to_json_dict()
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_value_json(item) for item in value]
    return value


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    import csv  # only CSV output needs it; deferred to keep start-up short

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


# argparse keywords of every compute flag; a flag's attribute on the parsed
# namespace is its name with "-" replaced by "_"
FLAGS = {
    "q": dict(type=_named("q", parse_rational), help="base q as num/den"),
    "u": dict(type=_named("u", parse_rational), help="parameter u as num/den"),
    "a": dict(type=_named("a", _parse_int_list), help="comma-separated nonzero integers a_1,..,a_r"),
    "n": dict(type=int, help="degree / order"),
    "k": dict(type=int, help="moment / twist index"),
    "w": dict(type=int, help="shift argument w"),
    "r": dict(type=int, help="rank; must equal the number of --a entries"),
    "x": dict(type=int, help="cell base point / power-series shift"),
    "f": dict(type=int, default=1, help="tame modulus factor"),
    "d": dict(type=int, default=1, help="arithmetic-progression step"),
    "p": dict(type=int, help="odd prime p"),
    "precision": dict(type=int, default=8, help="p-adic working digits (default 8)"),
    "level-N": dict(type=int, default=0, help="cell refinement level N"),
    "char": dict(help="character: trivial:D, quadratic:D, teichmuller, or JSON"),
    "budget": dict(type=_parse_budget, default=DEFAULT_BUDGET, help="summation budget"),
}


def _a1(args) -> int:
    """The single a_j of lvalue and measure; measure defaults it to 1."""
    a = args.a or (1,)
    if len(a) != 1:
        raise PreconditionError(f"this op takes one entry a1, got {len(a)}", parameter="a")
    return a[0]


def _barnes(args) -> BarnesParams:
    return BarnesParams(args.a, args.u, QBase(args.q))


def _rational_function(args) -> dict:
    r = args.r if args.r is not None else len(args.a)
    ratfn = h_rational_in_q(args.n, args.w, r, args.a, args.u)
    return {
        "r": r,
        "numerator": ratfn.numerator.coeffs,
        "denominator": ratfn.denominator.coeffs,
        "limit_q1": ratfn(Fraction(1)),
    }


def _twisted(args) -> dict:
    context = PadicContext(args.p, args.precision) if args.p is not None else None
    chi = _character(args.char, context)
    return {"value": h_chi(args.k, len(args.a), args.a, args.u, args.q, chi)}


def _l_value(args) -> dict:
    context = PadicContext(args.p, args.precision)
    chi = _character(args.char, context)
    u = AdmissibleU(args.u, args.p)
    a1 = _a1(args)
    closed = l_at_negative(args.k, chi, u, args.q, a1, context)
    out = {"a1": a1, "value": closed}
    if args.level_N != 0:  # l_riemann rejects a negative level
        twist = twist_teichmuller(chi, args.k, context)
        level = l_riemann(-args.k, twist, u, args.q, a1, context, args.level_N, args.budget)
        ag = agreement_valuation(level, closed)
        out["riemann"] = level
        out["level_N"] = args.level_N
        out["agreement_valuation"] = format_valuation(ag)
    return out


def _moment_measure(args) -> dict:
    u = AdmissibleU(args.u, args.p)
    cell = MeasureCell(args.x, args.f, args.level_N)
    a1 = _a1(args)
    return {"a1": a1, "value": measure_E_value(cell, args.k, u, args.q, a1)}


def _basic_measure(args) -> dict:
    cell = MeasureCell(args.x, args.f, args.level_N, args.d)
    return {"value": mu_value(cell, AdmissibleU(args.u, args.p))}


class Op(NamedTuple):
    """One compute op. The flag lists are space-separated FLAGS keys."""

    help: str
    required: str
    optional: str
    # the flags echoed into the payload, in order; "field=flag" renames
    echo: str
    # the parsed flags -> the payload fields the op computes
    compute: Callable[[argparse.Namespace], dict]


OPS = {
    "hbarnes": Op(
        "closed-form H_n(w, u, q | a)", "n w a u q", "", "n w a u q",
        lambda args: {"value": h_closed(args.n, args.w, _barnes(args))},
    ),
    "hbarnes-poly": Op(
        "H_n(w) as a reduced rational function of q", "n w a u", "r", "n w a u",
        _rational_function,
    ),
    "gf-coeffs": Op(
        "n!-scaled generating-function coefficients", "n a u q", "x", "n_max=n a u q x",
        lambda args: {"coefficients": q_gf_coefficients(_barnes(args), args.x or 0, args.n)},
    ),
    "classical": Op(
        "classical Frobenius-Euler numbers H_n(w, v | a)", "n w a u", "", "n_max=n w a v=u",
        lambda args: {"coefficients": classical_gf_coefficients(args.w, args.u, args.a, args.n)},
    ),
    "carlitz": Op(
        "umbral recurrence values H_k(u, q)", "k u q", "", "k u q",
        lambda args: {"value": h_carlitz(args.k, args.u, args.q)},
    ),
    "hchi": Op(
        "character-twisted H_{k,chi}(u, q | a)", "k a u q char", "p precision", "k a u q char",
        _twisted,
    ),
    "lvalue": Op(
        "p-adic L-value at s = -k, with optional level check",
        "k a u q char p", "precision level-N budget", "k u q char p",
        _l_value,
    ),
    "measure": Op(
        "k-th moment measure of one cell", "k x u q p", "f level-N a", "k x f N=level-N u q p",
        _moment_measure,
    ),
    "mu": Op(
        "basic measure mu_u of one cell", "x u p", "f d level-N", "x f N=level-N d u p",
        _basic_measure,
    ),
}


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
    for name, op in OPS.items():
        op_parser = ops.add_parser(name, help=op.help)
        for flag in (op.required + " " + op.optional).split():
            op_parser.add_argument("--" + flag, **FLAGS[flag])

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("suite", choices=[*SUITES, "all"])
    verify.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)

    return parser


def _dispatch_compute(args) -> dict:
    op = OPS[args.op]
    missing = [f for f in op.required.split() if getattr(args, f.replace("-", "_")) is None]
    if missing:
        raise PreconditionError(
            "missing required flags: " + ", ".join("--" + f for f in missing),
            parameter=missing[0],
        )
    payload = {"op": args.op}
    for field in op.echo.split():
        name, _, flag = field.partition("=")
        payload[name] = getattr(args, (flag or name).replace("-", "_"))
    payload.update(op.compute(args))
    return {key: _value_json(value) for key, value in payload.items()}


# The parser main() builds on its first call and reuses. build_parser stays a
# factory that returns a new parser per call: perfbench's tracer wraps
# parse_args on each parser it returns, once.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one `qbarnes` command on `argv` (default: sys.argv[1:]) and
    return its exit code. main may be called repeatedly in one process: it
    builds the argument parser on its first call and reuses it after."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if args.command == "compute":
            payload = _dispatch_compute(args)
            _emit(payload, args.format)
            return 0
        report = run_suite(args.suite, seed=args.seed, budget=args.budget)
        _emit(report, args.format)
        return 0 if report["pass"] else 1
    except QBarnesError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if exc.parameter is not None:
            payload["parameter"] = exc.parameter
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
