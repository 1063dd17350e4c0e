"""Per-layer metrics, computed from one traced run's spans and counters.

Each metric is (name, unit, how): "calls" counts spans of the listed names,
"self" sums their self time, "busy" sums their whole duration, "counter"
reads a value the tracer recorded at a call boundary, and "rate", "ratio"
and "per_op" divide one of those by another. The comment
above each group names the end-to-end metric a change there should move.

A layer function's self time includes the Fraction and PadicNumber
operators it calls directly (the exact sums of `multi_riemann_integral` are
L3's work even though each addition is a `Fraction.__add__`), while
`exact_numbers.fraction_self_s` and `.padic_self_s` count every operator
call, whoever made it. The two views overlap and are not meant to be added;
the span self times, which do add up to the traced wall time, are reported
as `trace.self_time_sum_s`.
"""
from __future__ import annotations

from tracer import ARITHMETIC

SUITES = (
    "theorem1-gf", "addition", "distribution", "riemann-limit", "carlitz-bridge",
    "qlimit", "measure-additivity", "measure-bound", "prop5", "eq8-bridge",
    "interpolation", "kummer", "unit-power",
)

FRACTION = tuple("Fraction." + m for m in ARITHMETIC)
PADIC = tuple("exact_numbers.PadicNumber." + m for m in ARITHMETIC)
RIEMANN = ("padic_integration.multi_riemann_integral", "padic_integration.riemann_integral")
MEASURE = ("padic_integration.measure_E_value", "padic_integration.mu_value")
MEASURE_ALL = MEASURE + (
    "padic_integration.measure_additivity_check", "padic_integration.measure_bound_check",
)
PADIC_POW = ("exact_numbers.padic_pow", "exact_numbers.padic_log", "exact_numbers.padic_exp")
L_NEGATIVE = (
    "characters_lfunctions.l_at_negative", "characters_lfunctions._l_negative_exact",
    "characters_lfunctions.kummer_check",
)
CHARACTER_BUILD = tuple(
    "characters_lfunctions.DirichletCharacter." + m
    for m in ("__init__", "trivial", "quadratic", "from_generator", "teichmuller_character")
) + ("characters_lfunctions.twist_teichmuller",)
QBRACKET = ("qnum.qbracket", "qnum.qbracket_z", "qnum.qbracket_base")
RATIONAL_IN_Q = (
    "euler_barnes.h_rational_in_q", "euler_barnes.limit_q_to_1",
    "euler_barnes.RationalFunctionQ.__init__", "euler_barnes.RationalFunctionQ.__call__",
)
POLY_MUL = ("euler_barnes.Poly.__mul__", "euler_barnes.Poly.__pow__")
GF = ("series.q_gf_coefficients", "series.classical_gf_coefficients")
SERIES_ALL = GF + tuple(
    "series.TruncatedSeries." + m for m in ("__add__", "__sub__", "__mul__", "scale", "reciprocal")
)

METRICS = [
    # -> wall_s on verify-all; no change predicted on the other two
    ("padic_integration.riemann_calls", "count", "calls", RIEMANN),
    ("padic_integration.riemann_self_s", "s", "self", RIEMANN),
    ("padic_integration.riemann_points", "count", "counter", "riemann_points"),
    ("padic_integration.riemann_points_per_s", "1/s", "rate", ("riemann_points", RIEMANN)),
    ("padic_integration.riemann_bits_max", "bit", "counter", "riemann_bits_max"),
    # -> wall_s on verify-all, op_p50_ms on compute-mix
    ("padic_integration.prop5_self_s", "s", "self", ("padic_integration.prop5_check",)),
    ("padic_integration.measure_calls", "count", "calls", MEASURE),
    ("padic_integration.measure_self_s", "s", "self", MEASURE_ALL),
    # -> wall_s on verify-all, op_tail_ms on closed-forms, peak_rss_mb
    ("exact_numbers.fraction_ops", "count", "calls", FRACTION),
    ("exact_numbers.fraction_self_s", "s", "self", FRACTION),
    ("exact_numbers.fraction_bits_max", "bit", "counter", "fraction_bits_max"),
    # -> op_tail_ms on compute-mix (lvalue level sums, hchi teichmuller)
    ("exact_numbers.padic_ops", "count", "calls", PADIC),
    ("exact_numbers.padic_self_s", "s", "self", PADIC),
    ("exact_numbers.valuation_calls", "count", "calls", ("exact_numbers.valuation",)),
    ("exact_numbers.valuation_self_s", "s", "self", ("exact_numbers.valuation",)),
    ("exact_numbers.to_padic_calls", "count", "calls", ("exact_numbers.to_padic",)),
    ("exact_numbers.to_padic_self_s", "s", "self", ("exact_numbers.to_padic",)),
    ("exact_numbers.padic_pow_calls", "count", "calls", ("exact_numbers.padic_pow",)),
    ("exact_numbers.padic_pow_self_s", "s", "self", PADIC_POW),
    ("exact_numbers.teichmuller_calls", "count", "calls", ("exact_numbers.teichmuller",)),
    # -> op_tail_ms on compute-mix, wall_s on verify-all
    ("characters_lfunctions.l_riemann_calls", "count", "calls", ("characters_lfunctions.l_riemann",)),
    ("characters_lfunctions.l_riemann_self_s", "s", "self", ("characters_lfunctions.l_riemann",)),
    ("characters_lfunctions.l_riemann_points", "count", "counter", "l_riemann_points"),
    ("characters_lfunctions.angle_bracket_calls", "count", "calls", ("characters_lfunctions.angle_bracket",)),
    ("characters_lfunctions.angle_bracket_self_s", "s", "self", ("characters_lfunctions.angle_bracket",)),
    ("characters_lfunctions.h_chi_calls", "count", "calls", ("characters_lfunctions.h_chi",)),
    ("characters_lfunctions.h_chi_self_s", "s", "self", ("characters_lfunctions.h_chi",)),
    ("characters_lfunctions.l_at_negative_self_s", "s", "self", L_NEGATIVE),
    ("characters_lfunctions.character_build_self_s", "s", "self", CHARACTER_BUILD),
    # -> op_p50_ms on closed-forms and compute-mix
    ("euler_barnes.h_closed_calls", "count", "calls", ("euler_barnes.h_closed",)),
    ("euler_barnes.h_closed_self_s", "s", "self", ("euler_barnes.h_closed",)),
    ("euler_barnes.h_closed_bits_max", "bit", "counter", "h_closed_bits_max"),
    ("qnum.qbracket_calls", "count", "calls", ("qnum.qbracket",)),
    ("qnum.qbracket_self_s", "s", "self", QBRACKET),
    # -> op_tail_ms on closed-forms and compute-mix (hbarnes-poly), wall_s on verify-all (qlimit)
    ("euler_barnes.h_rational_in_q_calls", "count", "calls", ("euler_barnes.h_rational_in_q",)),
    ("euler_barnes.h_rational_in_q_self_s", "s", "self", RATIONAL_IN_Q),
    ("euler_barnes.poly_mul_calls", "count", "calls", ("euler_barnes.Poly.__mul__",)),
    ("euler_barnes.poly_mul_self_s", "s", "self", POLY_MUL),
    ("euler_barnes.poly_gcd_calls", "count", "calls", ("euler_barnes.poly_gcd",)),
    ("euler_barnes.poly_gcd_self_s", "s", "self", ("euler_barnes.poly_gcd",)),
    ("euler_barnes.poly_gcd_trivial_ratio", "ratio", "ratio", ("poly_gcd_trivial", ("euler_barnes.poly_gcd",))),
    # -> ops_per_s on closed-forms
    ("euler_barnes.h_addition_self_s", "s", "self", ("euler_barnes.h_addition",)),
    ("euler_barnes.h_carlitz_self_s", "s", "self", ("euler_barnes.h_carlitz",)),
    ("euler_barnes.distribution_self_s", "s", "self", ("euler_barnes.distribution_check",)),
    ("series.gf_calls", "count", "calls", GF),
    ("series.gf_self_s", "s", "self", SERIES_ALL),
    ("series.mul_calls", "count", "calls", ("series.TruncatedSeries.__mul__",)),
    # -> wall_s on verify-all (whole duration of each suite)
    *[(f"verify.{s}_s", "s", "busy", (f"verify.suite.{s}",)) for s in SUITES],
    ("verify.checks", "count", "counter", "verify_checks"),
    ("verify.resample_ratio", "ratio", "counter", "verify_resample_ratio"),
    # -> op_p50_ms on compute-mix; no change predicted on closed-forms
    ("cli.parse_s", "s", "busy", ("cli.build_parser", "cli.parse_args")),
    ("cli.parse_ms_per_op", "ms", "per_op", (("cli.build_parser", "cli.parse_args"), ("cli.build_parser",))),
    ("cli.dispatch_s", "s", "busy", ("cli._dispatch_compute", "verify.run_suite")),
    ("cli.emit_s", "s", "busy", ("cli._emit",)),
]

# Filled in by the harness, not from spans.
TRACE_METRICS = [
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_time_sum_s", "s"),
    ("trace.unattributed_s", "s"),
]


def compute(by_name: dict[str, list], counters: dict[str, float]) -> dict[str, dict]:
    """Metric name -> {"value", "unit"} for every METRICS entry."""

    def total(names, idx):
        return sum(by_name.get(n, (0, 0.0, 0.0, 0.0))[idx] for n in names)

    out = {}
    for name, unit, how, arg in METRICS:
        if how == "calls":
            value = total(arg, 0)
        elif how == "busy":
            value = total(arg, 1)
        elif how == "self":
            value = total(arg, 2) + total(arg, 3)
        elif how == "counter":
            value = counters.get(arg, 0)
        elif how == "rate":
            busy = total(arg[1], 1)
            value = counters.get(arg[0], 0) / busy if busy else 0.0
        elif how == "per_op":  # milliseconds of the first names per call of the second
            calls = total(arg[1], 0)
            value = 1000 * total(arg[0], 1) / calls if calls else 0.0
        else:  # ratio of a counter to a call count
            calls = total(arg[1], 0)
            value = counters.get(arg[0], 0) / calls if calls else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def verify_counters(report: dict) -> dict[str, float]:
    """Check count and resample share from a `verify all` JSON report."""
    checks = report["checks"]
    resamples = sum(c["params"].get("resamples", 0) for c in checks)
    sampled = sum(1 for c in checks if "resamples" in c["params"])
    return {
        "verify_checks": len(checks),
        "verify_resample_ratio": resamples / (resamples + sampled) if sampled else 0.0,
    }
