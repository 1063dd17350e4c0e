"""Each suite must be able to fail by its own pass test: a fault put into
the code a suite witnesses, never into the suite itself, must make its
report read "pass": false. Every case runs at seed 0.

Faults so far, first in the batches that route 1 sums for the order-f
refinement (`euler_barnes.refinement` and its run over n,
`euler_barnes.refinement_run`):
- `distribution`: the batch of `distribution_run` loses its last index i;
- `eq8-bridge`: one chi weight of rational-mode `h_chi`'s batch flips sign;
- `measure-additivity`: the batch of fine cells loses its last cell;
then in the functions the suites call:
- `interpolation` and `unit-power`: `angle_bracket` returns [x : q],
  without the division by omega(x);
- `interpolation`: the L-value run `l_riemann_run` pairs each k's power
  -k with the next k's twist by omega^(k+1);
- `addition`: route 2's sum, `_addition_sum`, takes C(n, k-1) for C(n, k);
- `riemann-limit` and `prop5`: `_level_sums` sums the last axis with its
  a_r read as -a_r, and, apart, `_axis_sum` drops the last term of every
  axis sum;
- `eq8-bridge`, at seeds 0-2: `_axis_sum` drops the last term of every
  axis sum;
- `theorem1-gf` and `qlimit`: `TruncatedSeries.scalar_exp` drops its top
  coefficient;
- `carlitz-bridge`: `h_carlitz` takes C(m, i-1) for C(m, i);
- `qlimit`: `Poly.__call__` drops the constant term of a nonconstant
  polynomial.
"""
import json
import sys
import types
from fractions import Fraction
from math import comb

from qbarnes import characters_lfunctions, euler_barnes, padic_integration, verify
from qbarnes.characters_lfunctions import angle_bracket
from qbarnes.cli import main
from qbarnes.euler_barnes import Poly
from qbarnes.exact_numbers import teichmuller
from qbarnes.series import TruncatedSeries
from qbarnes.verify import run_suite


def _faulty_refinement(refinement, fault):
    """`refinement`, with `fault` applied to the (coefficient, index) pairs
    of every batch its refined sum takes."""

    def faulty(*args):
        refined = refinement(*args)
        return lambda pairs: refined(fault(list(pairs)))

    return faulty


def _drop_last(pairs):
    return pairs[:-1]


def _drop_last_of_several(pairs):
    """The last pair dropped from a batch of two or more: a single cell's
    batch, like the coarse cell of an additivity check, is left whole."""
    return pairs[:-1] if len(pairs) > 1 else pairs


def _flip_last(pairs):
    cv, iv = pairs[-1]
    return [*pairs[:-1], (-cv, iv)]


def test_distribution_fails_without_the_last_index(monkeypatch, capsys):
    assert run_suite("distribution")["pass"]
    # distribution_run refines every n of a run at once
    monkeypatch.setattr(
        euler_barnes,
        "refinement_run",
        _faulty_refinement(euler_barnes.refinement_run, _drop_last),
    )
    report = run_suite("distribution")
    assert not report["pass"]
    assert all(not check["pass"] for check in report["checks"])
    # the CLI exits 1 on a failing report
    assert main(["verify", "distribution"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_eq8_bridge_fails_on_a_flipped_chi_weight(monkeypatch):
    assert run_suite("eq8-bridge")["pass"]
    monkeypatch.setattr(
        characters_lfunctions,
        "refinement",
        _faulty_refinement(characters_lfunctions.refinement, _flip_last),
    )
    report = run_suite("eq8-bridge")
    assert not report["pass"]
    # every character fails at some k, the trivial one's single term too
    failed = {check["params"]["character"] for check in report["checks"] if not check["pass"]}
    assert failed == {"trivial", "quadratic3", "quadratic4"}


def test_measure_additivity_fails_without_the_last_fine_cell(monkeypatch):
    assert run_suite("measure-additivity")["pass"]
    monkeypatch.setattr(
        padic_integration,
        "refinement",
        _faulty_refinement(padic_integration.refinement, _drop_last_of_several),
    )
    # 16 of the wrong residuals have more decimal digits than str(int)
    # prints by default, so the report is built with that limit lifted
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report = run_suite("measure-additivity")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert not report["pass"]
    # the coarse cell is one pair, so only the fine batch lost a cell; its
    # E_k is nonzero in every check
    assert all(not check["pass"] for check in report["checks"])


def test_interpolation_and_unit_power_fail_without_the_omega_division(monkeypatch):
    # <x : q> returned as [x : q] = <x : q> omega(x)
    def bracket(x, q, context):
        return angle_bracket(x, q, context) * teichmuller(x, context)

    for suite in ("interpolation", "unit-power"):
        assert run_suite(suite)["pass"]
    monkeypatch.setattr(characters_lfunctions, "angle_bracket", bracket)
    monkeypatch.setattr(verify, "angle_bracket", bracket)
    interpolation = run_suite("interpolation")
    assert not interpolation["pass"]
    # [x : q] is not a 1-unit, so no power of it tends to 1
    unit_power = run_suite("unit-power")
    assert all(not check["pass"] for check in unit_power["checks"])


def test_interpolation_fails_with_each_power_paired_with_the_next_twist(monkeypatch):
    # the run's terms (-k, chi omega^k) become (-k, chi omega^(k+1)), the
    # last power paired with the first twist
    run = characters_lfunctions.l_riemann_run

    def shifted(terms, *args):
        powers, twists = zip(*terms)
        return run([*zip(powers, twists[1:] + twists[:1])], *args)

    assert run_suite("interpolation")["pass"]
    monkeypatch.setattr(verify, "l_riemann_run", shifted)
    checks = run_suite("interpolation")["checks"]

    def key(check):
        return tuple(check["params"][name] for name in ("p", "character", "a1", "k"))

    # omega^4 = omega^0 at p = 3 and 5, so k = 4 keeps its own twist. The
    # quadratic character's wrong sums still agree with the closed form to
    # 3-5 digits, which the pass test ag >= min(N, M - 2) accepts at N <= 4;
    # every other (p, a1, k) fails at some level
    failed = {key(check) for check in checks if not check["pass"]}
    trivial = {key(c) for c in checks if c["params"]["character"] == "trivial"}
    assert failed == {(p, label, a1, k) for p, label, a1, k in trivial if k < 4}
    assert len(failed) == 16


def _with_shifted_binomial(function):
    """`function`, an `euler_barnes` function, with its own C(n, k) read as
    C(n, k-1); the functions it calls keep the right binomials."""

    def shifted(n, k):
        return comb(n, k - 1) if k else 0

    return types.FunctionType(function.__code__, {**vars(euler_barnes), "comb": shifted})


def test_addition_fails_with_a_shifted_binomial(monkeypatch):
    # the suite sums route 2 through _addition_sum, from its own H_k(0)
    faulty = _with_shifted_binomial(euler_barnes._addition_sum)
    assert run_suite("addition")["pass"]
    monkeypatch.setattr(euler_barnes, "_addition_sum", faulty)
    monkeypatch.setattr(verify, "_addition_sum", faulty)
    report = run_suite("addition")
    assert all(not check["pass"] for check in report["checks"])


def _assert_every_level_sum_fails():
    """riemann-limit and prop5 with a fault in their level sums: n = 0 and
    k = 0 take no sum and still pass; every other check fails, the
    nu_p(u) < 0 draw's too."""
    riemann_limit = run_suite("riemann-limit")
    checks = riemann_limit["checks"]
    assert not riemann_limit["pass"]
    # the nu_p(u) < 0 draw is there: u = c/p, with c prime to p
    assert any(Fraction(check["params"]["u"]).numerator % check["params"]["p"] for check in checks)
    assert all(check["pass"] == (check["params"]["n"] == 0) for check in checks)
    prop5 = run_suite("prop5")
    assert all(check["pass"] == (check["params"]["k"] == 0) for check in prop5["checks"])


def test_riemann_limit_and_prop5_fail_with_the_last_axis_summed_backwards(monkeypatch):
    # the level sums with a[-1] read as -a[-1]
    level_sums = padic_integration._level_sums

    def backwards(ns, ws, params, u, N):
        a = params.a
        flipped = euler_barnes.BarnesParams((*a[:-1], -a[-1]), params.u, params.q)
        return level_sums(ns, ws, flipped, u, N)

    for suite in ("riemann-limit", "prop5"):
        assert run_suite(suite)["pass"]
    monkeypatch.setattr(padic_integration, "_level_sums", backwards)
    _assert_every_level_sum_fails()


def _without_the_last_term(axis_sum):
    """`_axis_sum` less its term x = points - 1, A^(points - 1): an error of
    valuation about v (points - 1), which only a bound of v points + N sees
    at nu_p(u) = v >= 1."""

    def short(A, B, points):
        return axis_sum(A, B, points) - A ** (points - 1)

    return short


def test_riemann_limit_and_prop5_fail_without_the_last_term_of_an_axis_sum(monkeypatch):
    for suite in ("riemann-limit", "prop5"):
        assert run_suite(suite)["pass"]
    monkeypatch.setattr(
        padic_integration, "_axis_sum", _without_the_last_term(padic_integration._axis_sum)
    )
    _assert_every_level_sum_fails()


def test_eq8_bridge_fails_without_the_last_term_of_an_axis_sum(monkeypatch):
    # the class sums' axis sums and the normaliser each lose a term; every
    # check falls below v D p^N + N, though its valuations still increase
    # with the level and reach N at the last one
    seeds = (0, 1, 2)
    for seed in seeds:
        assert run_suite("eq8-bridge", seed)["pass"]
    monkeypatch.setattr(
        padic_integration, "_axis_sum", _without_the_last_term(padic_integration._axis_sum)
    )
    for seed in seeds:
        checks = run_suite("eq8-bridge", seed)["checks"]
        assert len(checks) == 30 and all(not check["pass"] for check in checks), seed
        for check in checks:
            vals = [int(v) for v in check["params"]["valuations"]]
            assert vals == sorted(vals) and vals[-1] >= check["params"]["levels"][-1]


def test_theorem1_gf_and_qlimit_fail_when_exp_drops_its_top_coefficient(monkeypatch):
    # each suite's generating function multiplies by a truncated exp(c t),
    # so its coefficient of t^n_max, which every check compares, is wrong
    scalar_exp = TruncatedSeries.scalar_exp

    def truncated(cls, c, order):
        return cls([*scalar_exp(c, order).coeffs[:-1], 0], order)

    for suite in ("theorem1-gf", "qlimit"):
        assert run_suite(suite)["pass"]
    monkeypatch.setattr(TruncatedSeries, "scalar_exp", classmethod(truncated))
    for suite in ("theorem1-gf", "qlimit"):
        report = run_suite(suite)
        assert all(not check["pass"] for check in report["checks"]), suite


def test_carlitz_bridge_fails_with_a_shifted_binomial(monkeypatch):
    faulty = _with_shifted_binomial(euler_barnes.h_carlitz)
    assert run_suite("carlitz-bridge")["pass"]
    monkeypatch.setattr(euler_barnes, "h_carlitz", faulty)
    monkeypatch.setattr(verify, "h_carlitz", faulty)
    report = run_suite("carlitz-bridge")
    assert all(not check["pass"] for check in report["checks"])


def test_qlimit_fails_when_a_polynomial_drops_its_constant_term(monkeypatch):
    # a nonconstant polynomial evaluated without its constant term; a
    # constant keeps its one coefficient, so the reduced form's
    # denominator does not vanish at q = 1
    call = Poly.__call__

    def without_constant(self, q):
        return call(self, q) - (self.coeffs[0] if self.degree > 0 else 0)

    assert run_suite("qlimit")["pass"]
    monkeypatch.setattr(Poly, "__call__", without_constant)
    report = run_suite("qlimit")
    assert all(not check["pass"] for check in report["checks"])
