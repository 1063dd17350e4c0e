"""Each suite must be able to fail by its own pass test: a fault put into
the code a suite witnesses, never into the suite itself, must make its
report read "pass": false. Every case runs at seed 0.

Faults so far, first in the batches that route 1 sums for the order-f
refinement (`euler_barnes.refinement`):
- `distribution`: `distribution_check`'s batch loses its last index i;
- `eq8-bridge`: one chi weight of rational-mode `h_chi`'s batch flips sign;
- `measure-additivity`: the batch of fine cells loses its last cell;
then in the functions the suites call:
- `interpolation` and `unit-power`: `angle_bracket` returns [x : q],
  without the division by omega(x);
- `addition`: `h_addition` takes C(n, k-1) for C(n, k);
- `riemann-limit` and `prop5`: `_level_residues` sums the last axis with
  its a_r read as -a_r.
"""
import json
import sys
import types
from fractions import Fraction
from math import comb

from qbarnes import characters_lfunctions, euler_barnes, padic_integration, verify
from qbarnes.characters_lfunctions import angle_bracket
from qbarnes.cli import main
from qbarnes.exact_numbers import teichmuller
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
    monkeypatch.setattr(
        euler_barnes, "refinement", _faulty_refinement(euler_barnes.refinement, _drop_last)
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


def test_addition_fails_with_a_shifted_binomial(monkeypatch):
    # h_addition's own C(n, k) read as C(n, k-1); the h_closed it calls
    # keeps the right binomials
    def shifted(n, k):
        return comb(n, k - 1) if k else 0

    faulty = types.FunctionType(
        euler_barnes.h_addition.__code__, {**vars(euler_barnes), "comb": shifted}
    )
    assert run_suite("addition")["pass"]
    monkeypatch.setattr(euler_barnes, "h_addition", faulty)
    monkeypatch.setattr(verify, "h_addition", faulty)
    report = run_suite("addition")
    assert all(not check["pass"] for check in report["checks"])


def test_riemann_limit_and_prop5_fail_with_the_last_axis_summed_backwards(monkeypatch):
    # the level residues with a[-1] read as -a[-1]: every term still carries
    # its power of p, so the division by p^(e n) stays exact
    residues = padic_integration._level_residues

    def backwards(ns, w, a, *args):
        return residues(ns, w, (*a[:-1], -a[-1]), *args)

    for suite in ("riemann-limit", "prop5"):
        assert run_suite(suite)["pass"]
    monkeypatch.setattr(padic_integration, "_level_residues", backwards)
    riemann_limit = run_suite("riemann-limit")
    assert not riemann_limit["pass"]
    # n = 0 and the nu_p(u) < 0 draw never sum mod p^K, so they still pass;
    # every n = 1 check that does sum fails
    for check in riemann_limit["checks"]:
        params = check["params"]
        if params["n"] == 0 or Fraction(params["u"]).numerator % params["p"]:
            assert check["pass"], check["name"]
        elif params["n"] == 1:
            assert not check["pass"], check["name"]
    prop5 = run_suite("prop5")
    assert all(check["pass"] == (check["params"]["k"] == 0) for check in prop5["checks"])
