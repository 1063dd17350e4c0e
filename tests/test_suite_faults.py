"""Each suite must be able to fail by its own pass test: a fault put into
the code a suite witnesses, never into the suite itself, must make its
report read "pass": false. Every case runs at seed 0.

Faults so far, all in the batches that route 1 sums for the order-f
refinement (`euler_barnes.refinement`):
- `distribution`: `distribution_check`'s batch loses its last index i;
- `eq8-bridge`: one chi weight of rational-mode `h_chi`'s batch flips sign;
- `measure-additivity`: the batch of fine cells loses its last cell.
"""
import json
import sys

from qbarnes import characters_lfunctions, euler_barnes, padic_integration
from qbarnes.cli import main
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
