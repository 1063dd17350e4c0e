"""`verify all`: its suites run in table order, in forked worker processes,
one per usable CPU, or in this process where the platform has no fork, and
either way print the same bytes as CI pins for `qbarnes --seed 0 verify
all`."""
import concurrent.futures
import hashlib
import json
import multiprocessing
import pickle

import pytest

from qbarnes import errors, verify
from qbarnes.cli import main

# sha256 of `qbarnes --seed 0 verify all`'s stdout, as the CI workflow pins it
VERIFY_ALL_SEED0_SHA256 = "c3f92bb9307a4f35b43b8f5cd08bb74fef5815c7d9cfcbf89e0a23f9023beb92"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def pools_built(monkeypatch, cpus: int) -> list:
    """Pretend this process may run on `cpus` CPUs; the list fills with the
    worker count and start method of each ProcessPoolExecutor that
    run_suite builds."""
    built = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, mp_context):
            built.append((workers, mp_context.get_start_method()))
            super().__init__(workers, mp_context=mp_context)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return built


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_all_in_forked_workers_prints_the_pinned_report(capsys, monkeypatch, cpus):
    built = pools_built(monkeypatch, cpus)
    code, out = run_cli(capsys, "--seed", "0", "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SEED0_SHA256
    assert built == [(cpus, "fork")]


def test_verify_all_without_fork_starts_no_process(capsys, monkeypatch):
    built = pools_built(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    code, out = run_cli(capsys, "--seed", "0", "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SEED0_SHA256
    assert built == []


def test_verify_all_reports_the_first_failing_suite_in_table_order(capsys, monkeypatch):
    # riemann-limit is the first suite in table order to sum more points
    # than a budget of 10 allows; later suites in the table fail too
    pools_built(monkeypatch, 2)
    code, out = run_cli(capsys, "verify", "all", "--budget", "10")
    assert (code, out) == run_cli(capsys, "verify", "riemann-limit", "--budget", "10")
    assert code == 4
    assert json.loads(out)["error"] == "BudgetError"


def stub_suites(monkeypatch, raising: dict[str, str] | None = None) -> None:
    """Replace every suite with one that returns a single check named after
    it at once, or raises a PreconditionError with the message `raising`
    gives for its name. Forked workers inherit the replacements."""
    def stub(name):
        def run(seed, budget):
            if raising and name in raising:
                raise errors.PreconditionError(raising[name], parameter=name)
            check = {"name": f"{name}/stub", "params": {}, "residual": "0", "pass": True}
            return {"suite": name, "checks": [check], "pass": True}
        return run

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, stub(name))


def test_verify_all_submits_the_suites_and_joins_them_in_table_order(capsys, monkeypatch):
    submitted = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, chunk):
            # map submits each chunk of argument tuples (name, seed, budget)
            submitted.extend(args[0] for args in chunk)
            return super().submit(fn, chunk)

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    stub_suites(monkeypatch)
    code, out = run_cli(capsys, "verify", "all")
    assert code == 0
    assert submitted == list(verify.SUITES)
    checks = [check["name"] for check in json.loads(out)["checks"]]
    assert checks == [f"{name}/stub" for name in verify.SUITES]


@pytest.mark.parametrize("fork", [True, False])
def test_verify_all_reports_the_first_failing_suite_in_table_order_not_in_start_order(
    capsys, monkeypatch, fork
):
    # theorem1-gf, first in the table, and riemann-limit both fail;
    # theorem1-gf's error is printed, whichever worker fails first
    built = pools_built(monkeypatch, 2)
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    stub_suites(monkeypatch, {name: f"{name} failed" for name in ("theorem1-gf", "riemann-limit")})
    code, out = run_cli(capsys, "verify", "all")
    assert code == 2
    assert json.loads(out) == {
        "error": "PreconditionError",
        "message": "theorem1-gf failed",
        "parameter": "theorem1-gf",
    }
    assert built == ([(2, "fork")] if fork else [])


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_a_pickle_round_trip():
    # a suite's error reaches the CLI from a worker process through pickle
    classes = [errors.QBarnesError, *_subclasses(errors.QBarnesError)]
    assert errors.ExponentAlignmentError in classes  # a subclass of a subclass
    for cls in classes:
        for parameter in (None, "level-N"):
            back = pickle.loads(pickle.dumps(cls("3 points exceed it", parameter=parameter)))
            assert type(back) is cls
            assert str(back) == "3 points exceed it"
            assert back.parameter == parameter
            assert back.exit_code == cls.exit_code
