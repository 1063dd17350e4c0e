"""`verify all`: its suites run in forked worker processes, one per usable
CPU, or in this process where the platform has no fork, and either way print
the same bytes as CI pins for `qbarnes --seed 0 verify all`."""
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
