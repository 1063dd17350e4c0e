"""Tests of the benchmark itself: input generation, output checks, tracing.

Run from the repository root: python3 -m pytest perfbench/tests
"""
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _take(stream, n):
    return [workloads.describe(x) for x in itertools.islice(stream, n)]


def test_same_seed_gives_same_inputs():
    for workload in workloads.BLOCKS:
        assert _take(workloads.stream(workload, 7), 100) == _take(workloads.stream(workload, 7), 100)
        assert _take(workloads.stream(workload, 7), 40) != _take(workloads.stream(workload, 8), 40)
    assert workloads.verify_seed(7) == workloads.verify_seed(7)


def test_compute_blocks_cover_every_op_with_fixed_composition():
    for block in range(3):
        reqs = workloads.compute_block(workloads._rng("t", block))
        assert {r["op"] for r in reqs} == set(workloads.COMPUTE_OPS)
        assert sum(r["large"] for r in reqs) == workloads.LARGE_PER_BLOCK
        assert len(reqs) == len(workloads.COMPUTE_OPS) * workloads.SMALL_PER_OP + workloads.LARGE_PER_BLOCK


def _carlitz_request():
    return dict(workloads._req("carlitz", False, k=6, u=Fraction(3), q=Fraction(-3, 2)), block=0)


def _run(op_fn, req):
    result = run._run_loop([req], 0, op_fn, checks.check_compute, replay=True)
    return run.tally(result["ops"])


def test_correct_output_passes_its_check():
    assert _run(run._compute_op, _carlitz_request()) == ([], [])


def test_injected_wrong_value_is_counted_as_failed():
    def tampering_op(item, tracer):
        error, output = run._compute_op(item, tracer)
        payload = json.loads(output)
        payload["value"] = str(Fraction(payload["value"]) + 1)
        return error, json.dumps(payload)

    failures, wrong = _run(tampering_op, _carlitz_request())
    assert failures == [] and len(wrong) == 1


def test_between_runs_once_after_each_block():
    items = [dict(_carlitz_request(), block=b) for b in (0, 0, 1, 2, 2)]
    calls = []
    result = run._run_loop(items, 0, run._compute_op, replay=True, between=lambda: calls.append(1))
    assert len(calls) == len(result["blocks"]) == 3


def test_large_output_defect_is_a_failure_not_a_wrong_value():
    req = dict(workloads._req("hbarnes", True, n=200, w=0, a=(1, 2), u=Fraction(3), q=Fraction(2)), block=0)
    failures, wrong = _run(run._compute_op, req)
    assert len(failures) == 1 and failures[0][1].startswith("ValueError") and wrong == []


def test_defect_probe_runs_and_checks_every_request():
    outcomes, wrong = run.run_defect_probe()
    assert sum(outcomes.values()) == len(workloads.defect_probe()) and wrong == []
    assert all(key.split(": ")[1] in ("ok", "ValueError") for key in outcomes)


def test_small_requests_stay_clear_of_the_int_to_str_limit():
    # this request's value has more than 4300 digits
    assert workloads.digits_estimate(37, (-3, 3, 3), Fraction(5), Fraction(5, 3)) > workloads.MAX_DIGITS_ESTIMATE
    for item in itertools.islice(workloads.stream("compute-mix", 7), 45 * 20):
        pr = item["params"]
        if item["op"] in ("hbarnes", "gf-coeffs") and not item["large"]:
            assert workloads.digits_estimate(pr["n"], pr["a"], pr["u"], pr["q"]) <= workloads.MAX_DIGITS_ESTIMATE


def test_large_hbarnes_is_checked_by_the_addition_formula_mod_primes():
    req = dict(workloads._req("hbarnes", True, n=90, w=2, a=(1, -2), u=Fraction(5, 2), q=Fraction(-1)),
               block=0)
    error, output = run._compute_op(req, None)
    assert error is None and req["params"]["n"] > checks.EXACT_ADDITION_MAX_N
    assert checks.check_compute(req, output) is None
    payload = json.loads(output)
    payload["value"] = str(Fraction(payload["value"]) * 2)
    assert checks.check_compute(req, json.dumps(payload)) is not None


def test_closed_form_check_catches_wrong_value():
    call = workloads._call("h_closed", n=120, w=2, a=(1, -2), u=Fraction(3, 2), q=Fraction(-5, 3))
    error, value = run._closed_form_op(call, None)
    assert error is None
    assert checks.check_closed_form(call, value) is None
    assert checks.check_closed_form(call, value + Fraction(1, 10**9)) is not None


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_on_a_hand_built_tree(monkeypatch):
    # A [0, 10] has children B [1, 4] and two rolled-up calls D [5, 6], [7, 8];
    # B has child C [2, 3]. Self: A = 10 - 3 - 2 = 5, B = 2, C = 1, D = 2.
    monkeypatch.setattr(tracer_mod, "perf_counter", FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 8, 10]))
    t = tracer_mod.Tracer()
    a = t.open(t.name_id("A"), False)
    b = t.open(t.name_id("B"), False)
    c = t.open(t.name_id("C"), False)
    t.close(c)
    t.close(b)
    for _ in range(2):
        d = t.open(t.name_id("D"), True)
        t.close(d)
    t.close(a)
    by_name = t.by_name()
    assert by_name["A"] == [1, 10, 5, 0]
    assert by_name["B"] == [1, 3, 2, 0]
    assert by_name["C"] == [1, 1, 1, 0]
    assert by_name["D"] == [2, 2, 2, 0]
    assert t.self_time_total() == 10  # the root's duration
    spans = {s["name"]: s for s in t.spans()}
    assert spans["C"]["parent"] == spans["B"]["id"]
    assert spans["B"]["parent"] == spans["A"]["id"]
    assert spans["D"]["parent"] == spans["A"]["id"] and spans["D"]["count"] == 2


def test_install_wraps_layers_and_uninstall_restores_them():
    import qbarnes.euler_barnes as eb
    import qbarnes.padic_integration as pi
    import qbarnes.verify as vf

    before = (Fraction.__add__, eb.h_closed, pi.h_closed, vf.multi_riemann_integral,
              vf.SUITES["prop5"], eb.Poly.__mul__)
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert vf.multi_riemann_integral is not before[3]
        assert pi.h_closed is eb.h_closed is not before[1]
        with t.span("op.test"):
            value = eb.h_closed(3, 1, eb.BarnesParams((1,), Fraction(3), eb.QBase(Fraction(2))))
    finally:
        t.uninstall()
    after = (Fraction.__add__, eb.h_closed, pi.h_closed, vf.multi_riemann_integral,
             vf.SUITES["prop5"], eb.Poly.__mul__)
    assert after == before
    metrics = layers.compute(t.by_name(), t.counters)
    assert metrics["euler_barnes.h_closed_calls"]["value"] == 1
    assert metrics["exact_numbers.fraction_ops"]["value"] > 0
    assert metrics["euler_barnes.h_closed_bits_max"]["value"] == max(
        value.numerator.bit_length(), value.denominator.bit_length()
    )
    assert t.self_time_total() == pytest.approx(t.by_name()["op.test"][1])


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail([1.0], 99.9) == (100.0, 1.0, 0)
    assert run.tail(samples, 99.9) == (90.0, 90.0, 10)
    assert run.tail(samples, 75.0) == (75.0, 75.0, 25)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-forms", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
