"""qbarnes benchmark: three closed-loop workloads, timed end to end.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload verify-all|compute-mix|closed-forms \
        --seed N --seconds S --trace 0|1

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run plus
the tracing overhead. Every output is checked after the measured window.
One client, one thread: the next operation starts when the previous one
returns. The lines before the last give the run context (versions, seed,
tail percentile and sample count, failures by op and exception) and each
metric; perfbench/out/ keeps a record of the run with every input.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify-all", "compute-mix", "closed-forms")
SETUP_RUNS = 9  # the least number of set-up samples in a run
# Timed inside the fresh process: the interpreter's own start-up (about
# two thirds of the process's life) is not the program's and adds only the
# noise of spawning a process.
SETUP_CODE = """\
from time import perf_counter
t0 = perf_counter()
import qbarnes
from qbarnes.cli import build_parser
build_parser()
print(perf_counter() - t0)
"""
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
# The tail percentile is capped per workload at one that every 20-second
# run has ten samples beyond, even on a machine twice as slow, so that all
# runs report the same percentile: a run of compute-mix holds about 900
# requests, one of closed-forms about 200 calls, one of verify-all a single
# process. compute-mix stops at p90, which falls mid-way through one large
# row (lvalue, level-N 4): p95 falls where the costs of two hbarnes-poly
# rows overlap, and over ten runs it spread twice as much as p90.
TAIL_CEILING = {"verify-all": 100.0, "compute-mix": 90.0, "closed-forms": 90.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # child processes load bytecode, as an installed program does: without
    # it every set-up sample would time the compiler (twice the import time)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_child(argv, root: Path, stdout_path: Path):
    """Run one process to completion; return (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=_env(root), stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class SetupTimer:
    """Time fresh processes take to import qbarnes and build the parser.

    The host's speed drifts over tens of seconds, so the samples are spread
    over the run, outside the timed window: half of SETUP_RUNS before the
    workload, one after each block or operation, the rest at the end. Their
    median then averages the drift over the run as the other metrics do.
    """

    def __init__(self, root: Path):
        self.root = root
        self.argv = [sys.executable, "-c", SETUP_CODE]
        self.times: list[float] = []
        subprocess.run(self.argv, cwd=root, env=_env(root), check=True,  # writes bytecode
                       stdout=subprocess.DEVNULL)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            out = subprocess.run(self.argv, cwd=self.root, env=_env(self.root), check=True,
                                 capture_output=True, text=True)
            self.times.append(float(out.stdout))


def tail(latencies: list[float], ceiling: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder percentile,
    up to `ceiling`, with at least ten samples beyond it; the maximum when
    there are fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = -(-round(pct * 10) * n // 1000)  # nearest rank, ceil(pct/100 * n)
        if pct <= ceiling and n - rank >= 10:
            best = (pct, ordered[rank - 1], n - rank)
    return best if best else (100.0, ordered[-1], 0)


# ---------------------------------------------------------------------------
# workload runners. Each returns a dict with the ops it ran.


def run_verify_all(root: Path, seed: int, seconds: float, out_dir: Path, traced: bool,
                   between=None):
    import checks

    vseed = str(workloads.verify_seed(seed))
    ops, rss = [], []
    item = {"op": "verify-all", "params": {"verify_seed": int(vseed)}}
    while True:
        stdout_path = out_dir / f"verify-all-{vseed}.stdout"
        code, wall, peak = _run_child(
            [sys.executable, "-m", "qbarnes.cli", "--seed", vseed, "verify", "all"],
            root, stdout_path,
        )
        rss.append(peak)
        stdout = stdout_path.read_bytes()
        ops.append({"item": item, "latency": wall, "error": None,
                    "wrong": checks.check_verify(code, stdout),
                    "sha256": hashlib.sha256(stdout).hexdigest()})
        if between is not None:
            between()
        if traced or sum(op["latency"] for op in ops) >= seconds:
            break
    blocks = [op["latency"] for op in ops]
    result = {"ops": ops, "window": sum(blocks), "blocks": blocks,
              "rss": max(rss)}
    if traced:
        spans_path = out_dir / f"spans-verify-all-seed{seed}.jsonl"
        metrics_path = out_dir / f"layers-verify-all-seed{seed}.json"
        stdout_path = out_dir / f"verify-all-{vseed}-traced.stdout"
        code, wall, _ = _run_child(
            [sys.executable, str(HERE / "verify_traced.py"), vseed, str(spans_path), str(metrics_path)],
            root, stdout_path,
        )
        child = json.loads(metrics_path.read_text())
        stdout = stdout_path.read_bytes()
        result["traced_ops"] = [{"item": item, "latency": wall, "error": None,
                                 "wrong": checks.check_verify(code, stdout),
                                 "sha256": hashlib.sha256(stdout).hexdigest()}]
        result["layers"] = child["metrics"]
        result["trace"] = {
            "traced_wall_s": wall,
            "untraced_wall_s": ops[0]["latency"],
            "self_time_sum_s": child["self_time_sum_s"],
            "spans_path": str(spans_path.relative_to(root)),
        }
    return result


def _compute_op(req, tracer):
    import qbarnes.cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            if tracer is None:
                code = qbarnes.cli.main(req["argv"])
            else:
                with tracer.span("op.compute." + req["op"]):
                    code = qbarnes.cli.main(req["argv"])
    except (Exception, SystemExit) as exc:  # a traceback is a failed request
        return f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}", None
    if code != 0:
        return f"exit {code}", buf.getvalue()
    return None, buf.getvalue()


def _closed_form_op(call, tracer):
    import qbarnes.characters_lfunctions as cl
    import qbarnes.euler_barnes as eb
    import qbarnes.qnum as qn
    import qbarnes.series as se

    pr = call["params"]
    fn = call["op"]

    def invoke():
        if fn == "h_closed":
            return eb.h_closed(pr["n"], pr["w"], eb.BarnesParams(pr["a"], pr["u"], qn.QBase(pr["q"])))
        if fn == "h_rational_in_q":
            return eb.h_rational_in_q(pr["n"], pr["w"], pr["r"], pr["a"], pr["u"])
        if fn == "limit_q_to_1":
            return eb.limit_q_to_1(pr["n"], pr["w"], pr["r"], pr["a"], pr["u"])
        if fn == "h_carlitz":
            return eb.h_carlitz(pr["k"], pr["u"], pr["q"])
        if fn == "q_gf_coefficients":
            params = eb.BarnesParams(pr["a"], pr["u"], qn.QBase(pr["q"]))
            return se.q_gf_coefficients(params, pr["x"], pr["n_max"])
        if fn == "distribution_check":
            params = eb.BarnesParams(pr["a"], pr["u"], qn.QBase(pr["q"]))
            return eb.distribution_check(pr["n"], pr["w"], pr["f"], params)
        kind, _, d = pr["char"].partition(":")
        chi = getattr(cl.DirichletCharacter, kind)(int(d))
        return cl.h_chi(pr["k"], len(pr["a"]), pr["a"], pr["u"], pr["q"], chi)

    try:
        if tracer is None:
            return None, invoke()
        with tracer.span("op.closed-forms." + fn):
            return None, invoke()
    except Exception as exc:  # an exception is a failed call
        return f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}", None


def _check(check_fn, item, output, tracer) -> str | None:
    if tracer is not None:
        tracer.paused = True
    try:
        return check_fn(item, output)
    except Exception as exc:  # a check that cannot run has not passed
        return f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.paused = False


def _run_loop(items, seconds, op_fn, check_fn=None, tracer=None, replay=False, between=None):
    """Closed loop over whole blocks of the stream until the blocks have
    taken `seconds` (when replaying: over exactly the given items).

    After each block the clock stops while that block's outputs are checked
    and dropped, so checks cost no measured time and the process holds no
    outputs from earlier blocks; then `between` runs, also untimed.
    """
    ops, blocks = [], []
    for _, group in itertools.groupby(items, key=lambda item: item["block"]):
        if not replay and sum(blocks) >= seconds:
            break
        done = []
        b0 = perf_counter()
        for item in group:
            if tracer is not None:
                tracer.op = len(ops) + len(done)
            t0 = perf_counter()
            error, output = op_fn(item, tracer)
            done.append((item, perf_counter() - t0, error, output))
        blocks.append(perf_counter() - b0)
        for item, latency, error, output in done:
            wrong = None
            if error is None and check_fn is not None:
                wrong = _check(check_fn, item, output, tracer)
            ops.append({"item": item, "latency": latency, "error": error, "wrong": wrong})
        if between is not None:
            between()
    return {"ops": ops, "window": sum(blocks), "blocks": blocks}


def run_in_process(workload: str, seed: int, seconds: float, out_dir: Path, traced: bool,
                   between=None):
    import checks

    if workload == "compute-mix":
        op_fn, check_fn = _compute_op, checks.check_compute
    else:
        op_fn, check_fn = _closed_form_op, checks.check_closed_form
    stream = workloads.stream(workload, seed)
    # imports and first-call set-up, untimed
    warm = workloads.BLOCKS[workload](workloads._rng("warm-up", 0))
    _run_loop([dict(item, block=-1) for item in warm], 0, op_fn, replay=True)
    if not traced:
        result = _run_loop(stream, seconds, op_fn, check_fn, between=between)
        result["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = _run_loop(stream, seconds, op_fn, check_fn, tracer)
    finally:
        tracer.uninstall()
    result["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = _run_loop([op["item"] for op in result["ops"]], 0, op_fn, replay=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    result["layers"] = layers.compute(tracer.by_name(), tracer.counters)
    result["trace"] = {
        "traced_wall_s": result["window"],
        "untraced_wall_s": untraced["window"],
        "self_time_sum_s": tracer.self_time_total(),
        "spans_path": str(spans_path.relative_to(Path.cwd())),
    }
    return result


def run_defect_probe() -> tuple[dict, list]:
    """Run workloads.defect_probe() untimed: ({op: outcome: count}, wrong
    outputs). A request that returns is checked like any other."""
    import checks

    outcomes: dict[str, int] = {}
    wrong = []
    for req in workloads.defect_probe():
        error, output = _compute_op(req, None)
        if error is None:
            bad = _check(checks.check_compute, req, output, None)
            if bad is not None:
                wrong.append((req["op"], bad))
        key = f"{req['op']}: {'ok' if error is None else error.split(':')[0]}"
        outcomes[key] = outcomes.get(key, 0) + 1
    return outcomes, wrong


# ---------------------------------------------------------------------------
# checking and reporting


def tally(ops: list[dict]) -> tuple[list, list]:
    """(failures, wrong outputs) as lists of (op, reason)."""
    failures = [(op["item"]["op"], op["error"]) for op in ops if op["error"] is not None]
    wrong = [(op["item"]["op"], op["wrong"]) for op in ops if op["wrong"] is not None]
    return failures, wrong


def end_to_end(result: dict, setup_times: list[float], workload: str) -> tuple[dict, dict]:
    lats = [op["latency"] for op in result["ops"]]
    pct, tail_value, beyond = tail(lats, TAIL_CEILING[workload])
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(result["blocks"]),
        "ops_per_s": len(lats) / result["window"],
        "op_p50_ms": statistics.median(lats) * 1000,
        "op_tail_ms": tail_value * 1000,
        "peak_rss_mb": result["rss"],
    }
    info = {"tail_percentile": pct, "tail_samples_beyond": beyond, "samples": len(lats),
            "wall_s_is": "one verify-all process" if workload == "verify-all"
            else "one block of the request stream"}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, info


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qbarnes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qbarnes" / "__init__.py").is_file():
        print("error: run from the root of a qbarnes checkout (src/qbarnes missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    setup = SetupTimer(root)
    setup.sample(SETUP_RUNS // 2)
    # the traced run reports no set-up time, so it takes no samples in between
    between = None if args.trace else setup.sample
    if args.workload == "verify-all":
        result = run_verify_all(root, args.seed, args.seconds, out_dir, bool(args.trace), between)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, out_dir, bool(args.trace),
                                between)
    setup.sample(SETUP_RUNS - len(setup.times))
    setup_times = setup.times

    # verify-all's traced run adds one traced process to the untraced one;
    # the in-process workloads' ops are the traced ones when tracing
    ops = result["ops"] + result.get("traced_ops", []) if args.workload == "verify-all" else result["ops"]
    failures, wrong = tally(ops)
    metrics, info = end_to_end(result, setup_times, args.workload)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "setup_runs_s": setup_times,
        **info,
    }
    if args.workload == "verify-all":
        digests = sorted({op["sha256"] for op in ops})
        context["verify_seed"] = workloads.verify_seed(args.seed)
        context["verify_stdout_sha256"] = digests
        if len(digests) != 1:
            wrong.append(("verify-all", "stdout differs between runs of one seed"))
    by_kind: dict[str, int] = {}
    for op, reason in failures:
        key = f"{op}: {reason.split(':')[0]}"
        by_kind[key] = by_kind.get(key, 0) + 1
    context["failed_ratio"] = len(failures + wrong) / len(ops)
    context["failures_by_op_and_exception"] = by_kind
    probe_wrong = []
    if args.workload == "compute-mix":
        # not operations of the run, so outside `attempted` and `failed`
        context["defect_probe"], probe_wrong = run_defect_probe()
    context["wrong_outputs"] = [f"{op}: {reason}" for op, reason in wrong + probe_wrong][:20]

    if args.trace:
        tr = result["trace"]
        out_metrics = dict(result["layers"])
        tr_values = {
            "trace.traced_wall_s": tr["traced_wall_s"],
            "trace.untraced_wall_s": tr["untraced_wall_s"],
            "trace.overhead_s": tr["traced_wall_s"] - tr["untraced_wall_s"],
            "trace.self_time_sum_s": tr["self_time_sum_s"],
            "trace.unattributed_s": tr["traced_wall_s"] - tr["self_time_sum_s"],
        }
        for name, unit in layers.TRACE_METRICS:
            out_metrics[name] = {"value": tr_values[name], "unit": unit}
        context["spans_path"] = tr["spans_path"]
    else:
        out_metrics = metrics

    inputs = [dict(workloads.describe(op["item"]), latency_s=op["latency"], error=op["error"],
                   wrong=op["wrong"]) for op in ops]
    record = {"context": context, "inputs": inputs, "metrics": out_metrics}
    record_path = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print("context " + json.dumps(context, default=str))
    for name, m in out_metrics.items():
        print(f"{name:50s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not (wrong or probe_wrong),
        "attempted": len(ops),
        "failed": len(failures) + len(wrong),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
