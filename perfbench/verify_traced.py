"""One traced `qbarnes verify all --seed S` process.

Usage: python3 perfbench/verify_traced.py SEED SPANS_PATH METRICS_PATH

Runs the CLI in this process with the tracer installed, prints the suite JSON
to stdout exactly as `qbarnes verify all` does, writes every span to
SPANS_PATH and the per-layer metrics to METRICS_PATH, and exits with the
CLI's exit code. The process span opens before qbarnes is imported, so the
self times of all spans add up to nearly the whole process's wall time.
"""
from time import perf_counter

T0 = perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    seed, spans_path, metrics_path = sys.argv[1], sys.argv[2], sys.argv[3]
    tracer = Tracer()
    process = tracer.open(tracer.name_id("process.verify-all"), False)
    process[2] = T0
    with tracer.span("process.import"):
        import qbarnes.cli

        tracer.install()
    tracer.op = 0
    buf = io.StringIO()
    with tracer.span("op.verify-all"), redirect_stdout(buf):
        code = qbarnes.cli.main(["--seed", seed, "verify", "all"])
    tracer.close(process)
    tracer.uninstall()
    out = buf.getvalue()
    sys.stdout.write(out)
    counters = dict(tracer.counters)
    counters.update(layers.verify_counters(json.loads(out)))
    metrics = layers.compute(tracer.by_name(), counters)
    with open(metrics_path, "w") as fh:
        json.dump({"metrics": metrics, "self_time_sum_s": tracer.self_time_total()}, fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
