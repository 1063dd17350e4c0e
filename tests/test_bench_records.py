"""The committed benchmark records (`BENCH_<n>.json` at the repository root)
name only workloads and metrics that `BENCHMARK.json` declares, untraced
and traced, so a record cannot quote a renamed or mistyped metric. Each
side's median must be the median of the runs the record lists."""
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_records_use_declared_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert set(record["workloads"]) <= workloads, path.name
        for name, workload in record["workloads"].items():
            assert set(workload["metrics"]) <= metrics, (path.name, name)
            for metric in workload["metrics"].values():
                for side in ("parent", "change"):
                    runs = metric[side]["runs"]
                    assert metric[side]["median"] == statistics.median(runs), (path.name, name)
        for name, traced in record.get("traced", {}).items():
            assert name in workloads, path.name
            assert set(traced["metrics"]) <= metrics, (path.name, name)
