"""Run one benchmark workload, or all of them, and print the result.

Usage::

    python3 perfbench/run.py --workload tpch-adhoc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass that yields the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``perfbench-detail``, carries everything else the run
measured (tail percentile and sample count, error rate, the rate
ladder, request-mix shares, ratio bases). ``--workload all`` runs each
workload in its own process and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 3  # set-ups per run; setup_s is their median

# Units of every metric a run can produce. The result line carries the
# ones BENCHMARK.json lists; the detail line carries all of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "geomean_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MiB",
}


def _load_program():
    """Put the repository's package on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _listed_metrics(trace: int) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    from perfbench import layers
    from perfbench.measure import peak_rss_mb
    from perfbench.workloads import WORKLOADS, failures

    workload = WORKLOADS[name](seed, ROOT)
    try:
        if trace:
            metrics, units, detail, checked = layers.traced_run(workload, seconds)
        else:
            setup_times = []
            for index in range(SETUPS):
                started = time.perf_counter()
                served = workload.setup()
                setup_times.append(time.perf_counter() - started)
                if index < SETUPS - 1:
                    served.close()
                    del served
                    gc.collect()
            metrics, detail, checked = workload.measure(served, seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = peak_rss_mb()
            served.close()
            detail["setup_runs_s"] = setup_times
            units = END_TO_END_UNITS
        checked = workload.setup_samples + checked
        bad = failures(checked, workload.expected)
    finally:
        workload.cleanup()
    attempted, failed = len(checked), len(bad)
    detail.update(
        workload=name, seed=seed, trace=trace,
        attempted=attempted, failed=failed, error_rate=failed / attempted,
        errors=sorted({s.error for s, _ in bad if s.error is not None})[:5],
        wrong_keys=sorted({r.key for s, r in bad if s.error is None}),
    )
    names = _listed_metrics(trace) or sorted(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"workload {name} produced no value for {missing}")
    detail["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in sorted(metrics.items())}
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory, the key cache
    and the metrics registry start fresh every time."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        detail = json.loads(lines[-2].split(" ", 1)[1])
        print(f"== {name}: attempted {detail['attempted']}, failed {detail['failed']}, "
              f"error_rate {detail['error_rate']:.4f}, wrong {detail['wrong_keys']}")
        for metric, entry in detail["metrics"].items():
            print(f"   {metric:32s} {entry['value']:14.4f} {entry['unit']}")
        extras = {k: v for k, v in detail.items()
                  if k not in ("metrics", "workload", "seed", "trace", "attempted",
                               "failed", "error_rate", "errors", "wrong_keys")}
        print("   " + json.dumps(extras, sort_keys=True))
    return status


def main(argv=None) -> int:
    _load_program()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    out = run_one(args.workload, args.seed, args.seconds, args.trace)
    print("perfbench-detail " + json.dumps(out["detail"], sort_keys=True, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
