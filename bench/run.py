"""delsub benchmark entry point: construct, decode and verify at n = 24.

    python3 bench/run.py --workload decode --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh child
process (bench/worker.py) that imports delsub from the checkout's src/.

--trace 0 measures the end-to-end metrics.  PROCESSES children run one
after another, each for an equal share of --seconds: on a 2-CPU VM, fresh
processes running the same numpy-heavy construct differed by up to 25%
for their whole life, so one process is too few samples.  Each child's
set-up is timed from process start until it reports ready; setup_s is the
median.  Each child reports its best window (see worker.best_window); the
latency metrics are p50, p99 and throughput of the one window, over all
children, with the highest throughput.

--trace 1 measures the per-layer metrics.  One untraced and one traced
child each run for half of --seconds; the ratio of their best-window
throughputs is trace_overhead.

Human-readable lines come first.  The last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}.  Results and spans
are also written under bench/results/.  Exit status: 0 when every
operation was correct, 1 when any failed or a child process failed,
2 when the checkout has no delsub sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("construct", "decode", "verify")
PROCESSES = 5
DEADLINE_S = 170  # every child is killed after this; the whole run must end in 180 s

# The ROADMAP and issue names of the end-to-end metrics, per workload.
NAMED = {
    "construct": [("construct_s", "s", lambda m: m["op_p50_ms"] / 1e3)],
    "decode": [
        ("decode_words_per_s", "1/s", lambda m: m["ops_per_s"]),
        ("decode_p50_us", "us", lambda m: m["op_p50_ms"] * 1e3),
        ("decode_p99_us", "us", lambda m: m["op_p99_ms"] * 1e3),
    ],
    "verify": [("verify_s", "s", lambda m: m["op_p50_ms"] / 1e3)],
}


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for "end_to_end" and "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


class ChildFailed(RuntimeError):
    pass


class Child:
    """One worker process; the time from spawn to its "ready" line is its set-up."""

    def __init__(self, args: argparse.Namespace, deadline: float, *extra: str) -> None:
        env = {k: v for k, v in os.environ.items() if k != "DELSUB_WORKERS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload]
        cmd += ["--seed", str(args.seed), *extra]
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        try:
            ready = self._readline()
            self.setup_s = time.perf_counter() - start
            if ready.strip() != "ready":
                raise ChildFailed(f"worker did not finish set-up (got {ready!r})")
        except BaseException:
            self.kill()
            raise

    def _remaining(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def _readline(self) -> str:
        readable, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        if not readable:
            raise ChildFailed("worker timed out")
        return self.proc.stdout.readline()

    def finish(self) -> dict:
        """Wait for exit and return the worker's JSON result line."""
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildFailed("worker timed out")
        if self.proc.returncode != 0:
            raise ChildFailed(f"worker exited {self.proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise ChildFailed("worker printed no result")
        return json.loads(lines[-1])

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def measure(args: argparse.Namespace, deadline: float) -> tuple[dict, list[dict]]:
    """Run the children for one invocation; return (metrics, child results)."""
    if args.trace:
        half = str(args.seconds / 2)
        plain = Child(args, deadline, "--seconds", half).finish()
        traced = Child(args, deadline, "--seconds", half, "--trace", "1").finish()
        metrics = {**traced["layers"], **traced["counts"]}
        metrics["trace_overhead"] = plain["ops_per_s"] / traced["ops_per_s"]
        return metrics, [plain, traced]

    results = []
    for _ in range(PROCESSES):
        child = Child(args, deadline, "--seconds", str(args.seconds / PROCESSES))
        result = child.finish()
        result["setup_s"] = child.setup_s
        results.append(result)
    best = max(results, key=lambda r: r["ops_per_s"])
    metrics = {
        "op_p50_ms": best["p50_ns"] / 1e6,
        "op_p99_ms": best["p99_ns"] / 1e6,
        "ops_per_s": best["ops_per_s"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    return metrics, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="delsub benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "delsub" / "__init__.py").is_file():
        print(f"error: no delsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    deadline = time.perf_counter() + DEADLINE_S
    try:
        metrics, children = measure(args, deadline)
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(
            f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    machine = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": children[0]["numpy"],
    }
    named = {}
    if not args.trace:
        named = {name: (f(metrics), unit) for name, unit, f in NAMED[args.workload]}
        named["fail_ratio"] = (failed / attempted, "1")
    RESULTS.mkdir(exist_ok=True)
    record = {**machine, "metrics": metrics, "named": named, "children": children}
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{args.workload}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(machine))
    for c in children:
        for line in c["failures"]:
            print(f"FAILED {line}")
    for name, (value, unit) in named.items():
        print(f"{name:44} {value:>16.6g} {unit}")
    for name, unit in units.items():
        print(f"{name:44} {metrics[name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
