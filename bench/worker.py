"""One benchmark process: set up a workload, then time and check its operations.

run.py starts this script once per measurement, with PYTHONPATH pointing at
the checkout's src/.  It prints "ready" on stdout when set-up is done and a
single JSON result line when it finishes.  Every operation is single-process
and single-threaded, at n = 24, with no worker count passed to delsub.

Each output is checked right after it is timed, outside its latency, and
then dropped, except for the first KEEP outputs, which feed the exact
per-layer counts and the comparison against the brute-force decoder.

With --trace 1 the public functions of the code, decoder, verifier and cli
modules are wrapped by tracer.Tracer before set-up, the per-layer metrics
are computed from the recorded spans, and the spans are written to
results/<workload>-spans.jsonl beside this script.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import delsub
import delsub.cli
from delsub.channel import ErrorEvent, apply_del_sub
from delsub.decoder import ListBoundError
from delsub.words import Word

from tracer import SpanTable, Tracer

RESULTS = Path(__file__).resolve().parent / "results"
N = 24
LAYERS = ("code", "decoder", "verifier", "cli")
# Helpers called per candidate or per witness pair: a span each would cost
# about as much as the call, so they are measured through their callers.
UNTRACED = frozenset({"code.matches_value", "code.is_codeword", "verifier.classify_case"})
STREAM_WORDS = 4096  # decode stream length, cycled
KEEP = STREAM_WORDS  # outputs kept for counts: at most one full pass of the stream
RANDOM_SHARE = 0.25  # share of uniform random words in the decode stream
BRUTE_SAMPLE = 32  # kept decode outputs re-checked against list_decode_brute
# Latency statistics are taken per window of the timed loop and the best
# window is reported: on a shared host, neighbour load slows whole seconds
# of a run at a time, and the least disturbed window repeats best.  A window
# lasts at least WINDOW_S and holds at least WINDOW_OPS operations, so that
# its p99 and throughput are more than one operation's latency.
WINDOW_S = 3.0
WINDOW_OPS = 8

# Per-layer counts a workload does not produce read 0.
ZERO_COUNTS = {
    "decoder.examined_per_word": 0,
    "decoder.hit_ratio": 0,
    "decoder.list2_share": 0,
    "decoder.empty_share": 0,
    "verifier.collisions": 0,
    "verifier.witness_pairs": 0,
}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = delsub.cli.main(argv)
    return rc, buf.getvalue()


class Construct:
    """`delsub construct --n 24` in-process, then enumerate the printed class."""

    def __init__(self, seed: int) -> None:
        self.argv = ["construct", "--n", str(N)]

    def op(self, i: int):
        rc, text = _run_cli(self.argv)
        if rc != 0:
            return rc, text, None, []
        doc = json.loads(text)
        p = delsub.code.CodeParams(doc["n"], doc["c0"], doc["c1"], doc["c2"])
        return rc, text, p, [w.value for w in delsub.code.enumerate_code(p)]

    def problem(self, i: int, out) -> str | None:
        rc, text, p, members = out
        if rc != 0:
            return f"construct exited {rc}"
        doc = json.loads(text)
        if len(members) != doc["size"]:
            return f"{len(members)} members, printed size {doc['size']}"
        if any(a >= b for a, b in zip(members, members[1:])):
            return "members not strictly ascending"
        if not all(delsub.code.is_codeword(Word(N, v), p) for v in members):
            return "a member fails is_codeword"
        if not doc["redundancy"] <= 3 * math.log2(N) + 4:
            return f"redundancy {doc['redundancy']} above 3 log2(n) + 4"
        return None

    def final_problems(self, kept) -> dict[int, str]:
        return {}

    def counts(self, kept) -> dict:
        return {}


class Decode:
    """Closed loop, one caller: list-decode a seeded stream of received words.

    About 3/4 of the words are corrupted members (uniform member, uniform
    deletion d, substitution uniform over none and the positions other than
    d); the rest are uniform random (n-1)-bit words.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.p, _ = delsub.code.choose_params(N)
        members = [int(v) for v in delsub.code.codeword_values(self.p)]
        rng = random.Random(seed)
        self.stream: list[tuple[Word, int | None]] = []
        for _ in range(STREAM_WORDS):
            if rng.random() < RANDOM_SHARE:
                self.stream.append((Word(N - 1, rng.getrandbits(N - 1)), None))
                continue
            x = rng.choice(members)
            d = rng.randrange(1, N + 1)
            e = rng.choice([None] + [i for i in range(1, N + 1) if i != d])
            self.stream.append((apply_del_sub(Word(N, x), ErrorEvent(d, e)), x))

    def op(self, i: int):
        y, _ = self.stream[i % STREAM_WORDS]
        try:
            return delsub.decoder.list_decode(y, self.p)
        except ListBoundError as exc:
            return exc

    def problem(self, i: int, res) -> str | None:
        y, source = self.stream[i % STREAM_WORDS]
        if isinstance(res, ListBoundError):
            return f"ListBoundError on {y}"
        if len(res.candidates) > 2:
            return f"{len(res.candidates)} candidates for {y}"
        if source is not None and Word(N, source) not in res.words:
            return f"source word missing for {y}"
        for w, ev in res.candidates:
            if not delsub.code.is_codeword(w, self.p) or apply_del_sub(w, ev) != y:
                return f"candidate {w} with witness {ev} does not reproduce {y}"
        return None

    def final_problems(self, kept) -> dict[int, str]:
        """Compare a seeded sample of kept outputs with list_decode_brute."""
        picks = random.Random(self.seed + 1).sample(
            range(len(kept)), min(BRUTE_SAMPLE, len(kept))
        )
        found = {}
        for i in picks:
            y, _ = self.stream[i]
            try:
                brute = delsub.decoder.list_decode_brute(y, self.p)
            except ListBoundError:
                found[i] = f"list_decode_brute raised ListBoundError on {y}"
                continue
            res = kept[i]
            if isinstance(res, ListBoundError) or res.candidates != brute.candidates:
                found[i] = f"list_decode differs from list_decode_brute on {y}"
        return found

    def counts(self, kept) -> dict:
        """Exact counts over one full pass of the stream, finished untimed if needed."""
        full = kept + [self.op(i) for i in range(len(kept), STREAM_WORDS)]
        done = [r for r in full if not isinstance(r, ListBoundError)]
        if not done:
            return {}
        examined = sum(r.examined for r in done)
        sizes = [len(r.candidates) for r in done]
        return {
            "decoder.examined_per_word": examined / len(done),
            "decoder.hit_ratio": sum(sizes) / examined if examined else 0,
            "decoder.list2_share": sizes.count(2) / len(done),
            "decoder.empty_share": sizes.count(0) / len(done),
        }


class Verify:
    """`delsub verify --n 24` in-process: default checks, automatic parameters."""

    def __init__(self, seed: int) -> None:
        self.argv = ["verify", "--n", str(N)]
        self.first_text: str | None = None

    def op(self, i: int):
        return _run_cli(self.argv)

    def problem(self, i: int, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"verify exited {rc}"
        # Reports carry no timing, so every repeat must print the same bytes.
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            return "report differs from the first repeat"
        doc = json.loads(text)
        if doc["pass"] is not True:
            return "report does not pass"
        if not doc["max_list_size"] <= 2:
            return f"max_list_size {doc['max_list_size']}"
        if not doc["collision_count"] > 0:
            return "no collisions: vacuous coverage pass"
        return None

    def final_problems(self, kept) -> dict[int, str]:
        return {}

    def counts(self, kept) -> dict:
        rc, text = kept[0]
        if rc != 0:
            return {}
        doc = json.loads(text)
        return {
            "verifier.collisions": doc["collision_count"],
            "verifier.witness_pairs": sum(doc["lemma2_cases"].values()),
        }


WORKLOADS = {"construct": Construct, "decode": Decode, "verify": Verify}


@contextlib.contextmanager
def _no_span(name: str):
    yield


def timed_loop(workload, seconds: float, span):
    """Run operations back to back until `seconds` have passed.

    Returns (kept outputs, failures by index, op start offsets, latencies).
    """
    budget = int(seconds * 1e9)
    kept: list = []
    failures: dict[int, str] = {}
    starts: list[int] = []
    latencies: list[int] = []
    start = time.perf_counter_ns()
    i = 0
    while time.perf_counter_ns() - start < budget or i == 0:
        t0 = time.perf_counter_ns()
        with span("bench.op"):
            out = workload.op(i)
        t1 = time.perf_counter_ns()
        starts.append(t0 - start)
        latencies.append(t1 - t0)
        reason = workload.problem(i, out)
        if reason is not None:
            failures[i] = reason
        if i < KEEP:
            kept.append(out)
        i += 1
    return kept, failures, starts, latencies


def _p99(values: list[int]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def best_window(starts: list[int], latencies: list[int]) -> dict:
    """Latency median, p99 and throughput of the window with the highest throughput.

    Windows are runs of consecutive operations.  One closes once it holds
    WINDOW_OPS operations and WINDOW_S has passed since its first operation
    started.  The unfinished last window is dropped, unless no window closed:
    then the whole run is one window.
    """
    groups: list[list[int]] = []
    group: list[int] = []
    opened = 0
    for s, lat in zip(starts, latencies):
        if not group:
            opened = s
        group.append(lat)
        if len(group) >= WINDOW_OPS and s + lat - opened >= WINDOW_S * 1e9:
            groups.append(group)
            group = []
    best = min(groups or [group], key=lambda g: sum(g) / len(g))
    return {
        "p50_ns": statistics.median(best),
        "p99_ns": _p99(best),
        "ops_per_s": len(best) / sum(best) * 1e9,
        "window_ops": len(best),
        "windows": len(groups) or 1,
    }


def layer_metrics(table: SpanTable) -> dict:
    scans = table.per_root(("code.choose_params", "code.codeword_values"))
    cli = table.per_root(("cli.",), prefix=True)
    verifier_self = {
        f"verifier.{name}_self_s": table.median_ns(f"verifier.{name}", own=True) / 1e9
        for name in ("verify_list_size", "verify_collision_ordering", "verify_single_deletion")
    }
    return {
        "code.choose_params_s": table.median_ns("code.choose_params") / 1e9,
        "code.codeword_values_s": table.median_ns("code.codeword_values") / 1e9,
        "code.scans": statistics.median(c for c, _ in scans) if scans else 0,
        "decoder.list_decode_self_us": table.median_ns("decoder.list_decode", own=True) / 1e3,
        "decoder.canonical_witness_us": table.median_ns("decoder.canonical_witness") / 1e3,
        **verifier_self,
        "cli.self_s": statistics.median(s for _, s in cli) / 1e9 if cli else 0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(delsub.__file__).resolve().is_relative_to(src):
        print(f"error: delsub imported from {delsub.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    span = tracer.span if tracer else _no_span
    with tracer.installed("delsub", LAYERS, UNTRACED) if tracer else contextlib.nullcontext():
        with span("bench.setup"):
            workload = WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        kept, failures, starts, latencies = timed_loop(workload, args.seconds, span)

    for i, reason in workload.final_problems(kept).items():
        failures.setdefault(i, reason)
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": [f"op {i}: {r}" for i, r in sorted(failures.items())[:5]],
        "overall_p50_ns": statistics.median(latencies),
        "overall_p99_ns": _p99(latencies),
        **best_window(starts, latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "counts": {**ZERO_COUNTS, **workload.counts(kept)},
    }
    if tracer:
        table = tracer.analyse()
        result["layers"] = layer_metrics(table)
        result["spans"] = table.summary()
        tracer.write(RESULTS / f"{args.workload}-spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
