#!/usr/bin/env python3
"""Run one workload of the view-service benchmark and print its metrics.

    python3 svcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]

Run from the repository root. The benchmark package in this directory is
built from source with cargo (offline, release profile); then the round
binary is started once per round, each round in its own process so the
peak resident set is that round's own. Rounds repeat while the time
budget allows another (untraced: and until at least 1000 batches were
timed). Round `k` draws its inputs from the seed and `k`; every round
attempts the same number of operations and fails the same number, so
the share of failed operations is the same in every run. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json
(observability off). With `--trace 1`, traced and untraced rounds
alternate; the metrics are the per-layer metrics of BENCHMARK.json, the
medians over traced rounds, plus the tracing overhead on `write_p50_ms`.
`--quick` runs one tiny round (two when traced) with every check on.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tc_window", "interval_lanes", "mediated_reads")
MIN_TIMED_BATCHES = 1000
ROUND_TIMEOUT_S = 150


def fail(msg):
    print(f"svcbench: {msg}", file=sys.stderr)
    sys.exit(1)


def quantile(xs, q):
    """Nearest-rank quantile, the definition the round binary uses."""
    v = sorted(xs)
    rank = min(max(int(-(-q * len(v) // 1)), 1), len(v))
    return v[rank - 1]


def build():
    """Builds the round binary; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cargo build did not run: {e}")
    if out.returncode != 0:
        fail("cargo build failed")
    for line in out.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return msg["executable"]
    fail("cargo build produced no executable")


def run_round(exe, args, index, trace, scratch):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--round", str(index),
           "--trace", "1" if trace else "0", "--dir", str(scratch)]
    if args.quick:
        cmd.append("--quick")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload}: a round ran longer than {ROUND_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"{args.workload}: round failed (exit {out.returncode})")
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(rounds):
    """The end-to-end metrics of untraced rounds, pooled. `write_p99_ms`
    is each round's p99, median over the rounds: a host stall that hits
    one round moves that round's tail, not the run's figure."""
    writes = [x / 1e6 for r in rounds for x in r["write_ns"]]
    reads = [x / 1e3 for r in rounds for x in r["read_ns"]]
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
        "write_batches_per_s": len(writes) / sum(r["write_wall_s"] for r in rounds),
        "write_p50_ms": quantile(writes, 0.5),
        "write_p99_ms": statistics.median(
            quantile([x / 1e6 for x in r["write_ns"]], 0.99) for r in rounds),
        "read_p50_us": quantile(reads, 0.5),
        "reads_per_s": len(reads) / (sum(reads) / 1e6),
        "recover_s": statistics.median(s for r in rounds for s in r["recover_s"]),
        "rss_peak_mb": statistics.median(r["rss_peak_mb"] for r in rounds),
    }


def per_layer(traced, untraced):
    """Per-layer medians over traced rounds, and the tracing overhead."""
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    base = end_to_end(untraced)["write_p50_ms"]
    with_trace = end_to_end(traced)["write_p50_ms"]
    out["trace.write_p50_ms_untraced"] = base
    out["trace.write_p50_ms_traced"] = with_trace
    out["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    trace = args.trace == "1"

    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    exe = build()
    scratch = HERE / ".scratch" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        rounds = {False: [], True: []}
        durations = []
        start = time.monotonic()
        while True:
            # Traced runs alternate untraced and traced rounds, untraced
            # first, and the k-th of each kind share their inputs, so the
            # overhead compares like with like.
            kind = trace and len(rounds[False]) > len(rounds[True])
            t0 = time.monotonic()
            rounds[kind].append(run_round(exe, args, len(rounds[kind]), kind, scratch))
            durations.append(time.monotonic() - t0)
            timed = sum(len(r["write_ns"]) for r in rounds[False])
            if args.quick:
                if not trace or rounds[True]:
                    break
                continue
            if trace and not rounds[True]:
                continue
            # Untraced runs time at least MIN_TIMED_BATCHES batches; traced
            # runs end with a traced round once the budget is spent.
            budget_left = args.seconds - (time.monotonic() - start)
            if budget_left < statistics.mean(durations):
                if trace and len(rounds[True]) == len(rounds[False]):
                    break
                if not trace and timed >= MIN_TIMED_BATCHES:
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = rounds[False] + rounds[True]
    values = per_layer(rounds[True], rounds[False]) if trace else end_to_end(rounds[False])
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"{args.workload}: no value for metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, value in sorted(values.items()):
        unit = next((m["unit"] for m in wanted if m["name"] == name), "")
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
