#!/usr/bin/env python3
"""Repeat the benchmark and judge its spread against BENCHMARK.json.

    python3 svcbench/compare.py [--runs 10] [--first-seed 1]
                                [--save out.json] [--against base.json]

Run from the repository root. Runs every workload of BENCHMARK.json
`--runs` times at its `run_seconds`, alternating workloads, each run
with the next seed, through `run.py` (end-to-end metrics, tracing off).
For every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (third minus first
quartile, as a share of the median), and flags a spread above the
metric's bound (`OVER`) or above a third of it (`noisy`). It also checks that the share of failed operations is the
same in every run of a workload. `--save` writes the raw values;
`--against` compares this set's medians with a saved set's and flags a
metric whose median got worse by more than its bound. Exits 1 when
anything is flagged `OVER`, `WORSE` or the failed share differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py failed (exit {out.returncode})")
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse(metric, base, now):
    """How much worse `now` is than `base`, as a share of `base`."""
    change = (now - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the raw values here")
    ap.add_argument("--against", help="a file written by --save to compare medians with")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            res = run_once(w, args.first_seed + i, seconds)
            shares[w].add(Fraction(res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values[w][name].append(m["value"])
            print(f"run {i + 1}/{args.runs} {w}: attempted {res['attempted']} "
                  f"failed {res['failed']}", file=sys.stderr)

    base = json.loads(Path(args.against).read_text()) if args.against else None
    bad = False
    for w in workloads:
        print(f"\n{w}: {args.runs} runs, failed share {sorted(str(s) for s in shares[w])}")
        if len(shares[w]) != 1:
            print("  FAILED SHARE DIFFERS between runs")
            bad = True
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            xs = values[w][m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag, bad = "OVER", True
            elif spread > m["bound"] / 3:
                flag = "noisy"
            if base:
                change = worse(m, statistics.median(base[w][m["name"]]), med)
                flag += f" vs base {change:+.1%}"
                if change > m["bound"]:
                    flag, bad = flag + " WORSE", True
            print(f"  {m['name']:22} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {m['bound']:6.2f} {flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
