#!/usr/bin/env python3
"""Runs every benchmark workload repeatedly and reports how steady it is.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workload W ...]

Run it from the root of the repository.  Each run is one
`perfbench/run.py --trace 0` process with its own --seed (1, 2, ... across
all sets), of the length BENCHMARK.json gives.  For every workload and
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median against the metric's bound.  With
two or more sets (the default) it also prints how far each later set's
median moved from the first's, in the metric's worse direction.  It also
prints the share of failed operations per set.

Exit status 1 when a spread exceeds its bound, a median moved the worse way
by more than its bound, the failed share differs between sets, or a run was
incorrect or printed no result.  The spread of setup_s is printed but not
gated: it is one cold set-up of a few milliseconds per run, which follows
the host's speed at that moment, so only its median across sets is held to
the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    seed = 0
    for wl in workloads:
        medians = []  # per set: {metric: median}
        shares = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            attempted = failed = 0
            for _ in range(args.runs):
                seed += 1
                res = run_once(wl, seed, args.seconds)
                if res is None or not res.get("correct", False):
                    print(f"{wl} seed {seed}: no result or incorrect: {res}")
                    ok = False
                    continue
                attempted += res["attempted"]
                failed += res["failed"]
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
            share = failed / attempted if attempted else float("nan")
            shares.append((failed, attempted, share))
            print(f"\n{wl}, set {s + 1}: {args.runs} runs, failed "
                  f"{failed}/{attempted} operations")
            print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'spread':>8} {'bound':>6}")
            med = {}
            for m in metrics:
                v = values[m["name"]]
                if len(v) < 2:
                    ok = False
                    continue
                q1, q2, q3 = statistics.quantiles(v, n=4)
                md = statistics.median(v)
                med[m["name"]] = md
                spread = (q3 - q1) / md if md else float("inf")
                bound = m["bound"]
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
                if m["name"] == "setup_s":
                    verdict += " (not gated)"
                if m["name"] != "setup_s" and spread > bound:
                    ok = False
                print(f"  {m['name']:28} {md:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {bound:6.3f}  {verdict}")
                print(f"    {m['unit']}: " + " ".join(f"{x:.6g}" for x in v))
            medians.append(med)
        for s in range(1, args.sets):
            print(f"\n{wl}: set {s + 1} against set 1")
            if shares[s][2] != shares[0][2]:
                ok = False
                print(f"  failed share differs: {shares[0]} vs {shares[s]}")
            for m in metrics:
                a, b = medians[0].get(m["name"]), medians[s].get(m["name"])
                if a is None or b is None or a == 0:
                    continue
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                if worse > m["bound"]:
                    ok = False
                print(f"  {m['name']:28} moved {worse:+.4f} the worse way "
                      f"(bound {m['bound']:.3f})  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
