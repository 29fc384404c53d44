#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs each workload once per seed at BENCHMARK.json's run_seconds (and
optionally as two sets of runs) and prints, for every end-to-end metric,
each set's run-to-run spread -- the distance between the first and third
quartile as a share of the median -- against the metric's bound.  With
--sets 2 it also compares the two sets' medians.  A last run on
--fresh-seed, a seed outside the tuning range, is reported against the
first set's median.

    python3 perfbench/steadiness.py --seeds 1-10 [--sets 2] \\
        [--workloads auth_uncached,hot_gateway] [--fresh-seed 900001]

Exits 1 when a run is incorrect or fails operations, when any set's
spread of any metric (setup_s included) exceeds its bound, or when the two
sets' medians differ, in either direction, by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return result, meta


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second):
    """Change from `first` to `second`, as a share of `first`."""
    return (second - first) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--fresh-seed", type=int, default=900001)
    parser.add_argument("--json", default="", help="write the raw runs here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    ok = True
    raw = {}
    for workload in workloads:
        sets, steal, metas = [], [], []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                result, meta = run_once(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print("INCORRECT %s seed %d: failed=%d %s" % (
                        workload, seed, result["failed"],
                        meta.get("first_problem", "")))
                runs.append(result["metrics"])
                steal.append(meta.get("host_steal_share_untraced_phase", 0.0))
                metas.append(meta)
            sets.append(runs)
        fresh, _ = run_once(workload, args.fresh_seed, seconds)
        raw[workload] = {"sets": sets, "fresh": fresh, "meta": metas}

        print("\n%s: %d seeds x %d set(s), %g s runs; host steal share "
              "per run %.3f..%.3f (median %.3f)" % (
                  workload, len(seeds), args.sets, seconds, min(steal),
                  max(steal), statistics.median(steal)))
        print("  %-16s %14s %8s %8s %8s %8s %10s %10s" % (
            "metric", "median", "spread", "spread2", "bound", "bound/3",
            "set drift", "fresh dev"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r[name]["value"] for r in runs] for runs in sets]
            med = statistics.median(values[0])
            spreads = [spread(v) for v in values]
            flag = ""
            if max(spreads) > bound:
                ok, flag = False, "  SPREAD > BOUND"
            elif max(spreads) > bound / 3:
                flag = "  spread > bound/3"
            line = "  %-16s %14.4f %8.4f %8s %8.3f %8.3f" % (
                name, med, spreads[0],
                "%8.4f" % spreads[1] if args.sets == 2 else "-",
                bound, bound / 3)
            if args.sets == 2:
                d = drift(med, statistics.median(values[1]))
                line += " %+10.4f" % d
                if abs(d) > bound:
                    ok, flag = False, flag + "  SET DRIFT > BOUND"
            else:
                line += " %10s" % "-"
            dev = (fresh["metrics"][name]["value"] - med) / med
            print(line + " %+10.4f" % dev + flag)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
