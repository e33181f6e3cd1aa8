#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized by the claim rule.

    python3 tools/perf_pairs.py <parent-tree> <change-tree> \\
        --workload <w> --first-seed <s> --pairs <n>

Each tree is a source checkout with its own perfbench/run.py.  Pair i runs
both trees on seed s+i for BENCHMARK.json's run_seconds with --trace 0; the
parent runs first in even pairs and second in odd ones.  The first failed
run (nonzero exit or a nonzero "failed" count) stops the script with exit
code 1.  Nothing under either tree's perfbench/ is changed (run.py builds
into the tree's .bench_build/ on first use).

For every end-to-end metric of BENCHMARK.json it prints each pair's values,
each side's median and quartiles, the change's wins, losses and ties (a tie
counts for neither side), whether a gain may be claimed (the change wins at
least nine tenths of the pairs and its median beats the parent's by more
than the distance between the parent's quartiles), and whether the change's
median is worse than the parent's by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metric, parent, change):
    """The claim rule over paired runs of one metric.

    `metric` is a BENCHMARK.json end_to_end entry (name, better, bound);
    `parent` and `change` are equally long lists, pair i at index i.
    """
    lower = metric.get("better", "lower") == "lower"
    wins = losses = ties = 0
    for p, c in zip(parent, change):
        if p == c:
            ties += 1
        elif (c < p) == lower:
            wins += 1
        else:
            losses += 1
    pq = quartiles(parent)
    cq = quartiles(change)
    # Positive when the change's median is the better one.
    gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    spread = pq[2] - pq[0]
    worse_by = -gap / pq[1] if pq[1] else 0.0
    return {
        "name": metric["name"],
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": ties,
        "parent": pq,
        "change": cq,
        "gap": gap,
        "spread": spread,
        "claim": wins * 10 >= 9 * len(parent) and gap > spread,
        "worse_by": worse_by,
        "breach": worse_by > metric["bound"],
    }


def report(s):
    """One summary line for summarize()'s result."""
    p, c = s["parent"], s["change"]
    ratio = c[1] / p[1] if p[1] else float("nan")
    line = (f"{s['name']}: parent {p[1]:.4g} [{p[0]:.4g}-{p[2]:.4g}]  "
            f"change {c[1]:.4g} [{c[0]:.4g}-{c[2]:.4g}]  ratio {ratio:.3f}  "
            f"wins {s['wins']}/{s['pairs']} losses {s['losses']} "
            f"ties {s['ties']}  gap {s['gap']:.4g} vs parent quartile "
            f"distance {s['spread']:.4g}  claim "
            f"{'holds' if s['claim'] else 'does not hold'}")
    if s["breach"]:
        line += f"  BOUND BREACHED (worse by {100 * s['worse_by']:.1f} %)"
    return line


def run_once(tree, workload, seed, seconds):
    """The metrics of one perfbench run, or None after printing why not."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or result.get("failed", 1):
        print(f"perf_pairs: {tree} seed {seed}: run failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    args = parser.parse_args()
    with open(os.path.join(args.change_tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(trees[side], args.workload, seed,
                               bench["run_seconds"])
            if metrics is None:
                return 1
            runs[side].append(metrics)
        print(f"pair {i} seed {seed} ({order[0]} first): " + "  ".join(
            f"{m}: {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}"
            for m in sorted(runs["parent"][-1])), flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {bench['run_seconds']} s "
          f"runs, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name not in runs["parent"][0] or name not in runs["change"][0]:
            continue
        print(report(summarize(metric, [r[name] for r in runs["parent"]],
                               [r[name] for r in runs["change"]])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
