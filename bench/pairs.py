"""Alternating parent/change pairs of the benchmark's end-to-end metrics.

Run from anywhere, with two checkouts of the repository:

    python bench/pairs.py PARENT CHANGE --workload gemv-2048 --seeds 211-220

For each seed, `python3 dqbench/run.py --workload W --seed S --seconds T
--trace 0` runs once in each checkout, one after the other; the parent runs
first in the first, third, ... pair and the change in the others, so a
drift in the host's speed falls on both sides alike. Each run prints one
JSON line (seed, side, metrics) as it ends.

Then, for each end-to-end metric of BENCHMARK.json, a table gives each
side's median and quartiles over the runs and the change's wins: pairs in
which it reads better than the parent, in the direction of the metric's
`better`, ties counting for neither. "claim" says whether a gain could be
claimed on that metric: at least nine tenths of the pairs won, and the
medians apart by more than the distance between the parent's quartiles.

A second table checks each metric against its `bound`. "worse by" is the
change's median against the parent's, relative to the parent's, positive
when worse; "spread" is the distance between the parent's quartiles,
relative to its median. A metric is "worse" when it is worse by more than
its bound, and "unresolved" when its spread is wider than the bound, unless
every run of the change reads better than every run of the parent.

The name does not match test_*.py, so tier-1 collection skips it.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text):
    """'211-215' or '211,213,217' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout, workload, seed, seconds):
    """The metrics of one untraced benchmark run in a checkout, by name."""
    cmd = [sys.executable, "dqbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """(median, first quartile, third quartile) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return median(values), q1, q3


def relative(delta, base):
    """delta / |base|: 0.0 when delta is 0, +-inf when only base is."""
    if not delta:
        return 0.0
    return delta / abs(base) if base else math.copysign(math.inf, delta)


def summarize(pairs, metrics):
    """One row per metric measured in every pair.

    pairs is a list of (parent, change) dicts of metric values; metrics is
    BENCHMARK.json's end_to_end list (name and better).
    """
    rows = []
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        if not all(name in p and name in c for p, c in pairs):
            continue
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = spread(parent), spread(change)
        gain = sign * (c_med - p_med)
        rows.append({
            "metric": name, "parent": (p_med, p_q1, p_q3),
            "change": (c_med, c_q1, c_q3), "wins": wins, "pairs": len(pairs),
            "claim": 10 * wins >= 9 * len(pairs) and gain > p_q3 - p_q1,
            "worse_by": relative(-gain, p_med),
            "spread": relative(p_q3 - p_q1, p_med),
            "apart": min(sign * c for c in change) > max(sign * p for p in parent),
        })
    return rows


def verdict(row, bound):
    """'worse', 'unresolved' or 'ok': the no-regression rule for one metric."""
    if row["worse_by"] > bound:
        return "worse"
    if row["spread"] > bound and not row["apart"]:
        return "unresolved"
    return "ok"


def format_rows(rows):
    """The summary table, one line per metric."""
    lines = [f"{'metric':<24}{'parent med [q1, q3]':>36}{'change med [q1, q3]':>36}"
             f"{'wins':>8}  claim"]
    for r in rows:
        sides = ["{:.4g} [{:.4g}, {:.4g}]".format(*r[s]) for s in ("parent", "change")]
        lines.append(f"{r['metric']:<24}{sides[0]:>36}{sides[1]:>36}"
                     f"{r['wins']:>5}/{r['pairs']:<2}  {'yes' if r['claim'] else 'no'}")
    return lines


def format_bounds(rows, metrics):
    """The regression table, one line per metric, against BENCHMARK.json's bounds."""
    bounds = {spec["name"]: spec["bound"] for spec in metrics}
    lines = [f"{'metric':<24}{'worse by':>10}{'spread':>10}{'bound':>10}  verdict"]
    for r in rows:
        bound = bounds[r["metric"]]
        lines.append(f"{r['metric']:<24}{r['worse_by']:>+10.1%}{r['spread']:>10.1%}"
                     f"{bound:>10.1%}  {verdict(r, bound)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 211-220 or 211,213")
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = getattr(args, side)
            sides[side] = run_once(checkout, args.workload, seed, args.seconds)
            print(json.dumps({"seed": seed, "side": side, "metrics": sides[side]}),
                  flush=True)
        pairs.append((sides["parent"], sides["change"]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{args.workload}, {len(pairs)} pairs, seeds {args.seeds}")
    rows = summarize(pairs, spec)
    print("\n".join(format_rows(rows)))
    print("\n".join(format_bounds(rows, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
