#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files, workload by workload.

    python3 e2e_bench/bench_diff.py BASE_DIR HEAD_DIR

Each directory holds the result records bench_e2e keeps (.bench_out/results/
after a series of run.py calls; copy it aside between commits). Runs pair up
by seed. For every workload and metric the verdict follows the
choosing-metrics rule:

  improved    head wins >= 9/10 of the pairs and the medians differ by more
              than the base runs' interquartile range;
  regressed   head's median is worse than base's by more than the metric's
              bound in BENCHMARK.json;
  unresolved  base's own spread (IQR / median) exceeds the bound, unless
              every head run beats every base run;
  no-worse    otherwise.

Per-layer metrics (traced runs) have no bound: they read improved, worsened
(the improved rule mirrored) or same. The exit code is 1 when any end-to-end
row regressed.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {seed: metrics}} from every valid record."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
            key = (rec["workload"], int(rec["trace"]))
            metrics = rec["result"]["metrics"]
        except (ValueError, KeyError, TypeError):
            continue
        if not rec.get("valid", False):
            print(f"bench_diff: skipping {path}: Debug or sanitizer build", file=sys.stderr)
            continue
        runs.setdefault(key, {})[rec["seed"]] = {k: v["value"] for k, v in metrics.items()}
    return runs


def decide(base, head, higher_is_better, bound):
    """Verdict for one metric: `base` and `head` are paired value lists."""
    sign = 1 if higher_is_better else -1
    med_b = statistics.median(base)
    med_h = statistics.median(head)
    iqr_b = 0.0
    if len(base) >= 2:
        q = statistics.quantiles(base, n=4)
        iqr_b = q[2] - q[0]
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    pairs = min(len(base), len(head))
    beyond_noise = abs(med_h - med_b) > iqr_b
    all_better = (min(head) > max(base)) if higher_is_better else (max(head) < min(base))
    if bound is None:
        if wins >= 0.9 * pairs and beyond_noise:
            return "improved"
        if losses >= 0.9 * pairs and beyond_noise:
            return "worsened"
        return "same"
    scale = abs(med_b) if med_b != 0 else 1.0
    if iqr_b / scale > bound and not all_better:
        return "unresolved"
    if sign * (med_b - med_h) / scale > bound:
        return "regressed"
    if wins >= 0.9 * pairs and beyond_noise:
        return "improved"
    return "no-worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    base, head = load(args.base), load(args.head)
    regressed = False
    print(f"{'workload':22} {'metric':32} {'base median':>14} {'head median':>14} "
          f"{'change':>8} {'pairs':>5}  verdict")
    for key in sorted(set(base) & set(head), key=lambda k: (k[1], k[0])):
        workload, trace = key
        seeds = sorted(set(base[key]) & set(head[key]))
        if not seeds:
            # No common seeds: pair the runs in seed order instead.
            b_runs = [base[key][s] for s in sorted(base[key])]
            h_runs = [head[key][s] for s in sorted(head[key])]
        else:
            b_runs = [base[key][s] for s in seeds]
            h_runs = [head[key][s] for s in seeds]
        n = min(len(b_runs), len(h_runs))
        for m in metrics[trace]:
            name = m["name"]
            b = [r[name] for r in b_runs[:n] if name in r]
            h = [r[name] for r in h_runs[:n] if name in r]
            if not b or len(b) != len(h):
                continue
            verdict = decide(b, h, m["better"] == "higher", m.get("bound"))
            regressed |= verdict == "regressed"
            med_b, med_h = statistics.median(b), statistics.median(h)
            change = f"{(med_h - med_b) / abs(med_b):+.1%}" if med_b else "n/a"
            print(f"{workload:22} {name:32} {med_b:14.6g} {med_h:14.6g} {change:>8} "
                  f"{len(b):5}  {verdict}")
    for key in sorted(set(base) ^ set(head)):
        print(f"bench_diff: {key[0]} trace={key[1]} has runs on one side only", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
