#!/usr/bin/env python3
"""Compare two sets of untraced result files, parent against change.

    python3 solvebench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `<workload>-seed<n>-trace0.json` files that
run.py writes to .solvebench/results/ (copy them aside per commit).  Runs
are paired by seed.  Per workload and end-to-end metric the verdict is:

- improved:   the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile spread;
- unresolved: the spread of either side, as a share of its median, is
              wider than the metric's bound in BENCHMARK.json, and not
              every change run beats every parent run;
- regressed:  the change's median is worse than the parent's by more than
              the bound;
- within bound otherwise.

Failures are deterministic, so a last row per workload compares the
median number of failed ops: any rise is a regression, however small a
share of the run it is.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{workload: {seed: metrics}} from one directory of result files."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["workload"], {})[rec["seed"]] = dict(
            {k: m["value"] for k, m in rec["metrics"].items()},
            failed=rec["failed"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > pq3 - pq1:
        return "improved", wins
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0,
                 (cq3 - cq1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed", wins
    return "within bound", wins


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            v, wins = verdict(p, c, m["better"], m["bound"])

            def show(vals):
                q1, q3 = quartiles(vals)
                return f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]"
            print(f"{workload:16s} {name:12s} {show(p):34s} {show(c):34s} "
                  f"{wins:3d}/{len(seeds):<3d}  {v}")
        pf = statistics.median(parent[workload][s]["failed"] for s in seeds)
        cf = statistics.median(change[workload][s]["failed"] for s in seeds)
        v = "regressed" if cf > pf else ("improved" if cf < pf else "same")
        print(f"{workload:16s} {'failed ops':12s} {pf:<34g} {cf:<34g} "
              f"{'':7s}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
