"""Compare two result sets written by ``run.py --save``.

For each workload and end-to-end metric it prints each side's median and
quartiles over its runs, the ratio of the medians with its base, and a
verdict:

* ``improved``: at least ten pairs of runs, the change better in at least
  nine tenths of them (ties count for neither), and the medians further apart
  than the base's quartile distance;
* ``unresolved``: the base's own spread, its quartile distance over its
  median, is wider than the metric's bound, unless every run of the change
  reads better than every run of the base;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``no worse``: otherwise.

Runs pair by seed when both sides ran the same seeds, else in order. The
accuracy figures ``ts_bound_ratio`` and ``error_rate`` are deterministic for a
seed, so they are compared seed by seed with no allowance: any seed that got
worse makes the verdict ``worse``, and unmatched seeds leave it unresolved.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

EXACT = ("ts_bound_ratio", "error_rate")


def load(path: str) -> dict:
    """Untraced records by workload, each a ``{seed: summary}`` map."""
    runs = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]][rec["seed"]] = rec["summary"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, change: dict, better: str, bound: float, exact: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) > 0 is worse
    same_seeds = sorted(base) == sorted(change)
    if exact and not same_seeds:
        return "unresolved"
    keys_b, keys_c = (sorted(base), sorted(change)) if same_seeds else (list(base), list(change))
    pairs = [(base[b], change[c]) for b, c in zip(keys_b, keys_c)]
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if exact:
        if losses:
            return "worse"
        return "improved" if wins >= 0.9 * len(pairs) else "no worse"
    q1, mb, q3 = quartiles(list(base.values()))
    mc = statistics.median(change.values())
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (mc - mb) < -(q3 - q1):
        return "improved"
    if (q3 - q1) > bound * abs(mb):
        all_better = max(sign * v for v in change.values()) < min(sign * v for v in base.values())
        return "no worse" if all_better else "unresolved"
    return "worse" if sign * (mc - mb) > bound * abs(mb) else "no worse"


def compare(base_path: str, change_path: str, end_to_end: list[dict]) -> int:
    base, change = load(base_path), load(change_path)
    metrics = [(m["name"], m["better"], m["bound"]) for m in end_to_end]
    metrics += [(name, "lower", 0.0) for name in EXACT]
    header = f"{'workload':8s} {'metric':15s} {'base median [q1, q3]':34s} {'change median [q1, q3]':34s} {'ratio':>7s}  verdict"
    print(header)
    for workload in sorted(set(base) & set(change)):
        for name, better, bound in metrics:
            b = {s: r[name]["value"] for s, r in base[workload].items() if r.get(name, {}).get("value") is not None}
            c = {s: r[name]["value"] for s, r in change[workload].items() if r.get(name, {}).get("value") is not None}
            if not b or not c:
                continue
            cells = []
            for side in (b, c):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            mb, mc = statistics.median(b.values()), statistics.median(c.values())
            ratio = f"{mc / mb:.3f}" if mb else "n/a"
            v = verdict(b, c, better, bound, name in EXACT)
            print(f"{workload:8s} {name:15s} {cells[0]:34s} {cells[1]:34s} {ratio:>7s}  {v}")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")
    return 0
