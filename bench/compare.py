"""Summarize or compare sets of benchmark results.

    python3 bench/compare.py RUNS.jsonl
    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record FILE`` appends, one per run.
With one file, each workload row gets every end-to-end metric's median,
quartiles and spread (quartile distance over median) against the metric's
bound.  With two, it also gets the change's share of pairs won (runs paired
by seed; ties count for neither) and a verdict:

- ``gain``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the base's quartile distance;
- ``REGRESSION``: the change's median is worse than the base's by more than
  the bound;
- ``unresolved``: the base's own spread exceeds the bound and not every
  change run beats every base run;
- ``within bound`` otherwise.

Traced runs (``"trace": 1``) are left out.  Exits 1 when any verdict is a
regression or the share of failed operations differs, and with an error
when the two sets of a workload do not run the same seeds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{workload: [result, ...]} of the untraced runs in a record file."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                if not r.get("trace"):
                    runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def pairs(base, change):
    """(base run, change run) of each seed; both sets must hold the same
    seeds, once each."""
    seeds = [r["seed"] for r in base]
    by_seed = {r["seed"]: r for r in change}
    if len(set(seeds)) != len(seeds) or sorted(seeds) != sorted(by_seed) \
            or len(by_seed) != len(change):
        raise ValueError("the two sets must run the same seeds, once each")
    return [(r, by_seed[r["seed"]]) for r in base]


def verdict(metric, base, change):
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    b, c = values(base, name), values(change, name)
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    ps = pairs(base, change)
    wins = sum(better(pc["metrics"][name]["value"],
                      pb["metrics"][name]["value"]) for pb, pc in ps)
    if wins >= 0.9 * len(ps) and abs(cmed - bmed) > bq3 - bq1:
        v = "gain"
    elif worse > bound:
        v = "REGRESSION"
    elif (bq3 - bq1) / bmed > bound and not all(
            better(x, y) for x in c for y in b):
        v = "unresolved"
    else:
        v = "within bound"
    return wins, len(ps), v


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    with open(SPEC) as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load(p) for p in argv]
    status = 0
    for workload in sorted(sets[0]):
        base = sets[0][workload]
        change = sets[1].get(workload) if len(sets) == 2 else None
        if change is not None:
            try:
                pairs(base, change)
            except ValueError as exc:
                sys.exit(f"compare: {workload}: {exc}")
        print(f"{workload}: {len(base)} runs, failed share "
              f"{failed_share(base):.6f}", end="")
        if change is not None:
            print(f" | change {len(change)} runs, failed share "
                  f"{failed_share(change):.6f}", end="")
            if failed_share(change) != failed_share(base):
                print("  FAILED SHARE DIFFERS", end="")
                status = 1
        print()
        for m in metrics:
            q1, med, q3 = quartiles(values(base, m["name"]))
            spread = (q3 - q1) / med
            line = (f"  {m['name']:<12} {med:12.6g} [{q1:.6g}, {q3:.6g}] "
                    f"{m['unit']:<4} spread {spread:6.1%} of bound "
                    f"{m['bound']:.0%}")
            if change is not None:
                cq1, cmed, cq3 = quartiles(values(change, m["name"]))
                wins, n, v = verdict(m, base, change)
                line += (f" | {cmed:12.6g} [{cq1:.6g}, {cq3:.6g}] "
                         f"{cmed / med - 1:+.1%} won {wins}/{n} {v}")
                status |= v == "REGRESSION"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
