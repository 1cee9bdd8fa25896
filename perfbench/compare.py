#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `perfbench/run.py --out` appended, one per run.
For every workload x metric it prints the median and quartiles of each
set and the change of the median. It refuses (exit status 2) to compare
runs whose env blocks differ: within one set every env field must match,
and across the sets every field except the source identity (git_sha,
source_sha256), which is what a comparison of two commits varies.
"""
import json
import statistics
import sys
from collections import defaultdict

SOURCE_FIELDS = ("git_sha", "source_sha256")


class EnvMismatch(Exception):
    pass


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """(q1, median, q3) as Python's statistics.quantiles(n=4) gives them;
    a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_env(base, new):
    """Raises EnvMismatch naming the first env difference that forbids the
    comparison."""
    for name, records in (("base", base), ("new", new)):
        if not records:
            raise EnvMismatch(f"{name} set is empty")
        first = records[0]["env"]
        for r in records[1:]:
            diff = sorted(k for k in first.keys() | r["env"].keys()
                          if first.get(k) != r["env"].get(k))
            if diff:
                raise EnvMismatch(f"{name} set mixes env blocks: {diff}")
    a, b = base[0]["env"], new[0]["env"]
    diff = sorted(k for k in a.keys() | b.keys()
                  if k not in SOURCE_FIELDS and a.get(k) != b.get(k))
    if diff:
        raise EnvMismatch(f"sets ran on different env: " + ", ".join(
            f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in diff))


def metric_values(records):
    """{(workload, metric): (unit, [values])} over detail and per-layer
    metrics."""
    out = defaultdict(lambda: (None, []))
    for r in records:
        for group in ("detail", "per_layer"):
            for name, m in r.get(group, {}).items():
                unit, values = out[(r["workload"], name)]
                values.append(m["value"])
                out[(r["workload"], name)] = (m["unit"], values)
    return out


def compare(base, new):
    check_env(base, new)
    a, b = metric_values(base), metric_values(new)
    rows = []
    for key in sorted(a.keys() & b.keys()):
        unit, av = a[key]
        _, bv = b[key]
        aq, bq = quartiles(av), quartiles(bv)
        change = (bq[1] - aq[1]) / aq[1] if aq[1] else float("nan")
        rows.append((key[0], key[1], unit, len(av), aq, len(bv), bq, change))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = compare(load(argv[1]), load(argv[2]))
    except EnvMismatch as e:
        print(f"compare: refusing: {e}", file=sys.stderr)
        return 2
    fmt = "{:<15} {:<30} {:>8} {:>4} {:>34} {:>4} {:>34} {:>8}"
    print(fmt.format("workload", "metric", "unit", "n", "base median [q1, q3]",
                     "n", "new median [q1, q3]", "change"))
    for wl, name, unit, na, aq, nb, bq, change in rows:
        print(fmt.format(wl, name, unit, na,
                         f"{aq[1]:.4g} [{aq[0]:.4g}, {aq[2]:.4g}]", nb,
                         f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]",
                         f"{change:+.1%}"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
