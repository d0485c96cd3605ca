#!/usr/bin/env python3
"""Summarises and compares saved benchmark runs.

Save each run's standard output (the record line and the result line of
perfbench/run.py) to its own file, one directory per commit, then:

    python3 perfbench/compare.py spread DIR
        median, quartiles and spread (IQR / median) per workload and metric,
        with the spread against the metric's bound from BENCHMARK.json

    python3 perfbench/compare.py diff BASE_DIR HEAD_DIR
        per workload and metric: both medians, the change as a share of the
        base median, and whether it stays within the bound

Runs whose host fingerprints differ are refused (exit 3): numbers from two
hosts, compilers or build types are not comparable. diff exits 1 when a
metric worsened by more than its bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """Returns [(record, result)] for every run file in directory."""
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        record, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "record" in obj:
                    record = obj["record"]
                elif "metrics" in obj:
                    result = obj
        if record and result:
            runs.append((record, result))
    if not runs:
        sys.exit("compare: no runs in " + directory)
    return runs


def host_of(runs, directory):
    hosts = {json.dumps(r["host"], sort_keys=True) for r, _ in runs}
    if len(hosts) != 1:
        print("compare: runs in %s come from %d different hosts; refusing" %
              (directory, len(hosts)), file=sys.stderr)
        sys.exit(3)
    return hosts.pop()


def by_metric(runs):
    """{(workload, metric): [values]} over untraced and traced runs."""
    table = {}
    for record, result in runs:
        for name, m in result["metrics"].items():
            table.setdefault((record["workload"], name), []).append(m["value"])
    return table


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, \
        {m["name"]: m for m in spec["per_layer"]}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_spread(directory):
    runs = load_runs(directory)
    host_of(runs, directory)
    e2e, _ = bounds()
    for (workload, name), values in sorted(by_metric(runs).items()):
        if name not in e2e:
            continue
        med, q1, q3, s = spread(values)
        bound = e2e[name]["bound"]
        flag = "" if s <= bound else "  OVER BOUND"
        print("%-14s %-12s n=%-3d median %.6g  q1 %.6g  q3 %.6g  spread %.3f "
              "(bound %.2f, third %.3f)%s" %
              (workload, name, len(values), med, q1, q3, s, bound, bound / 3,
               flag))
    return 0


def cmd_diff(base_dir, head_dir):
    base, head = load_runs(base_dir), load_runs(head_dir)
    if host_of(base, base_dir) != host_of(head, head_dir):
        print("compare: base and head were measured on different hosts; "
              "refusing", file=sys.stderr)
        return 3
    e2e, layers = bounds()
    b, h = by_metric(base), by_metric(head)
    worse = False
    for key in sorted(set(b) & set(h)):
        workload, name = key
        mb, mh = statistics.median(b[key]), statistics.median(h[key])
        change = (mh - mb) / mb if mb else 0.0
        spec = e2e.get(name) or layers.get(name)
        if not spec:
            continue
        verdict = ""
        if name in e2e:
            loss = change if spec["better"] == "lower" else -change
            verdict = "ok" if loss <= spec["bound"] else "WORSE than bound"
            worse = worse or loss > spec["bound"]
        print("%-14s %-28s base %.6g  head %.6g  change %+.3f %s" %
              (workload, name, mb, mh, change, verdict))
    return 1 if worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return cmd_spread(argv[2])
    if len(argv) == 4 and argv[1] == "diff":
        return cmd_diff(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
