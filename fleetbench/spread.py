#!/usr/bin/env python3
"""Run-to-run spread of the fleet benchmark's metrics.

Runs one workload once per seed and reports, for every metric, the median of
the per-run values and the distance between their first and third quartiles
as a share of the median -- the steadiness figure each end-to-end metric's
bound in BENCHMARK.json is held against. Run from the repository root:

  python3 fleetbench/spread.py --workload circuit_mix --runs 10 --seed-base 100
  python3 fleetbench/spread.py --workload circuit_mix --runs 10 --seed-base 200 \\
      --out second.json --against first.json

--against compares this set's medians with an earlier set saved by --out and
flags a metric whose median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save the per-run values as JSON")
    parser.add_argument("--against", help="earlier --out file to compare medians with")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    values = {name: [] for name in metrics}
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run([sys.executable, "fleetbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              file=sys.stderr)

    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    worst_ok = True
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  note")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = metrics.get(name, {}).get("bound")
        note = []
        if bound is not None:
            if spread > bound:
                note.append("SPREAD OVER BOUND")
                worst_ok = False
            elif spread > bound / 3:
                note.append("spread over bound/3")
            if name in earlier:
                before = statistics.median(earlier[name])
                worse = (med - before) / before if metrics[name]["better"] == "lower" \
                    else (before - med) / before
                note.append(f"vs earlier {worse:+.3f}")
                if worse > bound:
                    note.append("MEDIAN WORSE THAN BOUND")
                    worst_ok = False
        print(f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}  {' '.join(note)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
