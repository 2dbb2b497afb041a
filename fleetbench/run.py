#!/usr/bin/env python3
"""Build the fleet benchmark from source and run one workload.

Run from the repository root:

  python3 fleetbench/run.py --workload paper_gates --seed 1 --seconds 30 --trace 0
  python3 fleetbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench).
The last line of standard output is the result object printed by the
fleetbench binary; build output goes to standard error. The exit code is the
binary's: 0 when every request verified, 1 when a check failed, 2 on a
usage, set-up or build error (then no result is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_gates", "circuit_mix", "session_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "fleetbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"fleetbench: {e}", file=sys.stderr)
        return False


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], 300):
            return None
    if not run_quiet(["cmake", "--build", out, "-j", "4"], 850):
        return None
    return os.path.join(out, "fleetbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"fleetbench: run exceeded {timeout} s", file=sys.stderr)
        return 2, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def last_json(text, back=1):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-back]) if len(lines) >= back else None


def self_test(binary):
    """Smoke of every workload at tiny sizes. Checks that every metric named
    in BENCHMARK.json prints with its unit, that the replay ledger repeats for
    a seed and changes with it, that a flipped response bit fails the run, and
    that the command fails without the library sources."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def smoke(workload, trace, seed, *extra):
        code, out = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                        "--seconds", "2", "--trace", str(trace), "--smoke",
                                        *extra])
        return code, last_json(out), last_json(out, 2)

    for workload in WORKLOADS:
        ledgers = {}
        for trace in (0, 1):
            code, result, info = smoke(workload, trace, 11)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}")
            if trace == 0 and result["metrics"]["success_rate"]["value"] != 1.0:
                problems.append(f"{where}: success_rate below 1")
            if trace == 1:
                ledgers[11] = info["ledger"]
        _, _, again = smoke(workload, 1, 11)
        _, _, other = smoke(workload, 1, 12)
        if again is None or again["ledger"] != ledgers.get(11):
            problems.append(f"{workload}: replay ledger differs between runs of one seed")
        if other is None or other["ledger"]["fingerprint"] == ledgers.get(11, {}).get("fingerprint"):
            problems.append(f"{workload}: a new seed did not change the replayed inputs")
        code, result, _ = smoke(workload, 0, 13, "--inject-flip")
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a flipped response bit was not caught")

    # Without the library sources the command must fail and print no result.
    bare = os.path.join(build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "fleetbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "fleetbench/run.py", "--workload", "paper_gates",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=RUN_TIMEOUT_S, env=dict(os.environ, CARGO_TARGET_DIR=""))
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a checkout without sources did not fail")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny operand sizes")
    parser.add_argument("--inject-flip", action="store_true",
                        help="flip one response bit per client (must fail the run)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("fleetbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(binary)
    if args.workload is None:
        parser.error("--workload is required")

    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_flip:
        cmd.append("--inject-flip")
    code, out = run_binary(binary, cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
