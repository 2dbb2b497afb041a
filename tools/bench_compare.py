#!/usr/bin/env python3
"""Compare bench --json outputs against committed baselines.

Usage:
    bench_compare.py --baseline bench/baselines --results bench-results \
                     [--threshold 0.25] [--output comparison.json]

Every bench JSON carries two classes of tracked metrics:

  * hard metrics -- deterministic facts (bit-exactness, parity across
    backends, modeled hardware cycles, gate counts after CSE/DCE,
    coalescing). A regression beyond the threshold FAILS the gate
    (exit 1, ::error:: annotation): these do not depend on runner speed.

  * soft metrics -- wall-clock throughput and speedups. Runner hardware
    varies, so a >threshold regression only WARNS (::warning::
    annotation) and never fails CI. The numbers are still recorded in the
    comparison artifact so trends are visible across commits.

Intentional changes (a new optimization shifts a hard metric) are handled
by regenerating the committed baseline in the same PR -- see
CONTRIBUTING.md. A baseline file that no TRACKED entry names fails the
gate too, so a deleted bench cannot leave an unchecked baseline behind.
"""

import argparse
import json
import os
import sys
from pathlib import Path


class Metric:
    """One tracked value: how to pull it out of a bench JSON and how to
    judge a change against the baseline."""

    def __init__(self, name, extract, kind="number", direction="higher", mode="warn"):
        self.name = name
        self.extract = extract        # fn(parsed json) -> value (may raise KeyError)
        self.kind = kind              # "number" | "bool"
        self.direction = direction    # "higher" | "lower" is better
        self.mode = mode              # "hard" | "warn"


def _max_over(items, key):
    values = [item[key] for item in items]
    return max(values) if values else 0.0


TRACKED = {
    "backend_batch.json": [
        Metric("bit_exact", lambda d: d["bit_exact"], kind="bool", mode="hard"),
        Metric("ssa.speedup", lambda d: d["ssa"]["speedup"], mode="warn"),
        # Modeled cycles are deterministic: a drop in the cached-batch
        # advantage means the double-buffered accounting regressed.
        Metric("hw.modeled_speedup", lambda d: d["hw"]["modeled_speedup"], mode="hard"),
    ],
    "ntt_software.json": [
        # Paper-plan engine vs four-step, and ssa vs karatsuba parity.
        Metric("bit_exact", lambda d: d["bit_exact"], kind="bool", mode="hard"),
        # The shift/DSP split of the paper plan is a deterministic fact of
        # the decomposition: any drift means the staging or the shift-only
        # butterfly kernel regressed.
        Metric("paper_plan.shift_muls", lambda d: d["paper_plan"]["shift_muls"],
               direction="lower", mode="hard"),
        Metric("paper_plan.generic_muls", lambda d: d["paper_plan"]["generic_muls"],
               direction="lower", mode="hard"),
        Metric("paper_plan.additions", lambda d: d["paper_plan"]["additions"],
               direction="lower", mode="hard"),
        Metric("mixed.forward_64k_ms", lambda d: d["mixed"]["forward_64k_ms"],
               direction="lower", mode="warn"),
        Metric("multiply.per_call_ms", lambda d: d["multiply"]["per_call_ms"],
               direction="lower", mode="warn"),
        # Four-step headline: the balanced 64K convolve must stay >= 1.3x
        # faster than the same engine split 2 x 32K (two-lane-wide
        # sub-transforms: the monolithic sweep) on one lane. The bool is
        # computed inside the bench from the same run, so it gates the
        # ratio (stable across runners), not absolute wall-clock.
        Metric("four_step.split_speedup_64k_ge_1_3",
               lambda d: d["four_step"]["split_speedup_64k_ge_1_3"], kind="bool",
               mode="hard"),
        Metric("four_step.split_speedup_64k", lambda d: d["four_step"]["split_speedup_64k"],
               mode="warn"),
        Metric("four_step.min_sweep_speedup",
               lambda d: d["four_step"]["min_sweep_speedup"], mode="warn"),
        Metric("four_step.convolve_64k_ms",
               lambda d: d["four_step"]["convolve_64k_ms"], direction="lower",
               mode="warn"),
    ],
    "scheduler_throughput.json": [
        Metric("bit_exact", lambda d: d["bit_exact"], kind="bool", mode="hard"),
        Metric("max_jobs_per_sec", lambda d: _max_over(d["results"], "jobs_per_sec"),
               mode="warn"),
    ],
    "circuit_wavefront.json": [
        Metric("all_bit_exact", lambda d: all(c["bit_exact"] for c in d["circuits"]),
               kind="bool", mode="hard"),
        # Gate/wavefront counts after CSE + DCE are structural: growth
        # means the IR optimizations regressed.
        Metric("total_and_gates", lambda d: sum(c["and_gates"] for c in d["circuits"]),
               direction="lower", mode="hard"),
        Metric("total_wavefronts", lambda d: sum(c["wavefronts"] for c in d["circuits"]),
               direction="lower", mode="hard"),
        # Lowering facts. The NoiseModel predictor runs the same lowering
        # templates the Graph records, so every circuit's predicted depth
        # must equal its recorded level count; each strategy's depth and
        # peak wavefront width are deterministic structure, and the
        # carry-save 16-bit multiply must stay at <= half ripple's depth.
        Metric("all_depth_consistent",
               lambda d: all(c["depth_consistent"] for c in d["circuits"]),
               kind="bool", mode="hard"),
        Metric("total_predicted_depth",
               lambda d: sum(c["predicted_depth"] for c in d["circuits"]),
               direction="lower", mode="hard"),
        Metric("max_wavefront_width",
               lambda d: max(c["wavefront_width"] for c in d["circuits"]),
               direction="lower", mode="hard"),
        Metric("depth16_ripple", lambda d: d["depth16_ripple"], direction="lower",
               mode="hard"),
        Metric("depth16_carry_save", lambda d: d["depth16_carry_save"],
               direction="lower", mode="hard"),
        Metric("depth16_halved", lambda d: d["depth16_halved"], kind="bool",
               mode="hard"),
        # Spectrum residency: NTT executions are counted on the evaluator
        # coordinator, so both tallies are deterministic facts of the
        # circuit. The 4-bit multiplier must keep >= 1.5x fewer transforms
        # than its per-gate eager arm, and total executions must not creep.
        Metric("mul4.transform_reduction_ok",
               lambda d: next(c for c in d["circuits"]
                              if c["name"] == "mul4")["transform_reduction"] >= 1.5,
               kind="bool", mode="hard"),
        Metric("total_transforms_executed",
               lambda d: sum(c["transforms_executed"] for c in d["circuits"]),
               direction="lower", mode="hard"),
        Metric("min_speedup", lambda d: min(c["speedup"] for c in d["circuits"]),
               mode="warn"),
    ],
    "service_throughput.json": [
        Metric("bit_exact", lambda d: d["bit_exact"], kind="bool", mode="hard"),
        Metric("all_backends_parity", lambda d: all(d["parity"].values()), kind="bool",
               mode="hard"),
        # The tentpole invariant: 8 single-multiply tenants must share
        # scheduler batches instead of being serialized per caller.
        Metric("headline_coalesced", lambda d: d["headline_coalesced"], kind="bool",
               mode="hard"),
        Metric("headline_batches", lambda d: d["headline_batches"], direction="lower",
               mode="warn"),
        # Deterministic transform tally of the 8-tenant headline cell's
        # spectrum-resident rounds (3 per single-AND request).
        Metric("headline_transforms_executed",
               lambda d: d["headline_transforms_executed"], direction="lower",
               mode="hard"),
        Metric("max_requests_per_sec",
               lambda d: _max_over(d["results"], "requests_per_sec"), mode="warn"),
    ],
    "fhe_dghv.json": [
        # The public-key encryptor's in-place subset sum against the loop it
        # replaced, both drawn from one seed: every trial's ciphertexts must
        # be equal.
        Metric("encrypt.bit_exact", lambda d: d["encrypt"]["bit_exact"], kind="bool",
               mode="hard"),
        # Secret-key encryption (Dghv::encrypt, no reduction): every
        # ciphertext is below x0 and decrypts.
        Metric("encrypt.secret_ok", lambda d: d["encrypt"]["secret_ok"], kind="bool",
               mode="hard"),
        # Paper-size public encrypt median over the former loop's median,
        # same run.
        Metric("encrypt.speedup", lambda d: d["encrypt"]["speedup"], mode="warn"),
        # One paper-size AND served through the evaluator: its resident
        # transform length is fixed by the residency plan (the paper's
        # 65,536 points), and its product must equal Dghv::multiply's.
        Metric("resident.paper_and_transform_size",
               lambda d: d["resident"]["paper_and_transform_size"], direction="lower",
               mode="hard"),
        Metric("resident.paper_and_bit_exact", lambda d: d["resident"]["paper_and_bit_exact"],
               kind="bool", mode="hard"),
        Metric("resident.paper_and_ms", lambda d: d["resident"]["paper_and_ms"],
               direction="lower", mode="warn"),
    ],
}


def annotate(level, message):
    # GitHub Actions annotation when running in CI; plain stderr otherwise.
    print(f"::{level}::{message}" if "GITHUB_ACTIONS" in os.environ
          else f"{level.upper()}: {message}", file=sys.stderr)


def compare_metric(metric, baseline, current, threshold):
    """Returns (status, detail): status in ok|regressed|improved|new|missing.

    "missing" is a HARD failure regardless of the metric's mode: the
    committed baseline file exists but does not carry this metric's key,
    which happens when a metric is added or renamed without regenerating
    the baseline in the same PR. Treating it as "new" would silently
    disable the gate for exactly the change that most needs it.
    """
    current_value = metric.extract(current)
    if baseline is None:
        base_value = None
    else:
        try:
            base_value = metric.extract(baseline)
        except (KeyError, TypeError, ValueError) as error:
            return "missing", {
                "baseline": None, "current": current_value,
                "note": f"metric absent from committed baseline ({error!r}); "
                        f"regenerate the baseline in this PR (see CONTRIBUTING.md)"}

    if metric.kind == "bool":
        ok = bool(current_value)
        return ("ok" if ok else "regressed",
                {"baseline": base_value, "current": current_value,
                 "note": "must be true"})

    if base_value is None:
        return "new", {"baseline": None, "current": current_value}
    if base_value == 0:
        return "ok", {"baseline": base_value, "current": current_value,
                      "note": "zero baseline, skipped"}

    change = (current_value - base_value) / abs(base_value)
    if metric.direction == "lower":
        change = -change  # now: positive change = improvement
    detail = {"baseline": base_value, "current": current_value,
              "change_pct": round(100.0 * change, 1)}
    if change < -threshold:
        return "regressed", detail
    if change > threshold:
        return "improved", detail
    return "ok", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--results", required=True, type=Path)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that trips the gate (default 0.25)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the full comparison as JSON")
    args = parser.parse_args()

    failures = 0
    report = {"threshold": args.threshold, "benches": {}}

    # A baseline no TRACKED entry names is never checked: a deleted or
    # renamed bench must take its baseline with it.
    for orphan in sorted(set(p.name for p in args.baseline.glob("*.json")) - set(TRACKED)):
        annotate("error", f"{orphan}: orphan baseline, no TRACKED entry names it")
        failures += 1
        report["benches"][orphan] = {"error": "orphan baseline"}

    for bench_file, metrics in sorted(TRACKED.items()):
        result_path = args.results / bench_file
        baseline_path = args.baseline / bench_file
        if not result_path.exists():
            annotate("error", f"{bench_file}: bench result missing from {args.results}")
            failures += 1
            report["benches"][bench_file] = {"error": "result missing"}
            continue
        current = json.loads(result_path.read_text())
        baseline = (json.loads(baseline_path.read_text())
                    if baseline_path.exists() else None)
        if baseline is None:
            annotate("warning",
                     f"{bench_file}: no committed baseline (new bench?); "
                     f"commit {baseline_path} to start tracking")

        bench_report = {}
        for metric in metrics:
            try:
                status, detail = compare_metric(metric, baseline, current, args.threshold)
            except (KeyError, TypeError, ValueError) as error:
                annotate("error", f"{bench_file}:{metric.name}: unreadable ({error})")
                failures += 1
                bench_report[metric.name] = {"status": "error", "detail": str(error)}
                continue
            detail["mode"] = metric.mode
            bench_report[metric.name] = {"status": status, **detail}

            label = f"{bench_file}:{metric.name}"
            if status == "missing":
                annotate("error",
                         f"{label}: {detail.get('note', 'missing from baseline')}")
                failures += 1
            elif status == "regressed":
                message = (f"{label} regressed: baseline {detail.get('baseline')} -> "
                           f"current {detail.get('current')}"
                           + (f" ({detail['change_pct']:+.1f}%)"
                              if "change_pct" in detail else ""))
                if metric.mode == "hard":
                    annotate("error", message)
                    failures += 1
                else:
                    annotate("warning", message + " [soft metric: not failing CI]")
            elif status == "improved":
                print(f"note: {label} improved {detail['change_pct']:+.1f}% -- "
                      f"consider refreshing the baseline (see CONTRIBUTING.md)")
        report["benches"][bench_file] = bench_report

    if args.output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")

    ok_count = sum(1 for bench in report["benches"].values()
                   for entry in bench.values()
                   if isinstance(entry, dict) and entry.get("status") == "ok")
    print(f"bench-compare: {ok_count} metrics within threshold, {failures} hard failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
