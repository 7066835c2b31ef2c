#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares fresh ablation JSON reports against committed baselines and
fails when a gated metric regressed by more than the allowed fraction.

Raw millisecond numbers are machine-dependent (CI runners are not the
machine the baseline was recorded on), so every gated metric is a
within-run ratio: both sides of the ratio run on the same machine in the
same process, so host speed cancels and the metric isolates the relative
cost of the path under test.

Supported metrics:

  single_client_delay_ratio   ablation_zero_copy vs BENCH_zero_copy.json:
                              zero-copy / seed single-client inter-frame
                              delay.  A frame-path regression shows up as
                              this ratio creeping up.

  fanout_scaling_ratio        ablation_hub_epoll vs BENCH_hub_epoll.json:
                              per-client fan-out cost at the large client
                              count divided by the same cost at the small
                              count.  Epoll-hub scaling regressions (e.g.
                              an O(clients) scan sneaking into the accept
                              or drain path) show up here while absolute
                              us/client stays host-independent.

  root_egress_ratio           ablation_relay_tree vs BENCH_relay_tree.json:
                              root egress bytes with the relay tree at the
                              large viewer count divided by the same bytes
                              at the small count.  ~1.0 while each frame
                              crosses the root link once per edge (root
                              pays per edge, not per viewer); a relay
                              regression that re-ships frames per viewer
                              drags it toward the direct-attach ratio
                              (viewers_large/small).

  jpeg_encode_speedup         ablation_codec_simd vs BENCH_codec_simd.json:
                              MB/s of the tiled SIMD JPEG engine divided by
                              MB/s of the retained scalar double-precision
                              reference, both timed in the same process.
                              Higher is better: the gate fails when the
                              fresh speedup falls more than the budget
                              below the baseline, or (with min-value)
                              below an absolute floor such as the 3.0x
                              claim.

  perceived_delay_ratio       ablation_warp vs BENCH_warp.json: mean
                              inter-update gap of the ship-per-frame
                              viewer divided by the warping viewer's, on
                              the same simulated 150 ms trans-Pacific
                              clock.  Higher is better; the >= 5.0 floor
                              is the latency-hiding claim.

Usage (single gate, the original form):
    bench_gate.py --fresh out.json --baseline BENCH_zero_copy.json \
                  [--metric single_client_delay_ratio] \
                  [--max-regression 0.25] [--min-value 3.0]

Usage (consolidated form — many gates, one invocation, one summary):
    bench_gate.py \
      --gate metric=single_client_delay_ratio,fresh=z.json,baseline=BENCH_zero_copy.json \
      --gate metric=jpeg_encode_speedup,fresh=c.json,baseline=BENCH_codec_simd.json,min-value=3.0 \
      --gate metric=perceived_delay_ratio,fresh=w.json,baseline=BENCH_warp.json,min-value=5.0

Each --gate takes comma-separated key=value pairs: metric, fresh and
baseline are required; max-regression (default 0.25) and min-value are
optional.  All gates are evaluated (no short-circuit), a summary table is
printed, and the exit status is 1 if any gate failed.

Exit status: 0 = within budget, 1 = regression (or malformed input).
"""

import argparse
import sys

import json

METRICS = ("single_client_delay_ratio", "fanout_scaling_ratio",
           "root_egress_ratio", "jpeg_encode_speedup",
           "perceived_delay_ratio")

# Metrics that are meaningless when frames were lost (a dropped frame
# shrinks egress and fan-out cost alike, flattering the ratio).
LOSSLESS_METRICS = ("fanout_scaling_ratio", "root_egress_ratio")

# Metrics where bigger numbers are good (speedups); the rest are costs.
HIGHER_IS_BETTER = ("jpeg_encode_speedup", "perceived_delay_ratio")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(1)


def sanity_check_runs(fresh, metric):
    """Every run in the fresh report must have actually delivered frames."""
    for run in fresh.get("runs", []):
        if run.get("frames", 0) <= 0:
            print(f"bench_gate: fresh run delivered no frames: {run}",
                  file=sys.stderr)
            sys.exit(1)
        if metric in LOSSLESS_METRICS and not run.get("lossless", True):
            print(f"bench_gate: fresh fan-out run lost frames: {run}",
                  file=sys.stderr)
            sys.exit(1)


def evaluate_gate(metric, fresh_path, baseline_path, max_regression,
                  min_value):
    """Evaluate one gate; returns a result row for the summary table."""
    fresh = load(fresh_path)
    baseline = load(baseline_path)

    for name, report in (("fresh", fresh), ("baseline", baseline)):
        if metric not in report:
            print(f"bench_gate: {name} report has no {metric}",
                  file=sys.stderr)
            sys.exit(1)

    sanity_check_runs(fresh, metric)

    fresh_ratio = float(fresh[metric])
    base_ratio = float(baseline[metric])
    if base_ratio <= 0.0:
        print(f"bench_gate: baseline ratio {base_ratio} is not positive",
              file=sys.stderr)
        sys.exit(1)

    # For cost ratios a regression is the fresh ratio rising; for speedups
    # it is the fresh value falling.  Either way, positive = worse.
    if metric in HIGHER_IS_BETTER:
        if fresh_ratio <= 0.0:
            print(f"bench_gate: fresh value {fresh_ratio} is not positive",
                  file=sys.stderr)
            sys.exit(1)
        regression = base_ratio / fresh_ratio - 1.0
    else:
        regression = fresh_ratio / base_ratio - 1.0
    verdict = "OK" if regression <= max_regression else "REGRESSION"
    if min_value is not None and fresh_ratio < min_value:
        verdict = "BELOW FLOOR"
    return {
        "metric": metric,
        "fresh": fresh_ratio,
        "baseline": base_ratio,
        "regression": regression,
        "budget": max_regression,
        "floor": min_value,
        "verdict": verdict,
    }


def parse_gate_spec(spec):
    """Parse one --gate value: comma-separated key=value pairs."""
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            print(f"bench_gate: malformed --gate field '{part}' in '{spec}'",
                  file=sys.stderr)
            sys.exit(1)
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"metric", "fresh", "baseline", "max-regression",
                             "min-value"}
    if unknown:
        print(f"bench_gate: unknown --gate keys {sorted(unknown)} in "
              f"'{spec}'", file=sys.stderr)
        sys.exit(1)
    for required in ("metric", "fresh", "baseline"):
        if required not in fields:
            print(f"bench_gate: --gate is missing '{required}': '{spec}'",
                  file=sys.stderr)
            sys.exit(1)
    if fields["metric"] not in METRICS:
        print(f"bench_gate: unknown metric '{fields['metric']}' "
              f"(choose from {', '.join(METRICS)})", file=sys.stderr)
        sys.exit(1)
    min_value = (float(fields["min-value"])
                 if "min-value" in fields else None)
    if min_value is not None and fields["metric"] not in HIGHER_IS_BETTER:
        print(f"bench_gate: min-value only applies to higher-is-better "
              f"metrics, not {fields['metric']}", file=sys.stderr)
        sys.exit(1)
    return {
        "metric": fields["metric"],
        "fresh_path": fields["fresh"],
        "baseline_path": fields["baseline"],
        "max_regression": float(fields.get("max-regression", 0.25)),
        "min_value": min_value,
    }


def print_summary(rows):
    header = (f"{'metric':<28} {'fresh':>9} {'baseline':>9} {'change':>8} "
              f"{'budget':>7} {'floor':>6}  verdict")
    print(header)
    print("-" * len(header))
    for r in rows:
        floor = f"{r['floor']:.2f}" if r["floor"] is not None else "-"
        print(f"{r['metric']:<28} {r['fresh']:>9.4f} {r['baseline']:>9.4f} "
              f"{r['regression']:>+8.1%} {r['budget']:>+7.0%} {floor:>6}  "
              f"{r['verdict']}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--gate", action="append", default=[],
                        metavar="metric=...,fresh=...,baseline=...",
                        help="consolidated gate spec; repeatable — all "
                             "gates run, one summary table, exit 1 if any "
                             "fails")
    parser.add_argument("--fresh",
                        help="JSON report from this run's ablation binary")
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--metric", default="single_client_delay_ratio",
                        choices=METRICS,
                        help="which within-run ratio to gate "
                             "(default: single_client_delay_ratio)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional worsening of the gated "
                             "ratio (default 0.25)")
    parser.add_argument("--min-value", type=float, default=None,
                        help="absolute floor the fresh metric must meet "
                             "(higher-is-better metrics only)")
    args = parser.parse_args()

    if args.gate:
        if args.fresh or args.baseline:
            print("bench_gate: use either --gate or --fresh/--baseline, "
                  "not both", file=sys.stderr)
            sys.exit(1)
        rows = [evaluate_gate(**parse_gate_spec(spec)) for spec in args.gate]
        print_summary(rows)
        failed = [r for r in rows if r["verdict"] != "OK"]
        if failed:
            for r in failed:
                print(f"bench_gate: {r['metric']} "
                      f"{r['verdict'].lower()}; investigate before merging.",
                      file=sys.stderr)
            sys.exit(1)
        return

    # Legacy single-gate form.
    if not args.fresh or not args.baseline:
        print("bench_gate: --fresh and --baseline are required without "
              "--gate", file=sys.stderr)
        sys.exit(1)
    if args.min_value is not None and args.metric not in HIGHER_IS_BETTER:
        print(f"bench_gate: --min-value only applies to higher-is-better "
              f"metrics, not {args.metric}", file=sys.stderr)
        sys.exit(1)
    r = evaluate_gate(args.metric, args.fresh, args.baseline,
                      args.max_regression, args.min_value)
    floor_note = (f" floor={r['floor']:.2f}"
                  if r["floor"] is not None else "")
    print(f"bench_gate: {r['metric']} fresh={r['fresh']:.4f} "
          f"baseline={r['baseline']:.4f} change={r['regression']:+.1%} "
          f"(budget +{r['budget']:.0%}{floor_note}) -> {r['verdict']}")
    if r["verdict"] != "OK":
        print(f"bench_gate: {r['metric']} {r['verdict'].lower()}; "
              "investigate before merging.", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
