#!/usr/bin/env python3
"""Compare two sets of bench_berlin_e2e runs, or summarise one.

    compare.py A.json... -- B.json...   parent runs, then change runs
    compare.py RUNS.json...             spread of one set (calibration)
    compare.py --self-test              checks on the fixtures/ directory

Each file holds the stdout of one or more runs; every line that is a JSON
object with a "context" key is one run's report. Runs are grouped by
(workload, mode). Metrics, directions and bounds come from BENCHMARK.json
at the repository root (--benchmark overrides).

For each (workload, metric) a comparison prints each side's median and
quartiles, the share of pairs (A[i], B[i]) the change wins (ties count
for neither), and a verdict:

  regression  B's median is worse than A's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, unless every B
              run is better than every A run
  gain        B wins at least nine tenths of the pairs and the medians
              differ by more than A's quartile spread
  failures    would be a gain, but B's runs failed more operations than
              A's on that workload, so the gain does not count
  no change   otherwise

Metrics without a bound (per-layer metrics, and the timing diagnostics
below) get `gain`, `failures`, `loss` (the mirror of a gain: A wins at
least nine tenths of the pairs and the medians differ by more than A's
quartile spread) or `info`.

The exit code is 1 when any verdict is a regression, or when B's runs fail
more operations than A's on any workload.
"""

import io
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_BENCHMARK = HERE.parent.parent / "BENCHMARK.json"

# Report-line timings that BENCHMARK.json does not bound: on the
# calibration machine their run-to-run spread is wider than any bound the
# benchmark may set (README.md, Calibration). Their direction, for the win
# share.
DIAGNOSTICS = {
    "throughput_qps": "higher",
    "latency_p50_ms": "lower",
    "latency_p95_ms": "lower",
    "latency_p99_ms": "lower",
    "ingest_p50_ms": "lower",
    "ingest_p90_ms": "lower",
    "recovery_s": "lower",
}


def load_runs(paths):
    """{(workload, mode): [{metric: value}]}, {(workload, mode): failed
    operations over those runs}, and the incorrect run count."""
    runs, failed, incorrect = {}, {}, 0
    for path in paths:
        for line in pathlib.Path(path).read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                report = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "context" not in report:
                continue
            if not report.get("correct", False):
                incorrect += 1
            ctx = report["context"]
            key = (ctx["workload"], ctx.get("mode", "timed"))
            values = {name: m["value"] for name, m in report["metrics"].items()
                      if m.get("value") is not None}
            runs.setdefault(key, []).append(values)
            failed[key] = failed.get(key, 0) + report.get("failed", 0)
    return runs, failed, incorrect


def load_metrics(path):
    """{name: {"better": ..., "bound": float or None}}"""
    spec = json.loads(pathlib.Path(path).read_text())
    metrics = {}
    for m in spec.get("end_to_end", []):
        metrics[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    for name, better in DIAGNOSTICS.items():
        metrics.setdefault(name, {"better": better, "bound": None})
    for m in spec.get("per_layer", []):
        metrics[m["name"]] = {"better": m["better"], "bound": None}
    return metrics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative(x, base):
    return x / abs(base) if base else (0.0 if x == 0 else float("inf"))


def verdict(a, b, better, bound):
    """Returns (verdict, win share, B's change relative to A's median)."""
    sign = 1 if better == "higher" else -1
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    loss_share = losses / len(pairs) if pairs else 0.0
    change = relative(med_b - med_a, med_a)
    gained = share >= 0.9 and sign * (med_b - med_a) > (q3a - q1a)
    if bound is None:
        lost = loss_share >= 0.9 and -sign * (med_b - med_a) > (q3a - q1a)
        return ("gain" if gained else "loss" if lost else "info"), share, change
    worse_by = -sign * change
    spread = max(relative(q3a - q1a, med_a), relative(q3b - q1b, med_b))
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound and (spread <= bound or all_worse):
        return "regression", share, change
    if spread > bound and not all_better:
        return "unresolved", share, change
    if gained:
        return "gain", share, change
    return "no change", share, change


def more_failed(failed_a, failed_b):
    """The (workload, mode) keys on which B's runs failed more operations
    than A's."""
    return {key for key, n in failed_b.items() if n > failed_a.get(key, 0)}


def compare(runs_a, runs_b, more_failures, metrics, out=sys.stdout):
    """Prints one row per (workload, metric); returns the verdicts.
    `more_failures` holds the keys on which B failed more operations."""
    verdicts = {}
    out.write(f"{'workload':18} {'metric':28} {'A median [q1, q3]':>32} "
              f"{'B median [q1, q3]':>32} {'change':>8} {'wins':>5} "
              f"{'bound':>6}  verdict\n")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, _ = key
        for name, spec in metrics.items():
            a = [r[name] for r in runs_a[key] if name in r]
            b = [r[name] for r in runs_b[key] if name in r]
            if not a or not b:
                continue
            v, share, change = verdict(a, b, spec["better"], spec["bound"])
            if v == "gain" and key in more_failures:
                v = "failures"
            verdicts[(workload, name)] = v
            side_a, side_b = (f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"
                              for q in (quartiles(a), quartiles(b)))
            bound = "-" if spec["bound"] is None else f"{spec['bound']:.0%}"
            out.write(f"{workload:18} {name:28} {side_a:>32} {side_b:>32} "
                      f"{change:>+8.1%} {share:>5.0%} {bound:>6}  {v}\n")
    return verdicts


def spread(runs, metrics, out=sys.stdout):
    """Per (workload, metric): median, quartiles, quartile spread and
    range relative to the median, for calibrating bounds."""
    out.write(f"{'workload':18} {'metric':28} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}\n")
    for (workload, _), reports in sorted(runs.items()):
        names = [n for n in metrics if any(n in r for r in reports)]
        for name in names:
            values = [r[name] for r in reports if name in r]
            q1, med, q3 = quartiles(values)
            out.write(f"{workload:18} {name:28} {len(values):>3} {med:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} "
                      f"{relative(q3 - q1, med):>8.2%} "
                      f"{relative(max(values) - min(values), med):>9.2%}\n")


def self_test():
    fixtures = HERE / "fixtures"
    bounded = load_metrics(fixtures / "benchmark.json")
    unbounded = {name: {"better": spec["better"], "bound": None}
                 for name, spec in bounded.items()}
    base, base_failed, _ = load_runs([fixtures / "base.jsonl"])
    # fixture: (verdict with the fixture's 5% bounds, verdict without bounds)
    expected = {
        "same.jsonl": ("no change", "info"),
        "slower.jsonl": ("regression", "loss"),
        "faster.jsonl": ("gain", "gain"),
        "noisy.jsonl": ("unresolved", "info"),
        "failing.jsonl": ("failures", "failures"),
    }
    failures = 0
    for name, wants in expected.items():
        other, other_failed, _ = load_runs([fixtures / name])
        worse = more_failed(base_failed, other_failed)
        for metrics, want in zip((bounded, unbounded), wants):
            got = compare(base, other, worse, metrics, out=io.StringIO())
            for metric in ("latency_p50_ms", "throughput_qps"):
                if got.get(("w", metric)) != want:
                    print(f"self-test: {name} {metric}: got {got.get(('w', metric))}, "
                          f"want {want}")
                    failures += 1
    _, _, incorrect = load_runs([fixtures / "incorrect.jsonl"])
    if incorrect != 1:
        print(f"self-test: incorrect.jsonl: {incorrect} incorrect runs counted, want 1")
        failures += 1
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    if (q1, med, q3) != (1.5, 3.0, 4.5):
        print(f"self-test: quartiles {q1, med, q3}, want (1.5, 3.0, 4.5)")
        failures += 1
    print("self-test: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    return 1 if failures else 0


def main(argv):
    args = list(argv)
    if not args or "-h" in args or "--help" in args:
        print(__doc__)
        return 0 if args else 2
    if args == ["--self-test"]:
        return self_test()
    benchmark = DEFAULT_BENCHMARK
    if "--benchmark" in args:
        i = args.index("--benchmark")
        benchmark = args[i + 1]
        del args[i:i + 2]
    files = args
    metrics = load_metrics(benchmark)
    if "--" not in files:
        runs, _, incorrect = load_runs(files)
        spread(runs, metrics)
        if incorrect:
            print(f"warning: {incorrect} run(s) reported correct=false")
        return 0
    split = files.index("--")
    runs_a, failed_a, bad_a = load_runs(files[:split])
    runs_b, failed_b, bad_b = load_runs(files[split + 1:])
    worse = more_failed(failed_a, failed_b)
    verdicts = compare(runs_a, runs_b, worse, metrics)
    if bad_a or bad_b:
        print(f"warning: {bad_a} A run(s) and {bad_b} B run(s) reported correct=false")
    for workload, mode in sorted(worse):
        print(f"B failed more operations than A: {workload} ({mode}), "
              f"{failed_b[(workload, mode)]} against {failed_a.get((workload, mode), 0)}")
    return 1 if worse or "regression" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
