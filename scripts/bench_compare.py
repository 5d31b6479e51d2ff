#!/usr/bin/env python3
"""Compare a google-benchmark BENCH_*.json with an earlier recording.

    bench_compare.py FILE [--rev REV]    FILE against `git show REV:FILE`
                                         (REV defaults to HEAD)
    bench_compare.py OLD.json NEW.json   two files
    bench_compare.py A1.json A2.json ... -- B1.json B2.json ...
                                         several files per side, pooled
    bench_compare.py ... --bound 0.05    the relative bound (default 5%)
    bench_compare.py --self-test         checks on built-in fixtures

A is the earlier recording, B the newer one. Several files per side are
pooled: each benchmark's repetitions are concatenated in file order, so
alternating same-session rounds (A1, B1, A2, B2, ...) pair up A[i] with
B[i]. Each benchmark's iteration
rows (one per repetition) give its real time, in nanoseconds; a
benchmark recorded with aggregate rows only
(--benchmark_report_aggregates_only) gets no verdict. Per benchmark the script prints each side's median over
repetitions and its min-max range, the change of the medians, the share
of repetition pairs (A[i], B[i]) that B wins (ties count for neither),
and a verdict. The rules are bench/e2e/compare.py's, with the min-max
spread in place of the quartile spread:

  regression  B's median is slower than A's by more than the bound, and
              both sides' spreads are within the bound (or every B run is
              slower than every A run)
  unresolved  a side's spread exceeds the bound, unless every B run is
              faster than every A run
  gain        B wins at least nine tenths of the pairs and the medians
              differ by more than A's spread
  no change   otherwise

Files recorded with different `num_cpus` or `build_type` in their context
are not compared (exit 2). The exit code is 1 when any verdict is a
regression.
"""

import io
import json
import statistics
import subprocess
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(text):
    """(context, {benchmark name: [real time in ns, per repetition]}). A
    benchmark recorded with aggregate rows only maps to []."""
    report = json.loads(text)
    runs = {}
    for row in report.get("benchmarks", []):
        if row.get("error_occurred"):
            continue
        name = row.get("run_name", row["name"])
        if row.get("run_type", "iteration") != "iteration":
            runs.setdefault(name, [])
            continue
        scale = UNIT_NS[row.get("time_unit", "ns")]
        runs.setdefault(name, []).append(row["real_time"] * scale)
    return report.get("context", {}), runs


def pool(texts):
    """load() over several reports, in order: the first report's context
    and each benchmark's repetitions concatenated, plus every report's
    context."""
    contexts, runs = [], {}
    for text in texts:
        ctx, file_runs = load(text)
        contexts.append(ctx)
        for name, times in file_runs.items():
            runs.setdefault(name, []).extend(times)
    return contexts, runs


def mismatch(ctx_a, ctx_b):
    """The context keys on which A and B are not comparable."""
    return [key for key in ("num_cpus", "build_type")
            if ctx_a.get(key) != ctx_b.get(key)]


def verdict(a, b, bound):
    """(verdict, win share, B's median change relative to A's)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / med_a
    pairs = list(zip(a, b))
    share = sum(1 for x, y in pairs if y < x) / len(pairs)
    spread = max((max(a) - min(a)) / med_a, (max(b) - min(b)) / med_b)
    all_better = max(b) < min(a)
    all_worse = min(b) > max(a)
    if change > bound and (spread <= bound or all_worse):
        return "regression", share, change
    if spread > bound and not all_better:
        return "unresolved", share, change
    if share >= 0.9 and med_a - med_b > max(a) - min(a):
        return "gain", share, change
    return "no change", share, change


def fmt_ns(x):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if x >= scale:
            return f"{x / scale:.4g} {unit}"
    return f"{x:.4g} ns"


def compare(runs_a, runs_b, bound, out=sys.stdout):
    """Prints one row per benchmark; returns {name: verdict}."""
    verdicts = {}
    out.write(f"{'benchmark':44} {'A median [min, max]':>34} "
              f"{'B median [min, max]':>34} {'change':>8} {'wins':>5}  "
              "verdict\n")
    for name in sorted(set(runs_a) | set(runs_b)):
        if name not in runs_a or name not in runs_b:
            side = "A" if name in runs_a else "B"
            out.write(f"{name:44} {'only in ' + side:>34}\n")
            continue
        a, b = runs_a[name], runs_b[name]
        if not a or not b:
            out.write(f"{name:44} {'no per-repetition rows':>34}\n")
            continue
        v, share, change = verdict(a, b, bound)
        verdicts[name] = v
        side_a, side_b = (
            f"{fmt_ns(statistics.median(x))} [{fmt_ns(min(x))}, "
            f"{fmt_ns(max(x))}]" for x in (a, b))
        out.write(f"{name:44} {side_a:>34} {side_b:>34} {change:>+8.1%} "
                  f"{share:>5.0%}  {v} (n={len(a)}/{len(b)})\n")
    return verdicts


def fixture(times_ms, num_cpus=4, build_type="Release"):
    """A google-benchmark report with one benchmark "BM_X" whose
    repetitions took `times_ms`, plus its aggregate rows."""
    rows = [{"name": "BM_X", "run_name": "BM_X", "run_type": "iteration",
             "real_time": t, "time_unit": "ms"} for t in times_ms]
    rows.append({"name": "BM_X_median", "run_name": "BM_X",
                 "run_type": "aggregate", "aggregate_name": "median",
                 "real_time": statistics.median(times_ms),
                 "time_unit": "ms"})
    return json.dumps({"context": {"num_cpus": num_cpus,
                                   "build_type": build_type},
                       "benchmarks": rows})


def self_test():
    failures = 0
    base = [10.0, 10.1, 10.2]
    expected = {
        "same": ([10.05, 10.1, 10.15], "no change"),
        "slower": ([11.0, 11.1, 11.2], "regression"),
        "faster": ([9.0, 9.1, 9.2], "gain"),
        "noisy": ([8.0, 10.0, 13.0], "unresolved"),
        "slower in us": ([11000.0, 11100.0, 11200.0], "regression"),
    }
    ctx_a, runs_a = load(fixture(base))
    _, aggregates_only = load(fixture(base).replace('"iteration"',
                                                    '"aggregate"'))
    if aggregates_only != {"BM_X": []} or compare(
            runs_a, aggregates_only, 0.05, out=io.StringIO()):
        print("self-test: aggregate-only rows got a verdict")
        failures += 1
    for name, (times, want) in expected.items():
        text = fixture(times)
        if name == "slower in us":
            text = text.replace('"ms"', '"us"')
        ctx_b, runs_b = load(text)
        got = compare(runs_a, runs_b, 0.05, out=io.StringIO())
        if mismatch(ctx_a, ctx_b) or got.get("BM_X") != want:
            print(f"self-test: {name}: got {got.get('BM_X')}, want {want}")
            failures += 1
    # Two rounds per side pool in file order and pair up A[i] with B[i].
    ctxs, pooled_a = pool([fixture([10.0, 10.1]), fixture([10.2])])
    _, pooled_b = pool([fixture([9.0, 9.1]), fixture([9.2])])
    got = compare(pooled_a, pooled_b, 0.05, out=io.StringIO())
    if pooled_a != {"BM_X": [1e7, 1.01e7, 1.02e7]} or len(ctxs) != 2 or \
            got.get("BM_X") != "gain":
        print(f"self-test: pooled rounds: got {pooled_a}, {got}")
        failures += 1
    for kwargs, key in (({"num_cpus": 1}, "num_cpus"),
                        ({"build_type": "Debug"}, "build_type")):
        ctx_b, _ = load(fixture(base, **kwargs))
        if mismatch(ctx_a, ctx_b) != [key]:
            print(f"self-test: {key} mismatch not detected")
            failures += 1
    print("self-test: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    return 1 if failures else 0


def read(path):
    with open(path) as f:
        return f.read()


def main(argv):
    args = list(argv)
    if not args or "-h" in args or "--help" in args:
        print(__doc__)
        return 0 if args else 2
    if args == ["--self-test"]:
        return self_test()
    bound = 0.05
    rev = "HEAD"
    for flag in ("--bound", "--rev"):
        if flag in args:
            i = args.index(flag)
            value = args[i + 1]
            del args[i:i + 2]
            if flag == "--bound":
                bound = float(value)
            else:
                rev = value
    if "--" in args:
        i = args.index("--")
        paths_a, paths_b = args[:i], args[i + 1:]
        if not paths_a or not paths_b:
            print(__doc__)
            return 2
        texts_a = [read(path) for path in paths_a]
    elif len(args) == 1:
        texts_a = [subprocess.run(["git", "show", f"{rev}:{args[0]}"],
                                  check=True, capture_output=True,
                                  text=True).stdout]
        paths_b = args
    elif len(args) == 2:
        texts_a, paths_b = [read(args[0])], args[1:]
    else:
        print(__doc__)
        return 2
    ctxs_a, runs_a = pool(texts_a)
    ctxs_b, runs_b = pool([read(path) for path in paths_b])
    ctx_a, ctx_b = ctxs_a[0], ctxs_b[0]
    bad = sorted({key for ctx in ctxs_a[1:] + ctxs_b
                  for key in mismatch(ctx_a, ctx)})
    if bad:
        for key in bad:
            print(f"not comparable: {key} differs between the files")
        return 2
    print(f"A: {ctx_a.get('git_sha', '?')[:12]} ({len(ctxs_a)} file(s))  "
          f"B: {ctx_b.get('git_sha', '?')[:12]} ({len(ctxs_b)} file(s))  "
          f"num_cpus "
          f"{ctx_b.get('num_cpus')}  build_type {ctx_b.get('build_type')}  "
          f"bound {bound:.0%}")
    verdicts = compare(runs_a, runs_b, bound)
    return 1 if "regression" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
