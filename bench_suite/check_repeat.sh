#!/usr/bin/env bash
# Steadiness checks for bench_suite, against the bounds in BENCHMARK.json.
#
#   bench_suite/check_repeat.sh [seed]            two full sets of runs, same build and
#                                                 seed: both values and their relative
#                                                 difference per (metric, workload);
#                                                 exits 1 if a difference exceeds the
#                                                 metric's bound, or if query_mix_s3's
#                                                 result digests differ from query_mix's
#   bench_suite/check_repeat.sh --spread [n]      n (default 10) seeds per workload: the
#                                                 interquartile range of each end-to-end
#                                                 metric as a share of its median; exits
#                                                 1 if one exceeds its bound (setup_s is
#                                                 printed but not judged)
#
# Run from the repository root. Builds once, then runs the built binary.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path bench_suite/Cargo.toml
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys

bench = json.load(open("BENCHMARK.json"))
target = os.environ.get("CARGO_TARGET_DIR", "bench_suite/target")
binary = os.path.join(target, "release", "bench_suite")
seconds = str(bench["run_seconds"])
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
workloads = [w["name"] for w in bench["workloads"]]


def run(workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def digests(workload, seed):
    record = json.load(open(f"bench_suite/out/record-{workload}-seed{seed}-trace0.json"))
    return record["query_digests"]


def repeat(seed):
    bad = 0
    print(f"{'workload':<14} {'metric':<28} {'first':>14} {'second':>14} {'diff':>8} {'bound':>6}")
    for w in workloads:
        first, second = run(w, seed, 0), run(w, seed, 0)
        for name, bound in bounds.items():
            a, b = first[name], second[name]
            diff = abs(a - b) / abs(a)
            flag = "" if diff <= bound else "  EXCEEDS"
            bad += bool(flag)
            print(f"{w:<14} {name:<28} {a:>14.4f} {b:>14.4f} {diff:>7.2%} {bound:>6.0%}{flag}")
        counts_a, counts_b = run(w, seed, 1), run(w, seed, 1)
        for name in counts_a:
            exact = name.startswith("store.") and name.endswith("_per_op") and "_ms_" not in name
            if (exact or name.endswith("_frac")) and counts_a[name] != counts_b[name]:
                bad += 1
                print(f"{w:<14} {name:<28} {counts_a[name]:>14.4f} {counts_b[name]:>14.4f}  COUNT DIFFERS")
    cpu, s3 = digests("query_mix", seed), digests("query_mix_s3", seed)
    shared = min(len(cpu), len(s3))
    same = cpu[:shared] == s3[:shared]
    print(f"query_mix_s3 digests equal query_mix's on the shared {shared} queries: {same}")
    sys.exit(1 if bad or not same else 0)


def spread(n):
    bad = 0
    print(f"{'workload':<14} {'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for w in workloads:
        runs = [run(w, seed, 0) for seed in range(1, n + 1)]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            judged = name != "setup_s"
            flag = "  EXCEEDS" if judged and share > bound else ("  above a third" if judged and share > bound / 3 else "")
            bad += flag == "  EXCEEDS"
            print(f"{w:<14} {name:<28} {statistics.median(values):>14.4f} {share:>10.2%} {bound:>6.0%}{flag}", flush=True)
    sys.exit(1 if bad else 0)


args = sys.argv[1:]
if args and args[0] == "--spread":
    spread(int(args[1]) if len(args) > 1 else 10)
else:
    repeat(int(args[0]) if args else 1)
PY
