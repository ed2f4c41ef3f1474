#!/usr/bin/env bash
# Compare the simulator-infrastructure perf suite against the
# committed baseline (BENCH_simcore.json) and fail on regression.
#
# Usage: scripts/bench_compare.sh [build-dir] [max-regress-pct]
#
# Reruns bench_simcore_perf with the same repetition settings the
# baseline was produced with (scripts/bench_baseline.sh) and compares
# each benchmark's *best* (minimum) real_time across repetitions —
# the minimum is robust to the one-sided scheduling noise of shared
# machines, where means over a few repetitions swing by tens of
# percent. Any benchmark more than max-regress-pct (default 15)
# slower than the baseline fails the gate; faster is always fine.
# Skips cleanly when python3 or the baseline is unavailable so the
# build itself never blocks on it.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
max_pct="${2:-15}"
bench="$build_dir/bench/bench_simcore_perf"
baseline="BENCH_simcore.json"

if [[ ! -x "$bench" ]]; then
    echo "error: $bench not built (cmake --build $build_dir first)" >&2
    exit 1
fi
if [[ ! -f "$baseline" ]]; then
    echo "bench_compare: no $baseline baseline; skipping"
    exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
    echo "bench_compare: python3 unavailable; skipping"
    exit 0
fi

# Several process invocations: the gate takes the minimum across all
# of them, so a single throttled process window cannot fail the gate.
runs=()
for i in 1 2 3; do
    out="$build_dir/bench_simcore_current.$i.json"
    runs+=("$out")
    "$bench" --benchmark_format=json \
             --benchmark_repetitions=6 \
             --benchmark_min_time=0.05 \
             > "$out"
done

python3 - "$baseline" "$max_pct" "${runs[@]}" <<'PYEOF'
import json
import sys

base_path, max_pct = sys.argv[1], float(sys.argv[2])
cur_paths = sys.argv[3:]

# google-benchmark reports real_time in each entry's own time_unit
# (kMillisecond benches say "ms"). Times are held in ns so a delta
# never mixes units, and printed back in the entry's unit.
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def bests(paths):
    out, units = {}, {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for b in doc.get("benchmarks", []):
            unit = b.get("time_unit", "ns")
            t = b["real_time"] * NS_PER[unit]
            name = b["run_name"]
            units.setdefault(name, unit)
            # Prefer raw repetitions (take the minimum); fall back
            # to mean aggregates for baselines recorded
            # aggregates-only.
            if b.get("run_type") == "iteration":
                out[name] = min(out.get(name, float("inf")), t)
            elif b.get("aggregate_name") == "mean":
                out.setdefault(name, t)
    return out, units


def host(label, path):
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    line = (f"bench_compare: {label} host: "
            f"num_cpus={ctx.get('num_cpus', '?')}")
    for key in ("build_type", "library_build_type"):
        if key in ctx:
            line += f" {key}={ctx[key]}"
    print(line)


def fmt(t_ns, unit):
    v = t_ns / NS_PER[unit]
    return f"{v:.0f} {unit}" if v >= 100 else f"{v:.3g} {unit}"


host("baseline", base_path)
host("fresh", cur_paths[0])
base, base_units = bests([base_path])
cur, cur_units = bests(cur_paths)
if not base:
    print("bench_compare: baseline has no usable entries; skipping")
    sys.exit(0)
if not cur:
    # A fresh run with zero usable entries means the bench binary
    # produced no measurements at all — that is a failure, not a
    # skip, or a broken bench would sail through the gate.
    print("bench_compare: ERROR: fresh run produced no usable "
          "benchmark entries", file=sys.stderr)
    sys.exit(1)

failed = False
missing = []
for name in sorted(base):
    b = base[name]
    c = cur.get(name)
    if c is None:
        missing.append(name)
        failed = True
        continue
    delta = (c - b) / b * 100.0
    flag = ""
    if delta > max_pct:
        flag = f"  <-- exceeds +{max_pct:.0f}% budget"
        failed = True
    print(f"  {name}: {fmt(b, base_units[name])} -> "
          f"{fmt(c, cur_units[name])} ({delta:+.1f}%){flag}")

if missing:
    # A benchmark present in the baseline but absent from the fresh
    # run fails loudly: deleting or renaming a bench must not let it
    # dodge the regression gate silently.
    print(f"bench_compare: ERROR: {len(missing)} baseline "
          "benchmark(s) missing from fresh run:", file=sys.stderr)
    for name in missing:
        print(f"  MISSING: {name}", file=sys.stderr)

# Informational: the sharded-kernel parallel win on this host. The
# two benches compute byte-identical results, so the ratio is pure
# wall clock; expect >= 1.5x on a >= 4-core host and <= 1x on a
# single core (the crew cannot beat serial without real CPUs).
serial = cur.get("BM_ShardedKernelSerial")
sharded = cur.get("BM_ShardedKernelShards4")
if serial and sharded:
    print(f"bench_compare: sharded-kernel speedup "
          f"(serial / 4 lanes): {serial / sharded:.2f}x")

# Informational: what the lane-partitioned observability path costs
# while stamping. Traced runs the same world with trace recording
# (ring segments + per-lane profiler histograms) forced on; the ratio
# is the per-record overhead, expected within a few percent of 1x.
traced = cur.get("BM_ShardedKernelTraced")
if sharded and traced:
    print(f"bench_compare: traced sharded overhead "
          f"(traced / untraced, 4 lanes): {traced / sharded:.2f}x")

# Informational: the sparse coordinator's win on fleet-scale lane
# counts. Each pair runs the identical skewed fleet world (results
# byte-identical) under the sparse worklist coordinator vs the dense
# O(lanes^2) reference; the ratio is pure coordinator cost, so it
# holds on any host — expect >= 2x at 256 VMs and growing with lane
# count, the O(active lanes + traffic edges) scaling story.
for vms in (64, 256):
    sparse = cur.get(f"BM_FleetScale{vms}")
    dense = cur.get(f"BM_FleetScale{vms}Dense")
    if sparse and dense:
        print(f"bench_compare: fleet-scale sparse-coordinator "
              f"speedup (dense / sparse, {vms} VMs): "
              f"{dense / sparse:.2f}x")

sys.exit(1 if failed else 0)
PYEOF

echo "bench_compare: all benchmarks within ${max_pct}% of baseline"
