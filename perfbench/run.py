#!/usr/bin/env python3
"""The virtsim benchmark: one command, four in-process workloads.

    python3 perfbench/run.py --workload paper --seed 42 --seconds 10 --trace 0

Builds perfbench/driver.cc against the simulator sources (CMake, into
.bench_build/ at the repository root), runs the workload in its own
process, checks the modelled outputs, and prints every metric with
its unit and the host it ran on. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
--trace 1 a separate traced run prints the per-layer set and the
per-layer self-time table. --workload all runs every workload.

See perfbench/README.md for why each workload exists and what each
per-layer metric is predicted to move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the source tree as checked out

import benchstats as bs  # noqa: E402

WORKLOADS = ("paper", "fleet-serial", "fleet-sharded", "fleet-observed")
DEFAULT_SEED = 42
# Seed no tuning was done on; a claimed gain must also hold on it.
HELD_OUT_SEED = 7
# Processes whose set-up time is sampled per run (the timed one too).
SETUP_SAMPLES = 5

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_build" / "perfbench-work"
DRIVER = BUILD_DIR / "perfbench_driver"


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def fail(msg):
    raise BenchError(msg)


# ----------------------------------------------------------------------
# Build and host


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR.parent / "perfbench-build.log"
    cmds = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    cmds.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log, "w") as out:
        for cmd in cmds:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=840).returncode
            if rc != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    if not DRIVER.is_file():
        fail("build produced no driver")
    return DRIVER


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_metadata(driver_host):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": driver_host["compiler"],
        "build_type": driver_host["build_type"],
    }


def host_line(host):
    return (f"host: nproc={host['nproc']} cpu=\"{host['cpu_model']}\" "
            f"compiler=\"{host['compiler']}\" "
            f"build_type={host['build_type']}")


# ----------------------------------------------------------------------
# Driver processes


def run_driver(mode, workload, seed, seconds, workdir, tag):
    """Run one driver process; returns its parsed JSON record."""
    out = workdir / f"{tag}.json"
    err = workdir / f"{tag}.stderr"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VIRTSIM_")}
    cmd = [str(DRIVER), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(workdir / tag), "--out", str(out)]
    t0 = time.monotonic_ns()
    with open(err, "w") as errf:
        try:
            rc = subprocess.run(cmd + ["--t0-ns", str(t0)], env=env,
                                stdout=subprocess.DEVNULL, stderr=errf,
                                timeout=seconds + 100).returncode
        except subprocess.TimeoutExpired:
            fail(f"driver {mode} {workload} timed out")
    if rc != 0 or not out.is_file():
        tail = err.read_text().splitlines()[-20:]
        fail(f"driver {mode} {workload} exited {rc}:\n" + "\n".join(tail))
    return json.loads(out.read_text())


def load_reference():
    return json.loads((HERE / "paper_reference.json").read_text())


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics


def fmt(v):
    return f"{v:.6g}"


def timing_detail(values):
    q1, _, q3 = bs.quartiles(values)
    t = bs.tail(values)
    tail = (f"p{t[0]:.1f}={fmt(t[1])}" if t
            else f"no tail (needs >{bs.TAIL_BEYOND} samples)")
    return f"median; q1={fmt(q1)} q3={fmt(q3)} {tail} n={len(values)}"


def print_fidelity(rows):
    print("Fidelity against the paper (model vs published, signed error):")
    print(f"  {'table':<7}{'row':<27}{'column':<10}"
          f"{'model':>12}{'paper':>12}{'error':>9}")
    for table, row, column, model, paper, err in rows:
        print(f"  {table:<7}{row:<27}{column:<10}"
              f"{model:>12.1f}{paper:>12.1f}{err:>+8.1f}%")
    worst = max(rows, key=lambda r: abs(r[5]))
    print(f"  worst cell: {worst[0]} {worst[1]} / {worst[2]} "
          f"at {worst[5]:+.1f}%")


def run_untraced(workload, seed, seconds, workdir):
    rec = run_driver("measure", workload, seed, seconds, workdir, "measure")
    setups = [rec["setup_s"]]
    for i in range(1, SETUP_SAMPLES):
        setups.append(run_driver("setup", workload, seed, seconds,
                                 workdir, f"setup{i}")["setup_s"])
    cells = rec["cells"]
    if not cells:
        cells = run_driver("fidelity", workload, seed, seconds, workdir,
                           "fidelity")["cells"]
    rows = bs.paper_errors(cells, load_reference())
    err_max, err_mean = bs.error_summary(rows)

    walls = [p["wall_s"] for p in rec["passes"]]
    cpus = [p["cpu_s"] for p in rec["passes"]]
    checks = rec["checks"]
    host = host_metadata(rec["host"])
    metrics = {
        "wall_s": (bs.median(walls), "s", timing_detail(walls)),
        "cpu_s": (bs.median(cpus), "s", timing_detail(cpus)),
        "setup_s": (bs.median(setups), "s",
                    f"median of {len(setups)} processes"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB", "timed process"),
        "paper_err_max_pct": (err_max, "%", f"over {len(rows)} cells"),
        "paper_err_mean_pct": (err_mean, "%", f"over {len(rows)} cells"),
    }
    frac = bs.failed_frac(checks["attempted"], checks["failed"])

    print(f"== virtsim benchmark: workload {workload}, seed {seed}, "
          f"{seconds} s ==")
    print(host_line(host))
    if workload == "paper":
        print_fidelity(rows)
    print("End-to-end metrics:")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:<20}{fmt(value):>12} {unit:<3} {detail}")
    print(f"  {'failed_frac':<20}{fmt(frac):>12} {'1':<3} "
          f"{checks['failed']} of {checks['attempted']} checks failed")
    for f in checks["failures"]:
        print(f"  FAILED: {f}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": 0, "host": host, "lanes": rec["host"]["lanes"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
        "failed_frac": frac, "checks": checks,
        "wall_s_samples": walls, "cpu_s_samples": cpus,
        "setup_s_samples": setups, "digest": rec["digest"],
    }
    return record


# ----------------------------------------------------------------------
# Traced run: per-layer metrics


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*")
               if p.is_file())


def median_of(passes, key):
    return bs.median([p[key] for p in passes]) if passes else 0


def per_layer(workload, rec, spans):
    passes = rec["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    m = {}

    def per_pass(name):
        per = bs.span_seconds_by_pass(spans, name)
        return bs.median(list(per.values())) if per else 0.0

    for t in ("table2", "table3", "table5", "figure4"):
        m[f"core.{t}_s"] = per_pass(f"core.{t}")
    replay = [s for s in spans if s["pass"] == -1]
    acquire = sum((s["end_ns"] - s["start_ns"]) * 1e-9 for s in replay
                  if s["name"] == "core.testbed_acquire")
    run_s = sum((s["end_ns"] - s["start_ns"]) * 1e-9 for s in replay
                if s["name"] == "core.workload_run")
    m["core.testbed_acquire_s"] = acquire
    m["core.workload_run_s"] = run_s
    m["core.testbed_cache_hits"] = median_of(traced, "testbed_cache_hits")
    m["core.testbed_cache_misses"] = median_of(traced,
                                               "testbed_cache_misses")
    m["sweep.tasks"] = median_of(traced, "sweep_tasks")
    m["sweep.worker_wakes"] = median_of(traced, "sweep_worker_wakes")

    wall = bs.median([p["wall_s"] for p in untraced])
    rounds = median_of(untraced, "shard_rounds")
    m["shard.rounds"] = rounds
    m["shard.parallel_rounds"] = median_of(untraced,
                                           "shard_parallel_rounds")
    m["shard.lane_dispatches"] = median_of(untraced,
                                           "shard_lane_dispatches")

    if workload == "paper":
        events = rec["events"]
        counters = rec["stat_counters"]
        digest = bs.vm_digest(rec["metric_counters"],
                              rec["metric_histogram_counts"])
        m["event_queue.events"] = events
        m["event_queue.ns_per_event"] = (run_s / events * 1e9
                                         if events else 0.0)
        busy = stall = wait = busy_frac = 0.0
    else:
        prof = json.loads(Path(rec["shard_profile"]).read_text())
        lanes = prof["lane_detail"]
        events = sum(ln["events"] for ln in lanes)
        busy = sum(ln["busy_ns"] for ln in lanes) * 1e-9
        stall = sum(ln["stall_ns"] for ln in lanes) * 1e-9
        wait = sum(ln["wait_ns"] for ln in lanes) * 1e-9
        busy_frac = (prof["busy_ns_total"] /
                     (prof["lanes"] * prof["wall_ns"])
                     if prof["wall_ns"] else 0.0)
        export = json.loads(Path(rec["metrics_export"]).read_text())
        counters = {}
        flat = {}
        hist = {}
        for row in export["counters"]:
            counters[row["name"]] = counters.get(row["name"], 0) + \
                row["value"]
            flat[f"{row['domain']}/{row['name']}"] = row["value"]
        for row in export["histograms"]:
            hist[f"{row['domain']}/{row['name']}"] = row["count"]
        digest = bs.vm_digest(flat, hist)
        m["event_queue.events"] = events
        m["event_queue.ns_per_event"] = (wall / events * 1e9
                                         if events else 0.0)
    m["shard.events_per_round"] = events / rounds if rounds else 0.0
    # At 1 lane, arming the shard profile moves the world off the
    # serial path, so its busy/stall/wait only describe fleet-sharded.
    m["shard.busy_s"] = busy if workload == "fleet-sharded" else 0.0
    m["shard.stall_s"] = stall if workload == "fleet-sharded" else 0.0
    m["shard.wait_s"] = wait if workload == "fleet-sharded" else 0.0
    m["shard.busy_frac"] = busy_frac if workload == "fleet-sharded" else 0.0

    m["stats.counter_incs"] = bs.increments(counters)
    for layer, total in bs.layer_sums(counters).items():
        m[f"{layer}.counter_incs"] = total
    m["hv.world_switches"] = digest["world_switches"]
    m["hv.traps"] = digest["traps"]
    m["hv.virqs"] = digest["virqs"]

    sinks = {"probe.trace_s": "trace", "probe.metrics_s": "metrics",
             "attrib.flame_s": "flame", "timeline.sample_s": "timeline",
             "latency.track_s": "latency",
             "flight.incidents_s": "incidents"}
    off = list(bs.span_seconds_by_pass(spans, "ablation.off").values())
    for metric, sink in sinks.items():
        on = list(bs.span_seconds_by_pass(spans, f"ablation.{sink}")
                  .values())
        m[metric] = bs.median(on) - bs.median(off) if on and off else 0.0
    if workload == "fleet-observed":
        dropped = counters.get("trace.health.dropped_records", 0)
        ring = rec["trace_ring_records"]
        m["probe.trace_kept_frac"] = ring / (ring + dropped)
        m["probe.export_bytes"] = dir_bytes(rec["obs_dir"])
        incidents = Path(rec["obs_dir"]) / "incidents"
        m["flight.incidents"] = sum(1 for p in incidents.iterdir()
                                    if p.is_file())
    else:
        m["probe.trace_kept_frac"] = 1.0
        m["probe.export_bytes"] = 0
        m["flight.incidents"] = 0

    traced_wall = bs.median([p["wall_s"] for p in traced])
    m["bench.traced_wall_s"] = traced_wall
    m["bench.trace_overhead_s"] = traced_wall - wall
    return m


def run_traced(workload, seed, seconds, workdir, units):
    rec = run_driver("traced", workload, seed, seconds, workdir, "traced")
    spans = json.loads(Path(rec["spans"]).read_text())
    metrics = per_layer(workload, rec, spans)
    checks = rec["checks"]
    host = host_metadata(rec["host"])
    print(f"== virtsim benchmark (traced): workload {workload}, "
          f"seed {seed}, {seconds} s ==")
    print(host_line(host))
    print(f"spans: {len(spans)} recorded")
    print("Per-layer self time (all traced spans, seconds):")
    print(f"  {'span':<28}{'count':>7}{'total':>12}{'self':>12}")
    table = bs.self_times(spans)
    for name, (n, total, own) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<28}{n:>7}{total:>12.6f}{own:>12.6f}")
    print(f"tracing overhead: {fmt(metrics['bench.trace_overhead_s'])} s"
          f" per pass (traced median "
          f"{fmt(metrics['bench.traced_wall_s'])} s)")
    print("Per-layer metrics:")
    for name, value in metrics.items():
        print(f"  {name:<28}{fmt(value):>14} {units.get(name, '')}")
    print(f"  {'failed_frac':<28}"
          f"{fmt(bs.failed_frac(checks['attempted'], checks['failed'])):>14}"
          f" 1")
    for f in checks["failures"]:
        print(f"  FAILED: {f}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": 1, "host": host, "checks": checks,
              "metrics": {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in metrics.items()}}
    return record


# ----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=10,
                    help="measured seconds per workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record(s) here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    wanted = [m["name"] for m in spec.get(
        "per_layer" if args.trace else "end_to_end", [])]
    units = {m["name"]: m["unit"] for m in
             spec.get("end_to_end", []) + spec.get("per_layer", [])}

    try:
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for w in workloads:
            workdir = WORK_ROOT / f"{w}-{os.getpid()}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                if args.trace:
                    rec = run_traced(w, args.seed, args.seconds, workdir,
                                     units)
                else:
                    rec = run_untraced(w, args.seed, args.seconds, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            records.append(rec)
            print()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if args.out:
        Path(args.out).write_text(
            "".join(json.dumps(r) + "\n" for r in records))
    for r in records:
        print("record: " + json.dumps({k: r[k] for k in
                                       ("workload", "seed", "host",
                                        "metrics")}))

    def metric_set(rec, prefix):
        out = {}
        for name in wanted or rec["metrics"]:
            v = rec["metrics"][name]
            out[prefix + name] = {"value": v["value"],
                                  "unit": units.get(name, v["unit"])}
        return out

    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        metrics.update(metric_set(r, prefix))
    attempted = sum(r["checks"]["attempted"] for r in records)
    failed = sum(r["checks"]["failed"] for r in records)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
