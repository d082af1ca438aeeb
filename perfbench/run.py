#!/usr/bin/env python3
"""htmsim host-time benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stamp-grid --seed 3 --seconds 60 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, checks its outputs and
prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of an untraced timed run.
--trace 1 reports the per-layer metrics: an untraced and a traced run of the
workload, one traced pass of the server cells, and the layer probes, each in
its own process. Per-layer metrics a workload does not exercise read 0.
README.md lists the metrics and the end-to-end metric each layer metric
should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("stamp-grid", "oracle-sweep")
# The contended server cells: not a timed workload (a pass is about 9 s of
# twelve unit runs, too few samples per run to time steadily), but every
# traced run measures the server and prof layers on one pass of them.
SERVER_CELLS = "server-crowd"
SERVER_LAYERS = ("server.", "prof.")

# Extra set-up-only launches per timed run; setup_s is the median of these
# and the timed run's own set-up.
SETUP_LAUNCHES = 14
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("sim_commits_per_host_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

STAMP_APPS = ("bayes", "genome", "intruder", "kmeans-high", "kmeans-low",
              "labyrinth", "ssca2", "vacation-high", "vacation-low", "yada")
MACHINES = ("BlueGeneQ", "zEC12", "IntelCore", "POWER8")
CHECK_WORKLOADS = ("hashtable", "rbtree", "list", "queue", "heap", "bitmap",
                   "kmeans", "vacation", "server", "sync")

PER_LAYER = (
    [
        ("htm.empty_commit_ns", "ns", "lower"),
        ("htm.access_memo_hit_ns", "ns", "lower"),
        ("htm.access_new_line_ns", "ns", "lower"),
        ("htm.commit_after_large_tx_ns", "ns", "lower"),
        ("htm.abort_round_trip_ns", "ns", "lower"),
        ("htm.lock_fallback_ns", "ns", "lower"),
        ("htm.stm_load_ns", "ns", "lower"),
        ("htm.stm_commit_ns", "ns", "lower"),
        ("htm.observer_event_ns", "ns", "lower"),
        ("htm.runtime_setup_us", "us", "lower"),
        ("htm.accesses", "count", "lower"),
        ("htm.commits", "count", "higher"),
        ("htm.aborts", "count", "lower"),
        ("htm.fallbacks", "count", "lower"),
        ("htm.stm_commits", "count", "higher"),
        ("htm.abort_ratio", "ratio", "lower"),
        ("htm.wasted_work_ratio", "ratio", "lower"),
        ("htm.host_ns_per_access", "ns", "lower"),
        ("htm.host_ms_to_commit", "ms", "lower"),
        ("htm.host_ms_to_abort", "ms", "lower"),
        ("htm.host_ms_to_lock_acquired", "ms", "lower"),
        ("htm.host_ms_to_fallback_commit", "ms", "lower"),
        ("sim.fiber_switch_ns", "ns", "lower"),
        ("sim.sync_slow_ns", "ns", "lower"),
        ("sim.run_setup_us", "us", "lower"),
    ]
    + [("stamp.app_ms." + app, "ms", "lower") for app in STAMP_APPS]
    + [("stamp.machine_ms." + m, "ms", "lower") for m in MACHINES]
    + [
        ("server.host_us_per_op", "us", "lower"),
        ("server.run_ms.htm", "ms", "lower"),
        ("server.run_ms.lock", "ms", "lower"),
        ("server.run_ms.hybrid", "ms", "lower"),
        ("prof.report_ms", "ms", "lower"),
        ("check.host_us_per_run", "us", "lower"),
    ]
    + [("check.workload_ms." + w, "ms", "lower") for w in CHECK_WORKLOADS]
    + [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.digest_equal", "bool", "higher"),
    ]
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; return the binary path."""
    for needed in ("src/htm/runtime.hh", "bench/suite.hh"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("missing %s: run from a full htmsim checkout"
                             % needed)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    jobs = str(min(os.cpu_count() or 1, 4))
    step(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "htmsim_perfbench")


def step(command):
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        raise BenchError("build step failed: %s" % " ".join(command))


def launch(binary, args):
    """Run one benchmark process; echo its report lines, return its JSON."""
    result = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                            text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise BenchError("%s %s exited with %d" % (binary, args[0],
                                                    result.returncode))
    for line in lines[:-1]:
        print("  " + line)
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the sources the benchmark compiles and runs."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable (not a git checkout)"
    result = subprocess.run(["git", "describe", "--always", "--dirty"],
                            cwd=ROOT, capture_output=True, text=True)
    return result.stdout.strip() or "unavailable"


def print_provenance(report, args):
    build_info = report["build"]
    print("# provenance: git=%s source_sha256=%s" % (git_describe(),
                                                     source_digest()))
    print("# compiler=%s build_type=%s lto=%s flags=\"%s\""
          % (build_info["compiler"], build_info["build_type"],
             build_info["lto"], build_info["flags"]))
    print("# nproc=%d aslr=%s workload=%s seed=%d seconds=%d trace=%d"
          % (report["nproc"], report["aslr"], args.workload, args.seed,
             args.seconds, args.trace))


def workload_args(args, mode, extra):
    return [mode, "--workload", args.workload, "--seed", str(args.seed)] + extra


def trace_prefix(args):
    """Where the binary writes a traced run's files (beside itself)."""
    return os.path.relpath(os.path.join(build_dir(), "out", args.workload),
                           ROOT)


def setup_launch(binary, args):
    return launch(binary, workload_args(args, "setup", []))


def timed_run(binary, args):
    """--trace 0: set-up launches, then one timed run of many passes."""
    setups = [setup_launch(binary, args) for _ in range(SETUP_LAUNCHES)]
    print_provenance(setups[0], args)
    report = launch(binary, workload_args(
        args, "run", ["--seconds", str(args.seconds), "--traced", "0"]))
    setups = [setup["setup_s"] for setup in setups] + [report["setup_s"]]
    metrics = {name: report[name] for name, _ in END_TO_END}
    metrics["setup_s"] = statistics.median(setups)
    print("passes=%d runs_per_pass=%d run_ms samples=%d (each run's "
          "fastest pass)" % (report["passes"], report["units_per_pass"],
                             report["run_samples"]))
    print("sim_digest %s %s (first pass)" % (args.workload,
                                            report["sim_digest"]))
    print("failed_fraction %d/%d = %.6f"
          % (report["failed"], report["attempted"],
             report["failed"] / report["attempted"]))
    units = dict(END_TO_END)
    return (report["attempted"], report["failed"], True,
            {name: {"value": metrics[name], "unit": units[name]}
             for name, _ in END_TO_END})


def traced_run(binary, args):
    """--trace 1: untraced and traced runs of a quarter of the time each,
    one traced pass of the server cells, then the probes, each in its own
    process, so that the whole takes about as long as a timed run."""
    print_provenance(setup_launch(binary, args), args)
    prefix = trace_prefix(args)
    quarter = str(max(1, args.seconds // 4))
    plain = launch(binary, workload_args(
        args, "run", ["--seconds", quarter, "--traced", "0"]))
    traced = launch(binary, workload_args(
        args, "run", ["--seconds", quarter, "--traced", "1"]))
    server = launch(binary, ["run", "--workload", SERVER_CELLS, "--seed",
                             str(args.seed), "--seconds", "1", "--traced",
                             "1"])
    probes = launch(binary, ["probes"])
    layers = {name: 0.0 for name, _, _ in PER_LAYER}
    server_layers = [(name, value) for name, value in server["layers"].items()
                     if name.startswith(SERVER_LAYERS)]
    for name, value in (list(traced["layers"].items()) + server_layers
                        + list(probes["layers"].items())):
        if name in layers:
            layers[name] = value
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    digest_equal = plain["sim_digest"] == traced["sim_digest"]
    layers["trace.digest_equal"] = 1.0 if digest_equal else 0.0
    print("sim_digest %s untraced=%s traced=%s equal=%s"
          % (args.workload, plain["sim_digest"], traced["sim_digest"],
             "yes" if digest_equal else "NO"))
    print("tracing overhead: traced wall_s %.4f / untraced wall_s %.4f = %.4f"
          % (traced["wall_s"], plain["wall_s"],
             layers["trace.overhead_ratio"]))
    print("trace files: %s.spans.json %s.events.bin (events=%d dropped=%d)"
          % (prefix, prefix, traced["layers"].get("trace.events", 0),
             traced["layers"].get("trace.dropped_events", 0)))
    print("server cells: %d runs, sim_digest %s" % (server["attempted"],
                                                    server["sim_digest"]))
    runs = (plain, traced, server)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print("failed_fraction %d/%d = %.6f" % (failed, attempted,
                                            failed / attempted))
    ok = probes["ok"] and traced["trace_written"] and server["trace_written"]
    if not probes["ok"]:
        print("a layer probe did not take the path it times")
    return (attempted, failed, ok,
            {name: {"value": layers[name], "unit": PER_LAYER_UNITS[name]}
             for name, _, _ in PER_LAYER})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        binary = build()
        run = traced_run if args.trace else timed_run
        attempted, failed, ok, metrics = run(binary, args)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 1
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
