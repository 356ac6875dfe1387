#!/usr/bin/env python3
"""Repository benchmark: three Boston workloads through the public engines.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: city-stream, fleet-contested, fleet-analytic (perfbench/METRICS.md
says why each exists and what every metric means).

The first call builds the library and the measuring binary from source
(Release, SIMD on) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset. Later calls only re-check the build.

--trace 0 launches one fresh `perfbench timed` process per engine run until
--seconds have been spent (at least MIN_TIMED_RUNS runs) and reports the
medians of the end-to-end metrics. --trace 1 repeats `perfbench trace` the
same way (at least MIN_TRACE_RUNS runs) and reports the per-layer metrics.
Human-readable progress goes to stderr; stdout carries a context record and,
as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 when a result was printed, non-zero (with no result) when the
benchmark could not build or run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city-stream", "fleet-contested", "fleet-analytic")

MIN_TIMED_RUNS = 3
MIN_TRACE_RUNS = 2  # the count-repeat check compares runs
PROCESS_TIMEOUT_S = 150

END_TO_END = [
    # (name, unit, key in the timed record)
    ("rtf", "s/s", "rtf"),
    ("first_link_s", "s", "first_link_s"),
    ("peak_rss_mb", "MiB", "peak_rss_mb"),
    ("setup_s", "s", "setup_s"),
]

STAGES = [
    "fm.station_synth", "dsp.upsample", "dsp.mix", "tag.reflect",
    "channel.superpose", "channel.awgn", "rx.tuner", "fm.demod", "fm.stereo",
    "rx.device", "rx.fsk", "rx.rds", "core.plan",
]
STAGE_METRICS = [
    # (suffix, unit, better)
    ("self_s_per_sim_s", "s/s", "lower"),
    ("calls", "count", "lower"),
    ("msamples", "Msamples", "lower"),
    ("share", "fraction", "lower"),
]
PER_LAYER = [(f"{stage}.{suffix}", unit, better)
             for stage in STAGES for suffix, unit, better in STAGE_METRICS] + [
    ("fleet.phy_clusters", "count", "lower"),
    ("fleet.phy_links", "count", "lower"),
    ("fleet.phy_subscene_s", "s", "lower"),
    ("fleet.analytic_clear", "count", "higher"),
    ("fleet.analytic_collision", "count", "lower"),
    ("fm.cache_hits", "count", "higher"),
    ("fm.cache_misses", "count", "lower"),
    ("fm.cache_hit_ratio", "fraction", "higher"),
    ("core.plan_s", "s", "lower"),
    ("core.fleet_run_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.engine_rtf", "s/s", "higher"),
]
# Per-layer values that are work counts: they must repeat exactly between
# traced runs of one seed.
EXACT_SUFFIXES = (".calls", ".msamples")
EXACT_NAMES = {"fleet.phy_clusters", "fleet.phy_links", "fleet.phy_subscene_s",
               "fleet.analytic_clear", "fleet.analytic_collision",
               "fm.cache_hits", "fm.cache_misses", "fm.cache_hit_ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fmbs.h")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found")
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(bdir)  # a build of another checkout
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    binary = os.path.join(bdir, "perfbench")
    if not os.access(binary, os.X_OK):
        raise BenchError("build produced no perfbench binary")
    return binary


def host_context(binary):
    ctx = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    ctx["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ctx["loadavg"] = list(os.getloadavg())
    out = subprocess.run([binary, "context"], capture_output=True, text=True,
                         timeout=PROCESS_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("perfbench context failed: " + out.stderr.strip())
    ctx["build"] = json.loads(out.stdout.strip().splitlines()[-1])
    if ctx["build"].get("build_type") != "Release":
        raise BenchError("refusing to report from a %s build"
                         % ctx["build"].get("build_type"))
    return ctx


def run_binary(binary, args):
    """Runs one measuring process; returns (records, error or None)."""
    try:
        out = subprocess.run([binary] + args, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], "timed out"
    if out.returncode != 0:
        return [], "exit %d: %s" % (out.returncode, out.stderr.strip()[-300:])
    records = []
    for line in out.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            records.append(json.loads(line))
    if not records:
        return [], "no record"
    return records, None


def repeat(binary, args, seconds, min_runs):
    """Fresh processes until `seconds` are spent (at least `min_runs`)."""
    start = time.monotonic()
    records, errors, durations = [], [], []
    while True:
        t0 = time.monotonic()
        recs, err = run_binary(binary, args)
        durations.append(time.monotonic() - t0)
        records.extend(recs)
        if err:
            errors.append(err)
            log("perfbench: run failed:", err)
        done = len(records) + len(errors)
        elapsed = time.monotonic() - start
        if done >= min_runs and elapsed + statistics.median(durations) > seconds:
            return records, errors


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def timed(binary, workload, seed, seconds):
    args = ["timed", "--workload", workload, "--seed", str(seed)]
    records, errors = repeat(binary, args, seconds, MIN_TIMED_RUNS)
    attempted = len(records) + len(errors)
    failed = len(errors) + sum(1 for r in records if not r["ok"])
    for r in records:
        if not r["ok"]:
            log("perfbench: guard failed:", "; ".join(r["failures"]))
    completed = [r for r in records if r["engine_s"] > 0]
    metrics = {}
    for name, unit, key in END_TO_END:
        metrics[name] = {"value": median_of(r[key] for r in completed), "unit": unit}
    detail = {
        "engine_s": [r["engine_s"] for r in records],
        "rtf": [r["rtf"] for r in records],
        "first_link_s": [r["first_link_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "engine_cpu_s": [r["engine_cpu_user_s"] + r["engine_cpu_sys_s"]
                         for r in records],
        "stats": records[0]["stats"] if records else None,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    return attempted, failed, metrics, detail


def traced(binary, workload, seed, seconds):
    args = ["trace", "--workload", workload, "--seed", str(seed)]
    records, errors = repeat(binary, args, seconds, MIN_TRACE_RUNS)
    attempted = len(records) + len(errors)
    bad = set()
    for i, r in enumerate(records):
        if not r["ok"]:
            bad.add(i)
            log("perfbench: trace check failed:", "; ".join(r["failures"]))
        missing = [n for n, _, _ in PER_LAYER if n not in r["metrics"]]
        if missing:
            bad.add(i)
            log("perfbench: trace record lacks", ", ".join(missing))
    exact = EXACT_NAMES | {n for n, _, _ in PER_LAYER if n.endswith(EXACT_SUFFIXES)}
    for i, r in enumerate(records[1:], start=1):
        differ = [n for n in sorted(exact)
                  if r["metrics"].get(n) != records[0]["metrics"].get(n)]
        if differ:
            bad.add(i)
            log("perfbench: counts differ from the first traced run:",
                ", ".join(differ))
    failed = len(errors) + len(bad)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [r["metrics"].get(name) for r in records]
        value = values[0] if name in exact and values else median_of(values)
        metrics[name] = {"value": value, "unit": unit}
    return attempted, failed, metrics, {"trace_runs": len(records)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        binary = build()
        context = host_context(binary)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("perfbench:", e)
        return 2

    run = traced if args.trace else timed
    attempted, failed, metrics, detail = run(binary, args.workload, args.seed,
                                             args.seconds)
    correct = failed == 0
    log("perfbench: %s seed %d trace %d: %d attempted, %d failed"
        % (args.workload, args.seed, args.trace, attempted, failed))
    for name, m in metrics.items():
        if not args.trace or not name.endswith((".calls", ".share")):
            log("  %-34s %s %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"context": context, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
