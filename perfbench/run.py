#!/usr/bin/env python3
"""The repo benchmark: one command per workload, run from a checkout root.

    python3 perfbench/run.py --workload golden-suite --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on unpatched code: the
set-up time of fresh processes, a warm-up pass, then timed passes of
the workload for about ``--seconds``, each pass checking its outputs.
Pass times are scaled to a reference host speed measured in the same
run (``hostspeed.py``); the table prints the raw times too. ``--trace 1``
runs a warm-up pass, an untraced pass and then the same pass under the
layer tracer (``layer_tracer.py``), and reports per-layer metrics
instead; it ignores ``--seconds``. Both print a human-readable table
and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 33, "failed": 0, "metrics": {...}}

Scratch files go to ``.bench_build/perfbench/`` in the checkout; the
per-run directory is removed at exit, and the traced run leaves its
Chrome trace there as ``<workload>.layers.trace.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

UNITS = {"setup_s": "s", "wall_s": "s", "sim_pkts_per_s": "pkts/s",
         "peak_rss_mb": "MB", "raw_wall_s": "s",
         "raw_pkts_per_s": "pkts/s", "kernel_ms": "ms",
         "warm_s": "s", "failed_frac": "ratio",
         "rtc_rtt_p50_ms": "ms", "rtc_rtt_p99_ms": "ms",
         "rtc_rtt_over_200ms_pct": "%", "rtc_goodput_mbps": "Mbps"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("golden-suite", "rtc-city", "traced-rtc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_ok() -> bool:
    return ((SRC / "repro" / "__init__.py").is_file()
            and (ROOT / "tests" / "data" / "golden_summaries.json").is_file())


def point_at_checkout(workdir: Path) -> None:
    """Import ``repro`` from this checkout; keep every write inside it."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")


def time_setup(args) -> float:
    """Median time from starting a fresh process until it reports its
    set-up done; the process's own teardown is not timed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        killer = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
        killer.start()
        try:
            ready = probe.stdout.readline()  # blocks until set-up is done
            times.append(time.perf_counter() - start)
            probe.stdout.close()
            code = probe.wait()
        finally:
            killer.cancel()
        if code != 0 or ready != b"ready\n":
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


def reap_children() -> None:
    """Wait for every child process (pool workers included) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it waited for."""
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def outcome_metrics(passes) -> dict:
    """The simulated (deterministic) RTC outcome of the last pass."""
    from repro.metrics.stats import percentile, tail_fraction

    last = passes[-1]
    if last.fleet is not None:
        p50, p99 = last.fleet["rtt_p50"], last.fleet["rtt_p99"]
        over = last.fleet["rtt_tail_ratio"]
    elif last.rtts:
        p50 = percentile(last.rtts, 50)
        p99 = percentile(last.rtts, 99)
        over = tail_fraction(last.rtts, 0.200)
    else:
        p50 = p99 = over = float("nan")
    return {"rtc_rtt_p50_ms": p50 * 1e3, "rtc_rtt_p99_ms": p99 * 1e3,
            "rtc_rtt_over_200ms_pct": over * 100.0,
            "rtc_goodput_mbps": last.goodput_bps / 1e6}


def measure(args, workload) -> tuple:
    """``--trace 0``: end-to-end metrics on unpatched code."""
    setup_s = time_setup(args)
    workload.prepare()
    warmup = workload.run_pass()  # lazy imports; outputs checked, not timed
    warmup.rtts.clear()
    # Before the host-speed kernel's memory exists: it is the benchmark's.
    peak_rss = peak_rss_mb()
    kernel = hostspeed.Kernel()
    passes = []
    start = time.perf_counter()
    # Stop at the pass boundary nearest to --seconds.
    while (not passes or time.perf_counter() - start + passes[-1].wall_s / 2
           < args.seconds):
        if passes:
            # Only the last pass's RTTs are reported; keeping every
            # pass's would make peak RSS grow with the number of passes.
            passes[-1].rtts.clear()
        gc.collect()  # every pass starts from the same heap
        passes.append(workload.run_pass(kernel.time))
    raw_wall = statistics.median(p.wall_s for p in passes)
    raw_rate = statistics.median(p.packets / p.wall_s for p in passes)
    kernel_s = [k for p in passes for k in p.kernel_s]
    wall = hostspeed.scaled(raw_wall, kernel_s)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "sim_pkts_per_s": raw_rate * raw_wall / wall,
        "peak_rss_mb": peak_rss,
    }
    # Printed, not in the JSON: see README.md, "End-to-end metrics".
    checked = [warmup] + passes
    extra = {"raw_wall_s": raw_wall,
             "raw_pkts_per_s": raw_rate,
             "kernel_ms": 1e3 * statistics.median(kernel_s),
             "failed_frac": (sum(p.failed for p in checked)
                             / max(1, sum(p.cells for p in checked)))}
    if passes[0].warm_s is not None:
        extra["warm_s"] = statistics.median(p.warm_s for p in passes)
    extra.update(outcome_metrics(passes))
    lines = [f"{args.workload}: {len(passes)} passes, pass wall "
             + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s"]
    for name, value in list(metrics.items()) + list(extra.items()):
        lines.append(f"  {name:24s} {value:14.6g} {UNITS[name]}")
    return checked, {name: (value, UNITS[name])
                     for name, value in metrics.items()}, lines


def measure_layers(args, workload) -> tuple:
    """``--trace 1``: a warm-up pass, an untraced pass, then the same
    pass traced."""
    import layers
    from layer_tracer import LayerTracer

    workload.prepare()
    warmup = workload.run_pass()  # lazy imports, traced-rtc's reference
    gc.collect()
    start = time.perf_counter()
    workload.prepare()
    plain = workload.run_pass()
    untraced_s = time.perf_counter() - start

    tracer = LayerTracer()
    gc.collect()
    with tracer:
        origin = time.perf_counter_ns()
        workload.prepare()
        traced = workload.run_pass()
        traced_s = (time.perf_counter_ns() - origin) / 1e9
        reap_children()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(OUT / f"{args.workload}.layers.trace.json",
                              origin)
    metrics, lines = layers.layer_metrics(tracer, plain, traced,
                                          untraced_s, traced_s)
    return ([warmup, plain, traced], metrics,
            [f"{args.workload}: traced run"] + lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not checkout_ok():
        print("perfbench: run from the root of a repository checkout "
              "(src/repro and tests/data/golden_summaries.json not found)",
              file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"
    point_at_checkout(workdir)
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, workdir)
    try:
        if args.setup_probe:
            workload.prepare().to_config()  # materializes the first trace
            print("ready", flush=True)
            return 0
        if args.trace:
            passes, metrics, lines = measure_layers(args, workload)
        else:
            passes, metrics, lines = measure(args, workload)
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        lines.extend(f"  check failed: {error}" for error in p.errors)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
