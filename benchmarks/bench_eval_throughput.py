"""Evaluation-throughput benchmark for the batched + cached evaluation path.

``evaluate`` is a one-config batch of the same core as ``evaluate_many``:
one config runs the simulator model on Python floats, a batch runs it on
numpy arrays.  Two measurements, emitted together as ``BENCH_eval.json``:

* **Batch vs loop, cache off** — one ``evaluate_many`` call against a
  loop of single ``evaluate`` calls on the same N fresh configs, for N in
  {1, 8, 64, 512}.  This isolates the array path (one numpy pass over an
  ``(N, n_knobs)`` matrix) from any caching effect; at N=1 both sides run
  the float path.  The ``scalar_*`` keys hold the loop.
* **Sweep** — configs/sec on a 64-config knob sweep with repeated
  probes — the access pattern of the exploit-around-best moves in
  ``offline_train`` and of every baseline's re-measurement — comparing a
  loop of ``evaluate`` calls against one ``evaluate_many`` call, cache
  off in both, plus the cache hit rate of a real ``offline_train`` run.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_eval_throughput.py --out BENCH_eval.json

``--smoke`` runs a small batch-vs-loop shape only and exits non-zero if
the batch is slower than the loop of single calls (the CI guard).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.tuner import CDBTune
from repro.dbsim import CDB_A, DatabaseCrashError, SimulatedDatabase
from repro.dbsim.logsystem import crashes_disk_values
from repro.dbsim.mysql_knobs import mysql_registry
from repro.dbsim.workload import get_workload

N_CONFIGS = 64
PROBE_REPEATS = 12  # each config re-measured this many times (same trial)
TIMING_RUNS = 3     # best-of-N wall clock, to shrug off machine noise
BATCH_SIZES = (1, 8, 64, 512)  # batch-vs-loop curve (cache off)


def make_database(cache_size: int = 2048) -> SimulatedDatabase:
    return SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                             registry=mysql_registry(), noise=0.015,
                             seed=0, cache_size=cache_size)


def sweep_jobs():
    """The benchmark workload: 64 configs, each probed several times."""
    registry = mysql_registry()
    rng = np.random.default_rng(2024)
    configs = [registry.random_config(rng) for _ in range(N_CONFIGS)]
    jobs = []
    for repeat in range(PROBE_REPEATS):
        for trial, config in enumerate(configs, start=1):
            jobs.append((config, trial))
    return jobs


def run_batched_curve(batch_sizes=BATCH_SIZES,
                      timing_runs: int = TIMING_RUNS) -> dict:
    """One ``evaluate_many`` call vs an ``evaluate`` loop, cache off.

    Every batch size gets its own fresh random configs (distinct trials),
    so nothing is ever answered from memory — the curve measures the
    stress-test model alone.  Crash-region configs are redrawn: a crash
    short-circuits before any scoring in both paths (§5.2.3's redo-log
    rule is a cheap precheck), so including them would measure the
    precheck instead of the solver.  Results are bitwise identical
    between the two paths; only wall clock differs.
    """
    registry = mysql_registry()
    rng = np.random.default_rng(2024)
    curve = {}
    for n in batch_sizes:
        configs = []
        while len(configs) < n:
            config = registry.random_config(rng)
            if not crashes_disk_values(config["innodb_log_file_size"],
                                       config["innodb_log_files_in_group"],
                                       CDB_A.disk_gb):
                configs.append(config)
        trials = list(range(1, n + 1))
        default = registry.defaults()
        # One database per path, warmed before the clock: a tuning run
        # reuses one instance across thousands of evaluations, so the
        # steady-state rate is the meaningful number.  The cache is off,
        # so runs share no state beyond the warmed lazy tables.
        loop_db = make_database(cache_size=0)
        loop_db.evaluate(default, trial=0)
        batch_db = make_database(cache_size=0)
        batch_db.evaluate_many([default], trials=[0])
        loop_walls, batch_walls = [], []
        for _ in range(timing_runs):
            tick = time.perf_counter()
            for config, trial in zip(configs, trials):
                try:
                    loop_db.evaluate(config, trial=trial)
                except DatabaseCrashError:
                    pass
            loop_walls.append(time.perf_counter() - tick)
            tick = time.perf_counter()
            batch_db.evaluate_many(configs, trials=trials)
            batch_walls.append(time.perf_counter() - tick)
        loop_wall, batch_wall = min(loop_walls), min(batch_walls)
        curve[f"n_{n}"] = {
            "scalar_wall_s": loop_wall,
            "batch_wall_s": batch_wall,
            "scalar_configs_per_s": n / loop_wall,
            "batch_configs_per_s": n / batch_wall,
            "speedup": loop_wall / batch_wall,
        }
    return {"batch_sizes": list(batch_sizes), "curve": curve}


def run_batched_uncached(jobs) -> dict:
    """The full sweep as one ``evaluate_many`` call, cache off.

    The direct batched counterpart of :func:`run_serial_uncached`: same
    768 requests, same crash shortcuts, no cache in either path — the
    speedup is the array path at the sweep's real request shape.
    """
    configs = [c for c, _ in jobs]
    trials = [t for _, t in jobs]
    walls = []
    db = make_database(cache_size=0)
    db.evaluate_many(configs[:1], trials=trials[:1])  # warm lazy tables
    for _ in range(TIMING_RUNS):
        tick = time.perf_counter()
        db.evaluate_many(configs, trials=trials)
        walls.append(time.perf_counter() - tick)
    wall = min(walls)
    return {"wall_s": wall, "configs_per_s": len(jobs) / wall,
            "stress_tests": len(jobs), "cache_hits": 0,
            "cache_hit_rate": 0.0}


def run_serial_uncached(jobs) -> dict:
    walls = []
    for _ in range(TIMING_RUNS):
        db = make_database(cache_size=0)
        tick = time.perf_counter()
        for config, trial in jobs:
            try:
                db.evaluate(config, trial=trial)
            except DatabaseCrashError:
                pass
        walls.append(time.perf_counter() - tick)
    wall = min(walls)
    return {"wall_s": wall, "configs_per_s": len(jobs) / wall,
            "stress_tests": db.stress_tests, "cache_hits": 0,
            "cache_hit_rate": 0.0}


def run_offline_train() -> dict:
    tuner = CDBTune(seed=0, noise=0.0)
    tick = time.perf_counter()
    result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=120,
                                 probe_every=15, stop_on_convergence=False)
    wall = time.perf_counter() - tick
    counters = result.telemetry.counters
    evaluations = counters.get("evaluations", 0)
    cache_hits = counters.get("cache_hits", 0)
    return {
        "steps": result.steps,
        "wall_s": wall,
        "evaluations": evaluations,
        "cache_hits": cache_hits,
        "cache_hit_rate": cache_hits / max(evaluations, 1),
        "phase_timings_s": {k: round(v, 4)
                            for k, v in result.telemetry.phase_seconds.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_eval.json",
                        help="output JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="small batch-vs-loop shape only; exit "
                             "non-zero if batching is slower (CI guard)")
    args = parser.parse_args()

    if args.smoke:
        batched = run_batched_curve(batch_sizes=(32,), timing_runs=2)
        point = batched["curve"]["n_32"]
        print(f"smoke: loop {point['scalar_configs_per_s']:8.1f} configs/s"
              f"  batched {point['batch_configs_per_s']:8.1f} configs/s"
              f"  ({point['speedup']:.2f}x)")
        if point["speedup"] < 1.0:
            print("FAIL: batched path slower than a loop of single calls")
            sys.exit(1)
        print("OK: batched path at least as fast as a loop of single calls")
        return

    jobs = sweep_jobs()
    print(f"sweep: {N_CONFIGS} configs x {PROBE_REPEATS} probes "
          f"= {len(jobs)} evaluation requests")

    batched = run_batched_curve()
    for n in batched["batch_sizes"]:
        point = batched["curve"][f"n_{n}"]
        print(f"batched N={n:<4d} (no cache): "
              f"loop {point['scalar_configs_per_s']:8.1f} configs/s  "
              f"batched {point['batch_configs_per_s']:8.1f} configs/s  "
              f"({point['speedup']:.1f}x)")

    serial = run_serial_uncached(jobs)
    print(f"serial (no cache):  {serial['configs_per_s']:8.1f} configs/s")

    batched_sweep = run_batched_uncached(jobs)
    batched_sweep["speedup_vs_serial"] = (batched_sweep["configs_per_s"]
                                          / serial["configs_per_s"])
    print(f"batched (no cache): {batched_sweep['configs_per_s']:8.1f} "
          f"configs/s  ({batched_sweep['speedup_vs_serial']:.1f}x)")

    training = run_offline_train()
    print(f"offline_train: {training['evaluations']} evaluations, "
          f"{training['cache_hits']} cache hits "
          f"(rate {training['cache_hit_rate']:.2f})")

    payload = {
        "benchmark": "eval_throughput",
        "machine": {"cpu_count": os.cpu_count()},
        "batched_uncached": batched,
        "sweep": {
            "n_configs": N_CONFIGS,
            "probe_repeats": PROBE_REPEATS,
            "requests": len(jobs),
            "serial_uncached": serial,
            "batched_uncached": batched_sweep,
        },
        "offline_train": training,
        "notes": (
            "batched_uncached compares one evaluate_many call against a "
            "loop of evaluate calls on fresh configs with the cache "
            "disabled; scalar_* keys hold the loop, whose every call is a "
            "one-config batch on the float path, and batch_* keys the "
            "array path (at n_1 both run the float path). Observations "
            "are bitwise-identical. "
            "offline_train reports how many of a real training run's "
            "evaluations the LRU evaluation cache answered."
        ),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
