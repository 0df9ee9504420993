"""The simulated cloud database: knobs in, performance + 63 metrics out.

:class:`SimulatedDatabase` stands in for the paper's Tencent CDB instance.
``evaluate(config)`` plays the role of one stress test: it composes the
buffer-pool, redo-log, I/O and concurrency models into a throughput /
latency estimate via a short fixed-point iteration (flush pressure depends
on throughput, which depends on flush pressure), derives the 63 internal
metrics from the resulting :class:`~repro.dbsim.metrics.EngineSnapshot`,
and raises :class:`~repro.dbsim.errors.DatabaseCrashError` in the §5.2.3
crash region.

Measurement noise is deterministic *per configuration* (hash-seeded), so a
repeated stress test of the same config reproduces — while different
configurations get independent jitter, like real benchmark runs.

Beyond the ~50 explicitly modeled major knobs, every remaining tunable knob
contributes a small smooth effect with a knob-specific optimum (seeded by
the knob's name).  This long tail is what makes Figure 8 rise gradually and
saturate as random knob subsets grow.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .bufferpool import (MemoryBudget, hit_ratio, hit_ratio_array,
                         memory_pressure, memory_pressure_array)
from .concurrency import (ConcurrencyConfig, evaluate_concurrency,
                          evaluate_concurrency_arrays)
from .errors import DatabaseCrashError
from .hardware import HardwareSpec
from .iomodel import (IOConfig, evaluate_io, evaluate_io_arrays,
                      io_static_arrays)
from .knobs import KnobRegistry
from .logsystem import (LogConfig, crashes_disk, crashes_disk_array,
                        evaluate_log, evaluate_log_arrays,
                        log_static_arrays)
from .metrics import EngineSnapshot, metrics_matrix, metrics_vector
from .mysql_knobs import MAJOR_KNOBS, mysql_registry
from .workload import WorkloadSpec
from ..obs import get_metrics, get_tracer, profile_block
from ..rl.reward import PerformanceSample

__all__ = ["DatabaseObservation", "SimulatedDatabase"]

GIB = 1024.0 ** 3
_ROWS_PER_PAGE = 100.0
_PAGES_PER_ROW_POINT = 1.0   # index descent amortized
_DIRTY_PAGES_PER_WRITE_OP = 0.5
_STRESS_INTERVAL_S = 150.0   # §2.1.2: ~150 s of workload per step


@dataclass(frozen=True)
class DatabaseObservation:
    """Result of one stress test under a configuration."""

    performance: PerformanceSample
    metrics: np.ndarray          # the 63 internal metrics
    snapshot: EngineSnapshot     # raw internals (for inspection/tests)

    @property
    def throughput(self) -> float:
        return self.performance.throughput

    @property
    def latency(self) -> float:
        return self.performance.latency


def _stable_hash01(*parts: str) -> float:
    """Deterministic hash of strings to [0, 1)."""
    digest = hashlib.md5("::".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2.0 ** 64


class SimulatedDatabase:
    """A tunable MySQL-style cloud database instance.

    Parameters
    ----------
    hardware:
        Instance hardware (Table 1 of the paper).
    workload:
        The stress-test workload profile.
    registry:
        Knob catalog; defaults to the 266-knob MySQL catalog.
    adapter:
        Optional mapping from the registry's knob names to the canonical
        (MySQL) engine parameters; lets the MongoDB/Postgres catalogs of
        Appendix C.3 drive the same storage-engine model.  ``None`` means
        the registry already uses canonical names.
    noise:
        Relative std-dev of measurement jitter (0 disables).
    seed:
        Seeds the per-config jitter stream.
    cache_size:
        Capacity of the LRU evaluation cache keyed by (quantized config,
        trial).  Because results are deterministic per key, a repeated
        probe of the same configuration is a free cache hit rather than
        another stress test.  0 disables caching.
    """

    def __init__(self, hardware: HardwareSpec, workload: WorkloadSpec,
                 registry: KnobRegistry | None = None,
                 adapter: Mapping[str, str] | None = None,
                 noise: float = 0.015, seed: int = 0,
                 cache_size: int = 2048) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.hardware = hardware
        self.workload = workload
        self.registry = registry if registry is not None else mysql_registry()
        self.adapter = dict(adapter) if adapter is not None else None
        self.noise = float(noise)
        self.seed = int(seed)
        self._canonical_defaults = mysql_registry().defaults()
        if self.adapter is None:
            self._modeled = frozenset(MAJOR_KNOBS)
        else:
            unknown = set(self.adapter.values()) - set(self._canonical_defaults)
            if unknown:
                raise KeyError(f"adapter targets unknown canonical knobs: "
                               f"{sorted(unknown)}")
            self._modeled = frozenset(self.adapter)
        if self.adapter is not None:
            # Last write wins, matching the scalar remap loop's dict updates.
            self._adapter_reverse: Dict[str, str] | None = {
                canonical: name for name, canonical in self.adapter.items()}
        else:
            self._adapter_reverse = None
        self.evaluations = 0  # evaluate() requests (the paper's sample count)
        self.stress_tests = 0  # simulations actually run (cache misses)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[tuple, DatabaseObservation | str]" = (
            OrderedDict())
        self._minor: tuple | None = None  # the registry's shared tables

    # -- public API ------------------------------------------------------------
    def default_config(self) -> Dict[str, float]:
        """Vendor defaults — the paper's 'MySQL default' baseline."""
        return self.registry.defaults()

    def replica(self) -> "SimulatedDatabase":
        """A fresh instance with identical construction parameters.

        The safety guard's canary measures a candidate on a replica, so the
        live instance's cache and counters stay untouched; identical seeding
        makes every replica's ``evaluate`` bitwise-identical to the
        original's.
        """
        return SimulatedDatabase(self.hardware, self.workload,
                                 registry=self.registry, adapter=self.adapter,
                                 noise=self.noise, seed=self.seed,
                                 cache_size=self.cache_size)

    # -- evaluation cache ------------------------------------------------------
    def cache_key(self, config: Mapping[str, float], trial: int) -> tuple:
        """Cache key for one stress test: (trial, quantized config items)."""
        validated = self.registry.validate(dict(config))
        return (int(trial), self.registry.canonical_items(validated))

    def cache_peek(self, key: tuple):
        """Cached result for ``key`` (observation or crash message), or None.

        Does not touch the hit/miss counters; ``evaluate`` and
        ``evaluate_many`` account for those themselves.
        """
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        return entry

    def cache_put(self, key: tuple,
                  result: "DatabaseObservation | str") -> None:
        """Store an observation (or a crash message string) under ``key``."""
        if self.cache_size <= 0:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cache_clear(self) -> None:
        self._cache.clear()

    def cache_info(self) -> Dict[str, int]:
        return {"size": len(self._cache), "capacity": self.cache_size,
                "hits": self.cache_hits, "misses": self.cache_misses}

    def evaluate(self, config: Mapping[str, float],
                 trial: int = 0) -> DatabaseObservation:
        """Run one simulated stress test under ``config``.

        Raises :class:`DatabaseCrashError` in the oversized-redo-log crash
        region.  ``trial`` varies the measurement jitter for repeated runs
        of the same configuration; repeating an identical (config, trial)
        pair is answered from the LRU cache without a new stress test.
        """
        metrics = get_metrics()
        metrics.counter("db.evaluate.requests").inc()
        config = self.registry.validate(dict(config))
        if self.cache_size > 0:
            key = (int(trial), self.registry.canonical_items(config))
            cached = self.cache_peek(key)
            if cached is not None:
                self.evaluations += 1
                self.cache_hits += 1
                metrics.counter("db.evaluate.cache_hits").inc()
                if isinstance(cached, str):  # memoized crash
                    metrics.counter("db.evaluate.crashes").inc()
                    raise DatabaseCrashError(cached)
                return cached
            self.cache_misses += 1
        try:
            with get_tracer().span("db.stress_test", trial=int(trial)), \
                    profile_block("db.stress_test_seconds"):
                observation = self._evaluate_uncached(config, trial)
        except DatabaseCrashError as error:
            metrics.counter("db.evaluate.crashes").inc()
            if self.cache_size > 0:
                self.cache_put(key, str(error))
            raise
        if self.cache_size > 0:
            self.cache_put(key, observation)
        return observation

    def evaluate_many(self, configs: Sequence[Mapping[str, float]],
                      trials: "int | Sequence[int] | None" = None,
                      ) -> List["DatabaseObservation | None"]:
        """Score many configurations in one vectorized pass.

        Returns one entry per config: the :class:`DatabaseObservation`, or
        ``None`` where the config landed in the crash region (callers that
        need the crash message use :meth:`_evaluate_many_outcomes`).

        ``trials`` is a single trial shared by every config, a sequence
        aligned with ``configs``, or ``None`` (trial 0).  Observations and
        all counters (``evaluations``/``stress_tests``/``cache_hits``/
        ``cache_misses``, plus the ``db.evaluate.*`` metric counters) are
        bitwise-identical to running :meth:`evaluate` serially over the
        same configs in the same order — including LRU cache insertions,
        evictions and in-batch duplicate hits.
        """
        outcomes = self._evaluate_many_outcomes(configs, trials)
        return [payload if status == "ok" else None
                for status, payload in outcomes]

    def _evaluate_many_outcomes(
            self, configs: Sequence[Mapping[str, float]],
            trials: "int | Sequence[int] | None" = None,
    ) -> List[Tuple[str, "DatabaseObservation | str"]]:
        """Batch evaluation core: per config ``(status, payload)``.

        ``status`` is ``"ok"`` (payload: observation) or ``"crash"``
        (payload: the crash message).
        """
        n_items = len(configs)
        if trials is None:
            trial_list = [0] * n_items
        elif isinstance(trials, (int, np.integer)):
            trial_list = [int(trials)] * n_items
        else:
            trial_list = [int(t) for t in trials]
            if len(trial_list) != n_items:
                raise ValueError("trials must align with configs")
        metrics = get_metrics()
        if n_items:
            metrics.counter("db.evaluate.requests").inc(n_items)
        results: List[Tuple[str, "DatabaseObservation | str"]] = (
            [None] * n_items)  # type: ignore[list-item]
        if n_items == 0:
            return results
        registry = self.registry

        if self.cache_size <= 0:
            # Cache disabled: every config is a fresh stress test, so the
            # whole batch goes through the vectorized fast path at once.
            self.evaluations += n_items
            self.stress_tests += n_items
            rows = registry.values_matrix(configs)
            outcomes = self._run_stress_batch(rows, trial_list)
            for status, _payload in outcomes:
                if status == "crash":
                    metrics.counter("db.evaluate.crashes").inc()
            return outcomes

        # Cache enabled: replay the serial peek/put sequence exactly.  A
        # shared sentinel marks "this key's stress test is pending in this
        # batch"; inserting it via cache_put preserves LRU insertion and
        # eviction order, so cache state after the batch is bitwise what a
        # serial loop would have left behind.
        sentinel: "DatabaseObservation | str" = object()  # type: ignore
        keys: List[tuple] = []
        validated: List[Dict[str, float]] = []
        for i, config in enumerate(configs):
            valid = registry.validate(dict(config))
            validated.append(valid)
            keys.append((trial_list[i], registry.canonical_items(valid)))
        pending: List[int] = []
        duplicates: List[int] = []
        owner: Dict[tuple, int] = {}
        for i, key in enumerate(keys):
            entry = self.cache_peek(key)
            if entry is None:
                self.evaluations += 1
                self.cache_misses += 1
                self.stress_tests += 1
                pending.append(i)
                owner[key] = i
                self.cache_put(key, sentinel)
            elif entry is sentinel:
                # In-batch duplicate: a serial run would hit the cache here.
                self.evaluations += 1
                self.cache_hits += 1
                metrics.counter("db.evaluate.cache_hits").inc()
                duplicates.append(i)
            else:
                self.evaluations += 1
                self.cache_hits += 1
                metrics.counter("db.evaluate.cache_hits").inc()
                if isinstance(entry, str):  # memoized crash
                    metrics.counter("db.evaluate.crashes").inc()
                    results[i] = ("crash", entry)
                else:
                    results[i] = ("ok", entry)
        if pending:
            defaults = registry.defaults()
            rows = np.empty((len(pending), len(defaults)))
            for k, i in enumerate(pending):
                full_db = dict(defaults)
                full_db.update(validated[i])
                rows[k] = np.fromiter(full_db.values(), dtype=np.float64,
                                      count=rows.shape[1])
            outcomes = self._run_stress_batch(
                rows, [trial_list[i] for i in pending])
            for i, (status, payload) in zip(pending, outcomes):
                if status == "crash":
                    metrics.counter("db.evaluate.crashes").inc()
                results[i] = (status, payload)
                if self._cache.get(keys[i]) is sentinel:
                    # In-place replacement keeps the key's LRU position —
                    # the serial loop stored the result at this very slot.
                    self._cache[keys[i]] = payload
        for i in duplicates:
            results[i] = results[owner[keys[i]]]
            if results[i][0] == "crash":
                metrics.counter("db.evaluate.crashes").inc()
        return results

    def _run_stress_batch(self, rows: np.ndarray, trials: List[int]) -> list:
        """Score validated registry-order rows under one batch span."""
        with get_tracer().span("db.stress_test_batch", size=len(trials)), \
                profile_block("db.stress_test_seconds"):
            return self._compute_many(rows, trials)

    def _jitter_digest(self, trial: int, sorted_values: np.ndarray) -> bytes:
        """16-byte stable hash of (seed, trial, canonical full config)."""
        return hashlib.md5(f"{self.seed}::{int(trial)}::".encode()
                           + sorted_values.tobytes()).digest()

    def _jitter_rng(self, trial: int,
                    sorted_values: np.ndarray) -> np.random.Generator:
        """Measurement-jitter RNG for one stress test.

        Seeded from the *canonical full configuration* — validated values in
        sorted-name order — so equivalent configs (e.g. a partial config vs.
        the same config with defaults spelled out) share one jitter stream
        regardless of how they were written down.  Philox is keyed directly
        by the digest (no SeedSequence), which lets the batched path replay
        the exact stream by resetting one generator's counter/key state
        instead of constructing a fresh generator per config.
        """
        key = int.from_bytes(self._jitter_digest(trial, sorted_values),
                             "little")
        return np.random.Generator(np.random.Philox(key=key))

    def _evaluate_uncached(self, config: Dict[str, float],
                           trial: int) -> DatabaseObservation:
        """The actual stress test; ``config`` is already validated."""
        full_db = self.registry.defaults()
        full_db.update(config)
        if self.adapter is None:
            full = full_db
        else:
            full = dict(self._canonical_defaults)
            for name, canonical in self.adapter.items():
                full[canonical] = full_db[name]
        self.evaluations += 1
        self.stress_tests += 1

        log_cfg = LogConfig(
            log_file_bytes=full["innodb_log_file_size"],
            log_files_in_group=int(full["innodb_log_files_in_group"]),
            log_buffer_bytes=full["innodb_log_buffer_size"],
            flush_log_at_trx_commit=int(full["innodb_flush_log_at_trx_commit"]),
            sync_binlog=int(full["sync_binlog"]),
        )
        if crashes_disk(log_cfg, self.hardware.disk_gb):
            raise DatabaseCrashError(
                "redo log group "
                f"({log_cfg.log_file_bytes * log_cfg.log_files_in_group / GIB:.1f} GB) "
                f"exceeds the disk capacity threshold "
                f"({self.hardware.disk_gb} GB disk)"
            )

        throughput, latency, snapshot = self._solve(full, full_db, log_cfg)

        values = np.fromiter(full_db.values(), dtype=np.float64)
        jitter_rng = self._jitter_rng(
            trial, values[self.registry.sorted_indices])
        if self.noise > 0:
            throughput *= 1.0 + self.noise * jitter_rng.standard_normal()
            latency *= 1.0 + self.noise * jitter_rng.standard_normal()
        throughput = max(throughput, 1.0)
        latency = max(latency, 0.1)

        metrics = metrics_vector(snapshot, rng=jitter_rng,
                                 noise=self.noise * 0.5)
        return DatabaseObservation(
            performance=PerformanceSample(throughput=throughput, latency=latency),
            metrics=metrics,
            snapshot=snapshot,
        )

    # -- internals --------------------------------------------------------------
    def _solve(self, full: Dict[str, float], full_db: Dict[str, float],
               log_cfg: LogConfig) -> Tuple[float, float, EngineSnapshot]:
        hw = self.hardware
        wl = self.workload
        disk = hw.disk

        conc = evaluate_concurrency(
            ConcurrencyConfig(
                max_connections=int(full["max_connections"]),
                thread_concurrency=int(full["innodb_thread_concurrency"]),
                thread_cache_size=int(full["thread_cache_size"]),
                spin_wait_delay=int(full["innodb_spin_wait_delay"]),
                sync_spin_loops=int(full["innodb_sync_spin_loops"]),
                back_log=int(full["back_log"]),
            ),
            offered_threads=wl.threads, cores=hw.cores,
            write_frac=wl.write_frac, skew=wl.skew,
        )

        pool_gb = full["innodb_buffer_pool_size"] / GIB
        hit = hit_ratio(pool_gb, wl.working_set_gb, wl.skew,
                        instances=int(full["innodb_buffer_pool_instances"]))

        session_bytes = (
            full["sort_buffer_size"] + full["join_buffer_size"]
            + full["read_buffer_size"] + full["read_rnd_buffer_size"]
            + full["binlog_cache_size"] + full.get("thread_stack", 262144.0)
        )
        # Session buffers are held while a session executes, so demand
        # scales with concurrently active workers (not every connection).
        budget = MemoryBudget(
            buffer_pool_gb=pool_gb,
            session_gb=session_bytes * conc.active_workers * 1.25 / GIB,
            shared_gb=(full["key_buffer_size"] + full["query_cache_size"]
                       + full["innodb_log_buffer_size"]
                       + full["tmp_table_size"]) / GIB,
        )
        pressure = memory_pressure(budget, hw.ram_gb)

        io_cfg = IOConfig(
            read_io_threads=int(full["innodb_read_io_threads"]),
            write_io_threads=int(full["innodb_write_io_threads"]),
            purge_threads=int(full["innodb_purge_threads"]),
            io_capacity=full["innodb_io_capacity"],
            io_capacity_max=full["innodb_io_capacity_max"],
            flush_method=("O_DIRECT" if int(full["innodb_flush_method"]) == 2
                          else "fdatasync"),
            flush_neighbors=int(full["innodb_flush_neighbors"]),
            max_dirty_pct=full["innodb_max_dirty_pages_pct"],
            lru_scan_depth=full["innodb_lru_scan_depth"],
            adaptive_flushing=bool(full["innodb_adaptive_flushing"]),
        )

        # CPU cost tweaks from feature knobs.
        cpu_us = wl.cpu_us_per_op
        if bool(full["innodb_adaptive_hash_index"]):
            cpu_us *= 1.0 - 0.06 * wl.read_frac * wl.point_frac
            cpu_us *= 1.0 + 0.03 * wl.write_frac
        if int(full["innodb_change_buffering"]) == 5:  # "all"
            cpu_us *= 1.0 - 0.05 * wl.write_frac
        qc_type = int(full["query_cache_type"])
        if qc_type == 1 and full["query_cache_size"] > 0:
            cpu_us *= 1.0 - 0.03 * wl.read_frac + 0.10 * wl.write_frac

        # Sort/temp-table behaviour (OLAP-relevant).
        sort_need_bytes = wl.rows_per_op * 100.0 * 2.0
        spill_frac = 0.0
        if wl.sort_frac > 0:
            tmp_limit = min(full["tmp_table_size"], full["max_heap_table_size"])
            if sort_need_bytes > max(full["sort_buffer_size"], 1.0):
                spill_frac += 0.4
            if sort_need_bytes > max(tmp_limit, 1.0):
                spill_frac += 0.6
            spill_frac = min(spill_frac, 1.0)

        # Point lookups touch ~1 page per probed row (B-tree descent is
        # cached) but never more than a few pages per operation; scans
        # stream rows at ~100/page.  rows_per_op describes scan volume.
        point_pages = min(wl.rows_per_op, 4.0) * _PAGES_PER_ROW_POINT
        pages_per_read_op = (
            wl.point_frac * point_pages
            + wl.scan_frac * wl.rows_per_op / _ROWS_PER_PAGE
        )

        read_ops = wl.ops_per_txn * wl.read_frac
        write_ops = wl.ops_per_txn * wl.write_frac

        # Fixed point: throughput <-> flush/commit/queue pressure.
        txn_rate = max(conc.active_workers, 1.0) * 20.0  # optimistic start
        snapshot_inputs: Dict[str, float] = {}
        for _ in range(6):
            miss_rate = txn_rate * read_ops * pages_per_read_op * (1.0 - hit)
            dirty_rate = txn_rate * write_ops * _DIRTY_PAGES_PER_WRITE_OP
            log_out = evaluate_log(log_cfg, disk, txn_rate,
                                   wl.log_bytes_per_txn,
                                   concurrent_commits=conc.active_workers)
            io_out = evaluate_io(io_cfg, disk, hw.cores, miss_rate,
                                 dirty_rate * log_out.checkpoint_factor)

            t_cpu_op = cpu_us / 1000.0 * conc.contention_factor * pressure
            scan_share = wl.read_frac * wl.scan_frac
            point_share = wl.read_frac * wl.point_frac
            # Point misses pay random latency; scans stream at bandwidth.
            seq_ms_per_page = 16.0 / 1024.0 / max(disk.bandwidth_mb_s, 1.0) * 1000.0
            read_ahead_gain = 1.0
            if scan_share > 0 and full["innodb_read_ahead_threshold"] <= 56:
                read_ahead_gain = 0.85
            t_read_op = (1.0 - hit) * pressure * (
                point_share * point_pages
                * io_out.read_miss_ms
                + scan_share * (wl.rows_per_op / _ROWS_PER_PAGE)
                * seq_ms_per_page * read_ahead_gain
            )
            t_write_op = wl.write_frac * pressure * np.sqrt(
                conc.contention_factor) * (
                0.03
                + 0.25 * (io_out.write_stall_factor - 1.0)
                + 0.20 * (log_out.checkpoint_factor - 1.0)
            )
            if not bool(full["innodb_doublewrite"]):
                t_write_op *= 0.95
            t_sort = wl.sort_frac * spill_frac * (
                wl.rows_per_op * 100.0 * 2.0 / (disk.bandwidth_mb_s * 1e6) * 1000.0
                + 2.0
            )
            t_lock = conc.lock_wait_frac * conc.avg_lock_wait_ms
            log_wait_ms = (log_out.log_waits_per_sec / max(txn_rate, 1.0)) * 0.5

            t_txn_ms = (
                wl.ops_per_txn * (t_cpu_op + t_write_op)
                + read_ops * 0.0  # read cost carried in t_read below
                + t_read_op * wl.ops_per_txn
                + t_sort + t_lock + log_wait_ms + log_out.commit_ms
            )
            worker_bound = conc.active_workers / max(t_txn_ms, 1e-3) * 1000.0

            cpu_core_ms_per_txn = wl.ops_per_txn * t_cpu_op
            cpu_bound = hw.cores * 0.85 / max(cpu_core_ms_per_txn, 1e-3) * 1000.0

            if write_ops > 0:
                # A tight dirty-page ceiling leaves no buffering headroom:
                # pages must be flushed almost synchronously with the writes.
                dirty_headroom = float(np.clip(
                    full["innodb_max_dirty_pages_pct"] / 40.0, 0.25, 1.0))
                write_bound = dirty_headroom * io_out.flush_capacity_pages / (
                    write_ops * _DIRTY_PAGES_PER_WRITE_OP
                    * log_out.checkpoint_factor
                )
            else:
                write_bound = np.inf
            read_iops_bound = np.inf
            per_txn_misses = read_ops * pages_per_read_op * (1.0 - hit)
            if per_txn_misses * wl.point_frac > 0.05:
                # Reads and background flushing share the same disk: the
                # flusher's IOPS come out of the read budget.
                flush_iops_used = min(dirty_rate, io_out.flush_capacity_pages)
                read_iops_avail = max(disk.iops * 0.85 - flush_iops_used,
                                      disk.iops * 0.15)
                read_iops_bound = read_iops_avail / (
                    per_txn_misses * max(wl.point_frac, 0.05)
                )

            target = min(worker_bound, cpu_bound, write_bound, read_iops_bound)
            txn_rate = 0.5 * txn_rate + 0.5 * max(target, 1.0)
            snapshot_inputs = {
                "t_txn_ms": t_txn_ms, "miss_rate": miss_rate,
                "dirty_rate": dirty_rate,
                "flush_pages": min(dirty_rate, io_out.flush_capacity_pages),
                "log_waits": log_out.log_waits_per_sec,
                "fsyncs": log_out.fsyncs_per_sec,
                "stall": io_out.write_stall_factor,
                "ckpt": log_out.checkpoint_factor,
                "dirty_target": io_out.dirty_frac_target,
                "purge_cap": io_out.purge_capacity,
                "spill": spill_frac,
            }

        throughput = txn_rate * self._minor_knob_factor(full_db)
        if snapshot_inputs["log_waits"] > 0:
            wait_frac = snapshot_inputs["log_waits"] / max(txn_rate, 1.0)
            throughput *= 1.0 / (1.0 + 0.5 * wait_frac)

        # Purge lag: sustained writes beyond purge capacity trim throughput.
        write_txn_rate = throughput * min(wl.write_frac * 2.0, 1.0)
        history = 500.0
        if write_ops > 0 and write_txn_rate > snapshot_inputs["purge_cap"]:
            lag = write_txn_rate / max(snapshot_inputs["purge_cap"], 1.0)
            throughput *= max(0.9, 1.0 - 0.03 * (lag - 1.0))
            history = 500.0 + 5000.0 * (lag - 1.0)

        # Little's law per-client latency over the *offered* load: refused
        # connections queue and retry at the client, so capping
        # max_connections cannot shortcut the latency metric.
        mean_latency_ms = wl.threads / max(throughput, 1.0) * 1000.0
        mean_latency_ms = max(mean_latency_ms, snapshot_inputs["t_txn_ms"])
        p99 = mean_latency_ms * (
            1.5
            + 0.8 * conc.lock_wait_frac
            + 0.15 * (snapshot_inputs["stall"] - 1.0)
            + 0.10 * (snapshot_inputs["ckpt"] - 1.0)
            + 0.3 * max(pressure - 1.0, 0.0)
        )

        tmp_rate = throughput * wl.ops_per_txn * wl.read_frac * wl.sort_frac
        snapshot = EngineSnapshot(
            interval_s=_STRESS_INTERVAL_S,
            buffer_pool_bytes=full["innodb_buffer_pool_size"],
            buffer_pool_used_frac=min(
                0.97, wl.working_set_gb / max(pool_gb, 1e-3)),
            dirty_frac=snapshot_inputs["dirty_target"] * min(
                wl.write_frac * 2.0 + 0.05, 1.0),
            hit_ratio=hit,
            ops_per_sec=throughput * wl.ops_per_txn,
            txn_per_sec=throughput,
            read_frac=wl.read_frac,
            point_frac=wl.point_frac,
            scan_frac=wl.scan_frac,
            insert_frac=wl.insert_frac,
            log_bytes_per_txn=wl.log_bytes_per_txn,
            log_waits_per_sec=snapshot_inputs["log_waits"],
            fsyncs_per_sec=snapshot_inputs["fsyncs"],
            flush_pages_per_sec=snapshot_inputs["flush_pages"],
            read_ahead_per_sec=snapshot_inputs["miss_rate"]
            * wl.scan_frac * 0.5,
            lock_wait_frac=conc.lock_wait_frac,
            avg_lock_wait_ms=conc.avg_lock_wait_ms,
            history_list_length=history,
            threads_running=min(conc.active_workers, conc.admitted_threads),
            threads_connected=conc.admitted_threads,
            thread_cache_size=full["thread_cache_size"],
            open_tables=min(full["table_open_cache"], 64.0),
            open_files=min(full["innodb_open_files"], 128.0),
            tmp_tables_per_sec=tmp_rate,
            tmp_disk_tables_frac=spill_frac,
            rows_per_query=wl.rows_per_op,
            wait_free_per_sec=max(
                0.0, snapshot_inputs["dirty_rate"]
                - snapshot_inputs["flush_pages"]) * 0.1,
        )
        return float(throughput), float(p99), snapshot

    def _compute_many(self, rows: np.ndarray, trials: Sequence[int]) -> list:
        """Vectorized stress tests over validated registry-order rows.

        Returns ``[(status, payload), ...]`` aligned with ``rows`` —
        ``("crash", message)`` for crash-region rows, ``("ok", observation)``
        otherwise.  Counter and cache bookkeeping belong to the caller.
        Every numpy op mirrors the scalar path (same ufuncs, same order, on
        contiguous inputs), so each row is bitwise-identical to
        :meth:`_evaluate_uncached` on the same config.
        """
        registry = self.registry
        n_total = rows.shape[0]

        # Crash region first (§5.2.3): exact ops, so strided views are fine.
        if self._adapter_reverse is None:
            log_file = rows[:, registry.index_of("innodb_log_file_size")]
            log_files = rows[:, registry.index_of("innodb_log_files_in_group")]
        else:
            def _crash_column(name: str) -> np.ndarray:
                source = self._adapter_reverse.get(name)
                if source is None:
                    return np.full(n_total, float(self._canonical_defaults[name]))
                return rows[:, registry.index_of(source)]
            log_file = _crash_column("innodb_log_file_size")
            log_files = _crash_column("innodb_log_files_in_group")
        crash_mask = crashes_disk_array(log_file, log_files,
                                        self.hardware.disk_gb)
        outcomes: list = [None] * n_total
        if crash_mask.any():
            for i in np.nonzero(crash_mask)[0]:
                outcomes[int(i)] = ("crash", (
                    "redo log group "
                    f"({log_file[i] * log_files[i] / GIB:.1f} GB) "
                    f"exceeds the disk capacity threshold "
                    f"({self.hardware.disk_gb} GB disk)"))
            ok_index = np.nonzero(~crash_mask)[0]
            if len(ok_index) == 0:
                return outcomes
            rows_ok = rows[ok_index]  # fancy index → fresh contiguous array
        else:
            ok_index = np.arange(n_total)
            rows_ok = np.ascontiguousarray(rows)
        m = rows_ok.shape[0]

        # Column accessors: contiguous per-knob value arrays in canonical
        # (MySQL) name space, with adapter remapping and canonical defaults.
        column_cache: Dict[str, np.ndarray] = {}
        if self._adapter_reverse is None:
            def col(name: str) -> np.ndarray:
                column = column_cache.get(name)
                if column is None:
                    column = np.ascontiguousarray(
                        rows_ok[:, registry.index_of(name)])
                    column_cache[name] = column
                return column
        else:
            reverse = self._adapter_reverse
            canonical_defaults = self._canonical_defaults
            def col(name: str) -> np.ndarray:
                column = column_cache.get(name)
                if column is None:
                    source = reverse.get(name)
                    if source is None:
                        column = np.full(m, float(canonical_defaults[name]))
                    else:
                        column = np.ascontiguousarray(
                            rows_ok[:, registry.index_of(source)])
                    column_cache[name] = column
                return column

        def col_or(name: str, default: float) -> np.ndarray:
            try:
                return col(name)
            except KeyError:
                return np.full(m, default)

        minor = self._minor_factor_rows(rows_ok)
        throughput, p99, snapshot = self._solve_many(col, col_or, m, minor)

        # Per-row finalize: jitter, clamps and snapshot extraction replay
        # the scalar tail of _evaluate_uncached exactly.  Draws come from
        # each config's own jitter stream (replayed on one reusable Philox
        # generator); the noise arithmetic itself is exact elementwise ops,
        # so applying it matrix-at-once keeps every row bitwise-identical.
        # ascontiguousarray: tobytes() on a strided row would copy element
        # by element; one bulk copy here yields the same bytes faster.
        sorted_rows = np.ascontiguousarray(rows_ok[:, registry.sorted_indices])
        raw_metrics = metrics_matrix(snapshot, m)
        noise = self.noise
        metric_noise = noise * 0.5
        n_metrics = raw_metrics.shape[1]
        perf_draws = np.zeros((m, 2))
        metric_draws = (np.empty((m, n_metrics)) if metric_noise > 0.0
                        else None)
        if noise > 0:
            bit_gen = np.random.Philox(key=0)
            gen = np.random.Generator(bit_gen)
            zeros4 = np.zeros(4, dtype=np.uint64)
            state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros4, "key": zeros4},
                "buffer": zeros4, "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0,
            }
            inner_state = state["state"]
            digest_of = self._jitter_digest
            normal = gen.standard_normal
            ok_trials = [trials[int(i)] for i in ok_index]
            for k in range(m):
                digest = digest_of(ok_trials[k], sorted_rows[k])
                inner_state["key"] = np.frombuffer(
                    digest, dtype="<u8").astype(np.uint64, copy=False)
                bit_gen.state = state
                perf_draws[k, 0] = normal()
                perf_draws[k, 1] = normal()
                if metric_draws is not None:
                    normal(out=metric_draws[k])
            throughput = throughput * (1.0 + noise * perf_draws[:, 0])
            p99 = p99 * (1.0 + noise * perf_draws[:, 1])
        throughput = np.maximum(throughput, 1.0)
        p99 = np.maximum(p99, 0.1)
        if metric_draws is not None:
            final_metrics = np.maximum(
                raw_metrics * (1.0 + metric_noise * metric_draws), 0.0)
        else:
            final_metrics = np.maximum(raw_metrics, 0.0)

        # tolist() converts each lane column to python floats in one C
        # call, so row assembly is a zip instead of m*n float() casts.
        field_columns = [
            column.tolist() if isinstance(column, np.ndarray) else [column] * m
            for column in (getattr(snapshot, field.name)
                           for field in fields(EngineSnapshot))]
        throughput_list = throughput.tolist()
        p99_list = p99.tolist()
        for k, snapshot_row in enumerate(zip(*field_columns)):
            outcomes[int(ok_index[k])] = ("ok", DatabaseObservation(
                performance=PerformanceSample(throughput=throughput_list[k],
                                              latency=p99_list[k]),
                metrics=final_metrics[k].copy(),
                snapshot=EngineSnapshot(*snapshot_row),
            ))
        return outcomes

    def _solve_many(self, col, col_or, m: int,
                    minor_factor: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray, EngineSnapshot]:
        """Array mirror of :meth:`_solve`: one lane per non-crashing config.

        ``col(name)``/``col_or(name, default)`` return contiguous per-config
        value arrays in canonical knob space; ``minor_factor`` is the
        precomputed long-tail factor per config.  Returns array throughput,
        array p99 and an :class:`EngineSnapshot` whose fields hold arrays
        (or workload scalars) — same formulas, same op order as the scalar
        solver, hence bitwise-identical lanes.
        """
        hw = self.hardware
        wl = self.workload
        disk = hw.disk

        conc = evaluate_concurrency_arrays(
            col("max_connections"), col("innodb_thread_concurrency"),
            col("thread_cache_size"), col("innodb_spin_wait_delay"),
            col("innodb_sync_spin_loops"),
            offered_threads=wl.threads, cores=hw.cores,
            write_frac=wl.write_frac, skew=wl.skew,
        )

        pool_gb = col("innodb_buffer_pool_size") / GIB
        hit = hit_ratio_array(pool_gb, wl.working_set_gb, wl.skew,
                              instances=col("innodb_buffer_pool_instances"))

        session_bytes = (
            col("sort_buffer_size") + col("join_buffer_size")
            + col("read_buffer_size") + col("read_rnd_buffer_size")
            + col("binlog_cache_size") + col_or("thread_stack", 262144.0)
        )
        total_gb = (
            pool_gb
            + session_bytes * conc.active_workers * 1.25 / GIB
            + (col("key_buffer_size") + col("query_cache_size")
               + col("innodb_log_buffer_size") + col("tmp_table_size")) / GIB
        )
        pressure = memory_pressure_array(total_gb, hw.ram_gb)

        log_file = col("innodb_log_file_size")
        log_files = col("innodb_log_files_in_group")
        log_buffer = col("innodb_log_buffer_size")
        flush_at_commit = col("innodb_flush_log_at_trx_commit")
        sync_binlog = col("sync_binlog")
        o_direct = col("innodb_flush_method") == 2

        # CPU cost tweaks from feature knobs.
        cpu_us = np.full(m, wl.cpu_us_per_op)
        adaptive_hash = col("innodb_adaptive_hash_index") != 0
        cpu_us = np.where(
            adaptive_hash,
            cpu_us * (1.0 - 0.06 * wl.read_frac * wl.point_frac)
            * (1.0 + 0.03 * wl.write_frac),
            cpu_us)
        cpu_us = np.where(col("innodb_change_buffering") == 5,  # "all"
                          cpu_us * (1.0 - 0.05 * wl.write_frac), cpu_us)
        query_cache_on = (col("query_cache_type") == 1) & (
            col("query_cache_size") > 0)
        cpu_us = np.where(
            query_cache_on,
            cpu_us * (1.0 - 0.03 * wl.read_frac + 0.10 * wl.write_frac),
            cpu_us)

        # Sort/temp-table behaviour (OLAP-relevant).
        sort_need_bytes = wl.rows_per_op * 100.0 * 2.0
        spill_frac = np.zeros(m)
        if wl.sort_frac > 0:
            tmp_limit = np.minimum(col("tmp_table_size"),
                                   col("max_heap_table_size"))
            spill_frac = np.where(
                sort_need_bytes > np.maximum(col("sort_buffer_size"), 1.0),
                spill_frac + 0.4, spill_frac)
            spill_frac = np.where(
                sort_need_bytes > np.maximum(tmp_limit, 1.0),
                spill_frac + 0.6, spill_frac)
            spill_frac = np.minimum(spill_frac, 1.0)

        point_pages = min(wl.rows_per_op, 4.0) * _PAGES_PER_ROW_POINT
        pages_per_read_op = (
            wl.point_frac * point_pages
            + wl.scan_frac * wl.rows_per_op / _ROWS_PER_PAGE
        )

        read_ops = wl.ops_per_txn * wl.read_frac
        write_ops = wl.ops_per_txn * wl.write_frac

        # Loop-invariant terms, hoisted out of the fixed point below.  Each
        # is computed with the exact ops (and operand order) the scalar
        # solver uses per iteration, so hoisting cannot change a single bit.
        log_static = log_static_arrays(
            log_file, log_files, flush_at_commit, sync_binlog, disk,
            wl.log_bytes_per_txn, conc.active_workers)
        io_static = io_static_arrays(
            col("innodb_io_capacity"), col("innodb_io_capacity_max"),
            col("innodb_max_dirty_pages_pct"), col("innodb_lru_scan_depth"),
            disk)
        read_threads = col("innodb_read_io_threads")
        write_threads = col("innodb_write_io_threads")
        purge_threads = col("innodb_purge_threads")
        io_capacity = col("innodb_io_capacity")
        io_capacity_max = col("innodb_io_capacity_max")
        flush_neighbors = col("innodb_flush_neighbors")
        max_dirty_pct = col("innodb_max_dirty_pages_pct")
        lru_scan_depth = col("innodb_lru_scan_depth")
        adaptive_flushing = col("innodb_adaptive_flushing") != 0

        t_cpu_op = cpu_us / 1000.0 * conc.contention_factor * pressure
        scan_share = wl.read_frac * wl.scan_frac
        point_share = wl.read_frac * wl.point_frac
        seq_ms_per_page = 16.0 / 1024.0 / max(disk.bandwidth_mb_s, 1.0) * 1000.0
        if scan_share > 0:
            read_ahead_gain = np.where(
                col("innodb_read_ahead_threshold") <= 56, 0.85, 1.0)
        else:
            read_ahead_gain = 1.0
        read_factor = (1.0 - hit) * pressure
        point_ms_scale = point_share * point_pages
        scan_term = (scan_share * (wl.rows_per_op / _ROWS_PER_PAGE)
                     * seq_ms_per_page * read_ahead_gain)
        write_prefix = wl.write_frac * pressure * np.sqrt(
            conc.contention_factor)
        no_doublewrite = col("innodb_doublewrite") == 0
        t_sort = wl.sort_frac * spill_frac * (
            wl.rows_per_op * 100.0 * 2.0 / (disk.bandwidth_mb_s * 1e6) * 1000.0
            + 2.0
        )
        t_lock = conc.lock_wait_frac * conc.avg_lock_wait_ms
        cpu_core_ms_per_txn = wl.ops_per_txn * t_cpu_op
        cpu_bound = hw.cores * 0.85 / np.maximum(
            cpu_core_ms_per_txn, 1e-3) * 1000.0
        if write_ops > 0:
            dirty_headroom = np.clip(
                col("innodb_max_dirty_pages_pct") / 40.0, 0.25, 1.0)
        per_txn_misses = read_ops * pages_per_read_op * (1.0 - hit)
        iops_limited = per_txn_misses * wl.point_frac > 0.05
        misses_share = per_txn_misses * max(wl.point_frac, 0.05)
        safe_misses_share = np.where(iops_limited, misses_share, 1.0)

        # Fixed point: throughput <-> flush/commit/queue pressure.
        txn_rate = np.maximum(conc.active_workers, 1.0) * 20.0
        for _ in range(6):
            miss_rate = txn_rate * read_ops * pages_per_read_op * (1.0 - hit)
            dirty_rate = txn_rate * write_ops * _DIRTY_PAGES_PER_WRITE_OP
            log_out = evaluate_log_arrays(
                log_file, log_files, log_buffer, flush_at_commit, sync_binlog,
                disk, txn_rate, wl.log_bytes_per_txn,
                concurrent_commits=conc.active_workers, static=log_static)
            io_out = evaluate_io_arrays(
                read_threads, write_threads, purge_threads,
                io_capacity, io_capacity_max, o_direct,
                flush_neighbors, max_dirty_pct, lru_scan_depth,
                adaptive_flushing,
                disk, hw.cores, miss_rate,
                dirty_rate * log_out.checkpoint_factor, static=io_static)

            t_read_op = read_factor * (
                point_ms_scale * io_out.read_miss_ms + scan_term)
            t_write_op = write_prefix * (
                0.03
                + 0.25 * (io_out.write_stall_factor - 1.0)
                + 0.20 * (log_out.checkpoint_factor - 1.0)
            )
            t_write_op = np.where(no_doublewrite,
                                  t_write_op * 0.95, t_write_op)
            log_wait_ms = (log_out.log_waits_per_sec
                           / np.maximum(txn_rate, 1.0)) * 0.5

            t_txn_ms = (
                wl.ops_per_txn * (t_cpu_op + t_write_op)
                + read_ops * 0.0
                + t_read_op * wl.ops_per_txn
                + t_sort + t_lock + log_wait_ms + log_out.commit_ms
            )
            worker_bound = conc.active_workers / np.maximum(t_txn_ms, 1e-3) * 1000.0

            if write_ops > 0:
                write_bound = dirty_headroom * io_out.flush_capacity_pages / (
                    write_ops * _DIRTY_PAGES_PER_WRITE_OP
                    * log_out.checkpoint_factor
                )
            else:
                write_bound = np.inf
            flush_iops_used = np.minimum(dirty_rate,
                                         io_out.flush_capacity_pages)
            read_iops_avail = np.maximum(disk.iops * 0.85 - flush_iops_used,
                                         disk.iops * 0.15)
            read_iops_bound = np.where(
                iops_limited, read_iops_avail / safe_misses_share, np.inf)

            target = np.minimum(
                np.minimum(np.minimum(worker_bound, cpu_bound), write_bound),
                read_iops_bound)
            txn_rate = 0.5 * txn_rate + 0.5 * np.maximum(target, 1.0)

        snapshot_inputs: Dict[str, np.ndarray] = {
            "t_txn_ms": t_txn_ms, "miss_rate": miss_rate,
            "dirty_rate": dirty_rate,
            "flush_pages": flush_iops_used,
            "log_waits": log_out.log_waits_per_sec,
            "fsyncs": log_out.fsyncs_per_sec,
            "stall": io_out.write_stall_factor,
            "ckpt": log_out.checkpoint_factor,
            "dirty_target": io_out.dirty_frac_target,
            "purge_cap": io_out.purge_capacity,
            "spill": spill_frac,
        }

        throughput = txn_rate * minor_factor
        log_waits = snapshot_inputs["log_waits"]
        wait_frac = log_waits / np.maximum(txn_rate, 1.0)
        throughput = np.where(log_waits > 0,
                              throughput * (1.0 / (1.0 + 0.5 * wait_frac)),
                              throughput)

        # Purge lag: sustained writes beyond purge capacity trim throughput.
        write_txn_rate = throughput * min(wl.write_frac * 2.0, 1.0)
        history = np.full(m, 500.0)
        if write_ops > 0:
            purge_cap = snapshot_inputs["purge_cap"]
            lagging = write_txn_rate > purge_cap
            lag = write_txn_rate / np.maximum(purge_cap, 1.0)
            throughput = np.where(
                lagging,
                throughput * np.maximum(0.9, 1.0 - 0.03 * (lag - 1.0)),
                throughput)
            history = np.where(lagging, 500.0 + 5000.0 * (lag - 1.0), history)

        mean_latency_ms = wl.threads / np.maximum(throughput, 1.0) * 1000.0
        mean_latency_ms = np.maximum(mean_latency_ms,
                                     snapshot_inputs["t_txn_ms"])
        p99 = mean_latency_ms * (
            1.5
            + 0.8 * conc.lock_wait_frac
            + 0.15 * (snapshot_inputs["stall"] - 1.0)
            + 0.10 * (snapshot_inputs["ckpt"] - 1.0)
            + 0.3 * np.maximum(pressure - 1.0, 0.0)
        )

        tmp_rate = throughput * wl.ops_per_txn * wl.read_frac * wl.sort_frac
        snapshot = EngineSnapshot(
            interval_s=_STRESS_INTERVAL_S,
            buffer_pool_bytes=col("innodb_buffer_pool_size"),
            buffer_pool_used_frac=np.minimum(
                0.97, wl.working_set_gb / np.maximum(pool_gb, 1e-3)),
            dirty_frac=snapshot_inputs["dirty_target"] * min(
                wl.write_frac * 2.0 + 0.05, 1.0),
            hit_ratio=hit,
            ops_per_sec=throughput * wl.ops_per_txn,
            txn_per_sec=throughput,
            read_frac=wl.read_frac,
            point_frac=wl.point_frac,
            scan_frac=wl.scan_frac,
            insert_frac=wl.insert_frac,
            log_bytes_per_txn=wl.log_bytes_per_txn,
            log_waits_per_sec=snapshot_inputs["log_waits"],
            fsyncs_per_sec=snapshot_inputs["fsyncs"],
            flush_pages_per_sec=snapshot_inputs["flush_pages"],
            read_ahead_per_sec=snapshot_inputs["miss_rate"]
            * wl.scan_frac * 0.5,
            lock_wait_frac=conc.lock_wait_frac,
            avg_lock_wait_ms=conc.avg_lock_wait_ms,
            history_list_length=history,
            threads_running=np.minimum(conc.active_workers,
                                       conc.admitted_threads),
            threads_connected=conc.admitted_threads,
            thread_cache_size=col("thread_cache_size"),
            open_tables=np.minimum(col("table_open_cache"), 64.0),
            open_files=np.minimum(col("innodb_open_files"), 128.0),
            tmp_tables_per_sec=tmp_rate,
            tmp_disk_tables_frac=spill_frac,
            rows_per_query=wl.rows_per_op,
            wait_free_per_sec=np.maximum(
                0.0, snapshot_inputs["dirty_rate"]
                - snapshot_inputs["flush_pages"]) * 0.1,
        )
        return throughput, p99, snapshot

    def _minor_tables(self) -> tuple:
        """Read-only per-knob tables of the minor-knob model.

        They depend only on the registry and the modeled-knob set, so they
        are built once per registry and shared by every database using it.
        """
        if self._minor is None:
            self._minor = self.registry.cached_table(
                ("minor-knobs", self._modeled), self._build_minor_tables)
        return self._minor

    def _build_minor_tables(self) -> tuple:
        specs = [s for s in self.registry.tunable
                 if s.name not in self._modeled]
        amps = np.array([0.00075 + 0.00375 * _stable_hash01(s.name, "amp")
                         for s in specs])
        opts = np.array([_stable_hash01(s.name, "opt") for s in specs])
        lows = np.array([s.min_value for s in specs])
        highs = np.array([s.max_value for s in specs])
        is_log = np.array([s.scale == "log" for s in specs])
        log_lows = np.log(np.where(is_log, lows, 1.0))
        log_highs = np.log(np.where(is_log, np.maximum(highs, lows + 1e-12),
                                    np.e))
        names = tuple(s.name for s in specs)
        idx = np.array([self.registry.index_of(name) for name in names],
                       dtype=np.intp)
        arrays = (amps, opts, lows, highs, is_log, log_lows, log_highs, idx)
        for array in arrays:
            array.flags.writeable = False
        return (names,) + arrays

    def _minor_factor_values(self, values: np.ndarray) -> np.ndarray:
        """Shared core over an ``(M, n_minor)`` value matrix → ``(M,)``."""
        (_names, amps, opts, lows, highs, is_log,
         log_lows, log_highs, _idx) = self._minor_tables()
        values = np.clip(values, lows, highs)
        span = highs - lows
        lin_u = np.where(span > 0, (values - lows) / np.where(span > 0, span, 1.0),
                         0.0)
        log_span = log_highs - log_lows
        with np.errstate(divide="ignore", invalid="ignore"):
            log_u = np.where(
                log_span > 0,
                (np.log(np.maximum(values, 1e-300)) - log_lows)
                / np.where(log_span > 0, log_span, 1.0),
                0.0)
        u = np.where(is_log, log_u, lin_u)
        # Peak +amp at u = opt, falling to -amp at distance ~0.7.  Explicit
        # square (not **2) so scalar and batch rows share last-ulp behaviour.
        t = (u - opts) / 0.7
        log_factor = np.sum(amps * (1.0 - 2.0 * (t * t)), axis=-1)
        return np.exp(np.clip(log_factor, -1.0, 1.0))

    def _minor_knob_factor(self, full: Mapping[str, float]) -> float:
        """Aggregate multiplicative effect of the non-major tunable knobs.

        Each minor knob has a name-hash-determined amplitude (0.05–0.3 %)
        and optimal position; the effect is a smooth bump peaking there.
        The *sum* over ~215 knobs gives the long-tail gains of Figure 8.
        """
        names = self._minor_tables()[0]
        values = np.array([full[name] for name in names])
        return float(self._minor_factor_values(values[None, :])[0])

    def _minor_factor_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`_minor_knob_factor` for a matrix of registry-order rows."""
        idx = self._minor_tables()[8]
        # rows[:, idx] comes back F-ordered (advanced indexing on axis 1);
        # strided reductions pick a different pairwise blocking, so force
        # C order to keep each lane's sum bitwise equal to the scalar path.
        return self._minor_factor_values(np.ascontiguousarray(rows[:, idx]))
