"""The simulated cloud database: knobs in, performance + 63 metrics out.

:class:`SimulatedDatabase` stands in for the paper's Tencent CDB instance.
``evaluate(config)`` plays the role of one stress test and
``evaluate_many(configs)`` scores a batch; both run one model.  It
composes the buffer-pool, redo-log, I/O and concurrency models into a
throughput / latency estimate via a short fixed-point iteration (flush
pressure depends on throughput, which depends on flush pressure), derives
the 63 internal metrics from the resulting
:class:`~repro.dbsim.metrics.EngineSnapshot`, and reports the §5.2.3
crash region, where ``evaluate`` raises
:class:`~repro.dbsim.errors.DatabaseCrashError`.  The model runs on
Python floats for one config and on numpy arrays for a batch
(:mod:`repro.dbsim.numeric`); a config gets the same bits either way.

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

from .bufferpool import MemoryBudget, hit_ratio_model, memory_pressure_model
from .concurrency import concurrency_model
from .errors import DatabaseCrashError
from .hardware import HardwareSpec
from .iomodel import io_model, io_static
from .knobs import KnobRegistry
from .logsystem import crashes_disk_values, log_model, log_static
from .metrics import EngineSnapshot, metrics_matrix
from .mysql_knobs import MAJOR_KNOBS, mysql_registry
from .numeric import FLOATS
from .workload import WorkloadSpec
from ..obs import get_metrics, get_tracer, profile_block
from ..rl.reward import PerformanceSample

__all__ = ["DatabaseObservation", "SimulatedDatabase"]

GIB = 1024.0 ** 3
_ROWS_PER_PAGE = 100.0
_PAGES_PER_ROW_POINT = 1.0   # index descent amortized
_DIRTY_PAGES_PER_WRITE_OP = 0.5
_STRESS_INTERVAL_S = 150.0   # §2.1.2: ~150 s of workload per step
_SNAPSHOT_FIELDS = tuple(field.name for field in fields(EngineSnapshot))


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
        self._adapter_reverse: Dict[str, str] | None = None
        if self.adapter is None:
            self._modeled = frozenset(MAJOR_KNOBS)
        else:
            unknown = set(self.adapter.values()) - set(self._canonical_defaults)
            if unknown:
                raise KeyError(f"adapter targets unknown canonical knobs: "
                               f"{sorted(unknown)}")
            self._modeled = frozenset(self.adapter)
            # When several knobs map to one canonical knob, the last one in
            # the adapter's order supplies its value.
            self._adapter_reverse = {
                canonical: name for name, canonical in self.adapter.items()}
        self.evaluations = 0  # evaluate() requests (the paper's sample count)
        self.stress_tests = 0  # simulations actually run (cache misses)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[tuple, DatabaseObservation | str]" = (
            OrderedDict())
        self._minor: tuple | None = None  # the registry's shared tables
        self._jitter: tuple | None = None  # one Philox generator, re-keyed

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
    def cache_peek(self, key: tuple):
        """Cached result for ``key`` (observation or crash message), or None.

        Does not touch the hit/miss counters; the batch core accounts for
        those itself.
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
        This is a one-config batch of the same core as
        :meth:`evaluate_many`.
        """
        [(status, payload)] = self._evaluate_many_outcomes([config], [trial])
        if status == "crash":
            raise DatabaseCrashError(payload)
        return payload

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
            # whole batch goes through the model at once.
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
            # Validation is idempotent, so these rows hold the validated
            # values with defaults filled in.
            rows = registry.values_matrix([validated[i] for i in pending])
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
        """Score validated registry-order rows under one stress-test span."""
        with get_tracer().span("db.stress_test", size=len(trials)), \
                profile_block("db.stress_test_seconds"):
            return self._compute_many(rows, trials)

    def _jitter_digest(self, trial: int, sorted_values: np.ndarray) -> bytes:
        """16-byte stable hash of (seed, trial, canonical full config).

        The jitter stream is keyed by the *canonical full configuration* —
        validated values in sorted-name order — so equivalent configs (a
        partial config and the same config with defaults spelled out)
        share one stream however they were written down.
        """
        return hashlib.md5(f"{self.seed}::{int(trial)}::".encode()
                           + sorted_values.tobytes()).digest()

    def _columns(self, rows: np.ndarray):
        """``(ops, col)`` for validated registry-order ``rows``.

        One row runs the model on Python floats (``ops`` is
        :data:`~repro.dbsim.numeric.FLOATS`): numpy's per-call cost would
        dominate a one-row batch.  More rows run on numpy arrays.
        ``col(name)`` gives a canonical (MySQL) knob's values — a float, or
        a contiguous array — with the adapter's remapping and canonical
        defaults for knobs the adapter does not map; ``col(name, default)``
        also falls back to ``default`` when the registry lacks the knob.
        """
        registry = self.registry
        reverse = self._adapter_reverse
        m = rows.shape[0]
        ops = FLOATS if m == 1 else np
        row = rows[0].tolist() if m == 1 else None
        cache: Dict[str, object] = {}

        def col(name: str, default: float | None = None):
            value = cache.get(name)
            if value is None:
                source = name if reverse is None else reverse.get(name)
                if source is None:
                    value = ops.full(m, float(self._canonical_defaults[name]))
                elif default is not None and source not in registry:
                    value = ops.full(m, default)
                elif row is not None:
                    value = row[registry.index_of(source)]
                else:
                    # Contiguous: numpy may pick a different (last-ulp)
                    # transcendental loop for strided input.
                    value = np.ascontiguousarray(
                        rows[:, registry.index_of(source)])
                cache[name] = value
            return value

        return ops, col

    def _compute_many(self, rows: np.ndarray, trials: Sequence[int]) -> list:
        """Stress tests over validated registry-order rows.

        Returns ``[(status, payload), ...]`` aligned with ``rows`` —
        ``("crash", message)`` for crash-region rows, ``("ok", observation)``
        otherwise.  Counter and cache bookkeeping belong to the caller.
        The model runs once over every non-crashing row, on floats or on
        arrays (:meth:`_columns`); both give the same bits per row.
        """
        registry = self.registry
        n_total = rows.shape[0]
        ops, col = self._columns(rows)

        # Crash region first (§5.2.3).
        log_file = col("innodb_log_file_size")
        log_files = col("innodb_log_files_in_group")
        crashed = np.atleast_1d(crashes_disk_values(
            log_file, log_files, self.hardware.disk_gb))
        outcomes: list = [None] * n_total
        ok_index = range(n_total)
        if crashed.any():
            group_gb = np.atleast_1d(log_file * log_files / GIB).tolist()
            for i in np.flatnonzero(crashed).tolist():
                outcomes[i] = ("crash", (
                    f"redo log group ({group_gb[i]:.1f} GB) "
                    f"exceeds the disk capacity threshold "
                    f"({self.hardware.disk_gb} GB disk)"))
            ok_index = np.flatnonzero(~crashed).tolist()
            if not ok_index:
                return outcomes
            rows = rows[ok_index]  # fancy index → fresh contiguous array
            ops, col = self._columns(rows)
        m = rows.shape[0]
        minor = self._minor_factor_rows(rows)
        throughput, p99, snapshot = self._solve_rows(
            ops, col, m, minor.item() if ops is FLOATS else minor)

        # Jitter, clamps and per-row observations.  Draws come from each
        # config's own jitter stream: Philox keyed by the config's digest,
        # replayed on one generator by resetting its key and counter.
        # Without noise the draws stay zero and multiply by exactly 1.0.
        raw_metrics = metrics_matrix(snapshot, m)
        noise = self.noise
        draws = np.zeros((m, 2 + raw_metrics.shape[1]))
        if noise > 0:
            # tobytes() on a strided row would copy element by element; one
            # bulk copy yields the same bytes faster.
            sorted_rows = np.ascontiguousarray(
                rows[:, registry.sorted_indices])
            if self._jitter is None:
                bit_gen = np.random.Philox(key=0)
                zeros4 = np.zeros(4, dtype=np.uint64)
                self._jitter = (bit_gen,
                                np.random.Generator(bit_gen).standard_normal,
                                {"bit_generator": "Philox",
                                 "state": {"counter": zeros4, "key": zeros4},
                                 "buffer": zeros4, "buffer_pos": 4,
                                 "has_uint32": 0, "uinteger": 0})
            bit_gen, normal, state = self._jitter
            for k, i in enumerate(ok_index):
                digest = self._jitter_digest(trials[i], sorted_rows[k])
                state["state"]["key"] = np.frombuffer(
                    digest, dtype="<u8").astype(np.uint64, copy=False)
                bit_gen.state = state
                normal(out=draws[k])
        throughput = np.maximum(throughput * (1.0 + noise * draws[:, 0]), 1.0)
        p99 = np.maximum(p99 * (1.0 + noise * draws[:, 1]), 0.1)
        final_metrics = np.maximum(
            raw_metrics * (1.0 + noise * 0.5 * draws[:, 2:]), 0.0)

        if ops is FLOATS:
            snapshots = [snapshot]
        else:
            # tolist() converts each lane column to python floats in one C
            # call, so row assembly is a zip instead of m*n float() casts.
            columns = [
                column.tolist() if isinstance(column, np.ndarray)
                else [column] * m
                for column in (getattr(snapshot, name)
                               for name in _SNAPSHOT_FIELDS)]
            snapshots = [EngineSnapshot(*row) for row in zip(*columns)]
        throughput_list = throughput.tolist()
        p99_list = p99.tolist()
        for k, i in enumerate(ok_index):
            outcomes[i] = ("ok", DatabaseObservation(
                performance=PerformanceSample(throughput=throughput_list[k],
                                              latency=p99_list[k]),
                metrics=final_metrics[k].copy(),
                snapshot=snapshots[k],
            ))
        return outcomes

    def _solve_rows(self, ops, col, m: int, minor_factor,
                    ) -> Tuple[object, object, EngineSnapshot]:
        """The performance model: throughput, p99 and snapshot per config.

        Composes the concurrency, buffer-pool, memory, redo-log and I/O
        models and solves the throughput fixed point.  ``ops`` and ``col``
        come from :meth:`_columns`; ``minor_factor`` is the long-tail
        factor per config.  Returns floats (one config) or arrays (a
        batch), and an :class:`EngineSnapshot` whose fields hold the same,
        or workload scalars.
        """
        hw = self.hardware
        wl = self.workload
        disk = hw.disk

        conc = concurrency_model(
            ops, col("max_connections"), col("innodb_thread_concurrency"),
            col("thread_cache_size"), col("innodb_spin_wait_delay"),
            col("innodb_sync_spin_loops"),
            offered_threads=wl.threads, cores=hw.cores,
            write_frac=wl.write_frac, skew=wl.skew,
        )

        pool_gb = col("innodb_buffer_pool_size") / GIB
        hit = hit_ratio_model(ops, pool_gb, wl.working_set_gb, wl.skew,
                              instances=col("innodb_buffer_pool_instances"))

        session_bytes = (
            col("sort_buffer_size") + col("join_buffer_size")
            + col("read_buffer_size") + col("read_rnd_buffer_size")
            + col("binlog_cache_size") + col("thread_stack", 262144.0)
        )
        # Session buffers are held while a session executes, so demand
        # scales with concurrently active workers (not every connection).
        budget = MemoryBudget(
            buffer_pool_gb=pool_gb,
            session_gb=session_bytes * conc.active_workers * 1.25 / GIB,
            shared_gb=(col("key_buffer_size") + col("query_cache_size")
                       + col("innodb_log_buffer_size")
                       + col("tmp_table_size")) / GIB,
        )
        pressure = memory_pressure_model(ops, budget.total_gb, hw.ram_gb)

        # CPU cost tweaks from feature knobs.
        cpu_us = ops.full(m, wl.cpu_us_per_op)
        cpu_us = ops.where(
            col("innodb_adaptive_hash_index") != 0,
            cpu_us * (1.0 - 0.06 * wl.read_frac * wl.point_frac)
            * (1.0 + 0.03 * wl.write_frac),
            cpu_us)
        cpu_us = ops.where(col("innodb_change_buffering") == 5,  # "all"
                           cpu_us * (1.0 - 0.05 * wl.write_frac), cpu_us)
        query_cache_on = (col("query_cache_type") == 1) & (
            col("query_cache_size") > 0)
        cpu_us = ops.where(
            query_cache_on,
            cpu_us * (1.0 - 0.03 * wl.read_frac + 0.10 * wl.write_frac),
            cpu_us)

        # Sort/temp-table behaviour (OLAP-relevant).
        sort_need_bytes = wl.rows_per_op * 100.0 * 2.0
        spill_frac = ops.zeros(m)
        if wl.sort_frac > 0:
            tmp_limit = ops.minimum(col("tmp_table_size"),
                                    col("max_heap_table_size"))
            spill_frac = ops.where(
                sort_need_bytes > ops.maximum(col("sort_buffer_size"), 1.0),
                spill_frac + 0.4, spill_frac)
            spill_frac = ops.where(
                sort_need_bytes > ops.maximum(tmp_limit, 1.0),
                spill_frac + 0.6, spill_frac)
            spill_frac = ops.minimum(spill_frac, 1.0)

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

        # Loop-invariant terms of the fixed point below.
        log_fixed = log_static(
            ops, col("innodb_log_file_size"), col("innodb_log_files_in_group"),
            col("innodb_flush_log_at_trx_commit"), col("sync_binlog"), disk,
            wl.log_bytes_per_txn, conc.active_workers)
        io_fixed = io_static(
            ops, col("innodb_io_capacity"), col("innodb_io_capacity_max"),
            col("innodb_max_dirty_pages_pct"), col("innodb_lru_scan_depth"),
            disk)
        log_buffer = col("innodb_log_buffer_size")
        read_threads = col("innodb_read_io_threads")
        write_threads = col("innodb_write_io_threads")
        purge_threads = col("innodb_purge_threads")
        o_direct = col("innodb_flush_method") == 2
        flush_neighbors = col("innodb_flush_neighbors")
        adaptive_flushing = col("innodb_adaptive_flushing") != 0

        t_cpu_op = cpu_us / 1000.0 * conc.contention_factor * pressure
        scan_share = wl.read_frac * wl.scan_frac
        point_share = wl.read_frac * wl.point_frac
        # Point misses pay random latency; scans stream at bandwidth.
        seq_ms_per_page = 16.0 / 1024.0 / max(disk.bandwidth_mb_s, 1.0) * 1000.0
        if scan_share > 0:
            read_ahead_gain = ops.where(
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
        cpu_bound = hw.cores * 0.85 / ops.maximum(
            cpu_core_ms_per_txn, 1e-3) * 1000.0
        if write_ops > 0:
            # A tight dirty-page ceiling leaves no buffering headroom:
            # pages must be flushed almost synchronously with the writes.
            dirty_headroom = ops.clip(
                col("innodb_max_dirty_pages_pct") / 40.0, 0.25, 1.0)
        per_txn_misses = read_ops * pages_per_read_op * (1.0 - hit)
        # Reads and background flushing share the same disk: the
        # flusher's IOPS come out of the read budget.
        iops_limited = per_txn_misses * wl.point_frac > 0.05
        misses_share = per_txn_misses * max(wl.point_frac, 0.05)
        safe_misses_share = ops.where(iops_limited, misses_share, 1.0)

        # Fixed point: throughput <-> flush/commit/queue pressure.
        txn_rate = ops.maximum(conc.active_workers, 1.0) * 20.0
        for _ in range(6):
            miss_rate = txn_rate * read_ops * pages_per_read_op * (1.0 - hit)
            dirty_rate = txn_rate * write_ops * _DIRTY_PAGES_PER_WRITE_OP
            log_out = log_model(ops, log_buffer, txn_rate,
                                wl.log_bytes_per_txn, log_fixed)
            io_out = io_model(
                ops, read_threads, write_threads, purge_threads, o_direct,
                flush_neighbors, adaptive_flushing, disk, hw.cores,
                miss_rate, dirty_rate * log_out.checkpoint_factor, io_fixed)

            t_read_op = read_factor * (
                point_ms_scale * io_out.read_miss_ms + scan_term)
            t_write_op = write_prefix * (
                0.03
                + 0.25 * (io_out.write_stall_factor - 1.0)
                + 0.20 * (log_out.checkpoint_factor - 1.0)
            )
            t_write_op = ops.where(no_doublewrite,
                                   t_write_op * 0.95, t_write_op)
            log_wait_ms = (log_out.log_waits_per_sec
                           / ops.maximum(txn_rate, 1.0)) * 0.5

            t_txn_ms = (
                wl.ops_per_txn * (t_cpu_op + t_write_op)
                + t_read_op * wl.ops_per_txn
                + t_sort + t_lock + log_wait_ms + log_out.commit_ms
            )
            worker_bound = conc.active_workers / ops.maximum(
                t_txn_ms, 1e-3) * 1000.0

            if write_ops > 0:
                write_bound = dirty_headroom * io_out.flush_capacity_pages / (
                    write_ops * _DIRTY_PAGES_PER_WRITE_OP
                    * log_out.checkpoint_factor
                )
            else:
                write_bound = np.inf
            flush_pages = ops.minimum(dirty_rate, io_out.flush_capacity_pages)
            read_iops_avail = ops.maximum(disk.iops * 0.85 - flush_pages,
                                          disk.iops * 0.15)
            read_iops_bound = ops.where(
                iops_limited, read_iops_avail / safe_misses_share, np.inf)

            target = ops.minimum(
                ops.minimum(ops.minimum(worker_bound, cpu_bound), write_bound),
                read_iops_bound)
            txn_rate = 0.5 * txn_rate + 0.5 * ops.maximum(target, 1.0)

        throughput = txn_rate * minor_factor
        log_waits = log_out.log_waits_per_sec
        wait_frac = log_waits / ops.maximum(txn_rate, 1.0)
        throughput = ops.where(log_waits > 0,
                               throughput * (1.0 / (1.0 + 0.5 * wait_frac)),
                               throughput)

        # Purge lag: sustained writes beyond purge capacity trim throughput.
        write_txn_rate = throughput * min(wl.write_frac * 2.0, 1.0)
        history = ops.full(m, 500.0)
        if write_ops > 0:
            purge_cap = io_out.purge_capacity
            lagging = write_txn_rate > purge_cap
            lag = write_txn_rate / ops.maximum(purge_cap, 1.0)
            throughput = ops.where(
                lagging,
                throughput * ops.maximum(0.9, 1.0 - 0.03 * (lag - 1.0)),
                throughput)
            history = ops.where(lagging, 500.0 + 5000.0 * (lag - 1.0), history)

        # Little's law per-client latency over the *offered* load: refused
        # connections queue and retry at the client, so capping
        # max_connections cannot shortcut the latency metric.
        mean_latency_ms = wl.threads / ops.maximum(throughput, 1.0) * 1000.0
        mean_latency_ms = ops.maximum(mean_latency_ms, t_txn_ms)
        p99 = mean_latency_ms * (
            1.5
            + 0.8 * conc.lock_wait_frac
            + 0.15 * (io_out.write_stall_factor - 1.0)
            + 0.10 * (log_out.checkpoint_factor - 1.0)
            + 0.3 * ops.maximum(pressure - 1.0, 0.0)
        )

        tmp_rate = throughput * wl.ops_per_txn * wl.read_frac * wl.sort_frac
        snapshot = EngineSnapshot(
            interval_s=_STRESS_INTERVAL_S,
            buffer_pool_bytes=col("innodb_buffer_pool_size"),
            buffer_pool_used_frac=ops.minimum(
                0.97, wl.working_set_gb / ops.maximum(pool_gb, 1e-3)),
            dirty_frac=io_out.dirty_frac_target * min(
                wl.write_frac * 2.0 + 0.05, 1.0),
            hit_ratio=hit,
            ops_per_sec=throughput * wl.ops_per_txn,
            txn_per_sec=throughput,
            read_frac=wl.read_frac,
            point_frac=wl.point_frac,
            scan_frac=wl.scan_frac,
            insert_frac=wl.insert_frac,
            log_bytes_per_txn=wl.log_bytes_per_txn,
            log_waits_per_sec=log_waits,
            fsyncs_per_sec=log_out.fsyncs_per_sec,
            flush_pages_per_sec=flush_pages,
            read_ahead_per_sec=miss_rate * wl.scan_frac * 0.5,
            lock_wait_frac=conc.lock_wait_frac,
            avg_lock_wait_ms=conc.avg_lock_wait_ms,
            history_list_length=history,
            threads_running=ops.minimum(conc.active_workers,
                                        conc.admitted_threads),
            threads_connected=conc.admitted_threads,
            thread_cache_size=col("thread_cache_size"),
            open_tables=ops.minimum(col("table_open_cache"), 64.0),
            open_files=ops.minimum(col("innodb_open_files"), 128.0),
            tmp_tables_per_sec=tmp_rate,
            tmp_disk_tables_frac=spill_frac,
            rows_per_query=wl.rows_per_op,
            wait_free_per_sec=ops.maximum(
                0.0, dirty_rate - flush_pages) * 0.1,
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

    def _minor_factor_rows(self, rows: np.ndarray) -> np.ndarray:
        """Aggregate multiplicative effect of the non-major tunable knobs.

        Each minor knob has a name-hash-determined amplitude (0.05–0.3 %)
        and optimal position; the effect is a smooth bump peaking there.
        The *sum* over ~215 knobs gives the long-tail gains of Figure 8.
        One factor per registry-order row.
        """
        (_names, amps, opts, lows, highs, is_log,
         log_lows, log_highs, idx) = self._minor_tables()
        # rows[:, idx] comes back F-ordered (advanced indexing on axis 1);
        # strided reductions pick a different pairwise blocking, so force
        # C order to keep each row's sum independent of the batch layout.
        values = np.clip(np.ascontiguousarray(rows[:, idx]), lows, highs)
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
        # Peak +amp at u = opt, falling to -amp at distance ~0.7.
        t = (u - opts) / 0.7
        log_factor = np.sum(amps * (1.0 - 2.0 * (t * t)), axis=-1)
        return np.exp(np.clip(log_factor, -1.0, 1.0))
