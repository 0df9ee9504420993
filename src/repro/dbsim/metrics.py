"""Internal metrics: the 63-dimensional database state (§2.1.1, §2.2.2).

The paper's state is what ``SHOW STATUS`` exposes: "63 internal metrics …
including 14 state values and 49 cumulative values".  State values are
gauges sampled as interval averages; cumulative values are counters whose
per-interval *difference* is used (§2.2.2).  :class:`MetricsCollector`-style
processing lives in :mod:`repro.core.collector`; this module defines the
catalog and derives every metric from an :class:`EngineSnapshot` of the
simulated engine's internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

__all__ = [
    "STATE_METRICS",
    "CUMULATIVE_METRICS",
    "METRIC_NAMES",
    "N_METRICS",
    "EngineSnapshot",
    "metrics_vector",
    "metrics_matrix",
    "metrics_dict",
]

PAGE_SIZE = 16 * 1024  # InnoDB default page size in bytes

#: Gauge-style metrics (14): interval-averaged state values.
STATE_METRICS: List[str] = [
    "innodb_buffer_pool_pages_total",
    "innodb_buffer_pool_pages_data",
    "innodb_buffer_pool_pages_dirty",
    "innodb_buffer_pool_pages_free",
    "innodb_buffer_pool_pages_misc",
    "innodb_buffer_pool_bytes_data",
    "innodb_buffer_pool_bytes_dirty",
    "innodb_row_lock_current_waits",
    "innodb_history_list_length",
    "threads_running",
    "threads_connected",
    "threads_cached",
    "open_tables",
    "open_files",
]

#: Counter-style metrics (49): per-interval differences of cumulative values.
CUMULATIVE_METRICS: List[str] = [
    "innodb_buffer_pool_read_requests",
    "innodb_buffer_pool_reads",
    "innodb_buffer_pool_write_requests",
    "innodb_buffer_pool_pages_flushed",
    "innodb_buffer_pool_read_ahead",
    "innodb_buffer_pool_read_ahead_evicted",
    "innodb_buffer_pool_wait_free",
    "innodb_data_read",
    "innodb_data_reads",
    "innodb_data_writes",
    "innodb_data_written",
    "innodb_data_fsyncs",
    "innodb_log_write_requests",
    "innodb_log_writes",
    "innodb_log_waits",
    "innodb_os_log_fsyncs",
    "innodb_os_log_written",
    "innodb_pages_created",
    "innodb_pages_read",
    "innodb_pages_written",
    "innodb_rows_read",
    "innodb_rows_inserted",
    "innodb_rows_updated",
    "innodb_rows_deleted",
    "innodb_row_lock_waits",
    "innodb_row_lock_time",
    "com_select",
    "com_insert",
    "com_update",
    "com_delete",
    "com_commit",
    "com_rollback",
    "questions",
    "queries",
    "bytes_received",
    "bytes_sent",
    "created_tmp_tables",
    "created_tmp_disk_tables",
    "created_tmp_files",
    "handler_read_key",
    "handler_read_next",
    "handler_read_rnd_next",
    "handler_write",
    "handler_update",
    "handler_delete",
    "select_scan",
    "sort_rows",
    "table_locks_waited",
    "threads_created",
]

METRIC_NAMES: List[str] = STATE_METRICS + CUMULATIVE_METRICS
N_METRICS = len(METRIC_NAMES)

if N_METRICS != 63:  # paper invariant; keep the catalog honest
    raise AssertionError(f"metric catalog drifted: {N_METRICS} != 63")


@dataclass
class EngineSnapshot:
    """Raw internals of one simulated stress-test interval.

    Produced by :class:`repro.dbsim.engine.SimulatedDatabase`; consumed here
    to derive the 63 observable metrics.  Rates are per second, fractions in
    [0, 1], sizes in bytes unless noted.
    """

    interval_s: float            # measurement window (paper: ~150 s)
    buffer_pool_bytes: float     # configured buffer pool size
    buffer_pool_used_frac: float  # fraction of pool holding data pages
    dirty_frac: float            # dirty share of data pages
    hit_ratio: float             # buffer pool hit ratio
    ops_per_sec: float           # row operations per second
    txn_per_sec: float           # committed transactions per second
    read_frac: float             # fraction of row ops that read
    point_frac: float            # fraction of reads that are point lookups
    scan_frac: float             # fraction of reads that are range/full scans
    insert_frac: float           # of writes: inserts (rest split update/delete)
    log_bytes_per_txn: float     # redo volume per transaction
    log_waits_per_sec: float     # waits due to undersized log buffer
    fsyncs_per_sec: float        # redo + binlog fsync rate
    flush_pages_per_sec: float   # dirty pages flushed per second
    read_ahead_per_sec: float    # prefetching rate
    lock_wait_frac: float        # fraction of txns hitting row-lock waits
    avg_lock_wait_ms: float      # mean row-lock wait when it happens
    history_list_length: float   # purge lag
    threads_running: float       # concurrently active threads
    threads_connected: float     # open connections
    thread_cache_size: float     # configured thread cache
    open_tables: float           # table cache occupancy
    open_files: float            # file descriptors in use
    tmp_tables_per_sec: float    # implicit temp tables
    tmp_disk_tables_frac: float  # share spilling to disk
    rows_per_query: float        # average rows touched per statement
    wait_free_per_sec: float     # LRU wait-free stalls


def _pages(snapshot: EngineSnapshot) -> float:
    return snapshot.buffer_pool_bytes / PAGE_SIZE


# Each derivation maps a snapshot to the metric's per-interval value.  The
# formulas are intentionally simple: what matters for the tuner is that the
# metric vector responds consistently to the engine internals, exactly as
# SHOW STATUS responds to a real server.
_DERIVATIONS: Dict[str, Callable[[EngineSnapshot], float]] = {}


def _derive(name: str):
    def decorator(fn: Callable[[EngineSnapshot], float]):
        _DERIVATIONS[name] = fn
        return fn
    return decorator


# -- state metrics -----------------------------------------------------------
_DERIVATIONS["innodb_buffer_pool_pages_total"] = _pages
_DERIVATIONS["innodb_buffer_pool_pages_data"] = (
    lambda s: _pages(s) * s.buffer_pool_used_frac)
_DERIVATIONS["innodb_buffer_pool_pages_dirty"] = (
    lambda s: _pages(s) * s.buffer_pool_used_frac * s.dirty_frac)
_DERIVATIONS["innodb_buffer_pool_pages_free"] = (
    lambda s: _pages(s) * np.maximum(0.0, 1.0 - s.buffer_pool_used_frac - 0.03))
_DERIVATIONS["innodb_buffer_pool_pages_misc"] = lambda s: _pages(s) * 0.03
_DERIVATIONS["innodb_buffer_pool_bytes_data"] = (
    lambda s: s.buffer_pool_bytes * s.buffer_pool_used_frac)
_DERIVATIONS["innodb_buffer_pool_bytes_dirty"] = (
    lambda s: s.buffer_pool_bytes * s.buffer_pool_used_frac * s.dirty_frac)
_DERIVATIONS["innodb_row_lock_current_waits"] = (
    lambda s: s.txn_per_sec * s.lock_wait_frac * s.avg_lock_wait_ms / 1000.0)
_DERIVATIONS["innodb_history_list_length"] = lambda s: s.history_list_length
_DERIVATIONS["threads_running"] = lambda s: s.threads_running
_DERIVATIONS["threads_connected"] = lambda s: s.threads_connected
_DERIVATIONS["threads_cached"] = (
    lambda s: np.maximum(0.0, s.thread_cache_size - s.threads_running))
_DERIVATIONS["open_tables"] = lambda s: s.open_tables
_DERIVATIONS["open_files"] = lambda s: s.open_files


# -- cumulative metrics (reported as per-interval totals) ----------------------
def _reads_per_sec(s: EngineSnapshot) -> float:
    return s.ops_per_sec * s.read_frac


def _writes_per_sec(s: EngineSnapshot) -> float:
    return s.ops_per_sec * (1.0 - s.read_frac)


_DERIVATIONS["innodb_buffer_pool_read_requests"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * max(s.rows_per_query, 1.0))
_DERIVATIONS["innodb_buffer_pool_reads"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * max(s.rows_per_query, 1.0)
    * np.maximum(0.0, 1.0 - s.hit_ratio))
_DERIVATIONS["innodb_buffer_pool_write_requests"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * 2.0)
_DERIVATIONS["innodb_buffer_pool_pages_flushed"] = (
    lambda s: s.interval_s * s.flush_pages_per_sec)
_DERIVATIONS["innodb_buffer_pool_read_ahead"] = (
    lambda s: s.interval_s * s.read_ahead_per_sec)
_DERIVATIONS["innodb_buffer_pool_read_ahead_evicted"] = (
    lambda s: s.interval_s * s.read_ahead_per_sec * 0.1)
_DERIVATIONS["innodb_buffer_pool_wait_free"] = (
    lambda s: s.interval_s * s.wait_free_per_sec)
_DERIVATIONS["innodb_data_read"] = (
    lambda s: s.interval_s * _reads_per_sec(s)
    * np.maximum(0.0, 1.0 - s.hit_ratio) * PAGE_SIZE)
_DERIVATIONS["innodb_data_reads"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * np.maximum(0.0, 1.0 - s.hit_ratio))
_DERIVATIONS["innodb_data_writes"] = (
    lambda s: s.interval_s * (s.flush_pages_per_sec + s.fsyncs_per_sec))
_DERIVATIONS["innodb_data_written"] = (
    lambda s: s.interval_s * s.flush_pages_per_sec * PAGE_SIZE)
_DERIVATIONS["innodb_data_fsyncs"] = lambda s: s.interval_s * s.fsyncs_per_sec
_DERIVATIONS["innodb_log_write_requests"] = (
    lambda s: s.interval_s * s.txn_per_sec * 4.0)
_DERIVATIONS["innodb_log_writes"] = lambda s: s.interval_s * s.txn_per_sec
_DERIVATIONS["innodb_log_waits"] = lambda s: s.interval_s * s.log_waits_per_sec
_DERIVATIONS["innodb_os_log_fsyncs"] = lambda s: s.interval_s * s.fsyncs_per_sec
_DERIVATIONS["innodb_os_log_written"] = (
    lambda s: s.interval_s * s.txn_per_sec * s.log_bytes_per_txn)
_DERIVATIONS["innodb_pages_created"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * 0.05)
_DERIVATIONS["innodb_pages_read"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * np.maximum(0.0, 1.0 - s.hit_ratio))
_DERIVATIONS["innodb_pages_written"] = (
    lambda s: s.interval_s * s.flush_pages_per_sec)
_DERIVATIONS["innodb_rows_read"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * max(s.rows_per_query, 1.0))
_DERIVATIONS["innodb_rows_inserted"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * s.insert_frac)
_DERIVATIONS["innodb_rows_updated"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * (1.0 - s.insert_frac) * 0.7)
_DERIVATIONS["innodb_rows_deleted"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * (1.0 - s.insert_frac) * 0.3)
_DERIVATIONS["innodb_row_lock_waits"] = (
    lambda s: s.interval_s * s.txn_per_sec * s.lock_wait_frac)
_DERIVATIONS["innodb_row_lock_time"] = (
    lambda s: s.interval_s * s.txn_per_sec * s.lock_wait_frac * s.avg_lock_wait_ms)
_DERIVATIONS["com_select"] = lambda s: s.interval_s * _reads_per_sec(s)
_DERIVATIONS["com_insert"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * s.insert_frac)
_DERIVATIONS["com_update"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * (1.0 - s.insert_frac) * 0.7)
_DERIVATIONS["com_delete"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * (1.0 - s.insert_frac) * 0.3)
_DERIVATIONS["com_commit"] = lambda s: s.interval_s * s.txn_per_sec
_DERIVATIONS["com_rollback"] = lambda s: s.interval_s * s.txn_per_sec * 0.005
_DERIVATIONS["questions"] = lambda s: s.interval_s * s.ops_per_sec
_DERIVATIONS["queries"] = lambda s: s.interval_s * s.ops_per_sec * 1.02
_DERIVATIONS["bytes_received"] = lambda s: s.interval_s * s.ops_per_sec * 220.0
_DERIVATIONS["bytes_sent"] = (
    lambda s: s.interval_s * s.ops_per_sec
    * (120.0 + 90.0 * max(s.rows_per_query, 1.0)))
_DERIVATIONS["created_tmp_tables"] = lambda s: s.interval_s * s.tmp_tables_per_sec
_DERIVATIONS["created_tmp_disk_tables"] = (
    lambda s: s.interval_s * s.tmp_tables_per_sec * s.tmp_disk_tables_frac)
_DERIVATIONS["created_tmp_files"] = (
    lambda s: s.interval_s * s.tmp_tables_per_sec * s.tmp_disk_tables_frac * 0.5)
_DERIVATIONS["handler_read_key"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * s.point_frac
    * max(s.rows_per_query, 1.0))
_DERIVATIONS["handler_read_next"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * s.scan_frac
    * max(s.rows_per_query, 1.0) * 4.0)
_DERIVATIONS["handler_read_rnd_next"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * s.scan_frac
    * max(s.rows_per_query, 1.0) * 8.0)
_DERIVATIONS["handler_write"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * s.insert_frac)
_DERIVATIONS["handler_update"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * (1.0 - s.insert_frac) * 0.7)
_DERIVATIONS["handler_delete"] = (
    lambda s: s.interval_s * _writes_per_sec(s) * (1.0 - s.insert_frac) * 0.3)
_DERIVATIONS["select_scan"] = (
    lambda s: s.interval_s * _reads_per_sec(s) * s.scan_frac)
_DERIVATIONS["sort_rows"] = (
    lambda s: s.interval_s * s.tmp_tables_per_sec * max(s.rows_per_query, 1.0) * 3.0)
_DERIVATIONS["table_locks_waited"] = (
    lambda s: s.interval_s * s.txn_per_sec * s.lock_wait_frac * 0.02)
_DERIVATIONS["threads_created"] = (
    lambda s: s.interval_s
    * np.maximum(0.0, s.threads_connected - s.thread_cache_size) * 0.01)

_missing = set(METRIC_NAMES) - set(_DERIVATIONS)
if _missing:
    raise AssertionError(f"metrics without derivation: {sorted(_missing)}")

_DERIVATION_SEQ = tuple(_DERIVATIONS[name] for name in METRIC_NAMES)


def metrics_vector(snapshot: EngineSnapshot,
                   rng: np.random.Generator | None = None,
                   noise: float = 0.0) -> np.ndarray:
    """The 63-metric observation vector, in :data:`METRIC_NAMES` order.

    ``noise`` adds multiplicative Gaussian measurement jitter (real counters
    are never exactly reproducible between stress tests).
    """
    values = metrics_matrix(snapshot, 1)[0]
    if noise > 0.0:
        if rng is None:
            raise ValueError("noise > 0 requires an rng")
        values = values * (1.0 + noise * rng.standard_normal(values.shape))
    return np.maximum(values, 0.0)


def metrics_matrix(snapshot: EngineSnapshot, n: int) -> np.ndarray:
    """Raw ``(n, 63)`` metric derivations of the engine's snapshot.

    For one config (``n == 1``) the snapshot holds floats; for a batch it
    holds per-config arrays (or workload scalars) in each field.  The
    derivations contain only elementwise arithmetic, so row ``i`` is
    bitwise-identical to the derivation of config ``i`` alone.
    Measurement jitter and the non-negativity clamp are applied by the
    caller (jitter is seeded per config), matching
    :func:`metrics_vector` order of ops.
    """
    if n == 1:
        return np.array([[derive(snapshot) for derive in _DERIVATION_SEQ]])
    out = np.empty((n, N_METRICS))
    for j, derive in enumerate(_DERIVATION_SEQ):
        out[:, j] = derive(snapshot)
    return out


def metrics_dict(snapshot: EngineSnapshot,
                 rng: np.random.Generator | None = None,
                 noise: float = 0.0) -> Dict[str, float]:
    """Same as :func:`metrics_vector` but keyed by metric name."""
    vector = metrics_vector(snapshot, rng=rng, noise=noise)
    return dict(zip(METRIC_NAMES, vector.tolist()))
