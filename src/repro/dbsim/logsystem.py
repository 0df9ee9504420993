"""Redo log, binlog and checkpoint model.

Three paper-visible mechanisms live here:

* **Commit durability cost** — ``innodb_flush_log_at_trx_commit`` (0/1/2) and
  ``sync_binlog`` decide how many fsyncs a commit pays; group commit
  amortizes them across concurrent sessions.
* **Checkpoint pressure** — a small total redo capacity
  (``innodb_log_file_size × innodb_log_files_in_group``) forces aggressive
  page flushing and eventually write stalls; the paper notes CDBTune
  "expand[s] the size of log file properly" under write-heavy loads.
* **The crash rule** — §5.2.3: if the redo log group exceeds the disk
  capacity threshold the instance crashes; CDBTune learns to avoid the
  region via a −100 reward rather than a hard constraint.

The model functions take the number namespace ``ops`` first and run for
one config on Python floats or for a batch on numpy arrays
(:mod:`repro.dbsim.numeric`); ``evaluate_log`` checks its arguments and
runs the model for one config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardware import DiskMedium
from .numeric import FLOATS

__all__ = ["LogConfig", "LogOutcome", "LogStatic", "evaluate_log",
           "crashes_disk", "crashes_disk_values",
           "log_model", "log_static"]

# Fraction of disk the redo group may occupy before data has nowhere to grow
# (the paper's "threshold"; data + binlogs need the rest of the disk).
DISK_LOG_FRACTION_LIMIT = 0.5


@dataclass(frozen=True)
class LogConfig:
    """Log-relevant knob values (physical units)."""

    log_file_bytes: float
    log_files_in_group: int
    log_buffer_bytes: float
    flush_log_at_trx_commit: int  # 0, 1, 2
    sync_binlog: int              # 0 = never, N = every N commits


@dataclass(frozen=True)
class LogOutcome:
    """Derived log behaviour for one stress-test interval.

    Each field holds one value per config: a float for one config, an
    array over a batch (see :mod:`repro.dbsim.numeric`).
    """

    commit_ms: float            # per-transaction durability cost
    checkpoint_factor: float    # >= 1, multiplies page-write cost
    log_waits_per_sec: float    # stalls from an undersized log buffer
    fsyncs_per_sec: float       # redo + binlog fsync rate
    redo_bytes_per_sec: float


@dataclass(frozen=True)
class LogStatic:
    """``txn_per_sec``-independent intermediates of :func:`log_model`.

    They depend only on knob values, disk constants and the (loop-invariant)
    concurrency level, so a fixed-point solver computes them once.
    """

    group: float
    commit_ms: float            # full per-commit cost incl. binlog term
    mode1: "bool | None"        # flush_log_at_trx_commit == 1; None: no redo
    binlog_on: "bool | None"
    safe_binlog: float
    group_bytes: float


def crashes_disk_values(log_file_bytes, log_files_in_group, disk_gb: float):
    """The §5.2.3 crash rule over knob values (per config, or a batch)."""
    group_bytes = log_file_bytes * log_files_in_group
    return group_bytes > DISK_LOG_FRACTION_LIMIT * disk_gb * 1024 ** 3


def crashes_disk(config: LogConfig, disk_gb: float) -> bool:
    """The §5.2.3 crash rule: redo group exceeds its disk share."""
    return bool(crashes_disk_values(config.log_file_bytes,
                                    config.log_files_in_group, disk_gb))


def log_static(ops, log_file_bytes, log_files_in_group,
               flush_log_at_trx_commit, sync_binlog, disk: DiskMedium,
               log_bytes_per_txn: float, concurrent_commits) -> LogStatic:
    """The ``txn_per_sec``-independent part of the log model, per config.

    ``concurrent_commits`` is the number of sessions committing at once —
    group commit divides the fsync price among them.
    """
    group = ops.maximum(1.0, ops.minimum(concurrent_commits, 16.0))
    if log_bytes_per_txn == 0.0:
        return LogStatic(group=group, commit_ms=0.0, mode1=None,
                         binlog_on=None, safe_binlog=1.0,
                         group_bytes=log_file_bytes * log_files_in_group)
    # Per-commit redo durability cost: flush_log_at_trx_commit = 1 fsyncs
    # every commit; 2 writes per commit and fsyncs once a second; 0 defers
    # both to the background second-tick.
    mode1 = flush_log_at_trx_commit == 1
    commit_ms = ops.where(
        mode1, disk.fsync_ms / group,
        ops.where(flush_log_at_trx_commit == 2,
                  0.02 + disk.write_latency_ms * 0.1, 0.01))
    # Binlog durability on top.
    binlog_on = sync_binlog > 0
    safe_binlog = ops.where(binlog_on, sync_binlog, 1.0)
    commit_ms = ops.where(
        binlog_on, commit_ms + disk.fsync_ms / (safe_binlog * group),
        commit_ms)
    return LogStatic(group=group, commit_ms=commit_ms, mode1=mode1,
                     binlog_on=binlog_on, safe_binlog=safe_binlog,
                     group_bytes=log_file_bytes * log_files_in_group)


def log_model(ops, log_buffer_bytes, txn_per_sec, log_bytes_per_txn: float,
              static: LogStatic) -> LogOutcome:
    """One interval of log behaviour per config.

    ``ops`` is numpy or :data:`~repro.dbsim.numeric.FLOATS`;
    ``log_buffer_bytes`` and ``txn_per_sec`` hold one value per config,
    ``log_bytes_per_txn`` is a workload scalar and ``static`` comes from
    :func:`log_static`.  :func:`evaluate_log` is the checked entry point
    for one config.
    """
    redo_rate = txn_per_sec * log_bytes_per_txn
    if static.mode1 is None:
        redo_fsyncs = binlog_fsyncs = 0.0
    else:
        redo_fsyncs = ops.where(static.mode1, txn_per_sec / static.group, 1.0)
        binlog_fsyncs = ops.where(static.binlog_on,
                                  txn_per_sec / static.safe_binlog, 0.0)

    # Checkpoint pressure: how fast does the workload wrap the redo group?
    # Healthy deployments size the log for >= ~20 min of redo; below that,
    # the page cleaner must flush synchronously with the workload.
    safe_redo = ops.where(redo_rate > 0, redo_rate, 1.0)
    fill_seconds = static.group_bytes / safe_redo
    target_seconds = 1200.0
    shortfall = target_seconds / ops.maximum(fill_seconds, 1.0)
    log_shortfall = np.log1p(shortfall - 1.0)
    checkpoint_factor = ops.where(
        (redo_rate > 0) & (fill_seconds < target_seconds),
        1.0 + 0.25 * (log_shortfall * log_shortfall), 1.0)

    # Log-buffer waits: the buffer must absorb ~0.5 s of redo between writes.
    deficit = 0.5 * redo_rate / ops.maximum(log_buffer_bytes, 1.0)
    log_waits = ops.where(
        (redo_rate > 0) & (log_buffer_bytes < 0.5 * redo_rate),
        txn_per_sec * ops.minimum(1.0, 0.1 * (deficit - 1.0)), 0.0)

    return LogOutcome(
        commit_ms=static.commit_ms,
        checkpoint_factor=checkpoint_factor,
        log_waits_per_sec=ops.maximum(log_waits, 0.0),
        fsyncs_per_sec=redo_fsyncs + binlog_fsyncs,
        redo_bytes_per_sec=redo_rate,
    )


def evaluate_log(config: LogConfig, disk: DiskMedium, txn_per_sec: float,
                 log_bytes_per_txn: float, concurrent_commits: float) -> LogOutcome:
    """Model one interval of log behaviour."""
    if txn_per_sec < 0 or log_bytes_per_txn < 0:
        raise ValueError("rates must be non-negative")
    if config.flush_log_at_trx_commit not in (0, 1, 2):
        raise ValueError("flush_log_at_trx_commit must be 0, 1 or 2")
    if config.sync_binlog < 0:
        raise ValueError("sync_binlog must be >= 0")
    static = log_static(FLOATS, config.log_file_bytes,
                        config.log_files_in_group,
                        config.flush_log_at_trx_commit, config.sync_binlog,
                        disk, log_bytes_per_txn, concurrent_commits)
    return log_model(FLOATS, config.log_buffer_bytes, txn_per_sec,
                     log_bytes_per_txn, static)
