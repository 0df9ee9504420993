"""Connection, thread and lock contention model.

Reproduces the concurrency structure of a MySQL-style server:

* ``max_connections`` caps admitted clients; refusing part of the offered
  load cuts throughput directly.
* ``innodb_thread_concurrency`` limits threads *inside* InnoDB — unlimited
  (0) lets a 1500-thread Sysbench run thrash mutexes; tiny values serialize.
  The sweet spot sits at a small multiple of the core count.
* Row locks: lock-wait probability grows with concurrent writers on a
  skewed key space (TPC-C district rows, Sysbench hot rows).

The model function takes the number namespace ``ops`` first and runs
for one config on Python floats or for a batch on numpy arrays
(:mod:`repro.dbsim.numeric`); ``evaluate_concurrency`` checks its
arguments and runs the model for one config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import FLOATS

__all__ = ["ConcurrencyConfig", "ConcurrencyOutcome", "evaluate_concurrency",
           "concurrency_model"]


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Concurrency-relevant knob values."""

    max_connections: int
    thread_concurrency: int   # 0 = unlimited
    thread_cache_size: int
    spin_wait_delay: int
    sync_spin_loops: int
    back_log: int


@dataclass(frozen=True)
class ConcurrencyOutcome:
    """Derived concurrency behaviour.

    Each field holds one value per config: a float for one config, an
    array over a batch (see :mod:`repro.dbsim.numeric`).
    """

    admitted_threads: float    # connections actually serving the workload
    active_workers: float      # threads concurrently executing in the engine
    contention_factor: float   # >= 1, multiplies CPU cost
    admission_ratio: float     # admitted / offered
    lock_wait_frac: float      # probability a txn waits on a row lock
    avg_lock_wait_ms: float
    thread_create_rate: float  # thread churn from a cold thread cache


def concurrency_model(ops, max_connections, thread_concurrency,
                      thread_cache_size, spin_wait_delay, sync_spin_loops,
                      offered_threads: int, cores: int, write_frac: float,
                      skew: float) -> ConcurrencyOutcome:
    """Admission, engine concurrency and lock contention per config.

    ``ops`` is numpy or :data:`~repro.dbsim.numeric.FLOATS`.  Knob inputs
    hold one validated value per config; workload and hardware inputs are
    scalars.  :func:`evaluate_concurrency` is the checked entry point.
    """
    admitted = ops.minimum(float(offered_threads), max_connections)
    admission_ratio = admitted / offered_threads

    # Engine-side concurrency limit.
    inside = ops.where(thread_concurrency > 0,
                       ops.minimum(admitted, thread_concurrency), admitted)

    # Mutex/spinlock contention once the engine oversubscribes the cores.
    # The optimum is a few threads per core; beyond that, cache-line
    # ping-pong and context switches dominate.
    optimal = cores * 6.0
    excess = (inside - optimal) / optimal
    # Well-chosen spin parameters shave a little off the contention.
    spin_tune = ops.where((spin_wait_delay >= 4) & (spin_wait_delay <= 12)
                          & (sync_spin_loops >= 20) & (sync_spin_loops <= 60),
                          0.85, 1.0)
    contention = ops.where(
        inside <= optimal,
        1.0 + 0.02 * (inside / optimal),
        1.0 + 0.02 + spin_tune * (0.55 * excess + 0.25 * (excess * excess)))

    # Workers doing useful engine work at any instant.
    active = ops.minimum(inside, optimal * (1.0 + 0.4 * np.log1p(
        ops.maximum(inside - optimal, 0.0) / optimal)))

    # Row-lock waits: concurrent writers on a skewed key space.
    writers = active * write_frac
    hot_collision = skew ** 2 * writers / (writers + 40.0)
    lock_wait_frac = ops.clip(hot_collision, 0.0, 0.6)
    avg_lock_wait_ms = 0.4 + 18.0 * lock_wait_frac

    churn = ops.maximum(0.0, admitted - thread_cache_size) * 0.02

    return ConcurrencyOutcome(
        admitted_threads=admitted,
        active_workers=ops.maximum(active, 1.0),
        contention_factor=contention,
        admission_ratio=admission_ratio,
        lock_wait_frac=lock_wait_frac,
        avg_lock_wait_ms=avg_lock_wait_ms,
        thread_create_rate=churn,
    )


def evaluate_concurrency(config: ConcurrencyConfig, offered_threads: int,
                         cores: int, write_frac: float,
                         skew: float) -> ConcurrencyOutcome:
    """Model admission, engine concurrency and lock contention."""
    if offered_threads <= 0 or cores <= 0:
        raise ValueError("offered_threads and cores must be positive")
    if not 0.0 <= write_frac <= 1.0 or not 0.0 <= skew < 1.0:
        raise ValueError("write_frac in [0,1], skew in [0,1)")
    return concurrency_model(
        FLOATS, float(config.max_connections),
        float(config.thread_concurrency), float(config.thread_cache_size),
        float(config.spin_wait_delay), float(config.sync_spin_loops),
        offered_threads, cores, write_frac, skew)
