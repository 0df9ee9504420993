"""Disk I/O model: read misses, background flushing, thread pools.

Captures the knob semantics the paper calls out in §5.2.3:
``innodb_read_io_threads`` should grow under read-only loads, while
``innodb_write_io_threads`` and ``innodb_purge_threads`` should grow under
write-heavy loads — with over-provisioning penalized (context-switch and
coordination overhead), which keeps the response surface non-monotone.

The model functions take the number namespace ``ops`` first and run for
one config on Python floats or for a batch on numpy arrays
(:mod:`repro.dbsim.numeric`); ``evaluate_io`` and
``thread_pool_efficiency`` check their arguments and run the model for
one config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardware import DiskMedium
from .numeric import FLOATS

__all__ = ["IOConfig", "IOOutcome", "IOStatic", "evaluate_io", "io_model",
           "io_static", "thread_pool_efficiency", "thread_pool_model"]


@dataclass(frozen=True)
class IOConfig:
    """I/O-relevant knob values."""

    read_io_threads: int
    write_io_threads: int
    purge_threads: int
    io_capacity: float
    io_capacity_max: float
    flush_method: str            # "fdatasync" | "O_DSYNC" | "O_DIRECT"
    flush_neighbors: int         # 0, 1, 2
    max_dirty_pct: float
    lru_scan_depth: float
    adaptive_flushing: bool


@dataclass(frozen=True)
class IOOutcome:
    """Derived I/O behaviour.

    Each field holds one value per config: a float for one config, an
    array over a batch (see :mod:`repro.dbsim.numeric`).
    """

    read_miss_ms: float          # effective latency of one buffer pool miss
    flush_capacity_pages: float  # background flush bandwidth, pages/s
    write_stall_factor: float    # >= 1, applied when dirty rate > capacity
    purge_capacity: float        # undo purge bandwidth, txn/s
    dirty_frac_target: float     # steady-state dirty page fraction


@dataclass(frozen=True)
class IOStatic:
    """Rate-independent intermediates of :func:`io_model`.

    They depend only on knob values and disk constants, not on the miss or
    dirty-page rates, so a fixed-point solver computes them once.
    """

    io_budget: float
    depth_factor: float    # LRU-scan-depth multiplier, already clipped
    safe_headroom: float   # max(max_dirty_pct / 75, 0.2)
    dirty_frac_target: float


def thread_pool_model(ops, threads, demand, cores: int):
    """Useful parallelism of a thread pool per config (``demand`` > 0)."""
    useful = ops.minimum(threads, demand) / demand
    oversub = ops.maximum(0.0, threads - ops.maximum(demand, cores)) / max(
        cores, 1)
    return useful * (1.0 / (1.0 + 0.9 * oversub))


def thread_pool_efficiency(threads: int, demand: float, cores: int) -> float:
    """Useful parallelism of a background thread pool in [0, 1].

    Rises with thread count while below demand, then *decreases* once the
    pool oversubscribes the CPU (the non-monotonicity DBAs know well).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if demand <= 0:
        return 1.0
    return float(thread_pool_model(FLOATS, threads, demand, cores))


def io_static(ops, io_capacity, io_capacity_max, max_dirty_pct,
              lru_scan_depth, disk: DiskMedium) -> IOStatic:
    """The rate-independent part of the I/O model, per config."""
    # Sustained flushing tracks io_capacity (bursting under pressure toward
    # io_capacity_max); a weighted geometric blend makes the budget
    # climbable one knob at a time while still rewarding setting the pair
    # coherently.
    io_budget = ops.minimum(
        np.power(ops.maximum(io_capacity, 1.0) * 2.0, 0.65)
        * np.power(ops.maximum(io_capacity_max, 1.0), 0.35),
        disk.iops * 0.8)
    # LRU scan depth: too shallow starves free pages, too deep burns CPU.
    depth_ratio = lru_scan_depth / 1024.0
    depth_factor = ops.clip(
        0.9 + 0.1 * np.log2(ops.maximum(depth_ratio, 0.1) + 1.0), 0.85, 1.1)
    # A loose max_dirty_pct postpones the write stall but deepens it.
    safe_headroom = ops.maximum(max_dirty_pct / 75.0, 0.2)
    dirty_frac_target = ops.clip(max_dirty_pct / 100.0 * 0.6, 0.02, 0.7)
    return IOStatic(io_budget=io_budget, depth_factor=depth_factor,
                    safe_headroom=safe_headroom,
                    dirty_frac_target=dirty_frac_target)


def io_model(ops, read_io_threads, write_io_threads, purge_threads,
             o_direct, flush_neighbors, adaptive_flushing,
             disk: DiskMedium, cores: int, miss_rate_per_sec,
             dirty_pages_per_sec, static: IOStatic) -> IOOutcome:
    """One interval of I/O behaviour per config.

    ``ops`` is numpy or :data:`~repro.dbsim.numeric.FLOATS`; ``o_direct``
    and ``adaptive_flushing`` are booleans, the other knob inputs
    validated values and the rates per-config values.  ``static`` comes
    from :func:`io_static`.  :func:`evaluate_io` is the checked entry
    point for one config.
    """
    # -- reads: misses are served by the read thread pool against disk IOPS.
    read_demand = ops.maximum(miss_rate_per_sec / 400.0, 1.0)
    read_eff = thread_pool_model(ops, read_io_threads, read_demand, cores)
    parallelism = ops.maximum(
        1.0, ops.minimum(read_io_threads, read_demand) * read_eff)
    queue = ops.maximum(0.0, miss_rate_per_sec / max(disk.iops, 1.0) - 0.6)
    read_miss_ms = disk.read_latency_ms * (1.0 / np.power(parallelism, 0.35)) * (
        1.0 + 4.0 * (queue * queue)
    )
    # No OS page cache to soften misses.
    read_miss_ms = ops.where(o_direct, read_miss_ms * 1.02, read_miss_ms)

    # -- writes: background flushing budget.
    write_demand = ops.maximum(dirty_pages_per_sec / 800.0, 1.0)
    write_eff = thread_pool_model(ops, write_io_threads, write_demand, cores)
    flush_capacity = static.io_budget * write_eff
    if disk.name != "hdd":  # neighbor flushing wastes IOPS on SSD
        flush_capacity = ops.where(flush_neighbors != 0,
                                   flush_capacity * 0.96, flush_capacity)
    else:  # HDD wants sequentialized neighbor flushes
        flush_capacity = ops.where(flush_neighbors == 0,
                                   flush_capacity * 0.85, flush_capacity)
    # O_DIRECT skips double buffering.
    flush_capacity = ops.where(o_direct, flush_capacity * 1.08,
                               flush_capacity)
    flush_capacity = ops.where(adaptive_flushing, flush_capacity * 1.05,
                               flush_capacity)
    flush_capacity = flush_capacity * static.depth_factor

    # Stall factor when dirty generation outruns flushing.
    overload = dirty_pages_per_sec / ops.where(flush_capacity > 0,
                                               flush_capacity, 1.0) - 1.0
    stall = ops.where(
        (dirty_pages_per_sec > flush_capacity) & (flush_capacity > 0),
        1.0 + 2.0 * overload / static.safe_headroom, 1.0)

    purge_eff = thread_pool_model(
        ops, purge_threads, ops.maximum(dirty_pages_per_sec / 1500.0, 0.5),
        cores)
    purge_capacity = 3000.0 * purge_threads * purge_eff

    return IOOutcome(
        read_miss_ms=read_miss_ms,
        flush_capacity_pages=flush_capacity,
        write_stall_factor=stall,
        purge_capacity=purge_capacity,
        dirty_frac_target=static.dirty_frac_target,
    )


def evaluate_io(config: IOConfig, disk: DiskMedium, cores: int,
                miss_rate_per_sec: float, dirty_pages_per_sec: float) -> IOOutcome:
    """Model one interval of I/O behaviour."""
    if miss_rate_per_sec < 0 or dirty_pages_per_sec < 0:
        raise ValueError("rates must be non-negative")
    if min(config.read_io_threads, config.write_io_threads,
           config.purge_threads) < 1:
        raise ValueError("threads must be >= 1")
    static = io_static(FLOATS, config.io_capacity, config.io_capacity_max,
                       config.max_dirty_pct, config.lru_scan_depth, disk)
    return io_model(FLOATS, config.read_io_threads, config.write_io_threads,
                    config.purge_threads, config.flush_method == "O_DIRECT",
                    config.flush_neighbors, config.adaptive_flushing, disk,
                    cores, miss_rate_per_sec, dirty_pages_per_sec, static)
