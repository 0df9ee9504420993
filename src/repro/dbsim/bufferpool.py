"""Buffer pool and server memory model.

Two effects dominate the paper's response surface (Figure 1d):

* **Hit ratio**: with a Zipf-skewed access pattern of exponent ``s``, caching
  the hottest fraction ``c`` of the working set captures roughly ``c^(1-s)``
  of accesses — fast initial gains, diminishing returns.
* **Memory pressure**: the buffer pool is only one consumer of RAM; session
  buffers (sort/join/read areas × active sessions), caches and the OS share
  the same box.  Over-provisioning the pool drives the server into swap and
  performance falls off a cliff — this is why the surface is non-monotone in
  ``innodb_buffer_pool_size``.

The model functions take the number namespace ``ops`` first and run for
one config on Python floats or for a batch on numpy arrays
(:mod:`repro.dbsim.numeric`); ``hit_ratio`` and ``memory_pressure``
check their arguments and run the model for one config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import FLOATS

__all__ = ["hit_ratio", "hit_ratio_model", "MemoryBudget",
           "memory_pressure", "memory_pressure_model"]

_OS_RESERVED_GB = 0.75  # kernel + mysqld baseline footprint
_USABLE_FRAC = 0.92     # fraction of RAM the server may consume before swapping


def hit_ratio_model(ops, pool_gb, working_set_gb: float, skew: float,
                    instances):
    """Hit ratio per config; ``ops`` is numpy or
    :data:`~repro.dbsim.numeric.FLOATS`.

    ``pool_gb`` and ``instances`` hold one value per config (validated, so
    positive); ``working_set_gb`` and ``skew`` are workload scalars.
    :func:`hit_ratio` is the checked entry point for one config.
    """
    # Fragmentation: effective capacity shrinks when pool/instance < 1 GB
    # and when a single instance serves a big pool.
    per_instance_gb = pool_gb / instances
    fragmentation = ops.where(per_instance_gb < 1.0,
                              1.0 - 0.06 * (1.0 - per_instance_gb), 1.0)
    fragmentation = ops.where((instances == 1) & (pool_gb > 4.0),
                              fragmentation - 0.03, fragmentation)
    coverage = ops.minimum(1.0, (pool_gb * fragmentation) / working_set_gb)
    partial = ops.minimum(0.998, np.power(coverage, 1.0 - skew))
    # Page splits/DDL keep a real pool below 100 %.
    return ops.where(coverage >= 1.0, 0.998, partial)


def hit_ratio(pool_gb: float, working_set_gb: float, skew: float,
              instances: int = 8) -> float:
    """Steady-state buffer pool hit ratio.

    ``instances`` models ``innodb_buffer_pool_instances``: far too few
    partitions cause mutex contention *misses from stalls* (tiny penalty);
    far too many fragment the pool (each instance caches its own hot set).
    """
    if pool_gb <= 0 or working_set_gb <= 0:
        raise ValueError("sizes must be positive")
    if not 0.0 <= skew < 1.0:
        raise ValueError("skew must be in [0, 1)")
    if instances < 1:
        raise ValueError("instances must be >= 1")
    return float(hit_ratio_model(FLOATS, float(pool_gb), working_set_gb,
                                 skew, float(instances)))


@dataclass(frozen=True)
class MemoryBudget:
    """Server-wide memory demand, in GB, per config (a float, or an array
    over a batch)."""

    buffer_pool_gb: float
    session_gb: float      # per-connection buffers × active sessions
    shared_gb: float       # key buffer, query cache, log buffer, caches

    @property
    def total_gb(self) -> float:
        return self.buffer_pool_gb + self.session_gb + self.shared_gb


def memory_pressure_model(ops, total_gb, ram_gb: float):
    """Memory slowdown per config from its total demand ``total_gb``.

    ``ops`` is numpy or :data:`~repro.dbsim.numeric.FLOATS`;
    :func:`memory_pressure` is the checked entry point for one config.
    """
    available = max(ram_gb - _OS_RESERVED_GB, 0.5)
    overcommit = total_gb / (available * _USABLE_FRAC)
    # Quadratic onset, exponential cliff: 5 % over budget ≈ 1.3x slowdown,
    # 50 % over ≈ 12x (thrashing).  Beyond ~3x overcommit the box is
    # unusable either way; cap the penalty so downstream math stays finite.
    excess = ops.minimum(overcommit - 1.0, 3.0)
    penalty = 1.0 + 4.0 * (excess * excess) + np.expm1(3.5 * excess)
    return ops.where(overcommit <= 1.0, 1.0, penalty)


def memory_pressure(budget: MemoryBudget, ram_gb: float) -> float:
    """Multiplicative slowdown from memory over-commit (1.0 = no pressure).

    Grows smoothly past ~92 % of RAM and explodes once demand exceeds
    physical memory — the swap cliff.
    """
    if ram_gb <= 0:
        raise ValueError("ram_gb must be positive")
    return float(memory_pressure_model(FLOATS, budget.total_gb, ram_gb))
