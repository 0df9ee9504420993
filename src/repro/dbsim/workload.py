"""Workload specifications (§5, "Workload").

The paper evaluates six workloads: Sysbench read-only / write-only /
read-write, TPC-C, TPC-H and YCSB.  A :class:`WorkloadSpec` captures the
resource-demand profile that determines how knobs map to performance:
read/write mix, access skew, working-set and data sizes, client threads,
transaction shape and per-operation CPU cost.  Factory functions reproduce
the paper's concrete setups (16 Sysbench tables × 200 K rows ≈ 8.5 GB at
1500 threads; TPC-C with 200 warehouses ≈ 12.8 GB at 32 connections;
TPC-H ≈ 16 GB; YCSB ≈ 35 GB at 50 threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "WorkloadSpec",
    "signature_distance",
    "sysbench_read_only",
    "sysbench_write_only",
    "sysbench_read_write",
    "tpcc",
    "tpch",
    "ycsb",
    "WORKLOADS",
    "get_workload",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Resource-demand profile of a benchmark workload."""

    name: str
    kind: str                   # "oltp" | "olap" | "kv"
    read_frac: float            # fraction of row operations that read
    point_frac: float           # of reads: point lookups by key
    scan_frac: float            # of reads: range/full scans
    insert_frac: float          # of writes: inserts (rest update/delete)
    data_gb: float              # total on-disk dataset size
    working_set_frac: float     # hot fraction of the data
    skew: float                 # Zipf-like exponent in [0, 1): 0 = uniform
    threads: int                # client threads / connections
    ops_per_txn: float          # row operations per transaction
    cpu_us_per_op: float        # in-memory CPU cost per operation
    log_bytes_per_txn: float    # redo volume per transaction
    rows_per_op: float          # average rows touched per operation
    sort_frac: float = 0.0      # fraction of queries that sort / use tmp tables

    def __post_init__(self) -> None:
        for field_name in ("read_frac", "point_frac", "scan_frac",
                           "insert_frac", "working_set_frac", "skew",
                           "sort_frac"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if abs(self.point_frac + self.scan_frac - 1.0) > 1e-9 and self.read_frac > 0:
            raise ValueError("point_frac + scan_frac must equal 1")
        if self.kind not in ("oltp", "olap", "kv"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.data_gb <= 0 or self.threads <= 0 or self.ops_per_txn <= 0:
            raise ValueError("sizes/threads/ops must be positive")

    @property
    def write_frac(self) -> float:
        return 1.0 - self.read_frac

    @property
    def working_set_gb(self) -> float:
        return self.data_gb * self.working_set_frac

    def scaled(self, data_gb: float | None = None,
               threads: int | None = None) -> "WorkloadSpec":
        """Variant with a different dataset size or client concurrency."""
        return replace(
            self,
            data_gb=self.data_gb if data_gb is None else data_gb,
            threads=self.threads if threads is None else threads,
        )

    def signature(self) -> Dict[str, float]:
        """Resource-demand fingerprint for workload matching (§5.3).

        The features that drive knob→performance behaviour, each scaled to
        roughly unit range so a plain Euclidean distance is meaningful:
        the read/write mix, access shape, working set, skew and
        concurrency.  Used by the model registry to find the closest
        pre-trained model to warm-start from.
        """
        return {
            "read_frac": self.read_frac,
            "point_frac": self.point_frac,
            "insert_frac": self.insert_frac,
            "working_set_frac": self.working_set_frac,
            "skew": self.skew,
            "sort_frac": self.sort_frac,
            # Sizes and concurrency matter by order of magnitude, not
            # absolutely: log-scale them into a comparable range.
            "log2_data_gb": math.log2(self.data_gb) / 10.0,
            "log2_threads": math.log2(self.threads) / 12.0,
            "log2_ops_per_txn": math.log2(self.ops_per_txn) / 8.0,
        }


def signature_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Euclidean distance between two workload signatures.

    Features missing on either side count as maximally different (1.0),
    so signatures produced by different library versions stay comparable
    instead of silently looking identical.  The sum runs in sorted key
    order: set order follows the per-process string-hash seed, and a
    different summation order can change the last bit of the distance.
    """
    total = 0.0
    for key in sorted(set(a) | set(b)):
        if key in a and key in b:
            total += (float(a[key]) - float(b[key])) ** 2
        else:
            total += 1.0
    return math.sqrt(total)


def sysbench_read_only() -> WorkloadSpec:
    """Sysbench OLTP read-only: point selects + short ranges, zero writes."""
    return WorkloadSpec(
        name="sysbench-ro", kind="oltp",
        read_frac=1.0, point_frac=0.75, scan_frac=0.25, insert_frac=0.0,
        data_gb=8.5, working_set_frac=0.55, skew=0.5,
        threads=1500, ops_per_txn=14.0, cpu_us_per_op=160.0,
        log_bytes_per_txn=0.0, rows_per_op=4.0, sort_frac=0.15,
    )


def sysbench_write_only() -> WorkloadSpec:
    """Sysbench OLTP write-only: index updates, deletes+inserts."""
    return WorkloadSpec(
        name="sysbench-wo", kind="oltp",
        read_frac=0.0, point_frac=1.0, scan_frac=0.0, insert_frac=0.45,
        data_gb=8.5, working_set_frac=0.5, skew=0.5,
        threads=1500, ops_per_txn=4.0, cpu_us_per_op=170.0,
        log_bytes_per_txn=2600.0, rows_per_op=1.2, sort_frac=0.0,
    )


def sysbench_read_write(read_frac: float = 0.7) -> WorkloadSpec:
    """Sysbench OLTP read-write (default 70/30 mix, the classic shape)."""
    if not 0.0 < read_frac < 1.0:
        raise ValueError("read_frac must be strictly between 0 and 1")
    return WorkloadSpec(
        name="sysbench-rw", kind="oltp",
        read_frac=read_frac, point_frac=0.7, scan_frac=0.3, insert_frac=0.35,
        data_gb=8.5, working_set_frac=0.55, skew=0.5,
        threads=1500, ops_per_txn=18.0, cpu_us_per_op=160.0,
        log_bytes_per_txn=2100.0, rows_per_op=3.0, sort_frac=0.12,
    )


def tpcc(warehouses: int = 200) -> WorkloadSpec:
    """TPC-C OLTP: 200 warehouses ≈ 12.8 GB, 32 connections (paper setup)."""
    if warehouses <= 0:
        raise ValueError("warehouses must be positive")
    return WorkloadSpec(
        name="tpcc", kind="oltp",
        read_frac=0.65, point_frac=0.85, scan_frac=0.15, insert_frac=0.55,
        data_gb=0.064 * warehouses, working_set_frac=0.35, skew=0.6,
        threads=32, ops_per_txn=30.0, cpu_us_per_op=180.0,
        log_bytes_per_txn=4200.0, rows_per_op=2.0, sort_frac=0.05,
    )


def tpch(scale_gb: float = 16.0) -> WorkloadSpec:
    """TPC-H OLAP: scan-dominated analytics over ~16 GB."""
    if scale_gb <= 0:
        raise ValueError("scale_gb must be positive")
    return WorkloadSpec(
        name="tpch", kind="olap",
        read_frac=1.0, point_frac=0.05, scan_frac=0.95, insert_frac=0.0,
        data_gb=scale_gb, working_set_frac=0.9, skew=0.1,
        threads=8, ops_per_txn=1.0, cpu_us_per_op=900.0,
        log_bytes_per_txn=0.0, rows_per_op=250000.0, sort_frac=0.7,
    )


def ycsb(data_gb: float = 35.0, read_frac: float = 0.5) -> WorkloadSpec:
    """YCSB key-value: 35 GB, 50 threads, 20 M ops (paper setup)."""
    if data_gb <= 0:
        raise ValueError("data_gb must be positive")
    if not 0.0 <= read_frac <= 1.0:
        raise ValueError("read_frac must be in [0, 1]")
    return WorkloadSpec(
        name="ycsb", kind="kv",
        read_frac=read_frac, point_frac=0.95, scan_frac=0.05, insert_frac=0.1,
        data_gb=data_gb, working_set_frac=0.25, skew=0.85,
        threads=50, ops_per_txn=1.0, cpu_us_per_op=150.0,
        log_bytes_per_txn=1200.0, rows_per_op=1.0, sort_frac=0.0,
    )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        sysbench_read_only(),
        sysbench_write_only(),
        sysbench_read_write(),
        tpcc(),
        tpch(),
        ycsb(),
    )
}


def get_workload(name: str) -> WorkloadSpec:
    """Look up one of the paper's six workloads by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; options: {sorted(WORKLOADS)}"
        ) from None
