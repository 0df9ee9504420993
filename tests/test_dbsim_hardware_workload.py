"""Tests for hardware specs (Table 1) and workload specs."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.dbsim import (
    CDB_A,
    CDB_B,
    CDB_C,
    CDB_D,
    CDB_E,
    DISK_MEDIA,
    INSTANCES,
    HardwareSpec,
    WORKLOADS,
    cdb_x1,
    cdb_x2,
    get_workload,
    sysbench_read_write,
    tpcc,
    tpch,
    ycsb,
)


class TestHardware:
    def test_table1_instances(self):
        # Table 1 of the paper.
        assert (CDB_A.ram_gb, CDB_A.disk_gb) == (8, 100)
        assert (CDB_B.ram_gb, CDB_B.disk_gb) == (12, 100)
        assert (CDB_C.ram_gb, CDB_C.disk_gb) == (12, 200)
        assert (CDB_D.ram_gb, CDB_D.disk_gb) == (16, 200)
        assert (CDB_E.ram_gb, CDB_E.disk_gb) == (32, 300)
        assert len(INSTANCES) == 5

    def test_x1_family_varies_ram_only(self):
        for ram in (4, 12, 32, 64, 128):
            spec = cdb_x1(ram)
            assert spec.ram_gb == ram
            assert spec.disk_gb == 100

    def test_x2_family_varies_disk_only(self):
        for disk in (32, 64, 100, 256, 512):
            spec = cdb_x2(disk)
            assert spec.disk_gb == disk
            assert spec.ram_gb == 12

    def test_with_ram_and_disk_builders(self):
        spec = CDB_A.with_ram(64)
        assert spec.ram_gb == 64 and spec.disk_gb == CDB_A.disk_gb
        spec = CDB_C.with_disk(512)
        assert spec.disk_gb == 512 and spec.ram_gb == CDB_C.ram_gb

    def test_media_ordering(self):
        # NVM < local SSD < cloud SSD < HDD in latency; reverse in IOPS.
        latencies = [DISK_MEDIA[m].read_latency_ms
                     for m in ("nvm", "local-ssd", "cloud-ssd", "hdd")]
        assert latencies == sorted(latencies)
        iops = [DISK_MEDIA[m].iops
                for m in ("hdd", "cloud-ssd", "local-ssd", "nvm")]
        assert iops == sorted(iops)

    def test_disk_property(self):
        assert CDB_A.disk is DISK_MEDIA["cloud-ssd"]

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            HardwareSpec("bad", ram_gb=-1, disk_gb=10)


class TestWorkloads:
    def test_six_paper_workloads(self):
        assert set(WORKLOADS) == {"sysbench-ro", "sysbench-wo", "sysbench-rw",
                                  "tpcc", "tpch", "ycsb"}

    def test_read_write_fractions(self):
        assert get_workload("sysbench-ro").read_frac == 1.0
        assert get_workload("sysbench-wo").write_frac == 1.0
        rw = get_workload("sysbench-rw")
        assert 0.0 < rw.read_frac < 1.0

    def test_paper_sizings(self):
        # §5 Workload: Sysbench ≈ 8.5 GB @ 1500 threads; TPC-C 200
        # warehouses ≈ 12.8 GB @ 32 connections; TPC-H ≈ 16 GB;
        # YCSB 35 GB @ 50 threads.
        assert get_workload("sysbench-rw").data_gb == pytest.approx(8.5)
        assert get_workload("sysbench-rw").threads == 1500
        assert get_workload("tpcc").data_gb == pytest.approx(12.8)
        assert get_workload("tpcc").threads == 32
        assert get_workload("tpch").data_gb == pytest.approx(16.0)
        assert get_workload("ycsb").data_gb == pytest.approx(35.0)
        assert get_workload("ycsb").threads == 50

    def test_olap_is_scan_dominated(self):
        olap = get_workload("tpch")
        assert olap.scan_frac > 0.9
        assert olap.kind == "olap"
        assert olap.write_frac == 0.0

    def test_scaled_variant(self):
        big = sysbench_read_write().scaled(data_gb=20.0, threads=64)
        assert big.data_gb == 20.0
        assert big.threads == 64
        assert big.read_frac == sysbench_read_write().read_frac

    def test_factories_validate(self):
        with pytest.raises(ValueError):
            tpcc(warehouses=0)
        with pytest.raises(ValueError):
            tpch(scale_gb=-1)
        with pytest.raises(ValueError):
            ycsb(read_frac=2.0)
        with pytest.raises(ValueError):
            sysbench_read_write(read_frac=1.0)
        with pytest.raises(ValueError):
            get_workload("nope")

    def test_working_set_consistency(self):
        for workload in WORKLOADS.values():
            assert 0 < workload.working_set_gb <= workload.data_gb


# Distances of 2- and 3-way mixes of the named workloads to tpcc, printed
# as reprs so that a last-bit difference shows.
_DISTANCES_SCRIPT = """
import itertools, random
from repro.dbsim.workload import WORKLOADS, signature_distance
from repro.reuse.mix import WorkloadMix
rng = random.Random(5)
names = sorted(WORKLOADS)
target = WORKLOADS["tpcc"].signature()
parts = (list(itertools.combinations(names, 2))
         + list(itertools.combinations(names, 3)))
for part in parts:
    mix = WorkloadMix.weighted(
        "mix", [(WORKLOADS[p], rng.uniform(0.2, 1.0)) for p in part])
    print(repr(signature_distance(mix.signature(), target)))
"""


def test_signature_distance_does_not_depend_on_hash_seed():
    """Set iteration order follows PYTHONHASHSEED; the distance must not."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", _DISTANCES_SCRIPT],
                                capture_output=True, text=True, env=env,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("\n") == 35
    assert outputs[0] == outputs[1]
