"""Six-way tuner comparison (Figure 9, Table 3, Figures 16–18).

Runs MySQL default, CDB default, BestConfig, DBA, OtterTune and CDBTune on
one (hardware, workload) pair, under the paper's budgets: CDBTune and
OtterTune get their 5/11 online steps, BestConfig 50 search steps, the DBA
a handful of expert trials.  CDBTune is trained offline first (once), like
the paper's pre-trained standard model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from .common import BENCH, Scale, cdb_default_config, format_table
from ..baselines.bestconfig import BestConfig
from ..baselines.dba import DBATuner
from ..baselines.ottertune import OtterTune
from ..core.tuner import CDBTune
from ..dbsim.engine import SimulatedDatabase
from ..dbsim.hardware import HardwareSpec
from ..dbsim.knobs import KnobRegistry
from ..dbsim.mysql_knobs import mysql_registry
from ..dbsim.workload import WorkloadSpec, get_workload
from ..rl.reward import PerformanceSample

__all__ = ["ComparisonResult", "run_comparison", "improvement_table"]

SYSTEMS = ("MySQL-default", "CDB-default", "BestConfig", "DBA",
           "OtterTune", "CDBTune")


@dataclass
class ComparisonResult:
    """Performance of each system on one (hardware, workload) pair."""

    workload: str
    hardware: str
    performance: Dict[str, PerformanceSample] = field(default_factory=dict)
    # Per-system cost accounting: {"wall_s", "evaluations", "cache_hits"}.
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def throughput(self, system: str) -> float:
        return self.performance[system].throughput

    def latency(self, system: str) -> float:
        return self.performance[system].latency

    def improvement_over(self, system: str,
                         reference: str = "CDBTune") -> Tuple[float, float]:
        """(throughput gain, latency drop) of ``reference`` vs ``system``."""
        ref = self.performance[reference]
        other = self.performance[system]
        throughput_gain = (ref.throughput - other.throughput) / max(
            other.throughput, 1e-9)
        latency_drop = (other.latency - ref.latency) / max(other.latency, 1e-9)
        return throughput_gain, latency_drop

    def table(self) -> str:
        rows = [
            (name, self.performance[name].throughput,
             self.performance[name].latency)
            for name in SYSTEMS if name in self.performance
        ]
        return format_table(("system", "throughput", "p99 latency (ms)"), rows)


def run_comparison(hardware: HardwareSpec, workload: WorkloadSpec | str,
                   scale: Scale = BENCH, seed: int = 0,
                   registry: KnobRegistry | None = None,
                   adapter: Mapping[str, str] | None = None,
                   cdbtune: CDBTune | None = None) -> ComparisonResult:
    """Run all six systems; pass a pre-trained ``cdbtune`` to reuse a model.

    ``result.timings`` records what each system cost.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    registry = registry if registry is not None else mysql_registry()
    database = SimulatedDatabase(hardware, workload, registry=registry,
                                 adapter=adapter, seed=seed)
    result = ComparisonResult(workload=workload.name, hardware=hardware.name)

    def _timed(system: str, run):
        tick = time.perf_counter()
        evals, hits = database.evaluations, database.cache_hits
        performance = run()
        result.timings[system] = {
            "wall_s": time.perf_counter() - tick,
            "evaluations": float(database.evaluations - evals),
            "cache_hits": float(database.cache_hits - hits),
        }
        result.performance[system] = performance

    # Reference configurations.
    _timed("MySQL-default", lambda: database.evaluate(
        database.default_config(), trial=1).performance)
    _timed("CDB-default", lambda: database.evaluate(
        cdb_default_config(registry, hardware), trial=2).performance)

    # Search- and rule-based baselines.
    _timed("BestConfig", lambda: BestConfig(
        registry, seed=seed).tune(
            database, budget=scale.bestconfig_budget).best_performance)
    _timed("DBA", lambda: DBATuner(
        registry, adapter=adapter).tune(
            database, budget=6).best_performance)

    # OtterTune: repository of random samples plus DBA experience (§5),
    # mixed at roughly 20:1.
    def _run_ottertune():
        ottertune = OtterTune(registry, seed=seed)
        ottertune.collect_training_data(database, scale.ottertune_samples)
        dba_config = DBATuner(registry, adapter=adapter).recommend(
            hardware, workload)
        ottertune.seed_dba_experience(
            database, dba_config, max(scale.ottertune_samples // 20, 1))
        return ottertune.tune(
            database, budget=scale.ottertune_budget).best_performance
    _timed("OtterTune", _run_ottertune)

    # CDBTune: offline-train once (unless a pre-trained model is
    # supplied), then serve the request in the paper's 5 online steps.
    # It runs against its own databases, so its evaluation counts come
    # from the TrainingResult rather than the shared instance above.
    training_cost: Dict[str, float] = {}

    def _run_cdbtune():
        tuner = cdbtune
        if tuner is None:
            tuner = CDBTune(registry=registry, adapter=adapter, seed=seed)
            training = tuner.offline_train(hardware, workload,
                                           max_steps=scale.train_steps,
                                           probe_every=scale.probe_every,
                                           stop_on_convergence=False)
            counters = training.telemetry.counters
            training_cost["evaluations"] = float(
                counters.get("evaluations", 0))
            training_cost["cache_hits"] = float(
                counters.get("cache_hits", 0))
        return tuner.tune(
            hardware, workload, steps=scale.tune_steps).best
    _timed("CDBTune", _run_cdbtune)
    result.timings["CDBTune"].update(training_cost)
    return result


def improvement_table(results: List[ComparisonResult]) -> str:
    """Table 3: CDBTune's gains over BestConfig, DBA and OtterTune."""
    rows = []
    for result in results:
        row: List[object] = [result.workload]
        for system in ("BestConfig", "DBA", "OtterTune"):
            throughput_gain, latency_drop = result.improvement_over(system)
            row.append(f"+{throughput_gain * 100:.1f}%")
            row.append(f"-{latency_drop * 100:.1f}%")
        rows.append(row)
    return format_table(
        ("workload", "T vs BestConfig", "L vs BestConfig",
         "T vs DBA", "L vs DBA", "T vs OtterTune", "L vs OtterTune"),
        rows)
