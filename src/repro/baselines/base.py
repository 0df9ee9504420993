"""Common interface for all tuning baselines.

Every tuner — CDBTune itself, OtterTune, BestConfig, the DBA rules, random
search — consumes the same black box: ``database.evaluate(config)``.  A
:class:`TuneOutcome` records what each found and how many stress tests it
spent, which is what the §5.1 efficiency comparison is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..dbsim.engine import SimulatedDatabase
from ..dbsim.errors import DatabaseCrashError
from ..rl.reward import PerformanceSample

__all__ = ["TuneOutcome", "BaseTuner", "performance_score", "safe_evaluate",
           "batch_evaluate"]


def performance_score(perf: PerformanceSample, baseline: PerformanceSample,
                      c_throughput: float = 0.5, c_latency: float = 0.5) -> float:
    """Scalar quality of a configuration relative to a baseline.

    Mirrors the Eq. 7 weighting: relative throughput gain plus relative
    latency drop.  Used by search baselines to rank configurations.
    """
    throughput_gain = (perf.throughput - baseline.throughput) / max(
        baseline.throughput, 1e-9)
    latency_gain = (baseline.latency - perf.latency) / max(
        baseline.latency, 1e-9)
    return c_throughput * throughput_gain + c_latency * latency_gain


def safe_evaluate(database: SimulatedDatabase, config: Dict[str, float],
                  trial: int = 0) -> PerformanceSample | None:
    """Evaluate a config, returning None when the instance crashes."""
    try:
        return database.evaluate(config, trial=trial).performance
    except DatabaseCrashError:
        return None


def batch_evaluate(database: SimulatedDatabase,
                   configs: Sequence[Dict[str, float]],
                   trials: Sequence[int],
                   ) -> List[PerformanceSample | None]:
    """Evaluate several configs in order; ``None`` marks a crash.

    One vectorized :meth:`~repro.dbsim.engine.SimulatedDatabase
    .evaluate_many` pass, with the same samples, cache state and counters
    as evaluating the configs one by one.
    """
    observations = database.evaluate_many(configs, trials=list(trials))
    return [obs.performance if obs is not None else None
            for obs in observations]


@dataclass
class TuneOutcome:
    """What a tuner recommended for one request."""

    name: str
    best_config: Dict[str, float]
    best_performance: PerformanceSample
    initial_performance: PerformanceSample
    evaluations: int
    history: List[Tuple[Dict[str, float], PerformanceSample | None]] = field(
        default_factory=list)

    @property
    def throughput_improvement(self) -> float:
        return (self.best_performance.throughput
                - self.initial_performance.throughput) / max(
                    self.initial_performance.throughput, 1e-9)

    @property
    def latency_improvement(self) -> float:
        return (self.initial_performance.latency
                - self.best_performance.latency) / max(
                    self.initial_performance.latency, 1e-9)


class BaseTuner:
    """Interface: recommend a configuration for a database instance."""

    name = "base"

    def tune(self, database: SimulatedDatabase, budget: int) -> TuneOutcome:
        """Spend at most ``budget`` stress tests and return the best found."""
        raise NotImplementedError

    def _outcome(self, database: SimulatedDatabase,
                 history: List[Tuple[Dict[str, float], PerformanceSample | None]],
                 initial: PerformanceSample) -> TuneOutcome:
        """Assemble the outcome from an evaluation history."""
        best_config = database.default_config()
        best_perf = initial
        best_score = 0.0
        for config, perf in history:
            if perf is None:
                continue
            score = performance_score(perf, initial)
            if score > best_score:
                best_score = score
                best_config = config
                best_perf = perf
        return TuneOutcome(
            name=self.name, best_config=best_config,
            best_performance=best_perf, initial_performance=initial,
            evaluations=len(history), history=history)
