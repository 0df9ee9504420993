"""OtterTune baseline (Van Aken et al., SIGMOD 2017) — the paper's main
learning-based comparator.

The pipelined model the paper critiques, reproduced stage by stage:

1. **Training repository** — historical ⟨config, metrics, performance⟩
   samples per workload, optionally seeded with "DBA experience" data
   (§5: OtterTune gets the DBA's tuning data at a 1:20 ratio on top of the
   same samples CDBTune collects).
2. **Workload mapping** — match the target workload to the most similar
   repository workload by Euclidean distance over normalized metrics.
3. **Knob ranking** — Lasso path over the mapped workload's samples.
4. **Recommendation** — GP regression over the top-k knobs; next config by
   UCB + gradient ascent; repeat for the request's step budget.

Being a pipeline of separately-optimized stages over regression is exactly
what limits it in high-dimensional spaces (Figures 6–7): with many knobs
the GP's effective length scale collapses and recommendations degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .base import BaseTuner, TuneOutcome, performance_score, safe_evaluate
from .gp import GaussianProcess
from .lasso import lasso_rank_knobs
from ..dbsim.engine import SimulatedDatabase
from ..dbsim.knobs import KnobRegistry
from ..rl.reward import PerformanceSample

__all__ = ["WorkloadRepository", "OtterTune"]


@dataclass
class _WorkloadData:
    configs: List[np.ndarray] = field(default_factory=list)   # unit vectors
    metrics: List[np.ndarray] = field(default_factory=list)   # 63-dim states
    scores: List[float] = field(default_factory=list)          # Eq.7-style


class WorkloadRepository:
    """OtterTune's historical sample store, keyed by workload label."""

    def __init__(self, registry: KnobRegistry) -> None:
        self.registry = registry
        self._data: Dict[str, _WorkloadData] = {}

    def add(self, workload: str, config_vector: np.ndarray,
            metrics: np.ndarray, score: float) -> None:
        bucket = self._data.setdefault(workload, _WorkloadData())
        bucket.configs.append(np.asarray(config_vector, dtype=np.float64))
        bucket.metrics.append(np.asarray(metrics, dtype=np.float64))
        bucket.scores.append(float(score))

    def workloads(self) -> List[str]:
        return sorted(self._data)

    def size(self, workload: str) -> int:
        return len(self._data.get(workload, _WorkloadData()).configs)

    def samples(self, workload: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        bucket = self._data[workload]
        return (np.stack(bucket.configs), np.stack(bucket.metrics),
                np.asarray(bucket.scores))

    def map_workload(self, metrics: np.ndarray) -> str | None:
        """Nearest repository workload by normalized metric distance."""
        if not self._data:
            return None
        target = np.asarray(metrics, dtype=np.float64)
        best_name = None
        best_distance = np.inf
        all_metrics = np.concatenate(
            [np.stack(b.metrics) for b in self._data.values()])
        scale = all_metrics.std(axis=0)
        scale[scale == 0.0] = 1.0
        for name, bucket in self._data.items():
            centroid = np.stack(bucket.metrics).mean(axis=0)
            distance = float(np.linalg.norm((centroid - target) / scale))
            if distance < best_distance:
                best_distance = distance
                best_name = name
        return best_name


class OtterTune(BaseTuner):
    """The full OtterTune pipeline as a black-box tuner."""

    name = "OtterTune"

    def __init__(self, registry: KnobRegistry, top_knobs: int = 10,
                 observation_budget: int = 30, seed: int = 0,
                 length_scale: float = 0.3) -> None:
        if top_knobs <= 0:
            raise ValueError("top_knobs must be positive")
        self.registry = registry
        self.top_knobs = int(top_knobs)
        self.observation_budget = int(observation_budget)
        self.length_scale = float(length_scale)
        self.rng = np.random.default_rng(seed)
        self.repository = WorkloadRepository(registry)
        self._trial = 0

    # -- repository building -------------------------------------------------
    def collect_training_data(self, database: SimulatedDatabase,
                              n_samples: int,
                              workload_label: str | None = None) -> None:
        """Populate the repository with random-config observations."""
        label = workload_label or database.workload.name
        baseline = safe_evaluate(database, database.default_config(),
                                 trial=self._next_trial())
        if baseline is None:
            raise RuntimeError("default configuration crashed the database")
        # The samples are random draws, independent of one another: draw
        # the whole plan first, then evaluate (as one batch if possible).
        configs = [self.registry.random_config(self.rng)
                   for _ in range(n_samples)]
        trials = [self._next_trial() for _ in configs]
        observations = database.evaluate_many(configs, trials=trials)
        for config, obs in zip(configs, observations):
            if obs is None:
                continue  # crashed samples carry no metrics
            vector = self.registry.to_vector(config)
            score = performance_score(obs.performance, baseline)
            self.repository.add(label, vector, obs.metrics, score)

    def seed_dba_experience(self, database: SimulatedDatabase,
                            dba_config: Dict[str, float], n_samples: int,
                            workload_label: str | None = None) -> None:
        """Add DBA-experience samples: jittered variants of an expert config
        (§5 'DBA Data', mixed ~1:20 with collected samples)."""
        label = workload_label or database.workload.name
        baseline = safe_evaluate(database, database.default_config(),
                                 trial=self._next_trial())
        if baseline is None:
            raise RuntimeError("default configuration crashed the database")
        base_vector = self.registry.to_vector(dba_config, strict=False)
        for _ in range(n_samples):
            vector = np.clip(
                base_vector + 0.05 * self.rng.standard_normal(base_vector.size),
                0.0, 1.0)
            config = self.registry.from_vector(vector)
            perf = safe_evaluate(database, config, trial=self._next_trial())
            if perf is None:
                continue
            obs = database.evaluate(config, trial=self._trial)
            self.repository.add(label, vector, obs.metrics,
                                performance_score(perf, baseline))

    # -- knob ranking ---------------------------------------------------------
    def rank_knobs(self, workload: str) -> List[str]:
        """Lasso-path importance ranking over a workload's samples."""
        configs, _metrics, scores = self.repository.samples(workload)
        return lasso_rank_knobs(configs, scores, self.registry.tunable_names)

    # -- tuning ------------------------------------------------------------------
    def tune(self, database: SimulatedDatabase, budget: int = 11) -> TuneOutcome:
        """Serve a tuning request with ``budget`` stress tests."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        history: List[Tuple[Dict[str, float], PerformanceSample | None]] = []
        initial_obs = database.evaluate(database.default_config(),
                                        trial=self._next_trial())
        initial = initial_obs.performance

        mapped = self.repository.map_workload(initial_obs.metrics)
        if mapped is not None and self.repository.size(mapped) >= 5:
            ranked = self.rank_knobs(mapped)
            x_all, _m, y_all = self.repository.samples(mapped)
        else:
            ranked = list(self.registry.tunable_names)
            x_all = np.empty((0, self.registry.n_tunable))
            y_all = np.empty(0)

        top = ranked[: self.top_knobs]
        top_idx = [self.registry.tunable_names.index(n) for n in top]

        # GP over the top-k knob subspace, seeded from the repository.
        xs = list(x_all[:, top_idx]) if x_all.size else []
        ys = list(y_all) if y_all.size else []
        default_vector = self.registry.to_vector(database.default_config(),
                                                 strict=False)

        for _ in range(budget):
            if len(xs) >= 3:
                gp = GaussianProcess(length_scale=self.length_scale)
                gp.fit(np.stack(xs), np.asarray(ys))
                suggestion = gp.suggest(self.rng, len(top_idx))
            else:
                suggestion = self.rng.random(len(top_idx))
            vector = default_vector.copy()
            vector[top_idx] = suggestion
            config = self.registry.from_vector(vector)
            perf = safe_evaluate(database, config, trial=self._next_trial())
            history.append((config, perf))
            if perf is None:
                score = -1.0  # crashed configs are strongly undesirable
            else:
                score = performance_score(perf, initial)
            xs.append(suggestion)
            ys.append(score)

        return self._outcome(database, history, initial)

    def _next_trial(self) -> int:
        self._trial += 1
        return self._trial
