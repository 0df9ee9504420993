"""BestConfig baseline (Zhu et al., SoCC 2017) — the search-based comparator.

Divide-and-Diverge Sampling (DDS) + Recursive Bound-and-Search (RBS):

* DDS: partition each knob's range into ``k`` intervals and draw a
  latin-hypercube-style sample so the k samples jointly cover every
  interval of every knob once.
* RBS: around the best sample found, bound a smaller subspace (the
  neighboring intervals) and recurse with a fresh DDS round inside it.

Crucially, BestConfig *restarts from scratch for every tuning request* —
the paper's core criticism — so the tuner carries no state between calls.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .base import (BaseTuner, TuneOutcome, batch_evaluate, performance_score,
                   safe_evaluate)

from ..dbsim.engine import SimulatedDatabase
from ..dbsim.knobs import KnobRegistry
from ..rl.reward import PerformanceSample

__all__ = ["BestConfig"]


class BestConfig(BaseTuner):
    """DDS + RBS search over the normalized knob space."""

    name = "BestConfig"

    def __init__(self, registry: KnobRegistry, samples_per_round: int = 10,
                 seed: int = 0) -> None:
        if samples_per_round < 2:
            raise ValueError("samples_per_round must be >= 2")
        self.registry = registry
        self.samples_per_round = int(samples_per_round)
        self.seed = int(seed)
        self._trial = 0

    def _dds(self, rng: np.random.Generator, low: np.ndarray,
             high: np.ndarray, k: int) -> np.ndarray:
        """Divide-and-diverge: one sample per interval per dimension,
        with interval assignment permuted independently per dimension."""
        dim = low.size
        samples = np.empty((k, dim))
        for j in range(dim):
            perm = rng.permutation(k)
            offsets = rng.random(k)
            width = (high[j] - low[j]) / k
            samples[:, j] = low[j] + (perm + offsets) * width
        return np.clip(samples, 0.0, 1.0)

    def tune(self, database: SimulatedDatabase,
             budget: int = 50) -> TuneOutcome:
        """Search with a total stress-test budget (paper gives it 50 steps)."""
        if budget <= 0:
            raise ValueError("budget must be positive")
        # Fresh RNG per request: BestConfig does not learn across requests.
        rng = np.random.default_rng(self.seed + self._trial)
        history: List[Tuple[Dict[str, float], PerformanceSample | None]] = []
        initial = safe_evaluate(database, database.default_config(),
                                trial=self._next_trial())
        if initial is None:
            raise RuntimeError("default configuration crashed the database")

        dim = self.registry.n_tunable
        low = np.zeros(dim)
        high = np.ones(dim)
        best_vector = self.registry.to_vector(database.default_config())
        best_score = 0.0
        spent = 0

        while spent < budget:
            k = min(self.samples_per_round, budget - spent)
            samples = self._dds(rng, low, high, k)
            round_best_vector = None
            round_best_score = -np.inf
            # A DDS round's samples are independent of one another — the
            # search only adapts *between* rounds — so evaluate the round
            # as one batch.
            configs = [self.registry.from_vector(row) for row in samples]
            trials = [self._next_trial() for _ in configs]
            perfs = batch_evaluate(database, configs, trials)
            for row, config, perf in zip(samples, configs, perfs):
                history.append((config, perf))
                spent += 1
                score = (-1.0 if perf is None
                         else performance_score(perf, initial))
                if score > round_best_score:
                    round_best_score = score
                    round_best_vector = row
            if round_best_vector is not None and round_best_score > best_score:
                best_score = round_best_score
                best_vector = round_best_vector
                # Bound the subspace around the new best (RBS).
                span = (high - low) / 2.0
                low = np.clip(best_vector - span / 2.0, 0.0, 1.0)
                high = np.clip(best_vector + span / 2.0, 0.0, 1.0)
            else:
                # Diverge: restart the sampling space to escape the bound.
                low = np.zeros(dim)
                high = np.ones(dim)

        return self._outcome(database, history, initial)

    def _next_trial(self) -> int:
        self._trial += 1
        return self._trial
