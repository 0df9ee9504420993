"""Random search baseline — the floor any learned tuner must clear."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import BaseTuner, TuneOutcome, batch_evaluate, safe_evaluate
from ..dbsim.engine import SimulatedDatabase
from ..dbsim.knobs import KnobRegistry
from ..rl.reward import PerformanceSample

__all__ = ["RandomSearch"]


class RandomSearch(BaseTuner):
    """Uniform random sampling of the knob space; keep the best."""

    name = "RandomSearch"

    def __init__(self, registry: KnobRegistry, seed: int = 0) -> None:
        self.registry = registry
        self.rng = np.random.default_rng(seed)
        self._trial = 0

    def tune(self, database: SimulatedDatabase,
             budget: int = 20) -> TuneOutcome:
        if budget <= 0:
            raise ValueError("budget must be positive")
        history: List[Tuple[dict, PerformanceSample | None]] = []
        self._trial += 1
        initial = safe_evaluate(database, database.default_config(),
                                trial=self._trial)
        if initial is None:
            raise RuntimeError("default configuration crashed the database")
        # All draws are independent of the outcomes, so the whole budget
        # can be generated up front and evaluated as one batch.
        configs: List[dict] = []
        trials: List[int] = []
        for _ in range(budget):
            self._trial += 1
            configs.append(self.registry.random_config(self.rng))
            trials.append(self._trial)
        history.extend(zip(configs,
                           batch_evaluate(database, configs, trials)))
        return self._outcome(database, history, initial)
