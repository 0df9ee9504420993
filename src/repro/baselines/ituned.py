"""iTuned baseline (Duan et al., VLDB 2009) — §6(ii) related work.

iTuned is the pre-OtterTune GP tuner: no workload mapping and no knob
ranking; it initializes with a small latin-hypercube design over the *full*
knob space and then repeatedly picks the configuration maximizing expected
improvement under a GP fit, re-fitting after every experiment.  Comparing
it against OtterTune isolates how much OtterTune's pipeline stages
(mapping + Lasso subspace) actually help.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import (BaseTuner, TuneOutcome, batch_evaluate, performance_score,
                   safe_evaluate)
from .gp import GaussianProcess
from ..dbsim.engine import SimulatedDatabase
from ..dbsim.knobs import KnobRegistry
from ..rl.reward import PerformanceSample

__all__ = ["ITuned"]


def _expected_improvement(mean: np.ndarray, std: np.ndarray,
                          best: float) -> np.ndarray:
    """EI for maximization under a Gaussian posterior."""
    std = np.maximum(std, 1e-12)
    z = (mean - best) / std
    # Φ and φ via erf; scipy-free normal pdf/cdf.
    pdf = np.exp(-0.5 * z ** 2) / np.sqrt(2 * np.pi)
    cdf = 0.5 * (1.0 + _erf(z / np.sqrt(2.0)))
    return (mean - best) * cdf + std * pdf


def _erf(x: np.ndarray) -> np.ndarray:
    # Abramowitz & Stegun 7.1.26, vectorized; |error| < 1.5e-7.
    sign = np.sign(x)
    x = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (
        1.421413741 + t * (-1.453152027 + t * 1.061405429))))
    return sign * (1.0 - poly * np.exp(-x ** 2))


class ITuned(BaseTuner):
    """GP + expected-improvement tuner over the full knob space."""

    name = "iTuned"

    def __init__(self, registry: KnobRegistry, init_samples: int = 10,
                 candidates: int = 300, seed: int = 0,
                 length_scale: float = 0.35) -> None:
        if init_samples < 2:
            raise ValueError("init_samples must be >= 2")
        self.registry = registry
        self.init_samples = int(init_samples)
        self.candidates = int(candidates)
        self.length_scale = float(length_scale)
        self.rng = np.random.default_rng(seed)
        self._trial = 0

    def _lhs(self, n: int, dim: int) -> np.ndarray:
        samples = np.empty((n, dim))
        for j in range(dim):
            perm = self.rng.permutation(n)
            samples[:, j] = (perm + self.rng.random(n)) / n
        return samples

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

        dim = self.registry.n_tunable
        xs: List[np.ndarray] = []
        ys: List[float] = []

        # Phase 1: space-filling initialization.  The whole design is
        # fixed before any result arrives, so it evaluates as one batch
        # (phase 2 refits the GP after every experiment and stays serial).
        n_init = min(self.init_samples, budget)
        rows = self._lhs(n_init, dim)
        configs = [self.registry.from_vector(row) for row in rows]
        trials: List[int] = []
        for _ in configs:
            self._trial += 1
            trials.append(self._trial)
        perfs = batch_evaluate(database, configs, trials)
        for row, config, perf in zip(rows, configs, perfs):
            history.append((config, perf))
            xs.append(row)
            ys.append(-1.0 if perf is None
                      else performance_score(perf, initial))

        # Phase 2: adaptive sampling by expected improvement.
        for _ in range(budget - n_init):
            gp = GaussianProcess(length_scale=self.length_scale)
            gp.fit(np.stack(xs), np.asarray(ys))
            candidates = self.rng.random((self.candidates, dim))
            mean, std = gp.predict(candidates, return_std=True)
            ei = _expected_improvement(mean, std, max(ys))
            pick = candidates[int(np.argmax(ei))]
            self._trial += 1
            config = self.registry.from_vector(pick)
            perf = safe_evaluate(database, config, trial=self._trial)
            history.append((config, perf))
            xs.append(pick)
            ys.append(-1.0 if perf is None
                      else performance_score(perf, initial))

        return self._outcome(database, history, initial)
