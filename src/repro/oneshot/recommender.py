"""Serving wrapper: corpus in, deployable configuration out.

:class:`OneShotRecommender` ties the pieces together — the
:class:`~repro.oneshot.features.FeatureCodec`, the
:class:`~repro.oneshot.model.OneShotModel` and a
:class:`~repro.dbsim.knobs.KnobRegistry` — so callers deal only in
domain objects: fit on a ``HistoryStore.training_corpus()`` product,
predict a *validated physical configuration* (knob names → values inside
the registry's ranges) plus a score estimate, in well under a
millisecond.  The prediction's action vector is also exposed so the
refinement pass can seed the DDPG replay buffer with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .features import FeatureCodec
from .model import FitResult, OneShotModel
from ..obs import get_tracer

__all__ = ["OneShotPrediction", "OneShotRecommender"]


@dataclass(frozen=True)
class OneShotPrediction:
    """One prediction: the config to try, and how much to trust it."""

    config: Dict[str, float]
    action: np.ndarray = field(repr=False)
    predicted_score: float
    latency_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": dict(self.config),
            "predicted_score": self.predicted_score,
            "latency_s": self.latency_s,
        }


def _field(example: object, name: str) -> object:
    """Corpus rows may be dataclasses or plain mappings; read either."""
    if isinstance(example, Mapping):
        return example.get(name)
    return getattr(example, name, None)


class OneShotRecommender:
    """Fit on the tuning corpus; predict configs for unseen tenants."""

    MIN_EXAMPLES = 4

    def __init__(self, registry, hidden: Sequence[int] = (64, 64),
                 seed: int = 0, lr: float = 1e-3,
                 min_examples: int = MIN_EXAMPLES) -> None:
        self.registry = registry
        self.codec = FeatureCodec()
        self.min_examples = int(min_examples)
        self.model = OneShotModel(self.codec.dim, registry.n_tunable,
                                  hidden=hidden, seed=seed, lr=lr)
        self.last_fit: Optional[FitResult] = None

    @property
    def ready(self) -> bool:
        return self.model.fitted

    # -- training ----------------------------------------------------------
    def fit_corpus(self, corpus: Sequence[object], epochs: int = 200,
                   batch_size: int = 16) -> FitResult:
        """Train on ``(signature, hardware, metrics, config, score)`` rows.

        Rows whose configuration cannot be expressed in this registry's
        action space are skipped rather than poisoning the fit; raises
        ``ValueError`` if fewer than ``min_examples`` usable rows remain.
        """
        features: List[np.ndarray] = []
        actions: List[np.ndarray] = []
        scores: List[float] = []
        for example in corpus:
            signature = _field(example, "signature") or {}
            config = _field(example, "config")
            if not signature or not config:
                continue
            try:
                action = self.registry.to_vector(
                    self.registry.validate(dict(config)), strict=False)
            except (KeyError, TypeError, ValueError):
                continue
            features.append(self.codec.encode(
                signature,
                _field(example, "hardware"),
                _field(example, "metrics"),
            ))
            actions.append(np.clip(action, 0.0, 1.0))
            scores.append(float(_field(example, "score") or 0.0))
        if len(features) < self.min_examples:
            raise ValueError(
                f"training corpus too small: {len(features)} usable "
                f"examples, need at least {self.min_examples}"
            )
        self.last_fit = self.model.fit(
            np.stack(features), np.stack(actions), scores,
            epochs=epochs, batch_size=batch_size)
        return self.last_fit

    @classmethod
    def from_history(cls, history, registry,
                     **kwargs) -> Tuple["OneShotRecommender", FitResult]:
        """Build and fit a recommender from ``history.training_corpus()``."""
        fit_kwargs = {k: kwargs.pop(k) for k in ("epochs", "batch_size")
                      if k in kwargs}
        recommender = cls(registry, **kwargs)
        result = recommender.fit_corpus(history.training_corpus(),
                                        **fit_kwargs)
        return recommender, result

    # -- inference ---------------------------------------------------------
    def predict(self, signature: Mapping[str, float],
                hardware: object = None,
                metrics: Optional[Sequence[float]] = None,
                base_config: Optional[Mapping[str, float]] = None,
                ) -> OneShotPrediction:
        """Predict a validated physical configuration for one tenant."""
        with get_tracer().span("oneshot.predict") as span:
            vec = self.codec.encode(signature, hardware, metrics)
            action, score = self.model.predict(vec)
            config = self.registry.validate(
                self.registry.from_vector(action, base=base_config))
        return OneShotPrediction(
            config=config,
            action=action,
            predicted_score=score,
            latency_s=span.wall_s,
        )

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        self.model.save(path)

    @classmethod
    def load(cls, path: str, registry, **kwargs) -> "OneShotRecommender":
        recommender = cls(registry, **kwargs)
        model = OneShotModel.load(path)
        if model.out_dim != registry.n_tunable:
            raise ValueError(
                f"checkpoint predicts {model.out_dim} knobs but registry "
                f"has {registry.n_tunable} tunable knobs"
            )
        recommender.model = model
        return recommender
