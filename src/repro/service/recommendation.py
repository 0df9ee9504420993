"""Structured recommendation objects for the versioned service API.

OnlineTune-style staged trust needs the API to say not just *what*
configuration to apply but *how it was produced*: a one-shot prediction
deserves different scrutiny than a fully refined, canary-verified
result.  :class:`Recommendation` carries that provenance:

``source``
    ``"oneshot"`` — predicted by the corpus-trained recommender, no
    per-tenant search behind it; ``"warm"`` / ``"cold"`` — produced by a
    warm- or cold-started RL session; ``"refined"`` — a one-shot
    prediction improved upon by the refinement pass.
``trials_used``
    Stress-test evaluations spent producing it (0 for a pure one-shot).
``predicted_reward``
    The recommender's own score estimate, when one exists.
``verified``
    Whether the config was measured on the tenant's full workload (staged
    verification or an accepted canary) rather than merely predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

__all__ = ["Recommendation", "SOURCES"]

#: Valid provenance labels, in increasing order of effort spent.
SOURCES = ("oneshot", "warm", "cold", "refined")


@dataclass(frozen=True)
class Recommendation:
    """One configuration recommendation plus its provenance."""

    config: Dict[str, float]
    source: str
    trials_used: int = 0
    predicted_reward: Optional[float] = None
    verified: bool = False

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(
                f"unknown recommendation source {self.source!r}; "
                f"expected one of {SOURCES}"
            )
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "trials_used", int(self.trials_used))
        if self.trials_used < 0:
            raise ValueError("trials_used must be >= 0")

    def with_verified(self, verified: bool = True) -> "Recommendation":
        return replace(self, verified=bool(verified))

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": dict(self.config),
            "source": self.source,
            "trials_used": self.trials_used,
            "predicted_reward": self.predicted_reward,
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Recommendation":
        predicted = data.get("predicted_reward")
        return cls(
            config={str(k): float(v)  # type: ignore[arg-type]
                    for k, v in (data.get("config") or {}).items()},  # type: ignore[union-attr]
            source=str(data["source"]),
            trials_used=int(data.get("trials_used", 0)),  # type: ignore[arg-type]
            predicted_reward=(float(predicted)  # type: ignore[arg-type]
                              if predicted is not None else None),
            verified=bool(data.get("verified", False)),
        )

