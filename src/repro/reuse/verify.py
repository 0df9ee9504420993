"""Staged config verification: cheap exploration, expensive promotion.

Tuning on a compressed mix is only safe if the winning configuration is
re-checked against the traffic it will actually serve.  Following
OnlineTune's promote-only-vetted-candidates discipline,
:class:`ConfigVerifier` takes the candidate configurations a compressed
tuning session produced, promotes the **top-k** by cheap (compressed-mix)
score to a *single* full-mix ``evaluate_many`` batch, and declares the
full-mix winner.  The winner — and only the winner — then faces the
:class:`~repro.service.safety.SafetyGuard` canary, exactly like any other
recommendation.

The cost structure is the point: a session of E evaluations on a
k-of-K-component compressed mix plus a top-k verification batch costs
``E·k + top_k·K`` component stress tests against the full session's
``E·K`` — the ≥2× evaluation saving the reuse benchmark enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .compress import CompressionResult, WorkloadCompressor
from .mix import WorkloadMix
from ..obs import get_metrics, get_tracer
from ..rl.reward import PerformanceSample, performance_score

__all__ = ["CandidateVerdict", "VerificationResult", "ConfigVerifier",
           "staged_tune", "StagedTuneResult"]


@dataclass(frozen=True)
class CandidateVerdict:
    """One promoted candidate's full-mix measurement."""

    config: Dict[str, float]
    cheap_score: float                       # compressed-mix score
    performance: PerformanceSample | None    # None: crashed the full mix
    full_score: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "cheap_score": self.cheap_score,
            "full_score": (None if self.performance is None
                           else self.full_score),
            "throughput": (self.performance.throughput
                           if self.performance else None),
            "latency": (self.performance.latency
                        if self.performance else None),
            "crashed": self.performance is None,
        }


@dataclass
class VerificationResult:
    """Outcome of one staged-verification batch."""

    winner_config: Dict[str, float] | None
    winner_performance: PerformanceSample | None
    candidates: List[CandidateVerdict] = field(default_factory=list)
    considered: int = 0                  # candidates before top-k cut
    promoted: int = 0                    # candidates actually measured
    full_evaluations: int = 0            # mix-level full evaluations spent
    component_evaluations: int = 0       # underlying component stress tests

    @property
    def verified(self) -> bool:
        return self.winner_config is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "winner_throughput": (self.winner_performance.throughput
                                  if self.winner_performance else None),
            "winner_latency": (self.winner_performance.latency
                               if self.winner_performance else None),
            "candidates": [c.to_dict() for c in self.candidates],
            "considered": self.considered,
            "promoted": self.promoted,
            "full_evaluations": self.full_evaluations,
            "component_evaluations": self.component_evaluations,
        }


class ConfigVerifier:
    """Promotes top-k cheap candidates to one full-workload batch.

    ``database`` is the *full* workload's database (a
    :class:`~repro.reuse.mix.MixDatabase` or a plain
    :class:`~repro.dbsim.engine.SimulatedDatabase` — anything with
    ``registry`` and ``evaluate_many``).
    """

    #: Trial reserved for verification stress tests — distinct from the
    #: tuning session's trial sequence and the guard's canary trials, so
    #: verification measurements are reproducible and never collide on a
    #: shared cache.
    VERIFY_TRIAL = 2_000_003

    def __init__(self, database, top_k: int = 3) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.database = database
        self.top_k = int(top_k)

    def verify(self, candidates: Sequence[Tuple[Dict[str, float], float]],
               trial: int | None = None) -> VerificationResult:
        """Measure the top-k of ``(config, cheap_score)`` on the full mix.

        Candidates are deduplicated by quantized configuration (keeping
        each config's best cheap score), ranked by cheap score, and the
        top-k measured in one ``evaluate_many`` batch.  The winner is the
        candidate with the best *full-mix* score; a batch whose every
        promoted candidate crashes yields ``winner_config=None`` and the
        caller falls back to its unverified best.
        """
        registry = self.database.registry
        deduped: Dict[tuple, Tuple[Dict[str, float], float]] = {}
        for config, cheap_score in candidates:
            valid = registry.validate(dict(config))
            key = registry.canonical_items(valid)
            kept = deduped.get(key)
            if kept is None or cheap_score > kept[1]:
                deduped[key] = (valid, float(cheap_score))
        ranked = sorted(deduped.values(), key=lambda item: -item[1])
        promoted = ranked[:self.top_k]

        metrics = get_metrics()
        with get_tracer().span("reuse.verify", considered=len(deduped),
                               promoted=len(promoted)) as span:
            component_before = getattr(self.database,
                                       "component_evaluations", None)
            observations = self.database.evaluate_many(
                [config for config, _ in promoted],
                trials=self.VERIFY_TRIAL if trial is None else int(trial))
            verdicts = [
                CandidateVerdict(config=config, cheap_score=cheap_score,
                                 performance=(obs.performance
                                              if obs is not None else None),
                                 full_score=performance_score(
                                     obs.performance
                                     if obs is not None else None))
                for (config, cheap_score), obs in zip(promoted, observations)
            ]
            winner: CandidateVerdict | None = None
            for verdict in verdicts:
                if verdict.performance is None:
                    continue
                if winner is None or verdict.full_score > winner.full_score:
                    winner = verdict
            if component_before is not None:
                component_spent = (self.database.component_evaluations
                                   - component_before)
            else:
                component_spent = len(promoted)
            result = VerificationResult(
                winner_config=(dict(winner.config)
                               if winner is not None else None),
                winner_performance=(winner.performance
                                    if winner is not None else None),
                candidates=verdicts,
                considered=len(deduped),
                promoted=len(promoted),
                full_evaluations=len(promoted),
                component_evaluations=component_spent)
            span.set_tag("verified", result.verified)
            if winner is not None:
                span.set_tag("winner_throughput",
                             round(winner.performance.throughput, 2))
            metrics.counter("reuse.verifications").inc()
            metrics.counter("reuse.verify_candidates").inc(len(promoted))
            return result


@dataclass
class StagedTuneResult:
    """End-to-end outcome of compress → tune → verify, without the service."""

    compression: CompressionResult
    training: object                     # TrainingResult
    tuning: object                       # TuningResult
    verification: VerificationResult

    @property
    def best_config(self) -> Dict[str, float]:
        """The verified winner, falling back to the compressed-mix best."""
        if self.verification.winner_config is not None:
            return self.verification.winner_config
        return self.tuning.best_config

    @property
    def best_performance(self) -> "PerformanceSample | None":
        """Full-mix performance of the winner (None if nothing verified)."""
        return self.verification.winner_performance


def staged_tune(tuner, hardware, mix: WorkloadMix, *,
                compressor: WorkloadCompressor | None = None,
                train_steps: int = 60, tune_steps: int = 5, top_k: int = 3,
                initial_config: Dict[str, float] | None = None,
                train_kwargs: Dict[str, object] | None = None,
                ) -> StagedTuneResult:
    """Compress, tune on the cheap mix, verify the winners on the full mix.

    The one-call version of the evaluation-economy loop for scripts and
    experiments; the tuning service runs the same stages with auditing
    and the safety guard around them.
    """
    compressor = compressor or WorkloadCompressor()
    compression = compressor.compress(mix)
    training = tuner.offline_train(hardware, compression.mix,
                                   max_steps=train_steps,
                                   **(train_kwargs or {}))
    tuning = tuner.tune(hardware, compression.mix, steps=tune_steps,
                        initial_config=initial_config)
    candidates = [(record.knobs, performance_score(record.performance))
                  for record in tuning.records if not record.crashed]
    candidates.append((tuning.best_config,
                       performance_score(tuning.best)))
    full_db = tuner.make_database(hardware, mix)
    verification = ConfigVerifier(full_db, top_k=top_k).verify(candidates)
    return StagedTuneResult(compression=compression, training=training,
                            tuning=tuning, verification=verification)
