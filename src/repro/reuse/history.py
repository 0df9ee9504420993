"""Tuning-history reuse: mine past sessions, bootstrap new ones.

The service already persists every session twice — the audit log's JSONL
stream (``session-report`` events carry the full per-step evaluation
records) and the model registry's index (best configs in entry metadata).
Following E2ETune's observation that accumulated tuning history encodes a
direct workload→configuration mapping, :class:`HistoryStore` mines both
into flat ``(signature, config, performance, reward)`` records and serves
two bootstrap products for a new session:

* :meth:`probe_seeds` — the best configurations tried on the
  nearest-signature workloads, as normalized action vectors that replace
  the first latin-hypercube warmup probes (the session measures known-good
  regions instead of uniform noise);
* :meth:`replay_seeds` — ``(action, reward)`` pairs that pre-fill the
  DDPG replay buffer, so the critic starts with a ranking over actions
  instead of an empty memory (crashed configs are included: the crash
  penalty is exactly the signal that keeps the policy out of the §5.2.3
  crash region);
* :meth:`training_corpus` — one ``(signature, hardware, metrics) → best
  config`` example per finished session, the supervised training set the
  one-shot recommender (:mod:`repro.oneshot`) learns the direct
  workload→configuration mapping from.

All are free — no stress test runs until the session itself evaluates.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..dbsim.knobs import KnobRegistry
from ..dbsim.workload import WORKLOADS, signature_distance
from ..obs import get_logger, get_tracer

__all__ = ["CorpusExample", "HistoryRecord", "HistoryStore"]

logger = get_logger(__name__)


def _score(throughput: float | None, latency: float | None) -> float:
    """The pipeline's selection score: throughput / latency^0.25."""
    if throughput is None or latency is None:
        return -np.inf
    return float(throughput) / max(float(latency), 1e-9) ** 0.25


@dataclass(frozen=True)
class HistoryRecord:
    """One past evaluation: what workload, what config, what happened."""

    signature: Dict[str, float]
    config: Dict[str, float]
    reward: float | None = None
    throughput: float | None = None
    latency: float | None = None
    crashed: bool = False
    source: str = ""                 # "audit:<session>" | "registry:<model>"
    tenant: str | None = None
    workload: str | None = None
    metrics: Tuple[float, ...] | None = None  # 63-metric state, when known
    hardware: str | None = None      # instance name, when known

    @property
    def score(self) -> float:
        return _score(self.throughput, self.latency)

    def to_dict(self) -> Dict[str, object]:
        return {
            "signature": dict(self.signature),
            "config": dict(self.config),
            "reward": self.reward,
            "throughput": self.throughput,
            "latency": self.latency,
            "crashed": self.crashed,
            "source": self.source,
            "tenant": self.tenant,
            "workload": self.workload,
            "metrics": list(self.metrics) if self.metrics is not None else None,
            "hardware": self.hardware,
        }


@dataclass(frozen=True)
class CorpusExample:
    """One supervised training example: best known config for a tenant.

    The input side mirrors what a new tenant can present *before* any
    tuning — its workload signature, hardware name, and (optionally) the
    internal-metric state observed under the incumbent configuration.
    The target is the best non-crashed configuration the fleet ever
    found for that tenant, with its achieved score as the reward label.
    """

    signature: Dict[str, float]
    config: Dict[str, float]
    score: float
    hardware: str | None = None
    metrics: Tuple[float, ...] | None = None
    source: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "signature": dict(self.signature),
            "config": dict(self.config),
            "score": self.score,
            "hardware": self.hardware,
            "metrics": list(self.metrics) if self.metrics is not None else None,
            "source": self.source,
        }


def _iter_events(source) -> Iterable[Mapping[str, object]]:
    """Audit events from a JSONL path, an AuditLog, or a record list."""
    if isinstance(source, (str, os.PathLike)):
        with open(os.fspath(source), "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)
    elif hasattr(source, "events"):     # duck-typed AuditLog
        yield from source.events()
    else:
        yield from source


class HistoryStore:
    """Flat, signature-indexed corpus of past tuning evaluations."""

    def __init__(self, records: Sequence[HistoryRecord] = ()) -> None:
        self._records: List[HistoryRecord] = list(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def add(self, record: HistoryRecord) -> None:
        self._records.append(record)

    def records(self) -> List[HistoryRecord]:
        return list(self._records)

    # -- mining ------------------------------------------------------------
    @classmethod
    def from_audit(cls, source,
                   max_records_per_session: int | None = None,
                   ) -> "HistoryStore":
        """Mine an audit stream (path / AuditLog / event list).

        ``queued`` events supply the workload signature per session (the
        service stamps it at submit time); ``session-report`` events
        supply the per-step evaluation records.  Sessions whose ``queued``
        event predates signature stamping fall back to the named standard
        workload's signature, or are skipped with a warning.
        """
        store = cls()
        store.extend_from_audit(
            source, max_records_per_session=max_records_per_session)
        return store

    def extend_from_audit(self, source,
                          max_records_per_session: int | None = None) -> int:
        """Append records mined from ``source``; returns how many."""
        events = list(_iter_events(source))
        signatures: Dict[str, Dict[str, float]] = {}
        hardware_names: Dict[str, str] = {}
        metrics_by_session: Dict[str, Tuple[float, ...]] = {}
        for event in events:
            session = str(event.get("session"))
            if event.get("event") == "queued":
                if "signature" in event:
                    signatures[session] = {
                        str(k): float(v)
                        for k, v in event["signature"].items()}  # type: ignore[union-attr]
                if event.get("hardware"):
                    hardware_names[session] = str(event["hardware"])
            # One-shot sessions record the incumbent's internal-metric
            # state (the prediction input); keep it as corpus context.
            elif event.get("event") == "oneshot-predicted" \
                    and event.get("metrics"):
                try:
                    metrics_by_session[session] = tuple(
                        float(v) for v in event["metrics"])  # type: ignore[union-attr]
                except (TypeError, ValueError):
                    pass
        added = 0
        for event in events:
            if event.get("event") != "session-report":
                continue
            session = str(event.get("session"))
            report = event.get("report") or {}
            tuning = report.get("tuning")  # type: ignore[union-attr]
            if not tuning:
                continue
            signature = signatures.get(session)
            if signature is None:
                name = report.get("workload")  # type: ignore[union-attr]
                spec = WORKLOADS.get(str(name))
                if spec is None:
                    logger.warning(
                        "history: session %s has no signature and unknown "
                        "workload %r; skipped", session, name)
                    continue
                signature = spec.signature()
            records = tuning.get("records") or []
            if max_records_per_session is not None:
                records = records[:max_records_per_session]
            for raw in records:
                self.add(HistoryRecord(
                    signature=signature,
                    config={str(k): float(v)
                            for k, v in (raw.get("knobs") or {}).items()},
                    reward=raw.get("reward"),
                    throughput=raw.get("throughput"),
                    latency=raw.get("latency"),
                    crashed=bool(raw.get("crashed", False)),
                    source=f"audit:{session}",
                    tenant=report.get("tenant"),  # type: ignore[union-attr]
                    workload=report.get("workload"),  # type: ignore[union-attr]
                    metrics=metrics_by_session.get(session),
                    hardware=hardware_names.get(session),
                ))
                added += 1
        return added

    @classmethod
    def from_registry(cls, registry) -> "HistoryStore":
        """Mine a :class:`~repro.service.registry.ModelRegistry`.

        Only entries whose metadata carries a ``best_config`` (the service
        stamps it at registration) yield records — the checkpoint itself
        holds weights, not configurations.
        """
        store = cls()
        for entry in registry.entries():
            best_config = entry.metadata.get("best_config")
            if not isinstance(best_config, Mapping):
                continue
            store.add(HistoryRecord(
                signature={str(k): float(v)
                           for k, v in entry.signature.items()},
                config={str(k): float(v) for k, v in best_config.items()},
                reward=None,
                throughput=entry.best_throughput,
                latency=entry.best_latency,
                crashed=False,
                source=f"registry:{entry.model_id}",
                tenant=str(entry.metadata.get("tenant", "")) or None,
                workload=entry.workload_name,
                hardware=(str(entry.hardware.get("name"))
                          if isinstance(entry.hardware, Mapping)
                          and entry.hardware.get("name") else None),
            ))
        return store

    def add_result(self, signature: Mapping[str, float], tuning_result,
                   source: str = "inline", workload: str | None = None,
                   hardware: str | None = None,
                   metrics: Sequence[float] | None = None) -> int:
        """Ingest a :class:`~repro.core.results.TuningResult` directly.

        Lets non-service flows (experiments, notebooks) grow a history
        store without round-tripping through an audit file.  ``hardware``
        (instance name) and ``metrics`` (the 63-metric state observed
        before tuning) enrich every record so the one-shot corpus can be
        built from in-process stores too.
        """
        added = 0
        metric_state = (tuple(float(v) for v in metrics)
                        if metrics is not None else None)
        for record in tuning_result.records:
            self.add(HistoryRecord(
                signature={str(k): float(v) for k, v in signature.items()},
                config=dict(record.knobs),
                reward=record.reward,
                throughput=record.throughput,
                latency=record.latency,
                crashed=record.crashed,
                source=source,
                workload=workload,
                metrics=metric_state,
                hardware=hardware,
            ))
            added += 1
        return added

    # -- supervised corpus ---------------------------------------------------
    def training_corpus(self) -> List[CorpusExample]:
        """One supervised example per session: its best non-crashed config.

        Records are grouped by ``source`` (one source string per session
        or registry entry); within a group the best-scoring non-crashed
        record wins — that is the configuration the session would have
        recommended.  Records with neither a finite score nor a reward
        label carry no learnable target and are dropped.  Groups sharing
        a signature are all kept: the same workload on different hardware
        is exactly the contrast the hardware features exist to learn.
        """
        by_source: Dict[str, HistoryRecord] = {}
        order: List[str] = []
        for record in self._records:
            if record.crashed or not record.config:
                continue
            label = record.score if np.isfinite(record.score) else (
                float(record.reward) if record.reward is not None else None)
            if label is None:
                continue
            best = by_source.get(record.source)
            if best is None:
                order.append(record.source)
                by_source[record.source] = record
            else:
                best_label = best.score if np.isfinite(best.score) else (
                    float(best.reward) if best.reward is not None else -np.inf)
                if label > best_label:
                    by_source[record.source] = record
        corpus: List[CorpusExample] = []
        for source in order:
            record = by_source[source]
            label = record.score if np.isfinite(record.score) else \
                float(record.reward)
            corpus.append(CorpusExample(
                signature=dict(record.signature),
                config=dict(record.config),
                score=float(label),
                hardware=record.hardware,
                metrics=record.metrics,
                source=source,
            ))
        return corpus

    # -- lookup ------------------------------------------------------------
    def nearest(self, signature: Mapping[str, float], k: int | None = None,
                max_distance: float | None = None,
                ) -> List[Tuple[HistoryRecord, float]]:
        """Records sorted by signature distance (ties: better score first)."""
        scored = []
        for index, record in enumerate(self._records):
            distance = signature_distance(dict(signature), record.signature)
            if max_distance is not None and distance > max_distance:
                continue
            scored.append((distance, -record.score, index, record))
        scored.sort(key=lambda item: item[:3])
        matches = [(record, distance)
                   for distance, _, _, record in scored]
        return matches if k is None else matches[:k]

    # -- bootstrap products ------------------------------------------------
    def probe_seeds(self, signature: Mapping[str, float],
                    registry: KnobRegistry, k: int = 6,
                    max_distance: float | None = None) -> np.ndarray:
        """The top historical configs as a ``(m, n_tunable)`` action matrix.

        Candidates are non-crashed records ranked by score discounted by
        signature distance (``score / (1 + distance)``), deduplicated by
        quantized configuration.  ``m <= k``; an empty history yields a
        ``(0, n_tunable)`` matrix.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        ranked = sorted(
            ((record, distance)
             for record, distance in self.nearest(signature,
                                                  max_distance=max_distance)
             if not record.crashed and np.isfinite(record.score)),
            key=lambda item: -(item[0].score / (1.0 + item[1])))
        seen = set()
        vectors: List[np.ndarray] = []
        for record, _ in ranked:
            try:
                config = registry.validate(dict(record.config))
            except (KeyError, ValueError, TypeError):
                continue            # foreign catalog; not actionable here
            key = registry.canonical_items(config)
            if key in seen:
                continue
            seen.add(key)
            vectors.append(np.clip(registry.to_vector(config), 0.0, 1.0))
            if len(vectors) >= k:
                break
        if not vectors:
            return np.empty((0, registry.n_tunable))
        return np.stack(vectors)

    def replay_seeds(self, signature: Mapping[str, float],
                     registry: KnobRegistry, k: int = 32,
                     max_distance: float | None = None,
                     ) -> List[Tuple[np.ndarray, float]]:
        """``(action, reward)`` pairs for replay-buffer pre-fill.

        Nearest-signature records with a recorded reward, crashed ones
        included (their penalty is the guard rail the critic needs).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        pairs: List[Tuple[np.ndarray, float]] = []
        for record, _ in self.nearest(signature, max_distance=max_distance):
            if record.reward is None:
                continue
            try:
                config = registry.validate(dict(record.config))
            except (KeyError, ValueError, TypeError):
                continue
            action = np.clip(registry.to_vector(config), 0.0, 1.0)
            pairs.append((action, float(record.reward)))
            if len(pairs) >= k:
                break
        return pairs

    def bootstrap(self, signature: Mapping[str, float],
                  registry: KnobRegistry, seeds: int = 6, replay: int = 24,
                  max_distance: float | None = None) -> Dict[str, object]:
        """Both bootstrap products plus provenance, for one session.

        Returns ``{"warmup_seeds": ..., "replay_seeds": ...,
        "nearest_distance": ...}`` — the keyword arguments the training
        pipeline accepts, ready to merge into ``train_kwargs``.

        ``seeds=0`` / ``replay=0`` skip mining that product entirely and
        return it empty — a caller that only wants replay pre-fill must
        not pay for (or be told about) discarded probe seeds.
        """
        if seeds < 0 or replay < 0:
            raise ValueError("seeds and replay must be >= 0")
        with get_tracer().span("reuse.history_bootstrap",
                               records=len(self._records)) as span:
            warmup = (self.probe_seeds(signature, registry, k=seeds,
                                       max_distance=max_distance)
                      if seeds else np.empty((0, registry.n_tunable)))
            pairs = (self.replay_seeds(signature, registry, k=replay,
                                       max_distance=max_distance)
                     if replay else [])
            matches = self.nearest(signature, k=1,
                                   max_distance=max_distance)
            nearest_distance = matches[0][1] if matches else None
            span.set_tag("warmup_seeds", len(warmup))
            span.set_tag("replay_seeds", len(pairs))
            if nearest_distance is not None:
                span.set_tag("nearest_distance", round(nearest_distance, 6))
            return {"warmup_seeds": warmup, "replay_seeds": pairs,
                    "nearest_distance": nearest_distance}
