"""Unified result / telemetry hierarchy for every layer of the system.

Every operation that used to report ad-hoc dict fields — the training
pipeline's ``evaluations``/``cache_hits``/``phase_timings``, the service's
status snapshots, the safety guard's tuples — now reports through one
shape:

* :class:`Telemetry` — counters, per-phase wall-clock seconds and the
  trace id of the run that produced the result (when tracing was on);
* :class:`EvalRecord` — one stress test: knobs, performance, crash flag,
  timing;
* :class:`TrainingResult` / :class:`TuningResult` — pipeline outcomes;
* :class:`SessionReport` — one service session end to end.

All of them round-trip through ``to_dict()`` / ``from_dict()``; the model
registry, the audit log and the experiment JSON outputs serialize results
exclusively through these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..rl.reward import PerformanceSample

__all__ = [
    "EvalRecord",
    "SessionReport",
    "Telemetry",
    "TrainingResult",
    "TuningResult",
]


def _perf_to_dict(perf: PerformanceSample | None) -> Dict[str, float] | None:
    if perf is None:
        return None
    return {"throughput": perf.throughput, "latency": perf.latency}


def _perf_from_dict(data: Mapping[str, float] | None) -> PerformanceSample | None:
    if data is None:
        return None
    return PerformanceSample(throughput=float(data["throughput"]),
                             latency=float(data["latency"]))


@dataclass
class Telemetry:
    """Shared observability block every result carries.

    ``counters`` holds event counts (stress tests issued, cache hits,
    crashes, ...), ``phase_seconds`` wall-clock seconds per named phase,
    ``trace_id`` the trace the run was recorded under (``None`` when
    tracing was off).
    """

    counters: Dict[str, float] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    trace_id: str | None = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = (self.phase_seconds.get(name, 0.0)
                                    + float(seconds))

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Telemetry of two sub-operations combined (counters/phases sum)."""
        merged = Telemetry(trace_id=self.trace_id or other.trace_id)
        for source in (self, other):
            for name, value in source.counters.items():
                merged.count(name, value)
            for name, seconds in source.phase_seconds.items():
                merged.add_phase(name, seconds)
        return merged

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "phase_seconds": dict(self.phase_seconds),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Telemetry":
        return cls(counters=dict(data.get("counters") or {}),
                   phase_seconds=dict(data.get("phase_seconds") or {}),
                   trace_id=data.get("trace_id"))  # type: ignore[arg-type]


@dataclass
class EvalRecord:
    """One stress test: what was tried, what came back, what it cost."""

    knobs: Dict[str, float]
    throughput: float | None = None      # None when the instance crashed
    latency: float | None = None
    crashed: bool = False
    reward: float | None = None
    wall_s: float = 0.0
    trial: int | None = None

    @property
    def performance(self) -> PerformanceSample | None:
        if self.crashed or self.throughput is None or self.latency is None:
            return None
        return PerformanceSample(throughput=self.throughput,
                                 latency=self.latency)

    #: Alias matching :class:`~repro.core.environment.StepResult.config`.
    @property
    def config(self) -> Dict[str, float]:
        return self.knobs

    @classmethod
    def from_step(cls, step, wall_s: float = 0.0) -> "EvalRecord":
        """Build from a :class:`~repro.core.environment.StepResult`."""
        perf = step.performance
        return cls(knobs=dict(step.config),
                   throughput=perf.throughput if perf is not None else None,
                   latency=perf.latency if perf is not None else None,
                   crashed=bool(step.crashed),
                   reward=float(step.reward),
                   wall_s=float(wall_s))

    def to_dict(self) -> Dict[str, object]:
        return {
            "knobs": dict(self.knobs),
            "throughput": self.throughput,
            "latency": self.latency,
            "crashed": self.crashed,
            "reward": self.reward,
            "wall_s": self.wall_s,
            "trial": self.trial,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EvalRecord":
        return cls(knobs=dict(data["knobs"]),  # type: ignore[arg-type]
                   throughput=data.get("throughput"),  # type: ignore[arg-type]
                   latency=data.get("latency"),  # type: ignore[arg-type]
                   crashed=bool(data.get("crashed", False)),
                   reward=data.get("reward"),  # type: ignore[arg-type]
                   wall_s=float(data.get("wall_s", 0.0)),  # type: ignore[arg-type]
                   trial=data.get("trial"))  # type: ignore[arg-type]


@dataclass
class TrainingResult:
    """Offline-training trace."""

    steps: int
    episodes: int
    converged: bool
    iterations_to_convergence: int | None
    rewards: List[float] = field(default_factory=list)
    probe_throughputs: List[float] = field(default_factory=list)
    probe_latencies: List[float] = field(default_factory=list)
    crashes: int = 0
    best_probe: PerformanceSample | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)

    @property
    def final_probe(self) -> PerformanceSample | None:
        if not self.probe_throughputs:
            return None
        return PerformanceSample(throughput=self.probe_throughputs[-1],
                                 latency=self.probe_latencies[-1])

    def to_dict(self) -> Dict[str, object]:
        return {
            "steps": self.steps,
            "episodes": self.episodes,
            "converged": self.converged,
            "iterations_to_convergence": self.iterations_to_convergence,
            "rewards": [float(r) for r in self.rewards],
            "probe_throughputs": [float(t) for t in self.probe_throughputs],
            "probe_latencies": [float(l) for l in self.probe_latencies],
            "crashes": self.crashes,
            "best_probe": _perf_to_dict(self.best_probe),
            "telemetry": self.telemetry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrainingResult":
        return cls(
            steps=int(data["steps"]),  # type: ignore[arg-type]
            episodes=int(data["episodes"]),  # type: ignore[arg-type]
            converged=bool(data["converged"]),
            iterations_to_convergence=data.get(  # type: ignore[arg-type]
                "iterations_to_convergence"),
            rewards=list(data.get("rewards") or []),
            probe_throughputs=list(data.get("probe_throughputs") or []),
            probe_latencies=list(data.get("probe_latencies") or []),
            crashes=int(data.get("crashes", 0)),  # type: ignore[arg-type]
            best_probe=_perf_from_dict(data.get("best_probe")),  # type: ignore[arg-type]
            telemetry=Telemetry.from_dict(data.get("telemetry") or {}),  # type: ignore[arg-type]
        )


@dataclass
class TuningResult:
    """Online-tuning outcome for one request."""

    initial: PerformanceSample
    best: PerformanceSample
    best_config: Dict[str, float]
    steps: int
    records: List[EvalRecord] = field(default_factory=list)
    telemetry: Telemetry = field(default_factory=Telemetry)

    @property
    def throughput_improvement(self) -> float:
        return (self.best.throughput - self.initial.throughput) / max(
            self.initial.throughput, 1e-9)

    @property
    def latency_improvement(self) -> float:
        return (self.initial.latency - self.best.latency) / max(
            self.initial.latency, 1e-9)

    def to_dict(self) -> Dict[str, object]:
        return {
            "initial": _perf_to_dict(self.initial),
            "best": _perf_to_dict(self.best),
            "best_config": dict(self.best_config),
            "steps": self.steps,
            "records": [r.to_dict() for r in self.records],
            "telemetry": self.telemetry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuningResult":
        initial = _perf_from_dict(data["initial"])  # type: ignore[arg-type]
        best = _perf_from_dict(data["best"])  # type: ignore[arg-type]
        assert initial is not None and best is not None
        return cls(
            initial=initial,
            best=best,
            best_config=dict(data.get("best_config") or {}),  # type: ignore[arg-type]
            steps=int(data["steps"]),  # type: ignore[arg-type]
            records=[EvalRecord.from_dict(r)
                     for r in (data.get("records") or [])],  # type: ignore[union-attr]
            telemetry=Telemetry.from_dict(data.get("telemetry") or {}),  # type: ignore[arg-type]
        )


@dataclass
class SessionReport:
    """End-to-end report of one tuning-service session.

    The canary verdict is carried as the plain dict the guard's
    ``CanaryVerdict.as_dict()`` produces, so the report stays serializable
    without importing service types.
    """

    session_id: str
    tenant: str
    workload: str
    hardware: str
    state: str
    state_history: List[str] = field(default_factory=list)
    priority: int = 0
    warm_started_from: str | None = None
    warm_start_distance: float | None = None
    train_budget: int = 0
    deployed: bool = False
    model_id: str | None = None
    error: str | None = None
    training: TrainingResult | None = None
    tuning: TuningResult | None = None
    canary: Dict[str, object] | None = None
    #: Serialized service Recommendation (config + source provenance),
    #: carried as a plain dict for the same reason the canary verdict is.
    recommendation: Dict[str, object] | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)

    def to_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "hardware": self.hardware,
            "state": self.state,
            "state_history": list(self.state_history),
            "priority": self.priority,
            "warm_started_from": self.warm_started_from,
            "warm_start_distance": self.warm_start_distance,
            "train_budget": self.train_budget,
            "deployed": self.deployed,
            "model_id": self.model_id,
            "error": self.error,
            "training": (self.training.to_dict()
                         if self.training is not None else None),
            "tuning": (self.tuning.to_dict()
                       if self.tuning is not None else None),
            "canary": dict(self.canary) if self.canary is not None else None,
            "recommendation": (dict(self.recommendation)
                               if self.recommendation is not None else None),
            "telemetry": self.telemetry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SessionReport":
        training = data.get("training")
        tuning = data.get("tuning")
        canary = data.get("canary")
        return cls(
            session_id=str(data["session_id"]),
            tenant=str(data["tenant"]),
            workload=str(data["workload"]),
            hardware=str(data["hardware"]),
            state=str(data["state"]),
            state_history=[str(s) for s in (data.get("state_history") or [])],  # type: ignore[union-attr]
            priority=int(data.get("priority", 0)),  # type: ignore[arg-type]
            warm_started_from=data.get("warm_started_from"),  # type: ignore[arg-type]
            warm_start_distance=data.get("warm_start_distance"),  # type: ignore[arg-type]
            train_budget=int(data.get("train_budget", 0)),  # type: ignore[arg-type]
            deployed=bool(data.get("deployed", False)),
            model_id=data.get("model_id"),  # type: ignore[arg-type]
            error=data.get("error"),  # type: ignore[arg-type]
            training=(TrainingResult.from_dict(training)  # type: ignore[arg-type]
                      if training is not None else None),
            tuning=(TuningResult.from_dict(tuning)  # type: ignore[arg-type]
                    if tuning is not None else None),
            canary=dict(canary) if canary is not None else None,  # type: ignore[arg-type]
            recommendation=(dict(data["recommendation"])  # type: ignore[arg-type]
                            if data.get("recommendation") is not None
                            else None),
            telemetry=Telemetry.from_dict(data.get("telemetry") or {}),  # type: ignore[arg-type]
        )
