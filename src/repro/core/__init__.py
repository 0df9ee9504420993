"""The CDBTune tuning system (paper §2, Figure 2).

Controller-side components — workload generator, metrics collector,
recommender, memory pool — plus the gym-style tuning environment, the
offline-training / online-tuning pipelines and the :class:`CDBTune` facade.
"""

from .environment import StepResult, TuningEnvironment
from .collector import CollectedSample, MetricsCollector
from .generator import WorkloadCapture, WorkloadGenerator
from .memory_pool import MemoryPool
from .recommender import Recommendation, Recommender
from .pipeline import (
    CONVERGENCE_THRESHOLD,
    CONVERGENCE_WINDOW,
    offline_train,
    online_tune,
)
from .results import (
    EvalRecord,
    SessionReport,
    Telemetry,
    TrainingResult,
    TuningResult,
)
from .tuner import CDBTune
from .controller import Controller, RequestRecord

__all__ = [
    "StepResult",
    "TuningEnvironment",
    "CollectedSample",
    "MetricsCollector",
    "WorkloadCapture",
    "WorkloadGenerator",
    "MemoryPool",
    "Recommendation",
    "Recommender",
    "CONVERGENCE_THRESHOLD",
    "CONVERGENCE_WINDOW",
    "EvalRecord",
    "SessionReport",
    "Telemetry",
    "TrainingResult",
    "TuningResult",
    "offline_train",
    "online_tune",
    "CDBTune",
    "Controller",
    "RequestRecord",
]
