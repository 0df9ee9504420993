"""The multi-tenant tuning service (paper §2.2's deployment, long-lived).

Turns the single-run pipeline of :mod:`repro.core` into a service: a
priority-queued, multi-worker :class:`TuningService` front end, a
:class:`ModelRegistry` that warm-starts new tenants from the nearest
pre-trained model (§5.3 adaptability as a feature), a :class:`SafetyGuard`
that canary-evaluates every recommendation before deployment (after
OnlineTune), a per-session :class:`AuditLog`, and a
:class:`ServiceFrontDoor` — the asynchronous HTTP/JSON admission layer
(``repro-service serve``) with bounded-queue load shedding and per-tenant
token-bucket rate limits — and a :class:`ShardedTuningService`
(``repro-service serve --shards N``) that consistent-hashes tenants onto
worker *processes* with supervisor-driven respawn and audit-replay crash
recovery.
"""

from .audit import AuditLog
from .frontdoor import ServiceFrontDoor, TokenBucket
from .recommendation import Recommendation
from .registry import ModelEntry, ModelRegistry, hardware_distance
from .safety import SLA, CanaryVerdict, DeploymentRecord, SafetyGuard
from .server import (
    QueueFullError,
    SessionState,
    TuningRequest,
    TuningService,
    TuningSession,
)
from .shard import ConsistentHashRing, ShardedTuningService

__all__ = [
    "AuditLog",
    "ConsistentHashRing",
    "ModelEntry",
    "ModelRegistry",
    "hardware_distance",
    "SLA",
    "CanaryVerdict",
    "DeploymentRecord",
    "SafetyGuard",
    "Recommendation",
    "QueueFullError",
    "ServiceFrontDoor",
    "SessionState",
    "ShardedTuningService",
    "TokenBucket",
    "TuningRequest",
    "TuningService",
    "TuningSession",
]
