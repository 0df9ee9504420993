"""Run ``repro-service serve`` with timing wrappers around each layer.

Usage: ``python3 perfbench/traced_serve.py CAPTURE_DIR serve [serve-args...]``

Before calling ``repro.service.cli.serve_main`` this launcher wraps the
public functions behind each layer (see ``WRAPPED``).  A wrapper records
the call's duration and its self time: the duration minus the wrapped
calls nested in it on the same thread.  Counts are taken at the same
wrappers, so each ratio is measured where the work happens.

Every server process writes its own capture, ``CAPTURE_DIR/<pid>.json``:
the parent when its service shuts down and again at exit, and each forked
shard (which inherits the wrappers) when its ``TuningService`` shuts down,
since a shard leaves through ``os._exit`` and runs no exit handlers.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List

#: ``(module, class, method)`` of every wrapped function.
WRAPPED = [
    ("repro.rl.ddpg", "DDPGAgent", "update"),
    ("repro.rl.ddpg", "DDPGAgent", "imitate"),
    ("repro.rl.ddpg", "DDPGAgent", "act"),
    ("repro.dbsim.engine", "SimulatedDatabase", "evaluate"),
    ("repro.dbsim.engine", "SimulatedDatabase", "evaluate_many"),
    ("repro.core.environment", "TuningEnvironment", "step"),
    ("repro.core.tuner", "CDBTune", "offline_train"),
    ("repro.core.tuner", "CDBTune", "tune"),
    ("repro.reuse.mix", "MixDatabase", "evaluate"),
    ("repro.reuse.history", "HistoryStore", "bootstrap"),
    ("repro.oneshot.recommender", "OneShotRecommender", "predict"),
    ("repro.oneshot.recommender", "OneShotRecommender", "from_history"),
    ("repro.service.safety", "SafetyGuard", "canary"),
    ("repro.service.registry", "ModelRegistry", "register"),
    ("repro.service.registry", "ModelRegistry", "load_into"),
    ("repro.service.registry", "ModelRegistry", "find_nearest"),
    ("repro.service.audit", "AuditLog", "emit"),
    ("repro.service.server", "TuningService", "submit"),
    ("repro.service.server", "TuningService", "status"),
    ("repro.service.shard", "ShardedTuningService", "submit"),
    ("repro.service.shard", "ShardedTuningService", "status"),
]


class Capture:
    """Per-process call statistics, safe to use from many threads."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.reset()

    def reset(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        #: name → [calls, total seconds, self seconds, worker self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.history_records = 0

    def count(self, name: str, amount: float = 1.0) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, name: str, function: Callable,
             observer: "Observer | None" = None) -> Callable:
        capture = self

        def wrapper(*args, **kwargs):
            stack = getattr(capture.local, "stack", None)
            if stack is None:
                stack = capture.local.stack = []
                capture.local.worker = threading.current_thread().name \
                    .startswith("tuning-worker")
            stack.append(0.0)
            token = observer.before(args) if observer else None
            result = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                own = elapsed - nested
                with capture.lock:
                    entry = capture.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += own
                    if capture.local.worker:
                        entry[3] += own
                if observer:
                    observer.after(args, result, token)

        wrapper.__wrapped__ = function
        return wrapper

    def dump(self) -> None:
        with self.lock:
            payload = {"pid": os.getpid(), "stats": self.stats,
                       "counts": self.counts,
                       "history_records": self.history_records}
        path = os.path.join(self.directory, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


class Observer:
    """Counts read off a wrapped call's arguments and result."""

    def __init__(self, after: Callable, before: Callable | None = None):
        self.after = after
        self.before = before or (lambda args: None)


def _observers(capture: Capture) -> Dict[str, Observer]:
    def update(args, result, _):
        capture.count("ddpg.trained", result is not None)

    def evaluate(args, result, hits_before):
        capture.count("dbsim.cache_hits", args[0].cache_hits - hits_before)

    def step(args, result, _):
        capture.count("env.crashes", bool(result is not None
                                          and result.crashed))

    def canary(args, result, _):
        capture.count("safety.accepted", bool(result is not None
                                              and result.accepted))

    def register(args, result, _):
        if result is not None:
            root = args[0].root
            capture.count("registry.bytes",
                          os.path.getsize(os.path.join(root, result.path))
                          + os.path.getsize(os.path.join(root, "index.json")))

    def find_nearest(args, result, _):
        capture.count("registry.matches", result is not None)

    return {"DDPGAgent.update": Observer(update),
            "SimulatedDatabase.evaluate": Observer(
                evaluate, before=lambda args: args[0].cache_hits),
            "TuningEnvironment.step": Observer(step),
            "SafetyGuard.canary": Observer(canary),
            "ModelRegistry.register": Observer(register),
            "ModelRegistry.find_nearest": Observer(find_nearest)}


def install(capture: Capture) -> None:
    observers = _observers(capture)
    for module_name, class_name, method in WRAPPED:
        cls = getattr(importlib.import_module(module_name), class_name)
        name = f"{class_name}.{method}"
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(
                capture.wrap(name, raw.__func__, observers.get(name))))
        else:
            setattr(cls, method, capture.wrap(name, raw, observers.get(name)))

    from repro.service.server import TuningService
    from repro.service.shard import ShardedTuningService

    def flushing(shutdown: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            try:
                return shutdown(self, *args, **kwargs)
            finally:
                history = getattr(self, "history", None)  # not on the parent
                if history is not None:
                    with capture.lock:
                        capture.history_records = len(history)
                capture.dump()
        return wrapper

    TuningService.shutdown = flushing(TuningService.shutdown)
    ShardedTuningService.shutdown = flushing(ShardedTuningService.shutdown)
    # A forked shard starts with its parent's numbers; it counts its own.
    os.register_at_fork(after_in_child=capture.reset)
    atexit.register(capture.dump)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    directory = sys.argv[1]
    os.makedirs(directory, exist_ok=True)
    install(Capture(directory))
    from repro.service.cli import serve_main
    return serve_main(sys.argv[3:])


if __name__ == "__main__":
    sys.exit(main())
