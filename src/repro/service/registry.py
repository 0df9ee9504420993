"""Model registry: persisted tuned models, keyed by workload × hardware.

The paper never trains from scratch for a new tenant: §5.3 shows that a
model pre-trained on one workload/instance fine-tunes quickly on a related
one (Figures 10–13).  The registry is the service-side realization of that
result — every trained :class:`~repro.core.tuner.CDBTune` model is stored
on disk together with the workload *signature* it was trained on (read/
write mix, working set, skew, threads; see
:meth:`~repro.dbsim.workload.WorkloadSpec.signature`) and its
:class:`~repro.dbsim.hardware.HardwareSpec`, and a new tuning request is
warm-started from the nearest compatible entry instead of cold-starting.

Checkpoints are written through :func:`repro.nn.save_state`, which is
atomic (temp file + rename), and the JSON index is replaced the same way:
a worker killed mid-save can never corrupt the registry.  Each entry is
encoded to JSON once, when it is registered or loaded; rewriting the index
joins those fragments, so a registration costs the same however many
models the registry already holds.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

from ..core.tuner import CDBTune
from ..dbsim.hardware import DISK_MEDIA, HardwareSpec
from ..dbsim.workload import WorkloadSpec, signature_distance
from ..obs import get_tracer

__all__ = ["ModelEntry", "ModelRegistry", "hardware_distance"]

_INDEX_NAME = "index.json"
_MODEL_DIR = "models"


def hardware_distance(a: HardwareSpec, b: HardwareSpec) -> float:
    """How different two instance types are, in warm-start terms.

    RAM and disk matter by ratio (Figures 10–11 vary them in powers of
    two), the storage medium by a step penalty — a model trained on HDD
    latencies transfers worse to NVM than to another SSD.
    """
    ram = abs(math.log2(a.ram_gb / b.ram_gb)) / 4.0
    disk = abs(math.log2(a.disk_gb / b.disk_gb)) / 4.0
    cores = abs(math.log2(a.cores / b.cores)) / 4.0
    medium = 0.0 if a.medium == b.medium else 0.5
    return ram + disk + cores + medium


@dataclass(frozen=True)
class ModelEntry:
    """One registered model: where it lives and what it was trained on."""

    model_id: str
    path: str                       # checkpoint file, relative to root
    workload_name: str
    signature: Dict[str, float]
    hardware: Dict[str, object]     # name/ram_gb/disk_gb/cores/medium
    state_dim: int
    action_dim: int
    seed: int
    train_steps: int = 0            # offline steps invested in this model
    best_throughput: float | None = None
    best_latency: float | None = None
    parent: str | None = None       # model_id this one was warm-started from
    metadata: Dict[str, object] = field(default_factory=dict)

    def hardware_spec(self) -> HardwareSpec:
        hw = self.hardware
        return HardwareSpec(name=str(hw["name"]), ram_gb=float(hw["ram_gb"]),
                            disk_gb=float(hw["disk_gb"]),
                            cores=int(hw.get("cores", 12)),
                            medium=str(hw.get("medium", "cloud-ssd")))


def _components(entry: ModelEntry, signature: Dict[str, float],
                hardware: HardwareSpec) -> Tuple[float, float]:
    return (signature_distance(entry.signature, signature),
            hardware_distance(entry.hardware_spec(), hardware))


def _encode(entry: ModelEntry) -> str:
    """``entry`` as it appears in the index's ``entries`` list.

    Encodes the fields as they are: ``dataclasses.asdict`` would first
    deep-copy the metadata's 266-knob ``best_config``, which costs several
    times the encoding itself.
    """
    return json.dumps({f.name: getattr(entry, f.name)
                       for f in fields(entry)})


class ModelRegistry:
    """Disk-backed, thread-safe catalog of trained tuning models.

    ``workload_weight`` and ``hardware_weight`` scale the two components
    of :meth:`distance`.  Unweighted summing lets a large signature gap
    silently mask a hardware mismatch (and vice versa); a deployment that
    cares more about one axis — e.g. a fleet of identical instance types
    where only workloads differ — tilts the match accordingly.
    """

    def __init__(self, root: str | os.PathLike,
                 workload_weight: float = 1.0,
                 hardware_weight: float = 1.0) -> None:
        if workload_weight < 0 or hardware_weight < 0:
            raise ValueError("distance weights must be non-negative")
        if workload_weight == 0 and hardware_weight == 0:
            raise ValueError("at least one distance weight must be positive")
        self.root = os.fspath(root)
        self.workload_weight = float(workload_weight)
        self.hardware_weight = float(hardware_weight)
        os.makedirs(os.path.join(self.root, _MODEL_DIR), exist_ok=True)
        self._lock = threading.RLock()
        self._entries: List[ModelEntry] = []
        self._fragments: List[str] = []   # _encode(entry), same order
        self._load_index()

    # -- index persistence -------------------------------------------------
    @property
    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_NAME)

    def _load_index(self) -> None:
        if not os.path.exists(self._index_path):
            return
        with open(self._index_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        self._entries = [ModelEntry(**entry) for entry in raw["entries"]]
        self._fragments = [_encode(entry) for entry in self._entries]

    def _write_index(self, fragments: List[str]) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-index-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write('{"version": 1, "entries": [\n')
                handle.write(",\n".join(fragments))
                handle.write("\n]}\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- registration ------------------------------------------------------
    def register(self, tuner: CDBTune, workload: WorkloadSpec,
                 hardware: HardwareSpec, train_steps: int = 0,
                 best_throughput: float | None = None,
                 best_latency: float | None = None,
                 parent: str | None = None,
                 metadata: Dict[str, object] | None = None,
                 model_id: str | None = None) -> ModelEntry:
        """Persist ``tuner``'s model and add it to the index.

        ``model_id`` defaults to ``workload-hardware-NNNN`` with a running
        counter; callers that already have a stable identifier (the
        service passes the session id) supply their own so ids do not
        depend on the interleaving of concurrent registrations.
        """
        if hardware.medium not in DISK_MEDIA:  # defensive; HardwareSpec validates
            raise ValueError(f"unknown medium {hardware.medium!r}")
        with get_tracer().span("registry.register", workload=workload.name,
                               hardware=hardware.name), self._lock:
            if model_id is None:
                model_id = (f"{workload.name}-{hardware.name}-"
                            f"{len(self._entries):04d}")
            base, suffix = model_id, 0
            while any(entry.model_id == model_id
                      for entry in self._entries):
                suffix += 1
                model_id = f"{base}-{suffix}"
            rel_path = os.path.join(_MODEL_DIR, f"{model_id}.npz")
            entry = ModelEntry(
                model_id=model_id, path=rel_path,
                workload_name=workload.name,
                signature=workload.signature(),
                hardware={"name": hardware.name, "ram_gb": hardware.ram_gb,
                          "disk_gb": hardware.disk_gb,
                          "cores": hardware.cores,
                          "medium": hardware.medium},
                state_dim=tuner.agent.config.state_dim,
                action_dim=tuner.agent.config.action_dim,
                seed=tuner.seed, train_steps=int(train_steps),
                best_throughput=best_throughput, best_latency=best_latency,
                parent=parent, metadata=dict(metadata or {}))
            fragment = _encode(entry)
            checkpoint = os.path.join(self.root, rel_path)
            tuner.save(checkpoint)
            try:
                self._write_index(self._fragments + [fragment])
            except BaseException:
                # The index on disk does not list this model: drop its
                # checkpoint so that neither this process nor a restarted
                # one sees half a registration.
                try:
                    os.unlink(checkpoint)
                except OSError:
                    pass
                raise
            self._entries.append(entry)
            self._fragments.append(fragment)
            return entry

    # -- lookup ------------------------------------------------------------
    def entries(self) -> List[ModelEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def distance_components(self, entry: ModelEntry, workload: WorkloadSpec,
                            hardware: HardwareSpec) -> Tuple[float, float]:
        """Unweighted ``(workload_distance, hardware_distance)`` of a match."""
        return _components(entry, workload.signature(), hardware)

    def distance(self, entry: ModelEntry, workload: WorkloadSpec,
                 hardware: HardwareSpec) -> float:
        """Weighted workload + hardware distance of ``entry`` to a request."""
        return self._weigh(*self.distance_components(entry, workload,
                                                     hardware))

    def _weigh(self, workload_dist: float, hardware_dist: float) -> float:
        return (self.workload_weight * workload_dist
                + self.hardware_weight * hardware_dist)

    def find_nearest(self, workload: WorkloadSpec, hardware: HardwareSpec,
                     state_dim: int | None = None,
                     action_dim: int | None = None,
                     max_distance: float | None = None,
                     ) -> Tuple[ModelEntry, float] | None:
        """The closest compatible model, or ``None`` when nothing qualifies.

        ``state_dim``/``action_dim`` filter out architecturally
        incompatible checkpoints (a 20-knob model cannot warm-start a
        266-knob agent).  Ties break toward the most-trained, then the
        most recent entry.
        """
        with get_tracer().span("registry.find_nearest",
                               workload=workload.name,
                               hardware=hardware.name) as span:
            # A mix's signature flattens the mix: compute it once, not once
            # per candidate.
            signature = workload.signature()
            best: Tuple[float, int, int] | None = None  # (dist, -steps, -idx)
            best_entry: ModelEntry | None = None
            for idx, entry in enumerate(self.entries()):
                if state_dim is not None and entry.state_dim != state_dim:
                    continue
                if action_dim is not None and entry.action_dim != action_dim:
                    continue
                dist = self._weigh(*_components(entry, signature, hardware))
                if max_distance is not None and dist > max_distance:
                    continue
                key = (dist, -entry.train_steps, -idx)
                if best is None or key < best:
                    best = key
                    best_entry = entry
            if best_entry is None or best is None:
                span.set_tag("match", None)
                return None
            workload_dist, hardware_dist = _components(best_entry, signature,
                                                       hardware)
            span.set_tag("match", best_entry.model_id)
            span.set_tag("distance", round(best[0], 6))
            span.set_tag("workload_distance", round(workload_dist, 6))
            span.set_tag("hardware_distance", round(hardware_dist, 6))
            return best_entry, best[0]

    # -- loading -----------------------------------------------------------
    def load_into(self, tuner: CDBTune, entry: ModelEntry) -> CDBTune:
        """Warm-start ``tuner`` from a registered checkpoint.

        Raises ``OSError`` when the checkpoint is missing from disk or
        corrupt (truncated, failing its CRC, not a checkpoint, …) — an indexed
        entry is a promise the filesystem may no longer keep, and callers
        (the service's warm-start path) must treat that as "no match",
        not as a fatal session error.
        """
        if tuner.agent.config.action_dim != entry.action_dim:
            raise ValueError(
                f"model {entry.model_id} has action_dim {entry.action_dim}, "
                f"tuner expects {tuner.agent.config.action_dim}")
        path = os.path.join(self.root, entry.path)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"checkpoint for model {entry.model_id!r} missing: {path}")
        return tuner.load(path)
