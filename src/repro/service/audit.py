"""Structured per-session audit log for the tuning service.

Every externally-visible decision the service takes — queueing, warm-start
provenance, canary verdicts, deployments, rollbacks — is recorded as one
JSON object.  A log constructed with a path appends each record to a
JSON-lines file, so an operator can reconstruct any session after the
fact, and keeps no copy in memory: the file is the log, and
:meth:`AuditLog.events` reads it back.  A log without a path holds its
records in memory.

Events carry a monotonically increasing ``seq`` and no wall-clock
timestamp, so audit trails of seeded runs are reproducible byte for
byte.  ``seq`` is monotonic *per log instance*: when several processes
append to one JSONL file (the sharded service), each writer's records
carry its own ``seq`` stream plus a ``src`` label (pass ``source=...``)
to tell the streams apart — global order across writers is file
position, not ``seq``.

Persistence keeps one append descriptor open across emissions (reopening
the file per event serializes every worker thread on filesystem
open/close under the global lock).  Each record is written as one
``O_APPEND`` ``os.write`` (retried until every byte is out) so multiple
*processes* (the sharded service runs one ``TuningService`` per shard,
all appending to the same JSONL path) interleave whole lines rather
than bytes.  Call :meth:`close` — or
use the log as a context manager — to release the descriptor; the next
``emit`` transparently reopens it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterator, List

__all__ = ["AuditLog"]


def _jsonable(value: object) -> object:
    """Coerce numpy scalars / odd mappings into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class AuditLog:
    """Append-only, thread-safe event log: a JSONL file, or memory."""

    def __init__(self, path: str | os.PathLike | None = None,
                 source: str | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.source = str(source) if source is not None else None
        self._events: List[Dict[str, object]] = []   # only without a path
        self._seq = 0
        self._lock = threading.Lock()
        self._fd: int | None = None

    def emit(self, session_id: str, event: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the record."""
        record: Dict[str, object] = {
            "session": str(session_id),
            "event": str(event),
        }
        record.update({str(k): _jsonable(v) for k, v in fields.items()})
        with self._lock:
            head: Dict[str, object] = {"seq": self._seq}
            if self.source is not None:
                head["src"] = self.source
            record = {**head, **record}
            self._seq += 1
            if self.path is None:
                self._events.append(record)
                return record
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            data = (json.dumps(record, sort_keys=False) + "\n").encode(
                "utf-8")
            # os.write may write fewer bytes than asked (signal, disk
            # pressure); a torn half-line would be silently dropped by
            # read_jsonl on replay, so keep writing until the record is
            # out whole.
            while data:
                data = data[os.write(self._fd, data):]
        return record

    def close(self) -> None:
        """Release the persistent append descriptor (emit reopens on demand)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001 - best-effort at teardown
            pass

    # -- introspection -----------------------------------------------------
    def events(self, session_id: str | None = None,
               event: str | None = None) -> List[Dict[str, object]]:
        """Events so far, optionally filtered by session and/or kind.

        A file-backed log reads its file, so the result holds every
        record in it, whichever writer appended it (the sharded service's
        parent and shards share one file).
        """
        if self.path is None:
            with self._lock:
                records = list(self._events)
        else:
            try:
                records = self.read_jsonl(self.path)
            except FileNotFoundError:       # nothing emitted yet
                records = []
        return [r for r in records
                if (session_id is None or r["session"] == session_id)
                and (event is None or r["event"] == event)]

    def __len__(self) -> int:
        return len(self.events())

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.events())

    @staticmethod
    def read_jsonl(path: str | os.PathLike,
                   strict: bool = False) -> List[Dict[str, object]]:
        """Parse a JSONL audit file back into event records.

        By default undecodable lines are skipped: a SIGKILLed shard can
        leave one torn record at its tail, and crash recovery must still
        be able to replay everything before it.  ``strict=True`` raises
        instead.
        """
        records = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    if strict:
                        raise
        return records
