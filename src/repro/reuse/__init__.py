"""Evaluation economy: workload compression, history reuse, staged verification.

Tuning cost is dominated by workload replay.  This package attacks the
bill from three sides, each usable alone and composed end to end by
:func:`~repro.reuse.verify.staged_tune` and the tuning service's
``compress`` / ``refine`` session modes:

* :mod:`repro.reuse.mix` — multi-component workloads
  (:class:`WorkloadMix`) with aggregate signatures and batched
  evaluation (:class:`MixDatabase`);
* :mod:`repro.reuse.compress` — greedy signature-space subset selection
  (:class:`WorkloadCompressor`), so tuning replays a cheap
  representative slice of the mix;
* :mod:`repro.reuse.history` — mining past sessions out of the audit
  log and model registry (:class:`HistoryStore`) to pre-fill the replay
  buffer and seed warmup probes;
* :mod:`repro.reuse.verify` — promoting only the top-k candidates to a
  single full-mix batch (:class:`ConfigVerifier`) before the safety
  guard sees the winner.
"""

from .compress import CompressionResult, SliceCompression, WorkloadCompressor
from .history import CorpusExample, HistoryRecord, HistoryStore
from .mix import MixComponent, MixDatabase, TimeSlice, WorkloadMix
from .verify import (CandidateVerdict, ConfigVerifier, StagedTuneResult,
                     VerificationResult, performance_score, staged_tune)

__all__ = [
    "CandidateVerdict",
    "CompressionResult",
    "ConfigVerifier",
    "CorpusExample",
    "HistoryRecord",
    "HistoryStore",
    "MixComponent",
    "MixDatabase",
    "SliceCompression",
    "StagedTuneResult",
    "TimeSlice",
    "VerificationResult",
    "WorkloadCompressor",
    "WorkloadMix",
    "performance_score",
    "staged_tune",
]
