"""Workload compression: replay a cheap representative subset, not the mix.

Tuning cost is dominated by replaying the workload at every step; for a
K-component :class:`~repro.reuse.mix.WorkloadMix` every evaluation costs K
stress tests.  Following the workload-compression line of work (WAter /
E2ETune-style pipelines), :class:`WorkloadCompressor` greedily selects a
representative component subset *per time slice* in signature space:

* the objective is the classic facility-location form — the weighted sum,
  over all components, of the distance to the nearest selected component
  (``0`` for selected ones).  It is monotone submodular, so the greedy
  sweep is deterministic, nested (the size-``m`` selection is a prefix of
  the size-``m+1`` one) and near-optimal;
* dropped components hand their traffic weight to the nearest kept one,
  so the compressed slice still sums to 1 and the compressed mix's
  aggregate signature stays close to the original's;
* the residual objective value is reported as the **compression-error
  estimate** — monotonically non-increasing in the subset size — and an
  optional empirical probe measures the actual score gap on random
  configurations.

Tuning then runs on the compressed mix and only the top candidates are
promoted to full-mix verification (:mod:`repro.reuse.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .mix import MixComponent, MixDatabase, TimeSlice, WorkloadMix
from ..dbsim.hardware import HardwareSpec
from ..dbsim.workload import signature_distance
from ..obs import get_tracer
from ..rl.reward import performance_score

__all__ = ["SliceCompression", "CompressionResult", "WorkloadCompressor"]


@dataclass(frozen=True)
class SliceCompression:
    """What compression did to one time slice."""

    label: str
    kept: Tuple[str, ...]               # component spec names retained
    dropped: Tuple[str, ...]            # component spec names folded away
    weights: Dict[str, float]           # reassigned weights (sum to 1)
    error: float                        # residual coverage error

    def to_dict(self) -> Dict[str, object]:
        return {"label": self.label, "kept": list(self.kept),
                "dropped": list(self.dropped),
                "weights": dict(self.weights), "error": self.error}


@dataclass
class CompressionResult:
    """A compressed mix plus the bookkeeping that justifies it."""

    original: WorkloadMix
    mix: WorkloadMix                    # the compressed mix to tune on
    slices: List[SliceCompression] = field(default_factory=list)
    error_estimate: float = 0.0         # duration-weighted residual error
    empirical_error: float | None = None  # measured score gap, when probed

    @property
    def components_kept(self) -> int:
        return self.mix.n_components

    @property
    def components_total(self) -> int:
        return self.original.n_components

    @property
    def compression_ratio(self) -> float:
        """Evaluation-cost ratio: kept components / total components."""
        return self.components_kept / max(self.components_total, 1)

    @property
    def compressed(self) -> bool:
        return self.components_kept < self.components_total

    def to_dict(self) -> Dict[str, object]:
        return {
            "original": self.original.name,
            "mix": self.mix.to_dict(),
            "slices": [entry.to_dict() for entry in self.slices],
            "error_estimate": self.error_estimate,
            "empirical_error": self.empirical_error,
            "components_kept": self.components_kept,
            "components_total": self.components_total,
            "compression_ratio": self.compression_ratio,
        }


class WorkloadCompressor:
    """Greedy signature-space subset selection per time slice.

    Parameters
    ----------
    max_components:
        Per-slice budget.  ``None`` grows each slice's subset until the
        residual error drops below ``(1 - coverage)`` of the best
        single-component residual.
    coverage:
        Target coverage fraction in (0, 1]; only consulted when
        ``max_components`` is ``None``.
    seed:
        Seeds the empirical error probe (:meth:`estimate_error`).  The
        greedy selection itself is fully deterministic — identical
        inputs produce identical subsets regardless of seed.
    """

    def __init__(self, max_components: int | None = None,
                 coverage: float = 0.85, seed: int = 0) -> None:
        if max_components is not None and max_components < 1:
            raise ValueError("max_components must be at least 1")
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        self.max_components = max_components
        self.coverage = float(coverage)
        self.seed = int(seed)

    # -- selection ---------------------------------------------------------
    def _compress_slice(
            self, entry: TimeSlice,
    ) -> Tuple[SliceCompression, Dict[object, float]]:
        components = entry.normalized()          # [(spec, weight)], sum 1
        n = len(components)
        signatures = [spec.signature() for spec, _ in components]
        weights = np.asarray([weight for _, weight in components])
        distance = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                distance[i, j] = distance[j, i] = signature_distance(
                    signatures[i], signatures[j])

        selected: List[int] = []
        # min distance from each component to the selected set
        nearest = np.full(n, np.inf)
        budget = self.max_components if self.max_components is not None else n
        budget = min(budget, n)
        residual = np.inf
        first_residual: float | None = None
        while len(selected) < budget:
            best_index, best_residual = -1, np.inf
            for candidate in range(n):
                if candidate in selected:
                    continue
                reduced = np.minimum(nearest, distance[candidate])
                candidate_residual = float(np.dot(weights, reduced))
                # strict < keeps ties on the lowest index: deterministic
                if candidate_residual < best_residual - 1e-15:
                    best_index, best_residual = candidate, candidate_residual
            selected.append(best_index)
            nearest = np.minimum(nearest, distance[best_index])
            residual = best_residual
            if first_residual is None:
                first_residual = residual
            if (self.max_components is None
                    and residual <= (1.0 - self.coverage) * first_residual):
                break

        # Weight reassignment: every dropped component hands its traffic to
        # the nearest kept one (ties to the earliest-selected).
        reassigned = {index: float(weights[index]) for index in selected}
        for index in range(n):
            if index in selected:
                continue
            anchor = min(selected, key=lambda j: (distance[index, j],
                                                  selected.index(j)))
            reassigned[anchor] += float(weights[index])

        kept_names = tuple(components[index][0].name
                           for index in sorted(selected))
        dropped_names = tuple(spec.name for index, (spec, _)
                              in enumerate(components)
                              if index not in selected)
        weight_map = {components[index][0].name: reassigned[index]
                      for index in sorted(selected)}
        return SliceCompression(label=entry.label, kept=kept_names,
                                dropped=dropped_names, weights=weight_map,
                                error=float(residual)), {
            components[index][0]: reassigned[index] for index in
            sorted(selected)}

    def compress(self, mix: WorkloadMix) -> CompressionResult:
        """Compress every slice of ``mix``; weights renormalize per slice."""
        with get_tracer().span("reuse.compress", mix=mix.name,
                               components=mix.n_components) as span:
            slices: List[SliceCompression] = []
            new_slices: List[TimeSlice] = []
            total_duration = sum(entry.duration for entry in mix.slices)
            error = 0.0
            for entry in mix.slices:
                summary, kept = self._compress_slice(entry)
                slices.append(summary)
                error += (entry.duration / total_duration) * summary.error
                new_slices.append(TimeSlice(
                    components=tuple(MixComponent(spec, weight)
                                     for spec, weight in kept.items()),
                    duration=entry.duration, label=entry.label))
            compressed = WorkloadMix(f"{mix.name}:compressed", new_slices)
            result = CompressionResult(original=mix, mix=compressed,
                                       slices=slices, error_estimate=error)
            span.set_tag("kept", result.components_kept)
            span.set_tag("ratio", round(result.compression_ratio, 4))
            span.set_tag("error", round(error, 6))
            return result

    # -- empirical validation ----------------------------------------------
    def estimate_error(self, result: CompressionResult,
                       hardware: HardwareSpec, n_probes: int = 8,
                       noise: float = 0.0) -> float:
        """Measured relative score gap between full and compressed mixes.

        Draws ``n_probes`` random configurations (seeded — reproducible
        per compressor seed), scores each on both mixes, and records the
        mean relative difference of ``throughput / latency^0.25`` in
        ``result.empirical_error``.  This is the honest counterpart to the
        analytic signature-space estimate: it costs
        ``n_probes × (K + k)`` stress tests, so it is a diagnostic, not
        part of the tuning loop.
        """
        if n_probes <= 0:
            raise ValueError("n_probes must be positive")
        rng = np.random.default_rng(self.seed)
        full_db = MixDatabase(hardware, result.original, noise=noise,
                              seed=self.seed, cache_size=0)
        small_db = MixDatabase(hardware, result.mix,
                               registry=full_db.registry, noise=noise,
                               seed=self.seed, cache_size=0)
        registry = full_db.registry
        configs = [registry.random_config(rng) for _ in range(n_probes)]
        trials = list(range(1, n_probes + 1))
        full = full_db.evaluate_many(configs, trials=trials)
        small = small_db.evaluate_many(configs, trials=trials)
        gaps: List[float] = []
        for full_obs, small_obs in zip(full, small):
            if full_obs is None or small_obs is None:
                continue        # both crash identically; nothing to compare
            full_score = performance_score(full_obs.performance)
            small_score = performance_score(small_obs.performance)
            gaps.append(abs(small_score - full_score)
                        / max(abs(full_score), 1e-9))
        measured = float(np.mean(gaps)) if gaps else 0.0
        result.empirical_error = measured
        return measured
