"""Evaluation economy: compressed-vs-full-vs-history budget curves.

Extends the §5.3 adaptability story to the cost axis.  One multi-component
tenant workload is tuned three ways at several training budgets:

* **full** — the baseline: cold-start training and tuning replay the full
  mix at every step (the paper's §2.1 loop, every evaluation at full price);
* **compressed** — training and tuning replay a 1-component compressed mix
  (:class:`~repro.reuse.compress.WorkloadCompressor`), then the top
  candidates are promoted to one full-mix verification batch
  (:class:`~repro.reuse.verify.ConfigVerifier`);
* **history** — full-mix training bootstrapped from a prior session on the
  same workload (:class:`~repro.reuse.history.HistoryStore`): warmup
  probes and replay-buffer pre-fill, no extra stress tests.

Every arm's final configuration is re-measured on the full mix at a fixed
trial so scores are directly comparable, and cost is reported in
**full-workload-equivalent evaluations**: one full-mix evaluation counts
1, one k-of-K compressed evaluation counts k/K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

from .common import SMOKE, Scale, format_table
from ..core.tuner import CDBTune
from ..dbsim.hardware import CDB_C, HardwareSpec
from ..dbsim.workload import get_workload
from ..reuse.compress import WorkloadCompressor
from ..reuse.history import HistoryStore
from ..reuse.mix import WorkloadMix
from ..reuse.verify import ConfigVerifier, performance_score

__all__ = ["ReuseRow", "ReuseResult", "default_mix", "run_reuse"]


@dataclass(frozen=True)
class ReuseRow:
    """One (arm, budget) point on the curves."""

    arm: str                    # "full" | "compressed" | "history"
    budget: int                 # offline training steps granted
    final_score: float          # throughput/latency^0.25 on the full mix
    final_throughput: float
    final_latency: float
    full_equiv_evals: float     # full-workload-equivalent evaluations
    wall_s: float

    def to_dict(self) -> Dict[str, object]:
        return {"arm": self.arm, "budget": self.budget,
                "final_score": self.final_score,
                "final_throughput": self.final_throughput,
                "final_latency": self.final_latency,
                "full_equiv_evals": self.full_equiv_evals,
                "wall_s": self.wall_s}


@dataclass
class ReuseResult:
    """Budget curves for the three evaluation-economy arms."""

    rows: List[ReuseRow] = field(default_factory=list)
    budgets: List[int] = field(default_factory=list)
    compression_ratio: float = 1.0      # kept/total components
    compression_error: float = 0.0      # analytic signature-space estimate
    history_records: int = 0            # records the history arm drew from

    def arm(self, name: str) -> Dict[int, ReuseRow]:
        return {row.budget: row for row in self.rows if row.arm == name}

    def table(self) -> str:
        return format_table(
            ("arm", "budget", "score", "thr", "evals(full-eq)", "wall s"),
            [(r.arm, r.budget, f"{r.final_score:.1f}",
              f"{r.final_throughput:.0f}", f"{r.full_equiv_evals:.1f}",
              f"{r.wall_s:.2f}") for r in self.rows])

    def to_dict(self) -> Dict[str, object]:
        return {"rows": [row.to_dict() for row in self.rows],
                "budgets": list(self.budgets),
                "compression_ratio": self.compression_ratio,
                "compression_error": self.compression_error,
                "history_records": self.history_records}


def default_mix() -> WorkloadMix:
    """The experiment's tenant: four correlated Sysbench RW variants.

    Compression is a bet that the mix is redundant — the honest scenario
    is a tenant whose traffic is one workload family observed under
    slightly different conditions (peak vs. off-peak thread counts, skew
    drift, working-set growth), not four unrelated benchmarks.  The
    analytic compression-error estimate stays small here, which is
    exactly when a 1-component replay is a faithful stand-in.
    """
    base = get_workload("sysbench-rw")
    return WorkloadMix.weighted("webshop", [
        (base, 0.4),
        (replace(base, name="sysbench-rw-peak", threads=2 * base.threads,
                 skew=min(base.skew + 0.1, 0.99)), 0.3),
        (replace(base, name="sysbench-rw-grown",
                 working_set_frac=min(1.5 * base.working_set_frac, 1.0)),
         0.2),
        (replace(base, name="sysbench-rw-readier",
                 read_frac=min(base.read_frac + 0.1, 1.0)), 0.1),
    ])


def _measure_full(tuner: CDBTune, hardware: HardwareSpec, mix: WorkloadMix,
                  config: Dict[str, float]):
    """Score a configuration on the full mix at the verification trial."""
    database = tuner.make_database(hardware, mix)
    observation = database.evaluate(config, trial=ConfigVerifier.VERIFY_TRIAL)
    return observation.performance


def _train_kwargs(scale: Scale) -> Dict[str, object]:
    # exploit_frac=0 removes the exploit-around-best lottery: those moves
    # occasionally jackpot on one arm's environment and not the other's,
    # which would make the arm comparison measure exploration luck rather
    # than evaluation economy.  All arms share the LHS warmup schedule and
    # the policy's own actions after it.
    return {"episode_length": scale.episode_length,
            "probe_every": scale.probe_every,
            "stop_on_convergence": False,
            "exploit_frac": 0.0}


def run_reuse(scale: Scale = SMOKE, seed: int = 0,
              hardware: HardwareSpec = CDB_C,
              mix: WorkloadMix | None = None,
              repeats: int | None = None) -> ReuseResult:
    """Run the three-arm budget sweep; deterministic under ``seed``.

    Each (arm, budget) point is the mean over ``repeats`` seeds
    (default ``max(scale.repeats, 3)``): at smoke budgets a single RL
    run's final score is dominated by exploration luck, and the bench
    gates compare arms, not lottery tickets.
    """
    mix = mix if mix is not None else default_mix()
    repeats = max(scale.repeats, 3) if repeats is None else int(repeats)
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    budgets = sorted({max(6, round(scale.train_steps * frac))
                      for frac in (1 / 3, 2 / 3, 1.0)})
    kwargs = _train_kwargs(scale)
    runs = [_run_curves(scale, seed + offset, hardware, mix, budgets, kwargs)
            for offset in range(repeats)]
    first = runs[0]
    result = ReuseResult(budgets=budgets,
                         compression_ratio=first.compression_ratio,
                         compression_error=first.compression_error,
                         history_records=first.history_records)
    for index in range(len(first.rows)):
        points = [run.rows[index] for run in runs]
        result.rows.append(ReuseRow(
            arm=points[0].arm, budget=points[0].budget,
            final_score=sum(p.final_score for p in points) / repeats,
            final_throughput=(sum(p.final_throughput for p in points)
                              / repeats),
            final_latency=sum(p.final_latency for p in points) / repeats,
            full_equiv_evals=(sum(p.full_equiv_evals for p in points)
                              / repeats),
            wall_s=sum(p.wall_s for p in points) / repeats))
    return result


def _run_curves(scale: Scale, seed: int, hardware: HardwareSpec,
                mix: WorkloadMix, budgets: List[int],
                kwargs: Dict[str, object]) -> ReuseResult:
    """One seed's pass over every (arm, budget) point."""
    result = ReuseResult(budgets=budgets)

    # Donor session: a prior tenant on the same workload whose evaluations
    # seed the history store.  Its cost is sunk — history reuse is exactly
    # the claim that yesterday's bill pays part of today's — and it ran at
    # a *mature* budget (3× today's largest), because the repeat-tenant
    # premise is that the accumulated history knows this workload well.
    donor = CDBTune(seed=seed + 1000, noise=0.0)
    donor.offline_train(hardware, mix, max_steps=3 * max(budgets), **kwargs)
    donor_tuning = donor.tune(hardware, mix, steps=scale.tune_steps)
    history = HistoryStore()
    history.add_result(mix.signature(), donor_tuning, source="donor",
                       workload=mix.name)
    result.history_records = len(history)

    compressor = WorkloadCompressor(max_components=1)
    compression = compressor.compress(mix)
    result.compression_ratio = compression.compression_ratio
    result.compression_error = compression.error_estimate
    ratio = compression.compression_ratio

    for budget in budgets:
        # -- full: cold start, every evaluation at full price --------------
        tick = time.perf_counter()
        tuner = CDBTune(seed=seed, noise=0.0)
        training = tuner.offline_train(hardware, mix, max_steps=budget,
                                       **kwargs)
        tuning = tuner.tune(hardware, mix, steps=scale.tune_steps)
        evals = (training.telemetry.counters.get("evaluations", 0)
                 + tuning.telemetry.counters.get("evaluations", 0))
        perf = _measure_full(tuner, hardware, mix, tuning.best_config)
        result.rows.append(ReuseRow(
            arm="full", budget=budget,
            final_score=performance_score(perf),
            final_throughput=perf.throughput, final_latency=perf.latency,
            full_equiv_evals=float(evals),
            wall_s=time.perf_counter() - tick))

        # -- compressed: cheap loop + staged verification -------------------
        # Tuning steps on the compressed mix cost ratio× a full step, so
        # the arm can afford twice as many and still come out far ahead;
        # the wider candidate pool also counters proxy-selection bias
        # (the compressed-mix argmax is not quite the full-mix argmax).
        tick = time.perf_counter()
        tuner = CDBTune(seed=seed, noise=0.0)
        training = tuner.offline_train(hardware, compression.mix,
                                       max_steps=budget, **kwargs)
        tuning = tuner.tune(hardware, compression.mix,
                            steps=2 * scale.tune_steps)
        cheap_evals = (training.telemetry.counters.get("evaluations", 0)
                       + tuning.telemetry.counters.get("evaluations", 0))
        candidates = [(record.knobs, performance_score(record.performance))
                      for record in tuning.records if not record.crashed]
        candidates.append((tuning.best_config,
                           performance_score(tuning.best)))
        full_db = tuner.make_database(hardware, mix)
        verification = ConfigVerifier(full_db, top_k=5).verify(candidates)
        if verification.winner_performance is not None:
            perf = verification.winner_performance
        else:       # every promoted candidate crashed: fall back, re-measure
            perf = _measure_full(tuner, hardware, mix, tuning.best_config)
        result.rows.append(ReuseRow(
            arm="compressed", budget=budget,
            final_score=performance_score(perf),
            final_throughput=perf.throughput, final_latency=perf.latency,
            full_equiv_evals=(float(cheap_evals) * ratio
                              + verification.full_evaluations),
            wall_s=time.perf_counter() - tick))

        # -- history: full price per evaluation, warm knowledge -------------
        tick = time.perf_counter()
        tuner = CDBTune(seed=seed, noise=0.0)
        bootstrap = history.bootstrap(mix.signature(), tuner.registry)
        training = tuner.offline_train(
            hardware, mix, max_steps=budget,
            warmup_seeds=bootstrap["warmup_seeds"],
            replay_seeds=bootstrap["replay_seeds"], **kwargs)
        tuning = tuner.tune(hardware, mix, steps=scale.tune_steps)
        evals = (training.telemetry.counters.get("evaluations", 0)
                 + tuning.telemetry.counters.get("evaluations", 0))
        perf = _measure_full(tuner, hardware, mix, tuning.best_config)
        result.rows.append(ReuseRow(
            arm="history", budget=budget,
            final_score=performance_score(perf),
            final_throughput=perf.throughput, final_latency=perf.latency,
            full_equiv_evals=float(evals),
            wall_s=time.perf_counter() - tick))

    return result
