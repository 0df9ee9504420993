"""Reward functions (§4.2 and Appendix C.1.1).

The paper's reward compares current performance against both the *initial*
settings (the tuning goal) and the *previous* step (the tuning trend):

* ``Δ_{t→0} = (T_t − T_0) / T_0`` and ``Δ_{t→t−1} = (T_t − T_{t−1}) / T_{t−1}``
  for throughput (Eq. 4); latency flips the sign because lower is better
  (Eq. 5).
* Eq. 6 combines them quadratically; when the Eq. 6 result is positive but
  the step-over-step delta is negative, the reward is zeroed so intermediate
  regressions are not rewarded.
* Eq. 7 blends the throughput and latency rewards: ``r = C_T·r_T + C_L·r_L``
  with ``C_T + C_L = 1``.

Appendix C.1.1 ablates three alternatives (RF-A: previous-only, RF-B:
initial-only, RF-C: no zeroing rule), all reproduced here behind a common
interface.  A large constant punishment (the paper uses −100 for crashes
caused by oversized redo logs, §5.2.3) is exposed as ``crash_penalty``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PerformanceSample",
    "performance_score",
    "delta",
    "RewardFunction",
    "CDBTuneReward",
    "PreviousOnlyReward",
    "InitialOnlyReward",
    "NoZeroingReward",
    "make_reward_function",
    "REWARD_FUNCTIONS",
]


@dataclass(frozen=True)
class PerformanceSample:
    """External metrics of one stress test: throughput (txn/s), latency (ms)."""

    throughput: float
    latency: float

    def __post_init__(self) -> None:
        if self.throughput < 0:
            raise ValueError("throughput must be non-negative")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")


def performance_score(performance: "PerformanceSample | None") -> float:
    """The tuner's selection score, throughput / latency^0.25.

    ``performance`` is anything with ``throughput`` and ``latency``
    attributes; a missing measurement (``None``) scores ``-inf``.
    """
    if performance is None:
        return float("-inf")
    return performance.throughput / max(performance.latency, 1e-9) ** 0.25


_DELTA_CLIP = 100.0  # ±10000 % change carries no additional signal


def delta(current: float, reference: float, lower_is_better: bool = False) -> float:
    """Rate of change from ``reference`` to ``current`` (Eqs. 4 and 5).

    For latency-like metrics the sign flips: improvement (a drop) is
    positive.  Clipped to ±10000 % so degenerate measurements (e.g. a
    thrashing instance with astronomical latency) cannot overflow Eq. 6.
    """
    reference = max(reference, 1e-12)
    change = (current - reference) / reference
    change = max(-_DELTA_CLIP, min(change, _DELTA_CLIP))
    return -change if lower_is_better else change


def _scalar_reward(d_initial: float, d_previous: float) -> float:
    """Eq. 6 for a single metric (throughput or latency)."""
    if d_initial > 0:
        return ((1.0 + d_initial) ** 2 - 1.0) * abs(1.0 + d_previous)
    return -((1.0 - d_initial) ** 2 - 1.0) * abs(1.0 - d_previous)


class RewardFunction:
    """Base reward: tracks the initial and previous performance samples."""

    name = "base"

    def __init__(self, c_throughput: float = 0.5, c_latency: float = 0.5,
                 crash_penalty: float = -100.0) -> None:
        if abs(c_throughput + c_latency - 1.0) > 1e-9:
            raise ValueError("C_T + C_L must equal 1 (Eq. 7)")
        if c_throughput < 0 or c_latency < 0:
            raise ValueError("coefficients must be non-negative")
        self.c_throughput = float(c_throughput)
        self.c_latency = float(c_latency)
        self.crash_penalty = float(crash_penalty)
        self._initial: PerformanceSample | None = None
        self._previous: PerformanceSample | None = None

    def reset(self, initial: PerformanceSample) -> None:
        """Start a tuning episode from the pre-tuning performance."""
        self._initial = initial
        self._previous = initial

    def observe_restart(self, restarted: PerformanceSample) -> None:
        """Re-anchor the trend baseline after a crash-restart.

        The controller restarts a crashed instance with the default
        configuration, so the next step's Δ_{t→t−1} must compare against
        the restarted instance's measured performance — not the pre-crash
        sample of a configuration that is no longer running.  The initial
        (T₀/L₀) baseline is untouched: the tuning goal does not move.
        """
        if self._initial is None:
            raise RuntimeError("reward function used before reset()")
        self._previous = restarted

    # -- snapshot/restore (noise-free greedy probes run on saved state) ------
    def state_dict(self) -> dict:
        return {"initial": self._initial, "previous": self._previous}

    def load_state_dict(self, state: dict) -> None:
        self._initial = state["initial"]
        self._previous = state["previous"]

    @property
    def initial(self) -> PerformanceSample | None:
        return self._initial

    @property
    def previous(self) -> PerformanceSample | None:
        return self._previous

    def __call__(self, current: PerformanceSample | None) -> float:
        """Reward for the step that produced ``current`` (None = crash)."""
        if self._initial is None or self._previous is None:
            raise RuntimeError("reward function used before reset()")
        if current is None:
            return self.crash_penalty
        r_throughput = self._metric_reward(
            current.throughput, self._previous.throughput,
            self._initial.throughput, lower_is_better=False,
        )
        r_latency = self._metric_reward(
            current.latency, self._previous.latency,
            self._initial.latency, lower_is_better=True,
        )
        self._previous = current
        return self.c_throughput * r_throughput + self.c_latency * r_latency

    def _metric_reward(self, current: float, previous: float, initial: float,
                       lower_is_better: bool) -> float:
        raise NotImplementedError


class CDBTuneReward(RewardFunction):
    """RF-CDBTune (§4.2): Eq. 6 plus the zero-on-intermediate-regression rule."""

    name = "RF-CDBTune"

    def _metric_reward(self, current: float, previous: float, initial: float,
                       lower_is_better: bool) -> float:
        d_initial = delta(current, initial, lower_is_better)
        d_previous = delta(current, previous, lower_is_better)
        reward = _scalar_reward(d_initial, d_previous)
        if reward > 0 and d_previous < 0:
            return 0.0
        return reward


class PreviousOnlyReward(RewardFunction):
    """RF-A: compares only against the previous step (slowest convergence)."""

    name = "RF-A"

    def _metric_reward(self, current: float, previous: float, initial: float,
                       lower_is_better: bool) -> float:
        d_previous = delta(current, previous, lower_is_better)
        return _scalar_reward(d_previous, d_previous)


class InitialOnlyReward(RewardFunction):
    """RF-B: compares only against the initial settings (fast but worst)."""

    name = "RF-B"

    def _metric_reward(self, current: float, previous: float, initial: float,
                       lower_is_better: bool) -> float:
        d_initial = delta(current, initial, lower_is_better)
        return _scalar_reward(d_initial, d_initial)


class NoZeroingReward(RewardFunction):
    """RF-C: Eq. 6 without zeroing rewards on intermediate regressions."""

    name = "RF-C"

    def _metric_reward(self, current: float, previous: float, initial: float,
                       lower_is_better: bool) -> float:
        d_initial = delta(current, initial, lower_is_better)
        d_previous = delta(current, previous, lower_is_better)
        return _scalar_reward(d_initial, d_previous)


REWARD_FUNCTIONS = {
    cls.name: cls
    for cls in (CDBTuneReward, PreviousOnlyReward, InitialOnlyReward, NoZeroingReward)
}


def make_reward_function(name: str, **kwargs) -> RewardFunction:
    """Instantiate a reward function by its paper name (e.g. ``"RF-CDBTune"``)."""
    try:
        return REWARD_FUNCTIONS[name](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown reward function {name!r}; options: {sorted(REWARD_FUNCTIONS)}"
        ) from None
