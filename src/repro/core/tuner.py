"""The CDBTune facade: the end-to-end tuning system of Figure 2.

One :class:`CDBTune` object owns the DDPG agent, the state normalizer, the
knob registry (action space) and the reward function.  It is trained once
offline against standard workloads and then serves online tuning requests —
including on *different* hardware or workloads (the §5.3 adaptability
experiments), because nothing in the model is tied to the training
environment beyond what it learned.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .environment import TuningEnvironment
from .pipeline import TrainingResult, TuningResult, offline_train, online_tune
from .recommender import Recommender
from ..dbsim.engine import SimulatedDatabase
from ..dbsim.hardware import HardwareSpec
from ..dbsim.knobs import KnobRegistry
from ..dbsim.metrics import N_METRICS
from ..dbsim.mysql_knobs import mysql_registry
from ..dbsim.workload import WorkloadSpec, get_workload
from ..rl.ddpg import DDPGAgent, DDPGConfig
from ..rl.reward import CDBTuneReward, RewardFunction
from ..rl.spaces import RunningNormalizer
from .. import nn

__all__ = ["CDBTune"]


class CDBTune:
    """End-to-end automatic cloud database tuning with deep RL.

    Parameters
    ----------
    registry:
        Knob catalog defining the action space (default: MySQL's 266).
    db_registry:
        Full catalog of the target database when ``registry`` is a subset
        (Figures 6-8 tune knob prefixes while the instance keeps every
        other knob at its default); defaults to ``registry``.
    adapter:
        Optional knob-name adapter for non-MySQL engines (Appendix C.3).
    reward_function:
        §4.2 reward; defaults to RF-CDBTune with C_T = C_L = 0.5.
    agent_config:
        DDPG hyper-parameter overrides; ``state_dim``/``action_dim`` are
        filled in automatically.
    noise:
        Measurement jitter of environments created by this tuner.
    seed:
        Seeds the agent and environments.
    """

    def __init__(self, registry: KnobRegistry | None = None,
                 db_registry: KnobRegistry | None = None,
                 adapter: Mapping[str, str] | None = None,
                 reward_function: RewardFunction | None = None,
                 agent_config: DDPGConfig | None = None,
                 noise: float = 0.015, seed: int = 0, **agent_overrides) -> None:
        self.registry = registry if registry is not None else mysql_registry()
        self.db_registry = (db_registry if db_registry is not None
                            else self.registry)
        missing = [n for n in self.registry.names
                   if n not in self.db_registry]
        if missing:
            raise KeyError(f"action knobs missing from db_registry: {missing}")
        self.adapter = dict(adapter) if adapter is not None else None
        self.reward_function = (reward_function if reward_function is not None
                                else CDBTuneReward())
        self.noise = float(noise)
        self.seed = int(seed)
        if agent_config is None:
            # Stability-tuned defaults.  They deviate from Table 5/4 in two
            # places — dropout 0 (vs 0.3) and actor lr 1e-4 (vs 1e-3) —
            # because on the fast simulator those settings make DDPG
            # converge reliably across seeds; the paper's exact values
            # remain available through ``agent_config=DDPGConfig(...)``.
            defaults = dict(
                tau=0.005, actor_lr=1e-4, critic_lr=1e-3,
                batch_size=64, noise_decay=0.998, dropout=0.0,
            )
            defaults.update(agent_overrides)
            agent_config = DDPGConfig(
                state_dim=N_METRICS,
                action_dim=self.registry.n_tunable,
                seed=seed,
                **defaults,
            )
        elif agent_overrides:
            raise TypeError(
                "pass either agent_config or keyword overrides, not both")
        if agent_config.action_dim != self.registry.n_tunable:
            raise ValueError(
                f"agent action_dim {agent_config.action_dim} != "
                f"{self.registry.n_tunable} tunable knobs")
        self.agent = DDPGAgent(agent_config)
        self.agent.state_normalizer = RunningNormalizer(N_METRICS)
        self.recommender = Recommender(self.registry)
        self.trained = False

    # -- environment construction ------------------------------------------------
    def make_database(self, hardware: HardwareSpec,
                      workload: WorkloadSpec | str) -> SimulatedDatabase:
        if isinstance(workload, str):
            workload = get_workload(workload)
        if not isinstance(workload, WorkloadSpec):
            # A WorkloadMix (duck-typed: .name/.signature()) gets a
            # MixDatabase, which exposes the SimulatedDatabase surface.
            # Imported lazily: repro.reuse imports from repro.core.
            from ..reuse.mix import MixDatabase, WorkloadMix
            if not isinstance(workload, WorkloadMix):
                raise TypeError(
                    f"workload must be a WorkloadSpec, WorkloadMix or "
                    f"name, got {type(workload).__name__}")
            return MixDatabase(hardware, workload,
                               registry=self.db_registry,
                               adapter=self.adapter, noise=self.noise,
                               seed=self.seed)
        return SimulatedDatabase(hardware, workload,
                                 registry=self.db_registry,
                                 adapter=self.adapter, noise=self.noise,
                                 seed=self.seed)

    def make_environment(self, hardware: HardwareSpec,
                         workload: WorkloadSpec | str) -> TuningEnvironment:
        return TuningEnvironment(self.make_database(hardware, workload),
                                 action_registry=self.registry,
                                 reward_function=self.reward_function)

    # -- offline training ----------------------------------------------------------
    def offline_train(self, hardware: HardwareSpec,
                      workload: WorkloadSpec | str,
                      **train_kwargs) -> TrainingResult:
        """Cold-start training on a standard workload (§2.1.1)."""
        env = self.make_environment(hardware, workload)
        result = offline_train(env, self.agent, **train_kwargs)
        self.trained = True
        return result

    # -- online tuning --------------------------------------------------------------
    def tune(self, hardware: HardwareSpec, workload: WorkloadSpec | str,
             steps: int = 5,
             initial_config: Dict[str, float] | None = None,
             fine_tune: bool = True, **tune_kwargs) -> TuningResult:
        """Serve one tuning request (§2.1.2); at most ``steps`` trials."""
        env = self.make_environment(hardware, workload)
        return online_tune(env, self.agent, steps=steps,
                           initial_config=initial_config,
                           fine_tune=fine_tune, **tune_kwargs)

    def recommend(self, state: np.ndarray) -> Dict[str, float]:
        """Map a raw 63-metric state to a physical configuration."""
        action = self.agent.act(state, explore=False)
        return self.recommender.from_action(action).config

    # -- persistence ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the full agent state — weights, normalizer statistics and
        optimizer moments — to ``.npz`` (written atomically)."""
        nn.save_state(self.agent.state_dict(), path)

    def load(self, path) -> "CDBTune":
        state = nn.load_state(path)
        # Legacy checkpoints stored normalizer statistics under a
        # tuner-level "normalizer." prefix; the agent now owns them as
        # "state_normalizer.".  Rename so both vintages load.
        for key in [k for k in state if k.startswith("normalizer.")]:
            state["state_normalizer." + key[len("normalizer."):]] = (
                state.pop(key))
        self.agent.load_state_dict(state)
        self.trained = True
        return self

    def clone(self) -> "CDBTune":
        """Copy of this tuner with identical weights (for cross-testing)."""
        other = CDBTune(registry=self.registry, db_registry=self.db_registry,
                        adapter=self.adapter,
                        reward_function=type(self.reward_function)(
                            c_throughput=self.reward_function.c_throughput,
                            c_latency=self.reward_function.c_latency),
                        agent_config=self.agent.config,
                        noise=self.noise, seed=self.seed)
        other.agent.load_state_dict(self.agent.state_dict())
        assert self.agent.state_normalizer is not None
        assert other.agent.state_normalizer is not None
        other.agent.state_normalizer.load_state_dict(
            self.agent.state_normalizer.state_dict())
        other.trained = self.trained
        return other
