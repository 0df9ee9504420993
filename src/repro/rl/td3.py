"""Twin Delayed DDPG (TD3) — an extension beyond the paper.

The paper closes with "some other ML solutions can be explored to improve
the database tuning performance further" (§7).  TD3 (Fujimoto et al., 2018)
is the natural first step past DDPG: it addresses exactly the
overestimation and policy-drift instabilities we observe when training on
the cliff-rich knob landscape, via

1. **twin critics** — the TD target uses the minimum of two critics,
   damping overestimation around the crash region;
2. **target policy smoothing** — the bootstrap action gets clipped noise,
   so sharp Q spikes (the narrow buffer-pool window) don't get exploited
   prematurely;
3. **delayed policy updates** — the actor moves once per ``policy_delay``
   critic updates.

The agent is API-compatible with :class:`~repro.rl.ddpg.DDPGAgent` so the
tuning pipelines accept either (see the ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .. import nn
from .ddpg import _imitate, _soft_update
from .networks import Critic, build_actor
from .noise import GaussianNoise
from .replay import PrioritizedReplayMemory, ReplayMemory, Transition
from .spaces import RunningNormalizer

__all__ = ["TD3Config", "TD3Agent"]


@dataclass
class TD3Config:
    """Hyper-parameters for :class:`TD3Agent`."""

    state_dim: int = 63
    action_dim: int = 266
    actor_hidden: Sequence[int] = (128, 128, 128, 64)
    critic_hidden: Sequence[int] = (256, 256, 64)
    critic_branch_width: int = 128
    dropout: float = 0.0
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    batch_size: int = 64
    memory_capacity: int = 100_000
    prioritized_replay: bool = True
    noise_sigma: float = 0.2
    noise_decay: float = 0.998
    noise_sigma_min: float = 0.02
    target_noise_sigma: float = 0.1
    target_noise_clip: float = 0.25
    policy_delay: int = 2
    grad_clip: float = 5.0
    reward_scale: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.state_dim <= 0 or self.action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")


class TD3Agent:
    """Twin-critic, delayed-policy variant of the CDBTune agent."""

    def __init__(self, config: TD3Config | None = None, **overrides) -> None:
        if config is None:
            config = TD3Config(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides, not both")
        self.config = config
        self.rng = np.random.default_rng(config.seed)

        def make_actor():
            return build_actor(config.state_dim, config.action_dim,
                               hidden=config.actor_hidden,
                               dropout=config.dropout, rng=self.rng)

        def make_critic():
            return Critic(config.state_dim, config.action_dim,
                          branch_width=config.critic_branch_width,
                          hidden=config.critic_hidden,
                          dropout=config.dropout, rng=self.rng)

        self.actor = make_actor()
        self.critic_1 = make_critic()
        self.critic_2 = make_critic()
        self.target_actor = make_actor()
        self.target_critic_1 = make_critic()
        self.target_critic_2 = make_critic()
        self.target_actor.load_state_dict(self.actor.state_dict())
        self.target_critic_1.load_state_dict(self.critic_1.state_dict())
        self.target_critic_2.load_state_dict(self.critic_2.state_dict())
        for net in (self.target_actor, self.target_critic_1,
                    self.target_critic_2):
            net.eval()

        self.actor_optimizer = nn.Adam(self.actor.parameters(),
                                       lr=config.actor_lr)
        self.critic_1_optimizer = nn.Adam(self.critic_1.parameters(),
                                          lr=config.critic_lr)
        self.critic_2_optimizer = nn.Adam(self.critic_2.parameters(),
                                          lr=config.critic_lr)

        if config.prioritized_replay:
            self.memory: ReplayMemory | PrioritizedReplayMemory = (
                PrioritizedReplayMemory(config.memory_capacity, rng=self.rng))
        else:
            self.memory = ReplayMemory(config.memory_capacity, rng=self.rng)
        self.noise = GaussianNoise(config.action_dim,
                                   sigma=config.noise_sigma,
                                   sigma_min=config.noise_sigma_min,
                                   decay=config.noise_decay, rng=self.rng)
        self.train_steps = 0
        self.best_known_action: np.ndarray | None = None
        self.last_imitate_losses: Dict[str, float] = {}
        self.state_normalizer: RunningNormalizer | None = None

    def _normalize(self, states: np.ndarray) -> np.ndarray:
        if self.state_normalizer is None:
            return states
        return self.state_normalizer.normalize(states)

    # -- acting --------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        if state.shape[1] != self.config.state_dim:
            raise ValueError(
                f"expected state dim {self.config.state_dim}, "
                f"got {state.shape[1]}")
        self.actor.eval()
        action = self.actor.forward(self._normalize(state))[0]
        self.actor.train()
        if explore:
            action = action + self.noise.sample()
        return np.clip(action, 0.0, 1.0)

    def reset_noise(self) -> None:
        self.noise.reset()

    def observe(self, state: np.ndarray, action: np.ndarray, reward: float,
                next_state: np.ndarray, done: bool = False) -> None:
        self.memory.push(Transition(
            state=np.asarray(state, dtype=np.float64),
            action=np.asarray(action, dtype=np.float64),
            reward=float(reward),
            next_state=np.asarray(next_state, dtype=np.float64),
            done=bool(done)))

    # -- learning --------------------------------------------------------------
    def update(self) -> Dict[str, float] | None:
        cfg = self.config
        if len(self.memory) < cfg.batch_size:
            return None
        batch = self.memory.sample(cfg.batch_size)
        states = self._normalize(batch.states)
        next_states = self._normalize(batch.next_states)
        weights = batch.weights.reshape(-1, 1)

        # Target policy smoothing.
        next_actions = self.target_actor.forward(next_states)
        smoothing = np.clip(
            cfg.target_noise_sigma
            * self.rng.standard_normal(next_actions.shape),
            -cfg.target_noise_clip, cfg.target_noise_clip)
        next_actions = np.clip(next_actions + smoothing, 0.0, 1.0)

        # Clipped double-Q target.
        q1_next = self.target_critic_1.forward(next_states, next_actions)
        q2_next = self.target_critic_2.forward(next_states, next_actions)
        q_next = np.minimum(q1_next, q2_next)
        rewards = cfg.reward_scale * batch.rewards.reshape(-1, 1)
        targets = rewards + cfg.gamma * (
            1.0 - batch.dones.reshape(-1, 1)) * q_next

        losses = {}
        td_for_priorities = None
        for name, critic, optimizer in (
                ("critic_1", self.critic_1, self.critic_1_optimizer),
                ("critic_2", self.critic_2, self.critic_2_optimizer)):
            critic.train()
            values = critic.forward(states, batch.actions)
            diff = values - targets
            if td_for_priorities is None:
                td_for_priorities = diff.reshape(-1)
            # Huber gradient, robust to the crash-penalty outliers.
            grad = weights * np.clip(diff, -1.0, 1.0) / values.shape[0]
            losses[name] = float(np.mean(weights * np.minimum(
                0.5 * diff ** 2, np.abs(diff) - 0.5)))
            optimizer.zero_grad()
            critic.backward(grad)
            nn.clip_grad_norm(critic.parameters(), cfg.grad_clip)
            optimizer.step()

        if isinstance(self.memory, PrioritizedReplayMemory):
            self.memory.update_priorities(batch.indices, td_for_priorities)

        self.train_steps += 1
        if self.train_steps % cfg.policy_delay == 0:
            self.actor.train()
            actions = self.actor.forward(states)
            self.critic_1.eval()
            q_values = self.critic_1.forward(states, actions)
            _, grad_action = self.critic_1.backward(
                -np.ones_like(q_values) / q_values.shape[0])
            self.critic_1.zero_grad()
            self.critic_1.train()
            self.actor_optimizer.zero_grad()
            self.actor.backward(grad_action)
            nn.clip_grad_norm(self.actor.parameters(), cfg.grad_clip)
            self.actor_optimizer.step()
            losses["actor_loss"] = float(-np.mean(q_values))

            _soft_update(self.target_actor, self.actor, cfg.tau)
            _soft_update(self.target_critic_1, self.critic_1, cfg.tau)
            _soft_update(self.target_critic_2, self.critic_2, cfg.tau)
        return losses

    # -- pipeline compatibility -------------------------------------------------
    def action_gradient(self, state: np.ndarray,
                        action: np.ndarray) -> np.ndarray:
        """∇_a min(Q1, Q2)(s, a) approximated by Q1's gradient."""
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        action = np.asarray(action, dtype=np.float64).reshape(1, -1)
        self.critic_1.eval()
        value = self.critic_1.forward(self._normalize(state), action)
        _, grad_action = self.critic_1.backward(np.ones_like(value))
        self.critic_1.zero_grad()
        self.critic_1.train()
        return grad_action.reshape(-1)

    def imitate(self, states: np.ndarray, target_action: np.ndarray,
                lr: float | None = None) -> float:
        """Logit-space behaviour cloning toward a known-good action: the
        same step as :meth:`DDPGAgent.imitate`."""
        return _imitate(self, states, target_action, lr)

    # -- persistence ---------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for prefix, module in (("actor.", self.actor),
                               ("critic_1.", self.critic_1),
                               ("critic_2.", self.critic_2),
                               ("target_actor.", self.target_actor),
                               ("target_critic_1.", self.target_critic_1),
                               ("target_critic_2.", self.target_critic_2)):
            for name, value in module.state_dict().items():
                state[prefix + name] = value
        if self.best_known_action is not None:
            state["best_known_action"] = self.best_known_action.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for prefix, module in (("actor.", self.actor),
                               ("critic_1.", self.critic_1),
                               ("critic_2.", self.critic_2),
                               ("target_actor.", self.target_actor),
                               ("target_critic_1.", self.target_critic_1),
                               ("target_critic_2.", self.target_critic_2)):
            module.load_state_dict({
                name[len(prefix):]: value
                for name, value in state.items()
                if name.startswith(prefix)})
        if "best_known_action" in state:
            self.best_known_action = np.asarray(
                state["best_known_action"], dtype=np.float64).copy()
