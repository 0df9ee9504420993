"""Deep Deterministic Policy Gradient (§4.1, Algorithm 1).

The agent holds four networks — actor µ, critic Q and their slowly-tracking
target copies µ′, Q′ — and learns from minibatches of transitions sampled
from the memory pool:

1. sample ``(s_t, r_t, a_t, s_{t+1})`` from replay;
2. ``a′_{t+1} = µ′(s_{t+1})``;
3. ``V_{t+1} = Q′(s_{t+1}, a′_{t+1})``;
4. target ``V′_t = r_t + γ·V_{t+1}``  (Q-learning bootstrap);
5. ``V_t = Q(s_t, a_t)``;
6. critic descends the squared TD error;
7. actor ascends ``Q(s_t, µ(s_t))`` via the chain rule
   ``∇_a Q · ∇_{θ^µ} µ``.

Hyper-parameters default to the paper's Table 4: learning rate 1e-3,
γ = 0.99, weights U(−0.1, 0.1).  Prioritized replay (§5.1) is optional and
on by default — the paper reports it halves training iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from .. import nn
from ..obs import get_metrics
from .networks import Critic, build_actor
from .noise import GaussianNoise, OrnsteinUhlenbeckNoise
from .replay import PrioritizedReplayMemory, ReplayMemory, Transition
from .spaces import RunningNormalizer

__all__ = ["DDPGConfig", "DDPGAgent"]


@dataclass
class DDPGConfig:
    """Hyper-parameters for :class:`DDPGAgent` (defaults follow the paper)."""

    state_dim: int = 63
    action_dim: int = 266
    actor_hidden: Sequence[int] = (128, 128, 128, 64)
    critic_hidden: Sequence[int] = (256, 256, 64)
    critic_branch_width: int = 128
    dropout: float = 0.3
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.01
    batch_size: int = 32
    memory_capacity: int = 100_000
    prioritized_replay: bool = True
    per_alpha: float = 0.6
    per_beta: float = 0.4
    noise_sigma: float = 0.2
    noise_theta: float = 0.15
    noise_type: str = "ou"  # "ou" | "gaussian"
    grad_clip: float = 5.0
    reward_scale: float = 0.1
    critic_loss: str = "huber"  # "huber" | "mse"
    huber_delta: float = 1.0
    noise_decay: float = 1.0    # per-sample multiplicative sigma decay
    noise_sigma_min: float = 0.02
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.state_dim <= 0 or self.action_dim <= 0:
            raise ValueError("state_dim and action_dim must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.noise_type not in ("ou", "gaussian"):
            raise ValueError(f"unknown noise type {self.noise_type!r}")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")
        if self.critic_loss not in ("huber", "mse"):
            raise ValueError(f"unknown critic loss {self.critic_loss!r}")
        if not 0.0 < self.noise_decay <= 1.0:
            raise ValueError("noise_decay must be in (0, 1]")


def _soft_update(target: nn.Module, source: nn.Module, tau: float) -> None:
    """θ′ ← τ·θ + (1 − τ)·θ′ for every parameter and running buffer."""
    for tgt_param, src_param in zip(target.parameters(), source.parameters()):
        tgt_param.value *= 1.0 - tau
        tgt_param.value += tau * src_param.value
    for tgt_mod, src_mod in zip(target.modules(), source.modules()):
        if isinstance(tgt_mod, nn.BatchNorm1d):
            tgt_mod.running_mean = (
                (1.0 - tau) * tgt_mod.running_mean + tau * src_mod.running_mean)
            tgt_mod.running_var = (
                (1.0 - tau) * tgt_mod.running_var + tau * src_mod.running_var)


def _imitate(agent, states: np.ndarray, target_action: np.ndarray,
             lr: float | None = None) -> float:
    """The behaviour-cloning step of :meth:`DDPGAgent.imitate`, shared with
    the TD3 agent."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    target = np.asarray(target_action, dtype=np.float64).reshape(1, -1)
    if target.shape[1] != agent.config.action_dim:
        raise ValueError("target action has wrong dimension")
    agent.actor.train()
    output = agent.actor.forward(agent._normalize(states))
    # Regress in logit space: the knob optimum can be ~1 % of the unit
    # range wide, and output-space MSE stalls against the sigmoid's
    # saturation long before that precision.
    eps = 1e-6
    out_c = np.clip(output, eps, 1.0 - eps)
    tgt_c = np.clip(np.broadcast_to(target, output.shape), eps, 1.0 - eps)
    z = np.log(out_c / (1.0 - out_c))
    z_target = np.log(tgt_c / (1.0 - tgt_c))
    diff = z - z_target
    loss = float(np.mean(diff ** 2))
    agent.last_imitate_losses = {
        "logit_mse": loss,
        "output_mse": float(np.mean((output - tgt_c) ** 2)),
    }
    grad = 2.0 * diff / diff.size / np.maximum(out_c * (1.0 - out_c), eps)
    optimizer = agent.actor_optimizer
    optimizer.zero_grad()
    agent.actor.backward(grad)
    nn.clip_grad_norm(agent.actor.parameters(), agent.config.grad_clip)
    saved_lr = optimizer.lr
    if lr is not None:
        optimizer.lr = float(lr)
    try:
        optimizer.step()
    finally:
        optimizer.lr = saved_lr
    _soft_update(agent.target_actor, agent.actor, agent.config.tau)
    return loss


class DDPGAgent:
    """The deep-RL agent of CDBTune: recommends knob vectors in [0, 1]^m."""

    def __init__(self, config: DDPGConfig | None = None, **overrides) -> None:
        if config is None:
            config = DDPGConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides, not both")
        self.config = config
        self.rng = np.random.default_rng(config.seed)

        self.actor = build_actor(config.state_dim, config.action_dim,
                                 hidden=config.actor_hidden,
                                 dropout=config.dropout, rng=self.rng)
        self.critic = Critic(config.state_dim, config.action_dim,
                             branch_width=config.critic_branch_width,
                             hidden=config.critic_hidden,
                             dropout=config.dropout, rng=self.rng)
        self.target_actor = build_actor(config.state_dim, config.action_dim,
                                        hidden=config.actor_hidden,
                                        dropout=config.dropout, rng=self.rng)
        self.target_critic = Critic(config.state_dim, config.action_dim,
                                    branch_width=config.critic_branch_width,
                                    hidden=config.critic_hidden,
                                    dropout=config.dropout, rng=self.rng)
        self.target_actor.load_state_dict(self.actor.state_dict())
        self.target_critic.load_state_dict(self.critic.state_dict())
        self.target_actor.eval()
        self.target_critic.eval()

        self.actor_optimizer = nn.Adam(self.actor.parameters(), lr=config.actor_lr)
        self.critic_optimizer = nn.Adam(self.critic.parameters(), lr=config.critic_lr)
        self.loss_fn = nn.MSELoss()

        if config.prioritized_replay:
            self.memory: ReplayMemory | PrioritizedReplayMemory = (
                PrioritizedReplayMemory(config.memory_capacity,
                                        alpha=config.per_alpha,
                                        beta=config.per_beta, rng=self.rng)
            )
        else:
            self.memory = ReplayMemory(config.memory_capacity, rng=self.rng)

        if config.noise_type == "ou":
            self.noise = OrnsteinUhlenbeckNoise(
                config.action_dim, theta=config.noise_theta,
                sigma=config.noise_sigma, rng=self.rng)
        else:
            self.noise = GaussianNoise(config.action_dim,
                                       sigma=config.noise_sigma, rng=self.rng)
        self.train_steps = 0
        # Best configuration (action vector) measured during offline
        # training, set when training ends; online tuning measures it at
        # its first step.
        self.best_known_action: np.ndarray | None = None
        # Losses of the most recent imitate() call: the optimized
        # logit-space MSE and the diagnostic output-space MSE.
        self.last_imitate_losses: Dict[str, float] = {}
        # Raw 63-metric states span many orders of magnitude; transitions are
        # stored raw and normalized at act/update time so old replay samples
        # track the evolving statistics.
        self.state_normalizer: RunningNormalizer | None = None

    def _normalize(self, states: np.ndarray) -> np.ndarray:
        if self.state_normalizer is None:
            return states
        return self.state_normalizer.normalize(states)

    # -- acting ------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """Deterministic action µ(s), optionally perturbed by exploration noise."""
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        if state.shape[1] != self.config.state_dim:
            raise ValueError(
                f"expected state dim {self.config.state_dim}, got {state.shape[1]}"
            )
        self.actor.eval()
        action = self.actor.forward(self._normalize(state))[0]
        self.actor.train()
        if explore:
            action = action + self.noise.sample()
            if self.config.noise_decay < 1.0:
                self.noise.sigma = max(self.config.noise_sigma_min,
                                       self.noise.sigma * self.config.noise_decay)
        return np.clip(action, 0.0, 1.0)

    def reset_noise(self) -> None:
        self.noise.reset()

    # -- experience ----------------------------------------------------------
    def observe(self, state: np.ndarray, action: np.ndarray, reward: float,
                next_state: np.ndarray, done: bool = False) -> None:
        self.memory.push(Transition(
            state=np.asarray(state, dtype=np.float64),
            action=np.asarray(action, dtype=np.float64),
            reward=float(reward),
            next_state=np.asarray(next_state, dtype=np.float64),
            done=bool(done),
        ))

    # -- learning ------------------------------------------------------------
    def update(self) -> Dict[str, float] | None:
        """One Algorithm-1 gradient step; returns losses, or None if the
        memory holds fewer transitions than a batch."""
        if len(self.memory) < self.config.batch_size:
            return None
        batch = self.memory.sample(self.config.batch_size)
        gamma = self.config.gamma
        states = self._normalize(batch.states)
        next_states = self._normalize(batch.next_states)

        # Steps 2-4: bootstrap target value through the target networks.
        next_actions = self.target_actor.forward(next_states)
        next_values = self.target_critic.forward(next_states, next_actions)
        # Eq. 6 rewards span orders of magnitude (a 20x throughput gain
        # scores in the hundreds); a fixed linear rescale keeps critic
        # targets in a trainable range without changing the optimal policy.
        rewards = self.config.reward_scale * batch.rewards.reshape(-1, 1)
        targets = rewards + (
            gamma * (1.0 - batch.dones.reshape(-1, 1)) * next_values
        )

        # Steps 5-6: critic regression on the TD target.  Huber keeps the
        # -100 crash-penalty outliers from swamping the update.
        self.critic.train()
        values = self.critic.forward(states, batch.actions)
        td_errors = (values - targets).reshape(-1)
        weights = batch.weights.reshape(-1, 1)
        diff = values - targets
        if self.config.critic_loss == "huber":
            delta = self.config.huber_delta
            abs_diff = np.abs(diff)
            loss_terms = np.where(abs_diff <= delta, 0.5 * diff ** 2,
                                  delta * (abs_diff - 0.5 * delta))
            critic_loss = float(np.mean(weights * loss_terms))
            grad = weights * np.clip(diff, -delta, delta) / values.shape[0]
        else:
            critic_loss = float(np.mean(weights * diff ** 2))
            grad = 2.0 * weights * diff / values.shape[0]
        self.critic_optimizer.zero_grad()
        self.critic.backward(grad)
        nn.clip_grad_norm(self.critic.parameters(), self.config.grad_clip)
        self.critic_optimizer.step()

        if isinstance(self.memory, PrioritizedReplayMemory):
            self.memory.update_priorities(batch.indices, td_errors)

        # Step 7: deterministic policy gradient through the critic.
        self.actor.train()
        actions = self.actor.forward(states)
        self.critic.eval()
        q_values = self.critic.forward(states, actions)
        actor_loss = float(-np.mean(q_values))
        _, grad_action = self.critic.backward(
            -np.ones_like(q_values) / q_values.shape[0]
        )
        self.critic.zero_grad()  # policy step must not disturb critic grads
        self.critic.train()
        self.actor_optimizer.zero_grad()
        self.actor.backward(grad_action)
        nn.clip_grad_norm(self.actor.parameters(), self.config.grad_clip)
        self.actor_optimizer.step()

        _soft_update(self.target_actor, self.actor, self.config.tau)
        _soft_update(self.target_critic, self.critic, self.config.tau)
        self.train_steps += 1
        metrics = get_metrics()
        metrics.gauge("ddpg.critic_loss").set(critic_loss)
        metrics.gauge("ddpg.actor_loss").set(actor_loss)
        metrics.counter("ddpg.updates").inc()
        return {"critic_loss": critic_loss, "actor_loss": actor_loss,
                "mean_q": float(np.mean(values))}

    def action_gradient(self, state: np.ndarray,
                        action: np.ndarray) -> np.ndarray:
        """∇_a Q(s, a): which knobs the critic believes matter, and in
        which direction (used to guide local search, §5.2.2's learned knob
        importance)."""
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        action = np.asarray(action, dtype=np.float64).reshape(1, -1)
        self.critic.eval()
        value = self.critic.forward(self._normalize(state), action)
        _, grad_action = self.critic.backward(np.ones_like(value))
        self.critic.zero_grad()
        self.critic.train()
        return grad_action.reshape(-1)

    def imitate(self, states: np.ndarray, target_action: np.ndarray,
                lr: float | None = None) -> float:
        """Supervised pull of the actor toward a known-good action.

        Behaviour-cloning regularization (cf. DDPG+BC): regressing µ(s)
        toward the best configuration found so far anchors the policy in
        the good region that exploration discovered, while the policy
        gradient keeps refining around it.

        Returns the *optimized* objective — the logit-space MSE the
        gradient actually descends — so callers' convergence checks test
        the quantity being minimized.  The output-space MSE is additionally
        reported in :attr:`last_imitate_losses` for diagnostics.
        """
        return _imitate(self, states, target_action, lr)

    # -- persistence -----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Everything needed to resume: network weights, the state
        normalizer's running statistics, both Adam optimizers' moments and
        the exploration-noise scale.  A checkpoint missing the auxiliary
        groups (one written by an older version) still loads — the agent
        keeps its current values for whatever is absent."""
        state: Dict[str, np.ndarray] = {}
        for prefix, module in (("actor.", self.actor),
                               ("critic.", self.critic),
                               ("target_actor.", self.target_actor),
                               ("target_critic.", self.target_critic)):
            for name, value in module.state_dict().items():
                state[prefix + name] = value
        for prefix, optimizer in (("actor_optimizer.", self.actor_optimizer),
                                  ("critic_optimizer.", self.critic_optimizer)):
            for name, value in optimizer.state_dict().items():
                state[prefix + name] = value
        if self.state_normalizer is not None:
            for name, value in self.state_normalizer.state_dict().items():
                state[f"state_normalizer.{name}"] = value
        if self.best_known_action is not None:
            state["best_known_action"] = self.best_known_action.copy()
        state["train_steps"] = np.asarray(self.train_steps)
        state["noise_sigma"] = np.asarray(self.noise.sigma)
        return state

    @staticmethod
    def _group(state: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
        return {name[len(prefix):]: value for name, value in state.items()
                if name.startswith(prefix)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for prefix, module in (("actor.", self.actor),
                               ("critic.", self.critic),
                               ("target_actor.", self.target_actor),
                               ("target_critic.", self.target_critic)):
            module.load_state_dict(self._group(state, prefix))
        for prefix, optimizer in (("actor_optimizer.", self.actor_optimizer),
                                  ("critic_optimizer.", self.critic_optimizer)):
            optimizer.load_state_dict(self._group(state, prefix))
        normalizer_state = self._group(state, "state_normalizer.")
        if normalizer_state:
            if self.state_normalizer is None:
                self.state_normalizer = RunningNormalizer(self.config.state_dim)
            self.state_normalizer.load_state_dict(normalizer_state)
        if "best_known_action" in state:
            self.best_known_action = np.asarray(state["best_known_action"],
                                                dtype=np.float64).copy()
        if "train_steps" in state:
            self.train_steps = int(state["train_steps"])
        if "noise_sigma" in state:
            self.noise.sigma = float(state["noise_sigma"])

    def save(self, path) -> None:
        nn.save_state(self.state_dict(), path)

    def load(self, path) -> None:
        self.load_state_dict(nn.load_state(path))

    def clone(self) -> "DDPGAgent":
        """Deep copy of networks (used for cross-testing in §5.3)."""
        other = DDPGAgent(self.config)
        other.load_state_dict(self.state_dict())
        return other
