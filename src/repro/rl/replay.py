"""Experience replay memories.

§2.2.4 stores transitions ``(s_t, r_t, a_t, s_{t+1})`` in a *memory pool* and
samples random batches to break sample correlation; §5.1 adds *prioritized
experience replay* [38], which the paper credits with halving the number of
training iterations.  Both are implemented here: a uniform ring buffer and a
proportional-priority memory backed by a sum tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Transition", "ReplayMemory", "PrioritizedReplayMemory", "SumTree"]


@dataclass(frozen=True)
class Transition:
    """One tuning step: state, action (knob vector), reward, next state."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool = False

    def astuple(self) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray, bool]:
        return (self.state, self.action, self.reward, self.next_state, self.done)


@dataclass
class Batch:
    """A stacked minibatch of transitions."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return int(self.states.shape[0])


def _stack(transitions: Sequence[Transition]) -> Tuple[np.ndarray, ...]:
    states = np.stack([t.state for t in transitions])
    actions = np.stack([t.action for t in transitions])
    rewards = np.asarray([t.reward for t in transitions], dtype=np.float64)
    next_states = np.stack([t.next_state for t in transitions])
    dones = np.asarray([t.done for t in transitions], dtype=np.float64)
    return states, actions, rewards, next_states, dones


class ReplayMemory:
    """Uniform-sampling ring buffer."""

    def __init__(self, capacity: int,
                 rng: np.random.Generator | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._storage: List[Transition] = []
        self._cursor = 0

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int) -> Batch:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not self._storage:
            raise ValueError("cannot sample from an empty memory")
        indices = self._rng.integers(0, len(self._storage), size=batch_size)
        transitions = [self._storage[i] for i in indices]
        states, actions, rewards, next_states, dones = _stack(transitions)
        return Batch(states, actions, rewards, next_states, dones,
                     indices=indices, weights=np.ones(batch_size))

    def __len__(self) -> int:
        return len(self._storage)

    def __iter__(self):
        return iter(self._storage)

    def clear(self) -> None:
        self._storage.clear()
        self._cursor = 0


class SumTree:
    """Complete binary tree whose internal nodes hold subtree priority sums.

    Supports O(log n) priority updates and proportional sampling by prefix
    sum, the standard backing structure for prioritized replay.

    Leaves are allocated at the next power of two ≥ ``capacity`` so every
    leaf sits at the same depth and the in-order leaf sequence equals the
    index order.  With leaves packed directly at ``capacity`` (the naive
    layout), a non-power-of-two capacity puts leaves on two depths and the
    prefix-sum order interleaves them — prefix ranges then map to a
    *scrambled* permutation of indices, which breaks the per-segment
    stratification of prioritized replay (overall proportionality survives,
    but segment k no longer covers a contiguous priority band).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._leaf_base = 1
        while self._leaf_base < self.capacity:
            self._leaf_base *= 2
        self._tree = np.zeros(2 * self._leaf_base)
        self.size = 0

    @property
    def total(self) -> float:
        return float(self._tree[1])

    def update(self, index: int, priority: float) -> None:
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} out of range")
        if priority < 0:
            raise ValueError("priority must be non-negative")
        node = index + self._leaf_base
        delta = priority - self._tree[node]
        while node >= 1:
            self._tree[node] += delta
            node //= 2

    def get(self, index: int) -> float:
        return float(self._tree[index + self._leaf_base])

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Priorities of the leaves at ``indices``."""
        return self._tree[np.asarray(indices, dtype=np.int64) + self._leaf_base]

    def find(self, prefix: float) -> int:
        """Return the leaf index at which the running priority sum passes prefix."""
        return int(self.find_many([prefix])[0])

    def find_many(self, prefixes: Sequence[float] | np.ndarray) -> np.ndarray:
        """:meth:`find` for every prefix, descending one tree level at a time."""
        if self.total <= 0:
            raise ValueError("cannot sample from an empty tree")
        prefixes = np.clip(np.asarray(prefixes, dtype=np.float64), 0.0,
                           np.nextafter(self.total, 0.0))
        nodes = np.ones(prefixes.shape, dtype=np.int64)
        for _ in range(self._leaf_base.bit_length() - 1):
            left = 2 * nodes
            left_sums = self._tree[left]
            right = prefixes >= left_sums
            prefixes = np.where(right, prefixes - left_sums, prefixes)
            nodes = left + right
        return nodes - self._leaf_base


class PrioritizedReplayMemory:
    """Proportional prioritized experience replay (Schaul et al. 2015).

    Sampling probability ``p_i^alpha / sum p^alpha`` with importance weights
    ``(N * P(i))^-beta`` normalized by their max, and beta annealed to 1.
    """

    def __init__(self, capacity: int, alpha: float = 0.6, beta: float = 0.4,
                 beta_increment: float = 1e-3, eps: float = 1e-5,
                 rng: np.random.Generator | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alpha < 0 or not 0 <= beta <= 1:
            raise ValueError("invalid alpha/beta")
        self.capacity = int(capacity)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.beta_increment = float(beta_increment)
        self.eps = float(eps)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._tree = SumTree(self.capacity)
        self._storage: List[Transition] = []
        self._cursor = 0
        self._max_priority = 1.0

    def push(self, transition: Transition) -> None:
        index = self._cursor
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[index] = transition
        self._tree.update(index, self._max_priority ** self.alpha)
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int) -> Batch:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = len(self._storage)
        if n == 0:
            raise ValueError("cannot sample from an empty memory")
        segment = self._tree.total / batch_size
        strata = np.arange(batch_size)
        prefixes = self._rng.uniform(strata * segment, (strata + 1) * segment)
        # Clamp guards against landing on an unfilled leaf.
        indices = np.minimum(self._tree.find_many(prefixes), n - 1)
        priorities = np.maximum(self._tree.get_many(indices), self.eps)
        probs = priorities / max(self._tree.total, self.eps)
        weights = (n * probs) ** (-self.beta)
        weights /= weights.max()
        self.beta = min(1.0, self.beta + self.beta_increment)
        transitions = [self._storage[i] for i in indices]
        states, actions, rewards, next_states, dones = _stack(transitions)
        return Batch(states, actions, rewards, next_states, dones,
                     indices=indices, weights=weights)

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        td_errors = np.abs(np.asarray(td_errors, dtype=np.float64)).reshape(-1)
        for index, err in zip(np.asarray(indices).reshape(-1), td_errors):
            priority = float(err) + self.eps
            self._max_priority = max(self._max_priority, priority)
            self._tree.update(int(index), priority ** self.alpha)

    def __len__(self) -> int:
        return len(self._storage)

    def __iter__(self):
        return iter(self._storage)
