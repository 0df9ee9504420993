"""Tests for replay memories and the sum tree (§2.2.4, §5.1)."""

import numpy as np
import pytest

from repro.rl import (
    PrioritizedReplayMemory,
    ReplayMemory,
    SumTree,
    Transition,
)


def _transition(i: int) -> Transition:
    return Transition(state=np.full(3, float(i)), action=np.full(2, float(i)),
                      reward=float(i), next_state=np.full(3, float(i + 1)))


class TestTransition:
    def test_astuple(self):
        t = _transition(1)
        state, action, reward, next_state, done = t.astuple()
        assert reward == 1.0 and not done


class TestReplayMemory:
    def test_push_and_len(self):
        memory = ReplayMemory(10)
        for i in range(5):
            memory.push(_transition(i))
        assert len(memory) == 5

    def test_ring_buffer_overwrites_oldest(self):
        memory = ReplayMemory(3)
        for i in range(5):
            memory.push(_transition(i))
        assert len(memory) == 3
        rewards = {t.reward for t in memory}
        assert rewards == {2.0, 3.0, 4.0}

    def test_sample_shapes(self):
        memory = ReplayMemory(10, rng=np.random.default_rng(0))
        for i in range(6):
            memory.push(_transition(i))
        batch = memory.sample(4)
        assert batch.states.shape == (4, 3)
        assert batch.actions.shape == (4, 2)
        assert batch.rewards.shape == (4,)
        assert len(batch) == 4
        assert np.all(batch.weights == 1.0)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayMemory(4).sample(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayMemory(0)

    def test_clear(self):
        memory = ReplayMemory(4)
        memory.push(_transition(0))
        memory.clear()
        assert len(memory) == 0


class TestSumTree:
    def test_total_tracks_updates(self):
        tree = SumTree(4)
        tree.update(0, 1.0)
        tree.update(1, 2.0)
        assert tree.total == pytest.approx(3.0)
        tree.update(0, 0.5)
        assert tree.total == pytest.approx(2.5)

    def test_find_respects_proportions(self):
        tree = SumTree(4)
        tree.update(0, 1.0)
        tree.update(1, 3.0)
        # Prefix < 1 → leaf 0; prefix in [1, 4) → leaf 1.
        assert tree.find(0.5) == 0
        assert tree.find(1.5) == 1
        assert tree.find(3.9) == 1
        np.testing.assert_array_equal(tree.find_many([0.5, 1.5, 3.9]),
                                      [0, 1, 1])

    def test_find_on_empty_raises(self):
        with pytest.raises(ValueError):
            SumTree(4).find(0.0)
        with pytest.raises(ValueError):
            SumTree(4).find_many([0.0])

    def test_out_of_range_update(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.update(4, 1.0)
        with pytest.raises(ValueError):
            tree.update(0, -1.0)

    def test_statistical_proportionality(self):
        tree = SumTree(8)
        priorities = [1.0, 2.0, 4.0, 8.0]
        for i, p in enumerate(priorities):
            tree.update(i, p)
        rng = np.random.default_rng(1)
        prefixes = rng.uniform(0, tree.total, size=4000)
        counts = np.zeros(4)
        for prefix in prefixes:
            counts[tree.find(prefix)] += 1
        np.testing.assert_array_equal(
            np.bincount(tree.find_many(prefixes), minlength=4), counts)
        fractions = counts / counts.sum()
        expected = np.array(priorities) / sum(priorities)
        np.testing.assert_allclose(fractions, expected, atol=0.03)


class TestPrioritizedReplayMemory:
    def test_sample_returns_weights_and_indices(self):
        memory = PrioritizedReplayMemory(16, rng=np.random.default_rng(0))
        for i in range(8):
            memory.push(_transition(i))
        batch = memory.sample(4)
        assert batch.weights.shape == (4,)
        assert batch.indices.shape == (4,)
        assert np.all(batch.weights > 0) and np.all(batch.weights <= 1.0)

    @pytest.mark.parametrize("capacity", [5, 64, 100])
    def test_sample_matches_per_stratum_reference(self, capacity):
        # Reference: one uniform draw and one scalar descent per stratum.
        alpha, eps = 0.6, 1e-5
        memory = PrioritizedReplayMemory(capacity, alpha=alpha, eps=eps,
                                         rng=np.random.default_rng(11))
        tree, rng = SumTree(capacity), np.random.default_rng(11)
        n = min(capacity, 40)
        errors = np.random.default_rng(2).exponential(size=n)
        for i in range(n):
            memory.push(_transition(i))
            tree.update(i, 1.0)
        memory.update_priorities(np.arange(n), errors)
        for i, error in enumerate(errors):
            tree.update(i, (float(error) + eps) ** alpha)
        beta = memory.beta
        for batch_size in (1, 7, 32, 64):
            batch = memory.sample(batch_size)
            segment = tree.total / batch_size
            indices = [min(tree.find(rng.uniform(k * segment,
                                                 (k + 1) * segment)), n - 1)
                       for k in range(batch_size)]
            priorities = np.array([max(tree.get(i), eps) for i in indices])
            weights = (n * (priorities / max(tree.total, eps))) ** (-beta)
            weights /= weights.max()
            beta = min(1.0, beta + memory.beta_increment)
            np.testing.assert_array_equal(batch.indices, indices)
            np.testing.assert_array_equal(batch.weights, weights)
            assert memory.beta == beta

    def test_high_priority_sampled_more(self):
        memory = PrioritizedReplayMemory(8, alpha=1.0, beta=1.0,
                                         rng=np.random.default_rng(3))
        for i in range(8):
            memory.push(_transition(i))
        # Give transition 0 a huge TD error.
        memory.update_priorities(np.array([0]), np.array([100.0]))
        counts = np.zeros(8)
        for _ in range(300):
            batch = memory.sample(4)
            for idx in batch.indices:
                counts[idx] += 1
        assert counts[0] == counts.max()

    def test_beta_anneals_toward_one(self):
        memory = PrioritizedReplayMemory(8, beta=0.4, beta_increment=0.1,
                                         rng=np.random.default_rng(0))
        for i in range(4):
            memory.push(_transition(i))
        for _ in range(10):
            memory.sample(2)
        assert memory.beta == pytest.approx(1.0)

    def test_ring_semantics(self):
        memory = PrioritizedReplayMemory(3, rng=np.random.default_rng(0))
        for i in range(5):
            memory.push(_transition(i))
        assert len(memory) == 3
        rewards = {t.reward for t in memory}
        assert rewards == {2.0, 3.0, 4.0}

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(4).sample(1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(4, alpha=-0.1)
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(4, beta=1.5)
