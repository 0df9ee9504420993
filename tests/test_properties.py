"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.dbsim import KnobSpec, KnobType, hit_ratio, memory_pressure
from repro.dbsim.bufferpool import MemoryBudget
from repro.rl import (
    Box,
    CDBTuneReward,
    PerformanceSample,
    ReplayMemory,
    RunningNormalizer,
    SumTree,
    Transition,
    delta,
)

finite_positive = st.floats(min_value=1e-3, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


class TestKnobSpecProperties:
    @given(lo=st.floats(-1e6, 1e6), span=st.floats(1e-6, 1e6),
           u=st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_linear_from_unit_in_range(self, lo, span, u):
        spec = KnobSpec("k", KnobType.FLOAT, lo, lo + span, lo)
        value = spec.from_unit(u)
        assert spec.min_value - 1e-9 <= value <= spec.max_value + 1e-9

    @given(lo=st.floats(1e-3, 1e3), ratio=st.floats(2.0, 1e6),
           u=st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_log_roundtrip(self, lo, ratio, u):
        spec = KnobSpec("k", KnobType.FLOAT, lo, lo * ratio, lo, scale="log")
        value = spec.from_unit(u)
        assert abs(spec.to_unit(value) - u) < 1e-6

    @given(u1=st.floats(0.0, 1.0), u2=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_from_unit_monotone(self, u1, u2):
        spec = KnobSpec("k", KnobType.FLOAT, 1.0, 1e6, 10.0, scale="log")
        lo_u, hi_u = sorted((u1, u2))
        assert spec.from_unit(lo_u) <= spec.from_unit(hi_u) + 1e-12


class TestBoxProperties:
    @given(u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_unit_roundtrip(self, u):
        box = Box([-5.0, 0.0, 100.0], [5.0, 1.0, 200.0])
        u = np.asarray(u)
        np.testing.assert_allclose(box.to_unit(box.from_unit(u)), u,
                                   atol=1e-9)


class TestSumTreeProperties:
    @given(priorities=st.lists(st.floats(0.01, 100.0), min_size=1,
                               max_size=16))
    @settings(max_examples=60)
    def test_total_is_sum(self, priorities):
        tree = SumTree(16)
        for i, p in enumerate(priorities):
            tree.update(i, p)
        assert tree.total == pytest.approx(sum(priorities), rel=1e-9)

    @given(priorities=st.lists(st.floats(0.01, 100.0), min_size=2,
                               max_size=16),
           fraction=st.floats(0.0, 0.999))
    @settings(max_examples=60)
    def test_find_returns_positive_priority_leaf(self, priorities, fraction):
        tree = SumTree(16)
        for i, p in enumerate(priorities):
            tree.update(i, p)
        leaf = tree.find(fraction * tree.total)
        assert 0 <= leaf < len(priorities)
        assert tree.get(leaf) > 0
        assert tree.find_many([fraction * tree.total]).tolist() == [leaf]


class TestReplayProperties:
    @given(capacity=st.integers(1, 32), pushes=st.integers(1, 100))
    @settings(max_examples=40)
    def test_length_never_exceeds_capacity(self, capacity, pushes):
        memory = ReplayMemory(capacity, rng=np.random.default_rng(0))
        for i in range(pushes):
            memory.push(Transition(np.zeros(2), np.zeros(1), float(i),
                                   np.zeros(2)))
        assert len(memory) == min(capacity, pushes)
        batch = memory.sample(4)
        assert len(batch) == 4


class TestNormalizerProperties:
    @given(data=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=40))
    @settings(max_examples=40)
    def test_mean_matches_numpy(self, data):
        arr = np.asarray(data).reshape(-1, 1)
        normalizer = RunningNormalizer(1)
        normalizer.update(arr)
        assert normalizer.mean[0] == pytest.approx(arr.mean(), abs=1e-6)


class TestRewardProperties:
    @given(t0=finite_positive, l0=finite_positive,
           t1=finite_positive, l1=finite_positive)
    @settings(max_examples=100)
    def test_reward_finite(self, t0, l0, t1, l1):
        reward = CDBTuneReward()
        reward.reset(PerformanceSample(t0, l0))
        value = reward(PerformanceSample(t1, l1))
        assert np.isfinite(value)

    @given(t0=finite_positive, factor=st.floats(1.01, 50.0))
    @settings(max_examples=60)
    def test_pure_throughput_gain_is_positive(self, t0, factor):
        reward = CDBTuneReward(c_throughput=1.0, c_latency=0.0)
        reward.reset(PerformanceSample(t0, 100.0))
        assert reward(PerformanceSample(t0 * factor, 100.0)) > 0

    @given(current=finite_positive, reference=finite_positive)
    @settings(max_examples=60)
    def test_delta_antisymmetry_of_direction(self, current, reference):
        up = delta(current, reference)
        down = delta(current, reference, lower_is_better=True)
        assert up == pytest.approx(-down)


class TestEnginePieceProperties:
    @given(pool=st.floats(0.1, 64.0), ws=st.floats(0.1, 64.0),
           skew=st.floats(0.0, 0.95))
    @settings(max_examples=80)
    def test_hit_ratio_in_unit_interval(self, pool, ws, skew):
        h = hit_ratio(pool, ws, skew)
        assert 0.0 < h <= 0.998

    @given(pool=st.floats(0.1, 32.0), extra=st.floats(0.1, 16.0),
           ws=st.floats(1.0, 32.0))
    @settings(max_examples=60)
    def test_hit_ratio_monotone_in_pool(self, pool, extra, ws):
        assert hit_ratio(pool + extra, ws, 0.5) >= hit_ratio(pool, ws, 0.5)

    @given(bp=st.floats(0.1, 300.0), session=st.floats(0.0, 50.0),
           shared=st.floats(0.0, 50.0), ram=st.floats(1.0, 256.0))
    @settings(max_examples=80)
    def test_memory_pressure_at_least_one_and_finite(self, bp, session,
                                                     shared, ram):
        pressure = memory_pressure(MemoryBudget(bp, session, shared), ram)
        assert 1.0 <= pressure < np.inf


class TestNNProperties:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_linear_backward_shapes(self, in_dim, out_dim, batch):
        rng = np.random.default_rng(0)
        layer = nn.Linear(in_dim, out_dim, rng=rng)
        x = rng.standard_normal((batch, in_dim))
        out = layer.forward(x)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert layer.weight.grad.shape == layer.weight.value.shape

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    @settings(max_examples=40)
    def test_sigmoid_tanh_bounded(self, values):
        x = np.asarray(values).reshape(1, -1)
        assert np.all(np.abs(nn.Tanh().forward(x)) <= 1.0)
        out = nn.Sigmoid().forward(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
