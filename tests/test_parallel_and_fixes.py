"""Tests for the evaluation cache and its batch accounting, plus greedy-probe
isolation, crash-restart bookkeeping, the imitation-loss return value of
both agents and SumTree stratification for non-power-of-two capacities."""

import numpy as np
import pytest

from repro.core import TuningEnvironment, offline_train
from repro.core.tuner import CDBTune
from repro.core.pipeline import _greedy_probe
from repro.dbsim import (
    CDB_A,
    DatabaseCrashError,
    SimulatedDatabase,
    get_workload,
    mysql_registry,
)
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.replay import SumTree
from repro.rl.td3 import TD3Agent, TD3Config


def make_database(noise=0.0, seed=0, **kwargs):
    return SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                             registry=mysql_registry(), noise=noise,
                             seed=seed, **kwargs)


def crash_config(registry, database):
    """A config inside the §5.2.3 oversized-redo-log crash region."""
    config = database.default_config()
    config["innodb_log_file_size"] = registry["innodb_log_file_size"].max_value
    config["innodb_log_files_in_group"] = (
        registry["innodb_log_files_in_group"].max_value)
    return config


class TestEvaluationCache:
    def test_repeat_is_a_hit_not_a_stress_test(self):
        db = make_database()
        config = db.default_config()
        first = db.evaluate(config, trial=3)
        second = db.evaluate(config, trial=3)
        assert db.evaluations == 2       # both requests counted
        assert db.stress_tests == 1      # but only one simulation ran
        assert db.cache_hits == 1
        assert first.performance == second.performance
        assert np.array_equal(first.metrics, second.metrics)

    def test_different_trial_or_config_misses(self):
        db = make_database(noise=0.01)
        config = db.default_config()
        db.evaluate(config, trial=1)
        db.evaluate(config, trial=2)     # different jitter stream
        other = dict(config)
        other["max_connections"] = 2000
        db.evaluate(other, trial=1)
        assert db.stress_tests == 3
        assert db.cache_hits == 0

    def test_crashes_are_memoized(self):
        registry = mysql_registry()
        db = make_database()
        bad = crash_config(registry, db)
        with pytest.raises(DatabaseCrashError):
            db.evaluate(bad, trial=1)
        with pytest.raises(DatabaseCrashError) as excinfo:
            db.evaluate(bad, trial=1)
        assert "redo log" in str(excinfo.value)
        assert db.stress_tests == 1
        assert db.cache_hits == 1

    def test_lru_eviction(self):
        db = make_database(cache_size=2)
        config = db.default_config()
        for trial in (1, 2, 3):        # trial=1 evicted when 3 arrives
            db.evaluate(config, trial=trial)
        db.evaluate(config, trial=3)   # hit
        db.evaluate(config, trial=1)   # miss: was evicted
        assert db.cache_hits == 1
        assert db.stress_tests == 4
        assert db.cache_info()["size"] == 2

    def test_cache_disabled(self):
        db = make_database(cache_size=0)
        config = db.default_config()
        db.evaluate(config, trial=1)
        db.evaluate(config, trial=1)
        assert db.stress_tests == 2
        assert db.cache_hits == 0

    def test_replica_is_equivalent_and_independent(self):
        db = make_database(noise=0.02, seed=7)
        twin = db.replica()
        config = db.default_config()
        a = db.evaluate(config, trial=5)
        b = twin.evaluate(config, trial=5)
        assert a.performance == b.performance
        assert np.array_equal(a.metrics, b.metrics)
        assert twin.evaluations == 1     # counters are not shared


class TestEvaluationAccounting:
    """``evaluate_many`` keeps the serial cache and counter semantics."""

    @pytest.fixture()
    def batch(self):
        registry = mysql_registry()
        rng = np.random.default_rng(42)
        return [registry.random_config(rng) for _ in range(12)]

    def test_counters_match_serial_semantics(self, batch):
        db = make_database(noise=0.02, seed=3)
        trials = list(range(1, len(batch) + 1))
        db.evaluate_many(batch, trials=trials)
        db.evaluate_many(batch, trials=trials)      # all cached now
        assert db.evaluations == 2 * len(batch)
        assert db.stress_tests == len(batch)
        assert db.cache_hits == len(batch)
        assert db.cache_misses == len(batch)

    def test_results_land_in_cache(self, batch):
        db = make_database(noise=0.02, seed=3)
        trials = list(range(1, len(batch) + 1))
        results = db.evaluate_many(batch, trials=trials)
        stress_before = db.stress_tests
        for trial, config, want in zip(trials, batch, results):
            if want is None:
                with pytest.raises(DatabaseCrashError):
                    db.evaluate(config, trial=trial)
            else:
                got = db.evaluate(config, trial=trial)
                assert got.performance == want.performance
        assert db.stress_tests == stress_before  # every one was a hit

    def test_trials_length_mismatch_raises(self, batch):
        db = make_database()
        with pytest.raises(ValueError):
            db.evaluate_many(batch, trials=[1, 2])

    def test_offline_train_reports_accounting(self):
        tuner = CDBTune(seed=5, noise=0.0)
        result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=30,
                                     probe_every=10,
                                     stop_on_convergence=False)
        counters = result.telemetry.counters
        assert counters["evaluations"] > 30   # steps + resets + probes
        assert set(result.telemetry.phase_seconds) >= {
            "reset", "warmup", "train", "probe"}
        assert all(v >= 0.0
                   for v in result.telemetry.phase_seconds.values())


class TestGreedyProbeIsolation:
    def test_probe_leaves_environment_untouched(self):
        tuner = CDBTune(seed=8, noise=0.0)
        env = tuner.make_environment(CDB_A, "sysbench-rw")
        state = env.reset()
        env.step(tuner.agent.act(state, explore=True))
        before = env.save_state()
        reward_before = (env.reward_function.initial,
                         env.reward_function.previous)
        _greedy_probe(env, tuner.agent)
        after = env.save_state()
        assert after["trial"] == before["trial"]
        assert after["steps"] == before["steps"]
        assert after["crashes"] == before["crashes"]
        assert after["best_config"] == before["best_config"]
        assert after["current_config"] == before["current_config"]
        assert len(after["history"]) == len(before["history"])
        assert (env.reward_function.initial,
                env.reward_function.previous) == reward_before

    def test_probe_crash_not_counted(self):
        registry = mysql_registry()
        subset = registry.subset(["innodb_log_file_size",
                                  "innodb_log_files_in_group"])
        tuner = CDBTune(registry=subset, db_registry=registry, seed=8,
                        noise=0.0)
        env = tuner.make_environment(CDB_A, "sysbench-rw")
        env.reset()

        class CrashAgent:
            state_normalizer = None

            def act(self, state, explore=False):
                return np.ones(env.action_dim)  # oversized redo log

        probe = _greedy_probe(env, CrashAgent())
        assert probe.crashed
        assert env.crashes == 0
        assert env.steps == 0

    def test_mid_episode_reward_baseline_survives_probe(self):
        """probe_every not a multiple of episode_length: the step after the
        probe must still be scored against the episode's own baseline."""
        tuner = CDBTune(seed=8, noise=0.0)
        result = offline_train(tuner.make_environment(CDB_A, "sysbench-rw"),
                               tuner.agent, max_steps=24, episode_length=5,
                               probe_every=7, stop_on_convergence=False)
        assert result.steps == 24
        assert len(result.probe_throughputs) >= 3


class TestCrashRestartBookkeeping:
    def _crash_env(self):
        registry = mysql_registry()
        database = make_database()
        env = TuningEnvironment(database)
        env.reset()
        vector = registry.to_vector(database.default_config())
        names = registry.tunable_names
        vector[names.index("innodb_log_file_size")] = 1.0
        vector[names.index("innodb_log_files_in_group")] = 1.0
        return registry, database, env, vector

    def test_restart_gets_fresh_trial_and_default_config(self):
        registry, database, env, vector = self._crash_env()
        trial_before = env._trial
        result = env.step(vector)
        assert result.crashed and result.reward == -100.0
        assert env.crashes == 1
        # crashed attempt consumed one trial, the restart stress test another
        assert env._trial == trial_before + 2
        assert env._current_config == database.default_config()

    def test_reward_trend_reanchored_to_restart(self):
        registry, database, env, vector = self._crash_env()
        env.step(vector)
        restarted = database.evaluate(database.default_config(),
                                      trial=env._trial).performance
        assert env.reward_function.previous == restarted

    def test_next_step_scored_against_restarted_instance(self):
        registry, database, env, vector = self._crash_env()
        env.step(vector)
        # A sane follow-up config: scored vs the restarted defaults, a real
        # improvement must earn a positive reward.
        good = registry.to_vector(database.default_config())
        names = registry.tunable_names
        good[names.index("innodb_buffer_pool_size")] = 0.5
        result = env.step(good)
        assert not result.crashed
        if result.performance.throughput > env.initial_performance.throughput:
            assert result.reward > 0.0


class TestImitateLoss:
    @pytest.fixture(params=[(DDPGAgent, DDPGConfig), (TD3Agent, TD3Config)],
                    ids=["ddpg", "td3"])
    def agent(self, request):
        agent_cls, config_cls = request.param
        config = config_cls(state_dim=4, action_dim=3, actor_hidden=(16, 16),
                            critic_hidden=(16, 16), batch_size=4, seed=0)
        return agent_cls(config)

    def test_returns_optimized_logit_loss(self, agent):
        states = np.random.default_rng(0).standard_normal((6, 4))
        target = np.full(3, 0.7)
        loss = agent.imitate(states, target, lr=1e-2)
        assert loss == agent.last_imitate_losses["logit_mse"]
        assert set(agent.last_imitate_losses) == {"logit_mse", "output_mse"}
        # sigmoid is a contraction (slope <= 1/4): the output-space MSE is
        # strictly the smaller quantity, which is why early-stopping on it
        # while optimizing logits tested the wrong thing.
        assert (agent.last_imitate_losses["output_mse"]
                < agent.last_imitate_losses["logit_mse"])

    def test_loss_decreases_under_iteration(self, agent):
        states = np.random.default_rng(1).standard_normal((6, 4))
        target = np.full(3, 0.3)
        first = agent.imitate(states, target, lr=5e-3)
        for _ in range(200):
            last = agent.imitate(states, target, lr=5e-3)
        assert last < first

    def test_wrong_length_target_rejected(self, agent):
        states = np.random.default_rng(2).standard_normal((6, 4))
        with pytest.raises(ValueError):
            agent.imitate(states, np.full(1, 0.5))


class TestSumTreeStratification:
    @pytest.mark.parametrize("capacity", [3, 100, 100_000])
    def test_leaves_in_index_order(self, capacity):
        tree = SumTree(capacity)
        rng = np.random.default_rng(0)
        priorities = rng.random(capacity) + 0.01
        for i, p in enumerate(priorities):
            tree.update(i, p)
        assert tree.total == pytest.approx(priorities.sum())
        # Walking prefixes in increasing order must yield nondecreasing
        # indices — the property per-segment stratification relies on.
        checkpoints = np.linspace(0.0, tree.total, num=min(capacity, 64),
                                  endpoint=False)
        indices = [tree.find(p) for p in checkpoints]
        assert indices == sorted(indices)
        assert tree.find_many(checkpoints).tolist() == indices

    @pytest.mark.parametrize("capacity", [3, 100])
    def test_prefix_boundaries_map_to_owning_leaf(self, capacity):
        tree = SumTree(capacity)
        priorities = np.arange(1, capacity + 1, dtype=float)
        for i, p in enumerate(priorities):
            tree.update(i, p)
        cumulative = np.cumsum(priorities)
        lefts = np.concatenate([[0.0], cumulative[:-1]])
        for i in range(capacity):
            assert tree.find(lefts[i]) == i
            assert tree.find(cumulative[i] - 1e-9) == i
        owners = np.arange(capacity)
        np.testing.assert_array_equal(tree.find_many(lefts), owners)
        np.testing.assert_array_equal(tree.find_many(cumulative - 1e-9),
                                      owners)

    def test_proportional_sampling_non_power_of_two(self):
        capacity = 100
        tree = SumTree(capacity)
        rng = np.random.default_rng(7)
        priorities = rng.random(capacity) + 0.05
        for i, p in enumerate(priorities):
            tree.update(i, p)
        n = 40_000
        prefixes = rng.random(n) * tree.total
        counts = np.zeros(capacity)
        for prefix in prefixes:
            counts[tree.find(prefix)] += 1
        np.testing.assert_array_equal(
            np.bincount(tree.find_many(prefixes), minlength=capacity), counts)
        expected = priorities / priorities.sum()
        assert np.allclose(counts / n, expected, atol=0.01)

    def test_padding_leaves_never_sampled(self):
        tree = SumTree(5)   # leaf base 8: three zero-priority padding leaves
        for i in range(5):
            tree.update(i, 1.0)
        rng = np.random.default_rng(3)
        prefixes = rng.random(2000) * tree.total
        for prefix in prefixes:
            assert tree.find(prefix) < 5
        assert tree.find_many(prefixes).max() < 5
