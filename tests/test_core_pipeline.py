"""Tests for offline training, online tuning and the CDBTune facade."""

import numpy as np
import pytest

from repro.core import CDBTune, offline_train, online_tune
from repro.core import pipeline
from repro.core.pipeline import _has_converged
from repro.dbsim import CDB_A, mysql_registry
from repro.rl.reward import make_reward_function


@pytest.fixture(scope="module")
def trained_tuner():
    """A small but real offline-trained tuner shared across tests."""
    tuner = CDBTune(seed=11, noise=0.0)
    tuner.offline_train(CDB_A, "sysbench-rw", max_steps=150, probe_every=30,
                        stop_on_convergence=False)
    return tuner


class TestConvergenceRule:
    def test_needs_window_plus_one(self):
        assert not _has_converged([100.0] * 5, 0.005, 5)
        assert _has_converged([100.0] * 6, 0.005, 5)

    def test_big_change_breaks_convergence(self):
        series = [100.0, 100.1, 100.2, 100.1, 100.0, 150.0]
        assert not _has_converged(series, 0.005, 5)

    def test_small_changes_converge(self):
        series = [100.0, 100.2, 100.1, 100.3, 100.2, 100.1]
        assert _has_converged(series, 0.005, 5)

    def test_zero_throughput_never_converges(self):
        assert not _has_converged([0.0] * 10, 0.005, 5)


class TestOfflineTraining:
    def test_training_produces_probes_and_rewards(self, trained_tuner):
        # (exercised by the fixture; re-train small here to inspect結果)
        tuner = CDBTune(seed=3, noise=0.0)
        result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=80,
                                     probe_every=20,
                                     stop_on_convergence=False)
        assert result.steps == 80
        assert len(result.rewards) == 80
        assert result.probe_throughputs
        assert result.best_probe is not None

    def test_training_improves_over_default(self, trained_tuner):
        env = trained_tuner.make_environment(CDB_A, "sysbench-rw")
        state = env.reset()
        default_throughput = env.initial_performance.throughput
        result = env.step(trained_tuner.agent.act(state, explore=False))
        assert result.performance is not None
        assert result.performance.throughput > default_throughput

    def test_best_known_action_recorded(self, trained_tuner):
        action = trained_tuner.agent.best_known_action
        assert action is not None
        assert action.shape == (266,)
        assert np.all(action >= 0) and np.all(action <= 1)

    def test_run_best_action_survives_restore(self, monkeypatch):
        """The restore reloads the best probe's snapshot; the best action
        measured after that probe must still ship as best_known_action."""
        tuner = CDBTune(seed=3, noise=0.0, actor_hidden=(16, 16),
                        critic_hidden=(16, 16), critic_branch_width=8,
                        batch_size=8)
        env = tuner.make_environment(CDB_A, "sysbench-rw")
        steps, probes = [], []
        real_step, real_probe = env.step, pipeline._greedy_probe

        def recording_step(action):
            result = real_step(action)
            steps.append((np.array(action), result.performance))
            return result

        def recording_probe(env_, agent):
            taken = len(steps)
            result = real_probe(env_, agent)
            del steps[taken:]  # the probe's own step is not a training step
            probes.append((taken, result.performance))
            return result

        monkeypatch.setattr(env, "step", recording_step)
        monkeypatch.setattr(pipeline, "_greedy_probe", recording_probe)
        offline_train(env, tuner.agent, max_steps=24, probe_every=8,
                      stop_on_convergence=False)

        def score(perf):
            return perf.throughput / perf.latency ** 0.25

        last_best_probe_at, best = 0, -np.inf
        for taken, perf in probes:
            if perf is not None and score(perf) > best:
                best, last_best_probe_at = score(perf), taken
        best_index = max((score(perf), i) for i, (_, perf) in enumerate(steps)
                         if perf is not None)[1]
        assert len(steps) == 24
        assert best_index + 1 > last_best_probe_at  # found after that probe
        np.testing.assert_array_equal(tuner.agent.best_known_action,
                                      steps[best_index][0])

    def test_agent_updates_count_this_runs_gradient_steps(self):
        tuner = CDBTune(seed=7, noise=0.0)
        trained = []
        real_update = tuner.agent.update

        def counting_update():
            losses = real_update()
            trained.append(losses is not None)
            return losses

        tuner.agent.update = counting_update
        result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=72,
                                     stop_on_convergence=False)
        assert sum(trained) == 18  # steps 64-72, two updates each
        assert result.telemetry.counters["agent_updates"] == sum(trained)

    def test_agent_updates_exclude_loaded_checkpoint(self):
        tuner = CDBTune(seed=3, noise=0.0)
        state = tuner.agent.state_dict()
        state["train_steps"] = np.asarray(40)
        tuner.agent.load_state_dict(state)
        result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=20,
                                     probe_every=10,
                                     stop_on_convergence=False)
        assert result.telemetry.counters["agent_updates"] == 0

    def test_invalid_budgets(self):
        tuner = CDBTune(seed=0)
        env = tuner.make_environment(CDB_A, "sysbench-rw")
        with pytest.raises(ValueError):
            offline_train(env, tuner.agent, max_steps=0)


class TestOnlineTuning:
    def test_five_step_request(self, trained_tuner):
        run = trained_tuner.tune(CDB_A, "sysbench-rw", steps=5)
        assert run.steps == 5
        assert len(run.records) == 5
        assert run.best.throughput >= run.initial.throughput
        assert run.throughput_improvement >= 0.0

    def test_tuning_from_custom_initial_config(self, trained_tuner):
        initial = {"innodb_buffer_pool_size": 1024 ** 3}
        run = trained_tuner.tune(CDB_A, "sysbench-rw", steps=3,
                                 initial_config=initial)
        assert run.best.throughput >= run.initial.throughput

    def test_zero_steps_rejected(self, trained_tuner):
        with pytest.raises(ValueError):
            trained_tuner.tune(CDB_A, "sysbench-rw", steps=0)

    def test_fine_tune_adds_memory(self, trained_tuner):
        tuner = trained_tuner.clone()
        before = len(tuner.agent.memory)
        tuner.tune(CDB_A, "sysbench-rw", steps=3, fine_tune=True)
        assert len(tuner.agent.memory) == before + 3


class TestCDBTuneFacade:
    def test_save_load_roundtrip(self, trained_tuner, tmp_path):
        path = tmp_path / "model.npz"
        trained_tuner.save(path)
        fresh = CDBTune(seed=99, noise=0.0)
        fresh.load(path)
        state = np.ones(63) * 100
        np.testing.assert_allclose(
            fresh.agent.act(state, explore=False),
            trained_tuner.agent.act(state, explore=False))
        assert fresh.trained

    def test_clone_is_independent(self, trained_tuner):
        clone = trained_tuner.clone()
        state = np.ones(63)
        np.testing.assert_allclose(
            clone.agent.act(state, explore=False),
            trained_tuner.agent.act(state, explore=False))
        # Mutating the clone must not affect the original.
        for param in clone.agent.actor.parameters():
            param.value += 1.0
        assert not np.allclose(
            clone.agent.act(state, explore=False),
            trained_tuner.agent.act(state, explore=False))

    def test_recommend_returns_full_config(self, trained_tuner):
        config = trained_tuner.recommend(np.ones(63) * 10)
        assert set(config) == set(mysql_registry().names)

    def test_subset_action_space(self):
        registry = mysql_registry()
        subset = registry.subset(["innodb_buffer_pool_size",
                                  "innodb_io_capacity",
                                  "innodb_io_capacity_max"])
        tuner = CDBTune(registry=subset, db_registry=registry, seed=0,
                        noise=0.0)
        assert tuner.agent.config.action_dim == 3
        result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=60,
                                     probe_every=20,
                                     stop_on_convergence=False)
        assert result.steps == 60

    def test_subset_missing_from_db_registry_rejected(self):
        registry = mysql_registry()
        subset = registry.subset(["innodb_buffer_pool_size"])
        with pytest.raises(KeyError):
            CDBTune(registry=registry, db_registry=subset)

    def test_mismatched_agent_config_rejected(self):
        from repro.rl import DDPGConfig
        with pytest.raises(ValueError):
            CDBTune(agent_config=DDPGConfig(state_dim=63, action_dim=5))

    def test_reward_function_choice(self):
        tuner = CDBTune(reward_function=make_reward_function("RF-B"), seed=0)
        assert tuner.reward_function.name == "RF-B"
