"""Agent save→load→fine-tune roundtrips and atomic checkpointing.

The model registry warm-starts tuners from disk, so a checkpoint must
carry *everything* that shapes behaviour: network weights, the state
normalizer's running statistics and the Adam optimizers' moments.  These
tests pin the full roundtrip, backward compatibility with pre-optimizer
checkpoints, and the atomicity of ``nn.save_state``.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro import nn
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.spaces import RunningNormalizer


STATE_DIM, ACTION_DIM = 7, 5


def _trained_agent(seed=3, steps=25):
    """A small agent with non-trivial normalizer and optimizer state."""
    agent = DDPGAgent(DDPGConfig(
        state_dim=STATE_DIM, action_dim=ACTION_DIM,
        actor_hidden=(16, 16), critic_hidden=(16, 16),
        critic_branch_width=8, dropout=0.0, batch_size=8,
        prioritized_replay=False, seed=seed))
    agent.state_normalizer = RunningNormalizer(STATE_DIM)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        state = 100.0 * rng.random(STATE_DIM)
        next_state = 100.0 * rng.random(STATE_DIM)
        agent.state_normalizer.update(state.reshape(1, -1))
        agent.observe(state, rng.random(ACTION_DIM), rng.normal(),
                      next_state)
        agent.update()
    agent.best_known_action = rng.random(ACTION_DIM)
    return agent


def _fresh_agent(seed=99):
    return DDPGAgent(DDPGConfig(
        state_dim=STATE_DIM, action_dim=ACTION_DIM,
        actor_hidden=(16, 16), critic_hidden=(16, 16),
        critic_branch_width=8, dropout=0.0, batch_size=8,
        prioritized_replay=False, seed=seed))


class TestStateDictCompleteness:
    def test_state_dict_includes_normalizer_and_optimizers(self):
        agent = _trained_agent()
        state = agent.state_dict()
        assert "state_normalizer.count" in state
        assert "state_normalizer.mean" in state
        assert "state_normalizer.m2" in state
        assert "actor_optimizer.step_count" in state
        assert "actor_optimizer.m.0" in state
        assert "critic_optimizer.v.0" in state
        assert int(state["train_steps"]) == agent.train_steps > 0

    def test_act_bitwise_identical_after_reload(self, tmp_path):
        agent = _trained_agent()
        path = tmp_path / "agent.npz"
        agent.save(path)
        clone = _fresh_agent()
        clone.load(path)
        # The loaded agent must create its own normalizer from the
        # checkpoint — warm-started agents previously mis-normalized.
        assert clone.state_normalizer is not None
        state = 100.0 * np.random.default_rng(11).random(STATE_DIM)
        np.testing.assert_array_equal(agent.act(state, explore=False),
                                      clone.act(state, explore=False))

    def test_normalizer_statistics_roundtrip(self, tmp_path):
        agent = _trained_agent()
        path = tmp_path / "agent.npz"
        agent.save(path)
        clone = _fresh_agent()
        clone.load(path)
        np.testing.assert_array_equal(agent.state_normalizer.mean,
                                      clone.state_normalizer.mean)
        np.testing.assert_array_equal(agent.state_normalizer.std,
                                      clone.state_normalizer.std)
        assert agent.state_normalizer.count == clone.state_normalizer.count

    def test_optimizer_moments_roundtrip(self, tmp_path):
        agent = _trained_agent()
        path = tmp_path / "agent.npz"
        agent.save(path)
        clone = _fresh_agent()
        clone.load(path)
        assert (clone.actor_optimizer._step_count
                == agent.actor_optimizer._step_count > 0)
        for a, b in zip(agent.critic_optimizer._m,
                        clone.critic_optimizer._m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(agent.critic_optimizer._v,
                        clone.critic_optimizer._v):
            np.testing.assert_array_equal(a, b)

    def test_fine_tune_resumes_identically(self, tmp_path):
        """The first gradient step after reload matches the step the
        original agent would have taken — no optimizer-restart loss spike."""
        agent = _trained_agent()
        path = tmp_path / "agent.npz"
        agent.save(path)
        clone = _fresh_agent()
        clone.load(path)
        rng = np.random.default_rng(21)
        states = 100.0 * rng.random((8, STATE_DIM))
        target = rng.random(ACTION_DIM)
        loss_original = agent.imitate(states, target)
        loss_clone = clone.imitate(states, target)
        assert loss_original == loss_clone
        # And the *weights* after the step agree (Adam moments matter).
        np.testing.assert_array_equal(
            agent.actor.state_dict()["0.weight"],
            clone.actor.state_dict()["0.weight"])

    def test_stale_optimizer_state_changes_fine_tuning(self, tmp_path):
        """Counter-test: dropping the optimizer moments (the old bug)
        yields a *different* first fine-tune step."""
        agent = _trained_agent()
        path = tmp_path / "agent.npz"
        agent.save(path)
        crippled = _fresh_agent()
        state = nn.load_state(path)
        stripped = {k: v for k, v in state.items()
                    if not k.startswith(("actor_optimizer.",
                                         "critic_optimizer."))}
        crippled.load_state_dict(stripped)
        rng = np.random.default_rng(21)
        states = 100.0 * rng.random((8, STATE_DIM))
        target = rng.random(ACTION_DIM)
        agent.imitate(states, target)
        crippled.imitate(states, target)
        assert not np.array_equal(
            agent.actor.state_dict()["0.weight"],
            crippled.actor.state_dict()["0.weight"])

    def test_legacy_checkpoint_without_new_keys_loads(self, tmp_path):
        """Old checkpoints (networks + best action only) still load."""
        agent = _trained_agent()
        legacy = {k: v for k, v in agent.state_dict().items()
                  if k.startswith(("actor.", "critic.", "target_actor.",
                                   "target_critic."))
                  or k == "best_known_action"}
        path = tmp_path / "legacy.npz"
        nn.save_state(legacy, path)
        clone = _fresh_agent()
        clone.load(path)
        state = 100.0 * np.random.default_rng(5).random(STATE_DIM)
        # Same weights; normalizer defaults to None → raw states.
        assert clone.state_normalizer is None
        assert clone.act(state, explore=False).shape == (ACTION_DIM,)
        np.testing.assert_array_equal(clone.best_known_action,
                                      agent.best_known_action)


class TestAtomicSave:
    def test_save_leaves_no_temp_files(self, tmp_path):
        state = {"x": np.arange(5.0)}
        nn.save_state(state, tmp_path / "model.npz")
        assert sorted(os.listdir(tmp_path)) == ["model.npz"]

    def test_save_appends_npz_suffix_like_numpy(self, tmp_path):
        nn.save_state({"x": np.arange(3.0)}, tmp_path / "model")
        assert sorted(os.listdir(tmp_path)) == ["model.npz"]
        loaded = nn.load_state(tmp_path / "model.npz")
        np.testing.assert_array_equal(loaded["x"], np.arange(3.0))

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "model.npz"
        nn.save_state({"x": np.zeros(4)}, path)

        class Exploding:
            """Array-like that detonates mid-serialization."""
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            nn.save_state({"x": np.ones(4), "boom": Exploding()}, path)
        # The original file survives untouched and no temp junk remains.
        loaded = nn.load_state(path)
        np.testing.assert_array_equal(loaded["x"], np.zeros(4))
        assert sorted(os.listdir(tmp_path)) == ["model.npz"]

    def test_truncated_checkpoint_raises_oserror(self, tmp_path):
        path = tmp_path / "model.npz"
        nn.save_state({"x": np.arange(10.0)}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(OSError, match="corrupt or truncated"):
            nn.load_state(path)

    def test_concurrent_saves_never_corrupt(self, tmp_path):
        """Hammer one path from several threads: the survivor must be a
        complete, loadable archive (the registry's write pattern)."""
        path = tmp_path / "model.npz"
        errors = []

        def writer(value):
            try:
                for _ in range(10):
                    nn.save_state({"x": np.full(64, float(value))}, path)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = nn.load_state(path)
        assert loaded["x"].shape == (64,)
        assert len(set(loaded["x"])) == 1  # one writer's complete payload


def _sample_state():
    rng = np.random.default_rng(4)
    return {
        "weight": rng.normal(size=(17, 5)),
        "bias": rng.normal(size=5),
        "fortran": np.asfortranarray(rng.normal(size=(3, 4))),
        "step_count": np.asarray(12, dtype=np.int64),
        "count": np.asarray(3.5),
        "empty": np.zeros((0, 6)),
        "flags": np.array([True, False, True]),
        "codes": np.arange(6, dtype=np.uint16).reshape(2, 3),
        "complex": np.array([1 + 2j, -3j]),
    }


def _assert_same_arrays(loaded, state):
    assert list(loaded) == list(state)
    for name, array in state.items():
        assert loaded[name].dtype == array.dtype, name
        assert loaded[name].shape == array.shape, name
        assert loaded[name].tobytes() == array.tobytes(), name


def _rewrite_header(path, edit):
    """Re-encode a checkpoint's JSON header after ``edit(header)``."""
    raw = path.read_bytes()
    magic = nn.serialization._MAGIC
    length = nn.serialization._LENGTH
    (size,) = length.unpack_from(raw, len(magic))
    start = len(magic) + length.size
    header = json.loads(raw[start:start + size])
    edit(header)
    encoded = json.dumps(header).encode()
    path.write_bytes(magic + length.pack(len(encoded)) + encoded
                     + raw[start + size:])


class TestCheckpointFormat:
    def test_round_trip_keeps_names_dtypes_shapes_and_bytes(self, tmp_path):
        state = _sample_state()
        nn.save_state(state, tmp_path / "model.npz")
        loaded = nn.load_state(tmp_path / "model.npz")
        _assert_same_arrays(loaded, state)
        assert all(array.flags.owndata and array.flags.c_contiguous
                   for array in loaded.values())

    def test_file_is_not_a_zip_archive(self, tmp_path):
        nn.save_state(_sample_state(), tmp_path / "model.npz")
        assert (tmp_path / "model.npz").read_bytes().startswith(
            nn.serialization._MAGIC)

    def test_agent_checkpoint_arrays_own_their_memory(self, tmp_path):
        agent = _trained_agent()
        agent.save(tmp_path / "agent.npz")
        loaded = nn.load_state(tmp_path / "agent.npz")
        _assert_same_arrays(loaded, {name: np.asarray(value) for name, value
                                     in agent.state_dict().items()})
        assert all(array.flags.owndata for array in loaded.values())

    def test_zip_checkpoint_from_np_savez_loads(self, tmp_path):
        state = _sample_state()
        path = tmp_path / "old.npz"
        np.savez(path, **state)
        loaded = nn.load_state(path)
        _assert_same_arrays(loaded, state)
        assert all(array.flags.owndata for array in loaded.values())

    def test_zip_checkpoint_warm_starts_a_tuner(self, tmp_path):
        """A model stored by an older release (``np.savez`` layout) warm-
        starts a tuner exactly like the same model in today's layout."""
        from repro.core import CDBTune
        from repro.dbsim import CDB_A

        source = CDBTune(seed=5, noise=0.0)
        source.save(tmp_path / "new.npz")
        np.savez(tmp_path / "old.npz", **nn.load_state(tmp_path / "new.npz"))
        runs = []
        for name in ("old.npz", "new.npz"):
            tuner = CDBTune(seed=9, noise=0.0).load(tmp_path / name)
            runs.append(tuner.tune(CDB_A, "sysbench-rw", steps=3,
                                   fine_tune=True))
        assert runs[0].best_config == runs[1].best_config
        assert [r.reward for r in runs[0].records] == [
            r.reward for r in runs[1].records]

    def test_object_array_raises_type_error_and_leaves_no_file(
            self, tmp_path):
        with pytest.raises(TypeError):
            nn.save_state({"x": np.ones(3),
                           "bad": np.array([{}, None], dtype=object)},
                          tmp_path / "model.npz")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("damage", [
        "flipped body byte", "short body", "trailing bytes", "object dtype",
        "sizes past end of file", "negative shape", "short header",
        "unknown format",
    ])
    def test_damaged_checkpoint_raises_oserror(self, tmp_path, damage):
        path = tmp_path / "model.npz"
        nn.save_state(_sample_state(), path)
        raw = path.read_bytes()
        if damage == "flipped body byte":
            path.write_bytes(raw[:-20] + bytes([raw[-20] ^ 0x01])
                             + raw[-19:])
        elif damage == "short body":
            path.write_bytes(raw[:-1])
        elif damage == "trailing bytes":
            path.write_bytes(raw + b"\x00")
        elif damage == "object dtype":
            def edit(header):
                header["arrays"][0][1] = "|O"
            _rewrite_header(path, edit)
        elif damage == "sizes past end of file":
            def edit(header):
                header["arrays"][0][2] = [1 << 40]
                header["body_bytes"] += 8 << 40
            _rewrite_header(path, edit)
        elif damage == "negative shape":
            def edit(header):
                header["arrays"][0][2] = [-17, -5]
            _rewrite_header(path, edit)
        elif damage == "short header":
            path.write_bytes(raw[:40])
        else:
            path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(OSError, match="corrupt or truncated"):
            nn.load_state(path)
