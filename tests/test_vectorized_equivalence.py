"""Bitwise equivalence of the simulator model's two number types.

``SimulatedDatabase.evaluate`` is a one-config batch, which runs the model
on Python floats; ``evaluate_many`` over several configs runs it on numpy
arrays.  The contract under test: ``evaluate_many`` is
*bitwise-identical* to running ``evaluate`` serially over the same
configs in the same order.  Not "close", identical: the
same observation bits, the same counter values, the same LRU cache keys
in the same order.  The config mix deliberately includes crash-region
configs, in-batch duplicates and partial configs, across cache sizes
(off / large / tiny-with-evictions) and noise on/off.  Numbers that must
hold on any host are pinned by ``tests/test_dbsim_golden.py``.
"""

import numpy as np
import pytest

from repro.dbsim import (
    CDB_A,
    DatabaseCrashError,
    SimulatedDatabase,
    get_workload,
    mysql_registry,
)
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics

REGISTRY = mysql_registry()


def make_database(noise=0.015, seed=7, cache_size=2048):
    return SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                             registry=REGISTRY, noise=noise, seed=seed,
                             cache_size=cache_size)


def make_configs(n=18, crash_every=6, partial_every=5, dup_every=7, seed=42):
    """A config mix exercising every batch code path."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(n):
        config = REGISTRY.random_config(rng)
        # Keep the redo log group out of the crash region by default …
        config["innodb_log_file_size"] = min(
            config["innodb_log_file_size"], 256 * 1024 * 1024)
        config["innodb_log_files_in_group"] = 2.0
        if crash_every and i % crash_every == crash_every - 1:
            # … then push selected configs into it (§5.2.3).
            config["innodb_log_file_size"] = (
                REGISTRY["innodb_log_file_size"].max_value)
            config["innodb_log_files_in_group"] = (
                REGISTRY["innodb_log_files_in_group"].max_value)
        if partial_every and i % partial_every == partial_every - 1:
            config = {k: config[k] for k in
                      ("innodb_buffer_pool_size", "max_connections",
                       "innodb_log_file_size", "innodb_log_files_in_group")}
        if dup_every and i % dup_every == dup_every - 1 and configs:
            config = dict(configs[i - 1])
        configs.append(config)
    trials = [1 + (i % 4) for i in range(n)]
    return configs, trials


def serial_reference(db, configs, trials):
    """(status, payload) per config via plain serial ``evaluate`` calls."""
    out = []
    for config, trial in zip(configs, trials):
        try:
            out.append(("ok", db.evaluate(config, trial=trial)))
        except DatabaseCrashError as exc:
            out.append(("crash", str(exc)))
    return out


def counters_of(db):
    return (db.evaluations, db.stress_tests, db.cache_hits, db.cache_misses,
            dict(db.cache_info()))


def assert_observations_identical(obs_a, obs_b):
    assert obs_a.performance.throughput == obs_b.performance.throughput
    assert obs_a.performance.latency == obs_b.performance.latency
    assert np.array_equal(obs_a.metrics, obs_b.metrics)


def assert_matches_reference(reference, outcomes):
    assert len(reference) == len(outcomes)
    for (ref_status, ref_payload), obs in zip(reference, outcomes):
        if ref_status == "crash":
            assert obs is None
        else:
            assert obs is not None
            assert_observations_identical(ref_payload, obs)


@pytest.fixture
def fresh_metrics():
    """Install an isolated metrics registry; restore the old one after."""
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("cache_size", [0, 2048, 3])
    @pytest.mark.parametrize("noise", [0.015, 0.0])
    def test_matches_serial_bit_for_bit(self, cache_size, noise,
                                        fresh_metrics):
        configs, trials = make_configs()
        serial_db = make_database(noise=noise, cache_size=cache_size)
        serial_registry = MetricsRegistry()
        set_metrics(serial_registry)
        reference = serial_reference(serial_db, configs, trials)
        batch_registry = MetricsRegistry()
        set_metrics(batch_registry)
        batch_db = make_database(noise=noise, cache_size=cache_size)
        outcomes = batch_db.evaluate_many(configs, trials=trials)

        assert_matches_reference(reference, outcomes)
        assert counters_of(batch_db) == counters_of(serial_db)
        # The db.evaluate.* metric counters advance identically too.
        serial_counters = serial_registry.snapshot()["counters"]
        batch_counters = batch_registry.snapshot()["counters"]
        for name in ("db.evaluate.requests", "db.evaluate.cache_hits",
                     "db.evaluate.crashes"):
            assert batch_counters.get(name, 0) == serial_counters.get(name, 0)
        # LRU cache state: same keys, same recency order.
        assert list(serial_db._cache) == list(batch_db._cache)

    def test_crash_messages_match_serial(self):
        configs, trials = make_configs()
        serial_db = make_database()
        batch_db = make_database()
        reference = serial_reference(serial_db, configs, trials)
        outcomes = batch_db._evaluate_many_outcomes(configs, trials)
        crash_rows = [i for i, (status, _) in enumerate(reference)
                      if status == "crash"]
        assert crash_rows, "config mix must include crash-region rows"
        for i in crash_rows:
            status, payload = outcomes[i]
            assert status == "crash"
            assert payload == reference[i][1]

    def test_in_batch_duplicates_hit_the_cache(self):
        db = make_database()
        config = dict(make_configs(n=1, crash_every=0, partial_every=0,
                                   dup_every=0)[0][0])
        outcomes = db.evaluate_many([config, config, config], trials=2)
        assert db.stress_tests == 1
        assert db.cache_hits == 2
        assert db.evaluations == 3
        assert_observations_identical(outcomes[0], outcomes[1])
        assert_observations_identical(outcomes[0], outcomes[2])

    def test_single_config_batch_equals_scalar_call(self):
        configs, trials = make_configs(crash_every=0)
        serial_db = make_database(cache_size=0)
        batch_db = make_database(cache_size=0)
        for config, trial in zip(configs, trials):
            scalar = serial_db.evaluate(config, trial=trial)
            [batched] = batch_db.evaluate_many([config], trials=[trial])
            assert_observations_identical(scalar, batched)


class TestJitterSeedRegression:
    """A partial config and its spelled-out equivalent share one jitter
    stream (the seed hashes canonical *full* values, not the raw dict)."""

    def test_partial_equals_explicit_defaults(self):
        db = make_database(cache_size=0)
        partial = {"innodb_buffer_pool_size": 2.0 * 1024 ** 3}
        full = db.default_config()
        full.update(partial)
        obs_partial = db.evaluate(partial, trial=5)
        obs_full = db.evaluate(full, trial=5)
        assert_observations_identical(obs_partial, obs_full)

    def test_partial_equals_explicit_defaults_batched(self):
        db = make_database(cache_size=0)
        partial = {"max_connections": 900.0}
        full = db.default_config()
        full.update(partial)
        obs_partial, obs_full = db.evaluate_many([partial, full], trials=9)
        assert_observations_identical(obs_partial, obs_full)


class TestCounterSemantics:
    def test_cache_info_reports_real_misses(self):
        db = make_database()
        config = db.default_config()
        db.evaluate(config, trial=1)            # miss
        db.evaluate(config, trial=1)            # hit
        db.evaluate(config, trial=2)            # miss
        info = db.cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 1
        assert db.cache_misses == 2

    def test_memoized_crash_counts_in_metrics(self, fresh_metrics):
        configs, trials = make_configs(n=6)
        db = make_database()
        first = db.evaluate_many(configs, trials=trials)
        crashes = sum(obs is None for obs in first)
        assert crashes > 0
        # Same batch again: every crash is now a memoized cache hit, but
        # it still crashed from the caller's point of view.
        again = db.evaluate_many(configs, trials=trials)
        assert sum(obs is None for obs in again) == crashes
        assert db.stress_tests == len(configs)
        crash_metric = get_metrics().counter("db.evaluate.crashes").value
        assert crash_metric == 2 * crashes
