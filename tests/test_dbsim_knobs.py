"""Tests for knob specs, registries and the three catalogs."""

import numpy as np
import pytest

from repro.dbsim import (
    KnobRegistry,
    KnobSpec,
    KnobType,
    MONGODB_KNOB_COUNT,
    MYSQL_KNOB_COUNT,
    POSTGRES_KNOB_COUNT,
    mongodb_registry,
    mysql_registry,
    postgres_registry,
)
from repro.dbsim.mysql_knobs import MAJOR_KNOBS


class TestKnobSpec:
    def test_linear_unit_roundtrip(self):
        spec = KnobSpec("k", KnobType.FLOAT, 10.0, 30.0, 20.0)
        assert spec.from_unit(spec.to_unit(25.0)) == pytest.approx(25.0)

    def test_log_unit_mapping(self):
        spec = KnobSpec("k", KnobType.FLOAT, 1.0, 10000.0, 100.0, scale="log")
        assert spec.to_unit(100.0) == pytest.approx(0.5)
        assert spec.from_unit(0.5) == pytest.approx(100.0, rel=1e-9)

    def test_integer_quantization(self):
        spec = KnobSpec("k", KnobType.INTEGER, 0, 10, 5)
        assert spec.from_unit(0.444) == 4.0
        assert spec.quantize(4.6) == 5.0

    def test_enum_choices(self):
        spec = KnobSpec("k", KnobType.ENUM, choices=("a", "b", "c"), default=1)
        assert spec.max_value == 2.0
        assert spec.choice_name(2.0) == "c"
        with pytest.raises(TypeError):
            KnobSpec("x", KnobType.INTEGER, 0, 1, 0).choice_name(0)

    def test_boolean_bounds(self):
        spec = KnobSpec("k", KnobType.BOOLEAN, default=1.0)
        assert spec.min_value == 0.0 and spec.max_value == 1.0

    def test_default_outside_range_rejected(self):
        with pytest.raises(ValueError):
            KnobSpec("k", KnobType.INTEGER, 0, 10, 20)

    def test_log_scale_requires_positive_min(self):
        with pytest.raises(ValueError):
            KnobSpec("k", KnobType.FLOAT, 0.0, 10.0, 1.0, scale="log")

    def test_enum_needs_two_choices(self):
        with pytest.raises(ValueError):
            KnobSpec("k", KnobType.ENUM, choices=("only",), default=0)

    def test_unit_clipping(self):
        spec = KnobSpec("k", KnobType.FLOAT, 0.0, 1.0, 0.5)
        assert spec.to_unit(5.0) == 1.0
        assert spec.from_unit(2.0) == 1.0


class TestKnobRegistry:
    @pytest.fixture
    def registry(self):
        return KnobRegistry([
            KnobSpec("a", KnobType.FLOAT, 0.0, 10.0, 5.0),
            KnobSpec("b", KnobType.INTEGER, 1, 100, 10, scale="log"),
            KnobSpec("c", KnobType.BOOLEAN, default=0.0),
            KnobSpec("fixed", KnobType.INTEGER, 0, 1, 0, tunable=False),
        ])

    def test_duplicate_names_rejected(self):
        spec = KnobSpec("a", KnobType.FLOAT, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="duplicate"):
            KnobRegistry([spec, spec])

    def test_tunable_excludes_blacklist(self, registry):
        assert registry.n_tunable == 3
        assert "fixed" not in registry.tunable_names

    def test_vector_roundtrip(self, registry):
        config = {"a": 2.5, "b": 10.0, "c": 1.0}
        vector = registry.to_vector(config)
        decoded = registry.from_vector(vector)
        assert decoded["a"] == pytest.approx(2.5)
        assert decoded["b"] == pytest.approx(10.0)
        assert decoded["c"] == 1.0
        assert decoded["fixed"] == 0.0  # non-tunable keeps default

    def test_from_vector_wrong_dim(self, registry):
        with pytest.raises(ValueError):
            registry.from_vector(np.zeros(2))

    def test_unknown_knob_rejected(self, registry):
        with pytest.raises(KeyError):
            registry.to_vector({"nope": 1.0})
        with pytest.raises(KeyError):
            registry.validate({"nope": 1.0})

    def test_subset_preserves_order(self, registry):
        subset = registry.subset(["c", "a"])
        assert subset.names == ["c", "a"]
        with pytest.raises(KeyError):
            registry.subset(["missing"])

    def test_reorder_puts_names_first(self, registry):
        reordered = registry.reorder(["b"])
        assert reordered.names[0] == "b"
        assert len(reordered) == len(registry)

    def test_validate_quantizes(self, registry):
        cleaned = registry.validate({"b": 10.7})
        assert cleaned["b"] == 11.0

    def test_random_config_within_bounds(self, registry):
        rng = np.random.default_rng(0)
        for _ in range(10):
            config = registry.random_config(rng)
            for spec in registry:
                assert spec.min_value <= config[spec.name] <= spec.max_value
            assert config["fixed"] == 0.0  # blacklist untouched

    def test_defaults(self, registry):
        assert registry.defaults() == {"a": 5.0, "b": 10.0, "c": 0.0,
                                       "fixed": 0.0}


class TestCatalogs:
    def test_mysql_has_266_tunable_knobs(self):
        registry = mysql_registry()
        assert registry.n_tunable == MYSQL_KNOB_COUNT == 266

    def test_mysql_majors_present_and_tunable(self):
        registry = mysql_registry()
        for name in MAJOR_KNOBS:
            assert name in registry
            assert registry[name].tunable

    def test_mysql_blacklist_exists(self):
        registry = mysql_registry()
        blacklisted = [s for s in registry if not s.tunable]
        assert blacklisted  # the §5.2 blacklist

    def test_mysql_defaults_match_vendor(self):
        registry = mysql_registry()
        assert registry["innodb_buffer_pool_size"].default == 128 * 1024 ** 2
        assert registry["innodb_flush_log_at_trx_commit"].default == 1.0
        assert registry["max_connections"].default == 151

    def test_mongodb_catalog(self):
        registry, adapter = mongodb_registry()
        assert registry.n_tunable == MONGODB_KNOB_COUNT == 232
        # Every adapter source is a knob; every target a canonical knob.
        mysql = mysql_registry()
        for native, canonical in adapter.items():
            assert native in registry
            assert canonical in mysql

    def test_postgres_catalog(self):
        registry, adapter = postgres_registry()
        assert registry.n_tunable == POSTGRES_KNOB_COUNT == 169
        assert "shared_buffers_bytes" in adapter

    def test_catalogs_are_reproducible(self):
        assert mysql_registry().names == mysql_registry().names


def _scalar_from_vector(registry, vector, base=None):
    """Reference decode: one ``KnobSpec.from_unit`` call per tunable knob."""
    config = dict(base) if base is not None else {}
    for spec in registry:
        config.setdefault(spec.name, spec.default)
    for spec, u in zip(registry.tunable, vector):
        config[spec.name] = spec.from_unit(float(u))
    return config


def _decode_catalogs():
    mysql = mysql_registry()
    subset_names = [n for n in mysql.names[::5] if n != "max_join_size"]
    return {
        "mysql": mysql,
        "mongodb": mongodb_registry()[0],
        "postgres": postgres_registry()[0],
        # Covers the widest range (max_join_size, up to 2**64 - 1) and
        # a blacklisted knob inside a subset.
        "subset": mysql.subset(subset_names + ["max_join_size"]),
    }


class TestVectorDecode:
    @pytest.mark.parametrize("catalog", ["mysql", "mongodb", "postgres",
                                         "subset"])
    def test_from_vector_matches_per_knob_decode(self, catalog):
        """Values, types and key order equal the per-knob decode, bit for
        bit (repr tells -0.0 from 0.0 and int from float), on random and
        boundary vectors, with and without a base configuration."""
        registry = _decode_catalogs()[catalog]
        # A partial base in foreign key order: its keys come first, the
        # registry's missing knobs follow.
        defaults = list(mysql_registry().defaults().items())
        base = dict(reversed(defaults[::2]))
        rng = np.random.default_rng(len(catalog))
        for i in range(5000):
            if i % 4 == 0:
                vector = rng.choice([0.0, -0.0, 1.0, -0.1, 1.2],
                                    size=registry.n_tunable)
            else:
                vector = rng.uniform(-0.2, 1.2, size=registry.n_tunable)
            given = base if i % 2 else None
            assert (repr(registry.from_vector(vector, base=given))
                    == repr(_scalar_from_vector(registry, vector, given)))

    def test_nan_in_integer_slot_raises(self):
        registry = mysql_registry()
        vector = np.full(registry.n_tunable, 0.5)
        vector[registry.tunable_names.index("max_connections")] = np.nan
        with pytest.raises(ValueError):
            _scalar_from_vector(registry, vector)
        with pytest.raises(ValueError):
            registry.from_vector(vector)

    def test_nan_in_float_slot_passes_through(self):
        registry = mysql_registry()
        name = next(s.name for s in registry.tunable
                    if s.knob_type == KnobType.FLOAT)
        vector = np.full(registry.n_tunable, 0.5)
        vector[registry.tunable_names.index(name)] = np.nan
        assert np.isnan(registry.from_vector(vector)[name])


class TestSharedTables:
    def test_mysql_catalog_is_built_once(self):
        assert mysql_registry() is mysql_registry()

    def test_second_database_rebuilds_no_tables(self, monkeypatch):
        from repro.dbsim import CDB_A, SimulatedDatabase, get_workload
        from repro.dbsim import engine, mysql_knobs

        workload = get_workload("tpcc")
        first = SimulatedDatabase(CDB_A, workload, noise=0.0)
        first.evaluate(first.default_config())
        calls = []

        def spy(function):
            def wrapped(*args):
                calls.append(function.__name__)
                return function(*args)
            return wrapped

        monkeypatch.setattr(mysql_knobs, "_build_specs",
                            spy(mysql_knobs._build_specs))
        monkeypatch.setattr(engine, "_stable_hash01",
                            spy(engine._stable_hash01))
        second = SimulatedDatabase(CDB_A, workload, noise=0.0)
        observation = second.evaluate(second.default_config())
        assert calls == []
        assert observation.throughput == first.evaluate(
            first.default_config()).throughput

    def test_minor_tables_are_read_only(self):
        from repro.dbsim import CDB_A, SimulatedDatabase, get_workload

        db = SimulatedDatabase(CDB_A, get_workload("tpcc"), noise=0.0)
        db.evaluate(db.default_config())
        names, *arrays = db._minor_tables()
        assert isinstance(names, tuple) and names
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        replica = db.replica()
        assert replica._minor_tables() is db._minor_tables()
