"""Knob specifications and registries.

The action space of CDBTune is the set of tunable configuration knobs
(266 for the MySQL-compatible CDB, 232 for MongoDB, 169 for Postgres).  A
:class:`KnobSpec` describes one knob — type, range, default, scaling — and a
:class:`KnobRegistry` is an ordered catalog that converts between physical
configurations (name → value dicts) and the normalized ``[0, 1]^m`` vectors
the DDPG actor emits.

The paper's blacklist (§5.2: knobs that "do not make sense to tune" like
path names, or are dangerous) is modeled by ``tunable=False``; registries
expose only tunable knobs as action dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Sequence,
                    TypeVar)

import numpy as np

__all__ = ["KnobType", "KnobSpec", "KnobRegistry"]

_T = TypeVar("_T")


class KnobType:
    """Enumeration of supported knob value types."""

    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    ENUM = "enum"

    ALL = (INTEGER, FLOAT, BOOLEAN, ENUM)


@dataclass(frozen=True)
class KnobSpec:
    """Static description of one configuration knob.

    ``scale="log"`` makes the unit interval map exponentially across the
    range, which matches how DBAs think about byte-sized knobs (buffer pool
    sizes span 5 orders of magnitude).
    """

    name: str
    knob_type: str = KnobType.INTEGER
    min_value: float = 0.0
    max_value: float = 1.0
    default: float = 0.0
    choices: Sequence[str] = ()
    unit: str = ""
    scale: str = "linear"  # "linear" | "log"
    tunable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if self.knob_type not in KnobType.ALL:
            raise ValueError(f"unknown knob type {self.knob_type!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.knob_type == KnobType.ENUM:
            if len(self.choices) < 2:
                raise ValueError(f"enum knob {self.name!r} needs >= 2 choices")
            object.__setattr__(self, "min_value", 0.0)
            object.__setattr__(self, "max_value", float(len(self.choices) - 1))
        elif self.knob_type == KnobType.BOOLEAN:
            object.__setattr__(self, "min_value", 0.0)
            object.__setattr__(self, "max_value", 1.0)
        if self.min_value > self.max_value:
            raise ValueError(f"knob {self.name!r}: min > max")
        if not self.min_value <= self.default <= self.max_value:
            raise ValueError(
                f"knob {self.name!r}: default {self.default} outside "
                f"[{self.min_value}, {self.max_value}]"
            )
        if self.scale == "log" and self.min_value <= 0:
            raise ValueError(f"knob {self.name!r}: log scale needs min > 0")

    # -- unit-interval mapping ------------------------------------------------
    # These three run per knob on every evaluation (266 knobs per stress
    # test), so they avoid scalar np.clip — microseconds per call that
    # added up to more than the storage-engine model itself.
    def to_unit(self, value: float) -> float:
        """Map a physical value to [0, 1]."""
        value = float(min(max(value, self.min_value), self.max_value))
        if self.max_value == self.min_value:
            return 0.0
        if self.scale == "log":
            return (math.log(value) - math.log(self.min_value)) / (
                math.log(self.max_value) - math.log(self.min_value)
            )
        return (value - self.min_value) / (self.max_value - self.min_value)

    def from_unit(self, u: float) -> float:
        """Map u in [0, 1] to a physical value, quantized per the knob type."""
        u = float(min(max(u, 0.0), 1.0))
        if self.scale == "log":
            raw = math.exp(
                math.log(self.min_value)
                + u * (math.log(self.max_value) - math.log(self.min_value))
            )
        else:
            raw = self.min_value + u * (self.max_value - self.min_value)
        return self.quantize(raw)

    def quantize(self, value: float) -> float:
        """Snap a raw value onto the knob's legal grid."""
        value = float(min(max(value, self.min_value), self.max_value))
        if self.knob_type in (KnobType.INTEGER, KnobType.BOOLEAN, KnobType.ENUM):
            return float(int(round(value)))
        return value

    def choice_name(self, value: float) -> str:
        """Human-readable value for enum knobs."""
        if self.knob_type != KnobType.ENUM:
            raise TypeError(f"knob {self.name!r} is not an enum")
        return self.choices[int(round(value))]

    @property
    def span(self) -> float:
        return self.max_value - self.min_value


class KnobRegistry:
    """Ordered collection of knobs with vector conversion helpers.

    ``subset`` restricts the action space to the first N knobs of an
    importance ordering (Figures 6–8 tune growing prefixes of sorted knob
    lists); un-subset knobs stay at their defaults.
    """

    def __init__(self, specs: Sequence[KnobSpec]) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate knob names: {dupes}")
        self._specs: List[KnobSpec] = list(specs)
        self._by_name: Dict[str, KnobSpec] = {s.name: s for s in specs}
        # Vectorized-validate support: full configurations in registry
        # order (the common case — defaults(), from_vector(), and
        # random_config() all preserve it) clip and quantize as three
        # numpy array ops instead of a per-knob Python loop.
        self._fast_names = tuple(s.name for s in self._specs)
        self._sorted_names = tuple(sorted(self._fast_names))
        self._min_arr = np.array([s.min_value for s in self._specs])
        self._max_arr = np.array([s.max_value for s in self._specs])
        self._round_mask = np.array([
            s.knob_type in (KnobType.INTEGER, KnobType.BOOLEAN, KnobType.ENUM)
            for s in self._specs
        ])
        self._name_index = {name: i for i, name in enumerate(self._fast_names)}
        self._sorted_indices = np.fromiter(
            (self._name_index[name] for name in self._sorted_names),
            dtype=np.intp, count=len(self._specs))
        self._defaults_row: np.ndarray | None = None
        # Key-order permutation cache: batches usually share one dict key
        # order, so the name->index resolution runs once per distinct order.
        self._perm_cache: Dict[tuple, np.ndarray] = {}
        # Decode tables over the tunable knobs, for from_vector.  Each entry
        # is computed with the same Python arithmetic as KnobSpec.from_unit
        # (exact integer spans, math.log), so the array decode matches the
        # per-knob one bit for bit.
        self._tunable = tuple(s for s in self._specs if s.tunable)
        self._tunable_names = tuple(s.name for s in self._tunable)
        self._tunable_idx = np.flatnonzero([s.tunable for s in self._specs])
        self._tunable_span = np.array([float(s.span) for s in self._tunable])
        self._log_pos = np.flatnonzero(
            [s.scale == "log" for s in self._tunable])
        log_specs = [self._tunable[i] for i in self._log_pos]
        self._log_lo = np.array([math.log(s.min_value) for s in log_specs])
        self._log_span = np.array([
            math.log(s.max_value) - math.log(s.min_value) for s in log_specs])
        self._derived: Dict[object, object] = {}  # see cached_table

    # -- basic access ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[KnobSpec]:
        return iter(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> KnobSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown knob {name!r}") from None

    @property
    def names(self) -> List[str]:
        return [s.name for s in self._specs]

    @property
    def tunable(self) -> List[KnobSpec]:
        return list(self._tunable)

    @property
    def tunable_names(self) -> List[str]:
        return list(self._tunable_names)

    @property
    def n_tunable(self) -> int:
        return len(self._tunable)

    def defaults(self) -> Dict[str, float]:
        """The vendor-default configuration (the paper's 'MySQL default')."""
        return {s.name: s.default for s in self._specs}

    def cached_table(self, key: object, build: Callable[[], _T]) -> _T:
        """The table ``build()`` derives from this catalog, built once.

        Tables live and die with the registry, which no method mutates, so
        every holder of the registry shares them; keep them read-only.
        """
        table = self._derived.get(key)
        if table is None:
            table = self._derived.setdefault(key, build())
        return table

    # -- subsetting ----------------------------------------------------------
    def subset(self, names: Sequence[str]) -> "KnobRegistry":
        """Registry restricted to ``names`` (order preserved from ``names``)."""
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown knobs: {missing}")
        return KnobRegistry([self._by_name[n] for n in names])

    def reorder(self, names: Sequence[str]) -> "KnobRegistry":
        """Full registry reordered so ``names`` come first (importance order)."""
        chosen = list(names)
        rest = [n for n in self.names if n not in set(chosen)]
        return self.subset(chosen + rest)

    # -- vector conversion -------------------------------------------------------
    def to_vector(self, config: Mapping[str, float],
                  strict: bool = True) -> np.ndarray:
        """Normalize a (possibly partial) configuration to [0, 1]^n_tunable.

        Missing knobs take their defaults.  With ``strict=False`` knob
        names outside this registry are ignored (subset registries reading
        full-catalog configurations, Figures 6-8).
        """
        if strict:
            unknown = [n for n in config if n not in self._by_name]
            if unknown:
                raise KeyError(f"unknown knobs in config: {sorted(unknown)}")
        return np.array([
            s.to_unit(config.get(s.name, s.default)) for s in self.tunable
        ])

    def from_vector(self, vector: np.ndarray,
                    base: Mapping[str, float] | None = None) -> Dict[str, float]:
        """Decode an action vector to a full physical configuration.

        Non-tunable knobs (and tunable knobs absent from a subset registry)
        come from ``base`` or, failing that, the defaults.
        """
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.size != len(self._tunable):
            raise ValueError(
                f"expected action of dim {len(self._tunable)}, "
                f"got {vector.size}"
            )
        if base is None:
            config = self.defaults()
        else:
            config = dict(base)
            if not self._by_name.keys() <= config.keys():
                for spec in self._specs:
                    config.setdefault(spec.name, spec.default)
        config.update(zip(self._tunable_names, self._decode(vector)))
        return config

    def _decode(self, u: np.ndarray) -> List[float]:
        """``[spec.from_unit(x) for spec, x in zip(tunable, u)]`` as array ops.

        Log-scale knobs take ``math.exp`` per element: numpy's SIMD ``exp``
        can differ in the last bit, and on a range as wide as
        ``max_join_size`` (up to 2**64 - 1) that bit survives rounding.
        """
        positions = self._tunable_idx
        low = self._min_arr[positions]
        u = np.clip(u, 0.0, 1.0)
        raw = low + u * self._tunable_span
        exponents = self._log_lo + u[self._log_pos] * self._log_span
        raw[self._log_pos] = [math.exp(x) for x in exponents.tolist()]
        np.clip(raw, low, self._max_arr[positions], out=raw)
        rounded = self._round_mask[positions]
        grid = raw[rounded]
        if np.isnan(grid).any():
            raise ValueError("cannot convert float NaN to integer")
        # + 0.0 turns rint's -0.0 into the 0.0 that float(round(x)) gives.
        raw[rounded] = np.rint(grid) + 0.0
        return raw.tolist()

    def validate(self, config: Mapping[str, float]) -> Dict[str, float]:
        """Clip and quantize every known knob value; reject unknown names."""
        if tuple(config.keys()) == self._fast_names:
            values = np.fromiter(config.values(), dtype=np.float64,
                                 count=len(self._specs))
            np.clip(values, self._min_arr, self._max_arr, out=values)
            values[self._round_mask] = np.rint(values[self._round_mask])
            return dict(zip(self._fast_names, values.tolist()))
        unknown = [n for n in config if n not in self._by_name]
        if unknown:
            raise KeyError(f"unknown knobs in config: {sorted(unknown)}")
        return {
            name: self._by_name[name].quantize(value)
            for name, value in config.items()
        }

    def index_of(self, name: str) -> int:
        """Position of ``name`` in registry order."""
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"unknown knob {name!r}") from None

    @property
    def sorted_indices(self) -> np.ndarray:
        """Registry-order positions of the alphabetically sorted knob names.

        ``row[sorted_indices]`` reorders a registry-order value row into
        the canonical (sorted-name) order used for cache keys and the
        per-config jitter seed.
        """
        return self._sorted_indices

    def _key_indices(self, names: tuple) -> np.ndarray:
        """Registry positions of a config's key tuple (cached per order)."""
        perm = self._perm_cache.get(names)
        if perm is None:
            index = self._name_index
            unknown = [n for n in names if n not in index]
            if unknown:
                raise KeyError(f"unknown knobs in config: {sorted(unknown)}")
            perm = np.fromiter((index[n] for n in names), dtype=np.intp,
                               count=len(names))
            self._perm_cache[names] = perm
        return perm

    def values_matrix(self, configs: Sequence[Mapping[str, float]]) -> np.ndarray:
        """Validated full-config rows, one per config, in registry order.

        The batched equivalent of ``defaults() | validate(config)``: full
        configs (any key order) clip and quantize as whole-matrix numpy
        ops; partial configs clip/quantize only their own positions and
        fill the rest with raw (unquantized) defaults, exactly as the
        scalar path does.  Unknown knob names raise ``KeyError``.
        """
        n = len(self._specs)
        fast_names = self._fast_names
        if configs and all(tuple(config.keys()) == fast_names
                           for config in configs):
            # Every row already in registry order: fill the whole matrix
            # with one chained fromiter (a single C loop) and clip/quantize
            # in place — no staging copies.
            out = np.fromiter(
                itertools.chain.from_iterable(
                    config.values() for config in configs),
                dtype=np.float64, count=len(configs) * n,
            ).reshape(len(configs), n)
            np.clip(out, self._min_arr, self._max_arr, out=out)
            out[:, self._round_mask] = np.rint(out[:, self._round_mask])
            return out
        out = np.empty((len(configs), n))
        full_rows: List[int] = []
        fast_rows: List[int] = []
        for i, config in enumerate(configs):
            names = tuple(config.keys())
            if names == fast_names:
                fast_rows.append(i)
                full_rows.append(i)
            elif len(names) == n:
                out[i, self._key_indices(names)] = np.fromiter(
                    config.values(), dtype=np.float64, count=n)
                full_rows.append(i)
            else:
                perm = self._key_indices(names)
                values = np.fromiter(config.values(), dtype=np.float64,
                                     count=len(names))
                np.clip(values, self._min_arr[perm], self._max_arr[perm],
                        out=values)
                mask = self._round_mask[perm]
                values[mask] = np.rint(values[mask])
                if self._defaults_row is None:
                    self._defaults_row = np.array(
                        [s.default for s in self._specs], dtype=np.float64)
                out[i] = self._defaults_row
                out[i, perm] = values
        if fast_rows:
            # Rows already in registry order fill as one chained fromiter
            # (a single C loop) instead of one fromiter call per config.
            out[fast_rows] = np.fromiter(
                itertools.chain.from_iterable(
                    configs[i].values() for i in fast_rows),
                dtype=np.float64, count=len(fast_rows) * n,
            ).reshape(len(fast_rows), n)
        if full_rows:
            sub = out[full_rows]
            np.clip(sub, self._min_arr, self._max_arr, out=sub)
            sub[:, self._round_mask] = np.rint(sub[:, self._round_mask])
            out[full_rows] = sub
        return out

    def canonical_items(self, config: Mapping[str, float]) -> tuple:
        """``tuple(sorted(config.items()))`` without re-sorting every call.

        ``config`` must contain only knob names from this registry (i.e.
        be validated); names outside it are silently dropped.  Cache keys
        are built once per evaluation request, so this runs on the
        precomputed sorted name order instead of timsorting 266 items.
        """
        if len(config) == len(self._specs):
            return tuple((n, config[n]) for n in self._sorted_names)
        return tuple((n, config[n]) for n in self._sorted_names if n in config)

    def random_config(self, rng: np.random.Generator) -> Dict[str, float]:
        """Uniformly random tunable configuration (BestConfig sampling etc.)."""
        config = self.defaults()
        for spec in self.tunable:
            config[spec.name] = spec.from_unit(rng.random())
        return config
