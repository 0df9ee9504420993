"""Seeded request streams for the three benchmark workloads.

Standard library only: the load generator must not import the program it
measures, so a change to the program cannot change the traffic.  The
workload signature below re-implements ``WorkloadSpec.signature`` so cold
tenants can be kept out of warm-start range; ``test_perfbench.py`` checks
it against the program's own ``signature_distance``.

Every request uses only the public request fields: ``workload``,
``hardware``, ``tenant``, ``mode``, ``train_steps``, ``tune_steps`` and
``seed``.  Whether a session starts cold or warm follows from the traffic.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("sysbench-ro", "sysbench-wo", "sysbench-rw", "tpcc", "tpch",
             "ycsb")
INSTANCES = ("CDB-A", "CDB-B", "CDB-C", "CDB-D", "CDB-E")

#: The service's default ``warm_start_max_distance``.  Cold tenants keep a
#: margin above it so no registry entry of the run can warm-start them.
WARM_START_DISTANCE = 0.35
COLD_MIN_DISTANCE = 0.45

#: Offline-training budget of a cold-train session.  The 48-step
#: latin-hypercube warmup ends at step 48 and the replay memory reaches the
#: 64-transition batch soon after, so 96 steps give each session about 60
#: DDPG updates (two per step) on top of the warmup.
COLD_TRAIN_STEPS = 72

#: The six named workloads, in the ``WorkloadSpec`` wire form of a mix
#: component.
NAMED_SPECS = {
    "sysbench-ro": dict(
        name="sysbench-ro", kind="oltp", read_frac=1.0, point_frac=0.75,
        scan_frac=0.25, insert_frac=0.0, data_gb=8.5, working_set_frac=0.55,
        skew=0.5, threads=1500, ops_per_txn=14.0, cpu_us_per_op=160.0,
        log_bytes_per_txn=0.0, rows_per_op=4.0, sort_frac=0.15),
    "sysbench-wo": dict(
        name="sysbench-wo", kind="oltp", read_frac=0.0, point_frac=1.0,
        scan_frac=0.0, insert_frac=0.45, data_gb=8.5, working_set_frac=0.5,
        skew=0.5, threads=1500, ops_per_txn=4.0, cpu_us_per_op=170.0,
        log_bytes_per_txn=2600.0, rows_per_op=1.2, sort_frac=0.0),
    "sysbench-rw": dict(
        name="sysbench-rw", kind="oltp", read_frac=0.7, point_frac=0.7,
        scan_frac=0.3, insert_frac=0.35, data_gb=8.5, working_set_frac=0.55,
        skew=0.5, threads=1500, ops_per_txn=18.0, cpu_us_per_op=160.0,
        log_bytes_per_txn=2100.0, rows_per_op=3.0, sort_frac=0.12),
    "tpcc": dict(
        name="tpcc", kind="oltp", read_frac=0.65, point_frac=0.85,
        scan_frac=0.15, insert_frac=0.55, data_gb=12.8, working_set_frac=0.35,
        skew=0.6, threads=32, ops_per_txn=30.0, cpu_us_per_op=180.0,
        log_bytes_per_txn=4200.0, rows_per_op=2.0, sort_frac=0.05),
    "tpch": dict(
        name="tpch", kind="olap", read_frac=1.0, point_frac=0.05,
        scan_frac=0.95, insert_frac=0.0, data_gb=16.0, working_set_frac=0.9,
        skew=0.1, threads=8, ops_per_txn=1.0, cpu_us_per_op=900.0,
        log_bytes_per_txn=0.0, rows_per_op=250000.0, sort_frac=0.7),
    "ycsb": dict(
        name="ycsb", kind="kv", read_frac=0.5, point_frac=0.95,
        scan_frac=0.05, insert_frac=0.1, data_gb=35.0, working_set_frac=0.25,
        skew=0.85, threads=50, ops_per_txn=1.0, cpu_us_per_op=150.0,
        log_bytes_per_txn=1200.0, rows_per_op=1.0, sort_frac=0.0),
}


def signature(spec: Dict[str, float]) -> Dict[str, float]:
    """Resource-demand fingerprint, as ``WorkloadSpec.signature`` computes it."""
    return {
        "read_frac": spec["read_frac"],
        "point_frac": spec["point_frac"],
        "insert_frac": spec["insert_frac"],
        "working_set_frac": spec["working_set_frac"],
        "skew": spec["skew"],
        "sort_frac": spec["sort_frac"],
        "log2_data_gb": math.log2(spec["data_gb"]) / 10.0,
        "log2_threads": math.log2(spec["threads"]) / 12.0,
        "log2_ops_per_txn": math.log2(spec["ops_per_txn"]) / 8.0,
    }


def distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Euclidean distance between two signatures over the same features."""
    return math.sqrt(sum((a[key] - b[key]) ** 2 for key in a))


NAMED_SIGNATURES = {name: signature(spec)
                    for name, spec in NAMED_SPECS.items()}


def _blocks(rng: random.Random, items) -> Iterator:
    """Items in seeded shuffled blocks, each holding every item once.

    A run of any length then sees each item in near-equal shares, so the
    mix of inputs, and with it the medians, varies little from seed to seed.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


#: Cold workload fields: ``(low, high, power of two?)``.  A block of
#: ``_COLD_BLOCK`` workloads (one per instance type) takes one value of each
#: field from each equal slice of its range.
_COLD_FIELDS = {
    "read_frac": (0.1, 0.95, False), "point_frac": (0.5, 1.0, False),
    "insert_frac": (0.05, 0.7, False), "data_gb": (1.0, 7.0, True),
    "working_set_frac": (0.1, 0.9, False), "skew": (0.05, 0.9, False),
    "threads": (3.0, 11.0, True), "ops_per_txn": (0.0, 5.5, True),
    "cpu_us_per_op": (100.0, 300.0, False),
    "log_bytes_per_txn": (500.0, 5000.0, False),
    "rows_per_op": (0.0, 3.0, True), "sort_frac": (0.0, 0.3, False),
}
_COLD_BLOCK = len(INSTANCES)


def _cold_spec(name: str, unit: Dict[str, float]) -> Dict[str, object]:
    """One OLTP workload; ``unit`` places each field within its range."""
    values = {}
    for field, (low, high, power) in _COLD_FIELDS.items():
        value = low + unit[field] * (high - low)
        values[field] = 2.0 ** value if power else value
    point = round(values["point_frac"], 4)
    spec: Dict[str, object] = {"name": name, "kind": "oltp"}
    for field, value in values.items():
        spec[field] = round(value, 4)
    spec.update(point_frac=point, scan_frac=round(1.0 - point, 4),
                threads=int(round(values["threads"])))
    return spec


def _one_component_mix(spec: Dict[str, object]) -> Dict[str, object]:
    return {"name": spec["name"],
            "slices": [{"label": "", "duration": 1.0,
                        "components": [{"weight": 1.0, "spec": spec}]}]}


def _cold_blocks() -> Iterator[List[Tuple[Dict[str, object], str, int]]]:
    """The cold tenants, ``(workload, instance type, tuner seed)``: one
    fixed sequence.

    Each block of ``_COLD_BLOCK`` draws every workload field latin-hypercube
    style and uses each instance type once.  Every workload is farther than
    ``COLD_MIN_DISTANCE`` from the six named workloads and from every
    workload before it, so no session of a run can warm-start.
    """
    rng = random.Random("cold-train")
    taken: List[Dict[str, float]] = list(NAMED_SIGNATURES.values())
    index = 0
    while True:
        slices = {field: rng.sample(range(_COLD_BLOCK), _COLD_BLOCK)
                  for field in _COLD_FIELDS}
        instances = rng.sample(INSTANCES, len(INSTANCES))
        block = []
        for slot in range(_COLD_BLOCK):
            for attempt in itertools.count():
                # Stay in the block's slices while that can work; a crowded
                # corner of the space falls back to a free draw.
                unit = {field: (order[slot] + rng.random()) / _COLD_BLOCK
                        if attempt < 50 else rng.random()
                        for field, order in slices.items()}
                spec = _cold_spec(f"cold-{index:03d}", unit)
                sig = signature(spec)      # type: ignore[arg-type]
                if min(distance(sig, other) for other in taken) \
                        > COLD_MIN_DISTANCE:
                    break
            taken.append(sig)
            block.append((spec, instances[slot], rng.randrange(1 << 30)))
            index += 1
        yield block


def cold_train(seed: int) -> Iterator[Dict[str, object]]:
    """New tenants, each on a generated workload out of warm-start range.

    The tenants, tuner seeds included, are one fixed population, so a run's
    medians do not hang on which tenants a seed happened to draw; the seed
    orders each block.
    """
    rng = random.Random(f"cold-train/{seed}")
    for block in _cold_blocks():
        rng.shuffle(block)
        for spec, instance, tuner_seed in block:
            yield {"workload": _one_component_mix(spec),
                   "hardware": instance,
                   "tenant": spec["name"],
                   "train_steps": COLD_TRAIN_STEPS,
                   "seed": tuner_seed}


def fleet_warm(seed: int) -> Iterator[Dict[str, object]]:
    """Returning tenants: named workload × instance type, default budget."""
    rng = random.Random(f"fleet-warm/{seed}")
    tenants = _blocks(rng, [(workload, instance) for workload in WORKLOADS
                            for instance in INSTANCES])
    while True:
        workload, instance = next(tenants)
        yield {"workload": workload, "hardware": instance,
               "seed": rng.randrange(1 << 30)}


#: Size of the one-shot mix population (every pair of named workloads plus
#: as many triples), and how many tuner seeds each mix is served with.
_MIXES = 20
_MIX_SEEDS = 3


def _mix_population() -> List[Tuple[Dict[str, object], str]]:
    """2- and 3-way mixes of the named workloads with fixed weights and
    instance type: one population for every seed."""
    rng = random.Random("oneshot-mix")
    pairs = list(itertools.combinations(WORKLOADS, 2))
    triples = rng.sample(list(itertools.combinations(WORKLOADS, 3)),
                         _MIXES - len(pairs))
    population = []
    for parts in pairs + triples:
        weights = [rng.uniform(0.2, 1.0) for _ in parts]
        total = sum(weights)
        components = [{"weight": round(weight / total, 4),
                       "spec": dict(NAMED_SPECS[part])}
                      for part, weight in zip(parts, weights)]
        population.append(({"label": "", "duration": 1.0,
                            "components": components},
                           rng.choice(INSTANCES)))
    return population


def oneshot_mix(seed: int) -> Iterator[Dict[str, object]]:
    """New tenants on 2–3-component mixes of named workloads, one-shot mode.

    The mixes and tuner seeds are one fixed population.  The stream opens
    with one session per mix in a fixed order, the first tenants on each
    mix; later sessions on a mix nearly all warm-start from that first
    model (the nearest entry; ties go to the most-trained), so how well a
    run goes does not hang on which sessions the seed happened to put first.  After that the
    seed orders each pass over the ``_MIXES × _MIX_SEEDS`` later sessions.
    """
    population = _mix_population()
    fixed = random.Random("oneshot-mix/seeds")
    first = [(mix, instance, fixed.randrange(1 << 30))
             for mix, instance in population]
    later = [(mix, instance, fixed.randrange(1 << 30))
             for _ in range(_MIX_SEEDS) for mix, instance in population]
    rng = random.Random(f"oneshot-mix/{seed}")
    passes = itertools.chain(first, _blocks(rng, later))
    for index, (mix, instance, tuner_seed) in enumerate(passes):
        name = f"mix-{index:03d}"
        yield {"workload": {"name": name, "slices": [mix]},
               "hardware": instance,
               "tenant": name,
               "mode": "oneshot",
               "seed": tuner_seed}


#: Sessions run before the window: each tenant's or mix's first visit on
#: ``fleet-warm`` and ``oneshot-mix``, so the window measures returning
#: traffic whose warm-start sources do not depend on how many sessions a
#: run fits; one session per client otherwise.
WARMUP = {"fleet-warm": len(WORKLOADS) * len(INSTANCES),
          "oneshot-mix": _MIXES}


STREAMS = {"cold-train": cold_train, "fleet-warm": fleet_warm,
           "oneshot-mix": oneshot_mix}
