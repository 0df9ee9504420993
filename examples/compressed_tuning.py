#!/usr/bin/env python
"""Evaluation economy demo: compression, staged verification, history reuse.

A tenant's traffic is rarely one benchmark — it is a *mix* (here: a
webshop whose Sysbench-RW profile drifts between peak and off-peak).
Replaying the whole mix for every RL step is the dominant cost of tuning,
so this demo shows the three levers of ``repro.reuse``:

1. **compress** the mix to its most representative component and tune
   against that cheap proxy (:class:`repro.reuse.WorkloadCompressor`);
2. **verify** the top candidate configs with one full-mix batch before
   recommending (:func:`repro.reuse.staged_tune` does 1+2 end to end);
3. **reuse history**: a second session on the same signature is
   bootstrapped from the first one's evaluations through the tuning
   service (``mode="refine"``) — warmup probes and replay-buffer
   pre-fill at zero extra stress-test cost.  The first session runs
   steps 1+2 inside the service (``mode="compress"``).

Run:  python examples/compressed_tuning.py            # full demo
      python examples/compressed_tuning.py --smoke    # small budgets (CI)
"""

import argparse
import sys
import tempfile
from dataclasses import replace

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_C
from repro.dbsim.workload import get_workload
from repro.reuse import WorkloadCompressor, WorkloadMix, staged_tune
from repro.service import ModelRegistry, TuningRequest, TuningService


def webshop_mix() -> WorkloadMix:
    base = get_workload("sysbench-rw")
    return WorkloadMix.weighted("webshop", [
        (base, 0.5),
        (replace(base, name="sysbench-rw-peak", threads=2 * base.threads,
                 skew=min(base.skew + 0.1, 0.99)), 0.3),
        (replace(base, name="sysbench-rw-batch",
                 read_frac=max(base.read_frac - 0.2, 0.0)), 0.2),
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small training budgets for CI")
    args = parser.parse_args(argv)
    train_steps = 30 if args.smoke else 200
    mix = webshop_mix()

    print("=== 1. compress the mix ===")
    compressor = WorkloadCompressor(max_components=1)
    compression = compressor.compress(mix)
    kept = ", ".join(spec.name for spec, _ in compression.mix.flatten())
    print(f"mix {mix.name!r}: {mix.n_components} components -> "
          f"kept [{kept}] (ratio {compression.compression_ratio:.2f}, "
          f"signature-space error {compression.error_estimate:.4f})")

    print("\n=== 2. staged tuning: cheap loop, full-mix verification ===")
    tuner = CDBTune(seed=7, noise=0.0)
    staged = staged_tune(tuner, CDB_C, mix, compressor=compressor,
                         train_steps=train_steps, tune_steps=5, top_k=3,
                         train_kwargs={"stop_on_convergence": False})
    verification = staged.verification
    print(f"considered {verification.considered} candidates, promoted "
          f"{verification.promoted} to one full-mix batch "
          f"({verification.full_evaluations} full evaluations)")
    perf = staged.best_performance
    print(f"winner: {perf.throughput:.0f} txn/s @ {perf.latency:.2f} ms")

    print("\n=== 3. repeat tenant: history-bootstrapped session ===")
    registry = ModelRegistry(tempfile.mkdtemp(prefix="repro-registry-"))
    with TuningService(registry=registry, workers=1) as service:
        common = dict(hardware=CDB_C, workload=mix, noise=0.0,
                      train_steps=train_steps, tune_steps=4,
                      train_kwargs={"stop_on_convergence": False})
        first = service.wait(service.submit(TuningRequest(
            seed=11, mode="compress", **common)), timeout=600)
        status = first.status()
        print(f"first session:  {status['state']}, compression "
              f"{status['compression']['components_kept']}/"
              f"{status['compression']['components_total']}, verified "
              f"{status['verification']['promoted']} candidates")
        second = service.wait(service.submit(TuningRequest(
            seed=12, mode="refine", **common)), timeout=600)
        status = second.status()
        boot = status["history_bootstrap"]
        print(f"second session: {status['state']}, bootstrapped with "
              f"{boot['warmup_seeds']} warmup probes and "
              f"{boot['replay_seeds']} replay transitions "
              f"(signature distance {boot['nearest_distance']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
