"""Generate the donor audit trail that ``oneshot-mix`` servers learn from.

Runs short tuning sessions on named workloads through an in-process
``TuningService`` writing an audit JSONL, the same trail a fleet leaves
behind.  ``repro-service serve --oneshot-from-audit`` mines it at start-up
and fits the one-shot recommender on it, so that cost lands in set-up time.
The trail is built before any timing.  Its sessions are fixed, not drawn
from the run's seed, so every run's recommender is fitted on the same
corpus and runs differ in their traffic, not in the model serving it.

Usage: ``python3 perfbench/donor.py --out FILE``
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.dbsim.hardware import INSTANCES
from repro.service.audit import AuditLog
from repro.service.server import TuningRequest, TuningService

#: Donor sessions and their budget: enough corpus rows for a fit (the
#: recommender needs at least four) and few enough to build in seconds.
DONOR_SESSIONS = 10
DONOR_TRAIN_STEPS = 8


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    rng = random.Random("donor")
    workloads = ["sysbench-ro", "sysbench-wo", "sysbench-rw", "tpcc",
                 "tpch", "ycsb"]
    with AuditLog(path=args.out) as audit:
        service = TuningService(registry=None, audit=audit, workers=1)
        with service:
            ids = [service.submit(TuningRequest(
                hardware=INSTANCES[rng.choice(sorted(INSTANCES))],
                workload=workloads[index % len(workloads)],
                tenant=f"donor-{index}",
                train_steps=DONOR_TRAIN_STEPS,
                seed=rng.randrange(1 << 30)))
                for index in range(DONOR_SESSIONS)]
            for sid in ids:
                service.wait(sid)
    return 0


if __name__ == "__main__":
    sys.exit(main())
