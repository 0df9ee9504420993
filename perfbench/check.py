"""Output checks for one benchmark run (imports the program under test).

Reads the session records the load generator wrote (``--sessions``) and
prints one JSON object: the outcome and gain of every session, every
problem found, and the run's provenance (numpy build, versions).

A session's outcome is one of:

* ``deployed`` — DEPLOYED, with a recommendation that
  ``KnobRegistry.validate`` returns unchanged, and either an accepted
  canary or a verified one-shot prediction that was kept;
* ``blocked`` — FAILED because the canary rejected the recommendation.
  The guard doing its job is not a failure;
* ``failed`` — refused or errored at submit, FAILED on an error, or
  unfinished at the deadline.

``gain`` is the canary-measured throughput of the config the session left
deployed over that of the tenant's config before the session (1.0 when
nothing was deployed).  Where a one-shot prediction was provisionally
deployed, the final canary's baseline is the prediction, so the tenant's
prior throughput is re-measured here exactly as the guard measured it.

Usage: ``python3 perfbench/check.py --workload NAME --sessions FILE``
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List, Optional

import numpy as np

from loadgen import TERMINAL_EVENTS
from repro.core.tuner import CDBTune
from repro.dbsim.hardware import INSTANCES
from repro.dbsim.mysql_knobs import mysql_registry
from repro.service.safety import SafetyGuard
from repro.service.server import TuningRequest

#: ``fleet-warm`` must warm-start at least this share of its window
#: sessions (every tenant has visited once before the window).
MIN_WARM_SHARE = 0.9


def _names(record: dict) -> List[str]:
    return [event["event"] for event in record["events"]]


def _event(record: dict, name: str) -> Optional[dict]:
    for event in record["events"]:
        if event["event"] == name:
            return event
    return None


def _prior_throughput(body: dict) -> float:
    """Canary baseline throughput of a new tenant's pre-session config."""
    fields = dict(body)
    request = TuningRequest(hardware=INSTANCES[fields.pop("hardware")],
                            **fields)
    tuner = CDBTune(seed=request.seed, noise=request.noise)
    database = tuner.make_database(request.hardware, request.workload)
    baseline = dict(tuner.db_registry.defaults())
    verdict = SafetyGuard().canary(database, baseline,
                                   baseline_config=baseline)
    return float(verdict.baseline.throughput)


def check_session(record: dict, registry, problems: List[str]) -> Dict:
    """Classify one session, check its outputs, and compute its gain."""
    sid = record["id"] or "(no id)"
    result = {"outcome": "failed", "gain": 1.0, "warm": False,
              "oneshot_checked": False, "retained": False}
    if record["error"] is not None or record["status"] is None:
        return result
    status = record["status"]
    names = _names(record)
    terminal = [name for name in names if name in TERMINAL_EVENTS]
    result["warm"] = ("warm-start" in names
                      or status.get("warm_started_from") is not None)
    predicted = _event(record, "oneshot-predicted")
    if predicted is not None:
        result["oneshot_checked"] = isinstance(
            predicted.get("canary_accepted"), bool)
    state = status.get("state")
    if state == "FAILED":
        if terminal == ["deployment-blocked"] and str(
                status.get("error", "")).startswith("canary rejected"):
            result["outcome"] = "blocked"
        elif not terminal:
            problems.append(f"{sid}: FAILED without a terminal audit event")
        return result
    if state != "DEPLOYED":
        problems.append(f"{sid}: status GET after the session ended "
                        f"reads {state!r}")
        return result
    if "deployed" not in terminal:
        problems.append(f"{sid}: DEPLOYED without a 'deployed' audit event")
        return result
    recommendation = status.get("recommendation")
    if not isinstance(recommendation, dict) \
            or not isinstance(recommendation.get("config"), dict):
        problems.append(f"{sid}: DEPLOYED status carries no recommendation")
        return result
    config = recommendation["config"]
    try:
        validated = registry.validate(config)
    except (KeyError, TypeError, ValueError) as error:
        problems.append(f"{sid}: recommendation fails validation: {error}")
        return result
    if validated != config:
        changed = sorted(name for name in config
                         if validated.get(name) != config[name])
        problems.append(f"{sid}: validate() changes the deployed config "
                        f"({changed[:5]})")
        return result
    canary = status.get("canary") or {}
    deployed_event = _event(record, "deployed") or {}
    retained = deployed_event.get("retained") == "oneshot"
    if retained:
        if not (predicted is not None and predicted.get("canary_accepted")
                and recommendation.get("source") == "oneshot"
                and recommendation.get("verified")):
            problems.append(f"{sid}: kept one-shot config was never "
                            f"verified by a canary")
            return result
        numerator = canary.get("baseline_throughput")
    else:
        if canary.get("accepted") is not True:
            problems.append(f"{sid}: DEPLOYED without an accepted canary")
            return result
        numerator = canary.get("candidate_throughput")
    result["outcome"] = "deployed"
    result["retained"] = retained
    if "oneshot-deployed" in names:
        denominator = _prior_throughput(record["body"])
    else:
        denominator = canary.get("baseline_throughput")
    if numerator is None or not denominator:
        problems.append(f"{sid}: canary throughputs missing from status")
        return result
    result["gain"] = float(numerator) / float(denominator)
    return result


def check_run(workload: str, records: List[dict]) -> dict:
    registry = mysql_registry()
    problems: List[str] = []
    sessions = {}
    for index, record in enumerate(records):
        key = record["id"] or f"unsubmitted-{index}"
        sessions[key] = check_session(record, registry, problems)
    window = [sessions[record["id"] or f"unsubmitted-{index}"]
              for index, record in enumerate(records)
              if record["phase"] == "window"]
    if not window:
        problems.append("no session was attempted in the window")
    answered = [result for result in sessions.values()
                if result["outcome"] != "failed"]
    warm = sum(1 for result in answered if result["warm"])
    if workload == "cold-train" and warm:
        problems.append(f"cold-train warm-started {warm} session(s)")
    window_answered = [result for result in window
                       if result["outcome"] != "failed"]
    window_warm = sum(1 for result in window_answered if result["warm"])
    if workload == "fleet-warm" \
            and window_warm < MIN_WARM_SHARE * len(window_answered):
        problems.append(f"fleet-warm warm-started {window_warm} of "
                        f"{len(window_answered)} window sessions "
                        f"(< {MIN_WARM_SHARE:.0%})")
    if workload == "oneshot-mix":
        unchecked = sum(1 for result in answered
                        if not result["oneshot_checked"])
        if unchecked:
            problems.append(f"{unchecked} oneshot-mix session(s) without a "
                            f"canary-checked one-shot prediction")
    return {
        "ok": not problems,
        "problems": problems,
        "sessions": sessions,
        "warm_sessions": warm,
        "window_warm_sessions": window_warm,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
        },
    }


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                 # numpy < 1.26 has no dict mode
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version",
                                           "openblas configuration")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--sessions", required=True)
    args = parser.parse_args(argv)
    with open(args.sessions, "r", encoding="utf-8") as handle:
        records = json.load(handle)
    print(json.dumps(check_run(args.workload, records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
