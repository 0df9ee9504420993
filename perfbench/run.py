"""End-to-end benchmark of the tuning service over its ``/v1`` HTTP API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-train --seed 1 --seconds 25 \\
        --trace 0

Starts ``repro-service serve`` as a subprocess exactly as it is deployed,
drives it from this process with one closed-loop client per core, checks
every session's outcome, and prints the end-to-end metrics (``--trace 0``)
or the per-layer metrics of a traced run (``--trace 1``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402  (the benchmark's own modules, stdlib only)
import procs  # noqa: E402
import workloads  # noqa: E402

HOST = "127.0.0.1"
SETUP_STARTS = 5                 # server starts per run; setup_s is the median
SETUP_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 45.0         # a session unfinished by then has failed
SHUTDOWN_TIMEOUT_S = 15.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DIR = ".perfbench-run"

END_TO_END = [("setup_s", "s"), ("session_p50_s", "s"),
              ("session_tail_s", "s"), ("first_config_p50_s", "s"),
              ("sessions_per_min", "1/min"), ("deployed_share", "ratio"),
              ("gain_p50", "ratio"), ("server_cpu_s_per_session", "s"),
              ("server_rss_mb", "MB")]


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (missing program, stray server)."""


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Bench:
    """One benchmark invocation inside one checkout."""

    def __init__(self, root: str, workload: str, seed: int,
                 seconds: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.clients = len(os.sched_getaffinity(0))
        self.run_dir = os.path.join(root, RUN_DIR)
        self.thread_env = {name: os.environ.get(name) for name in THREAD_VARS}
        env = {key: value for key, value in os.environ.items()
               if key not in THREAD_VARS}
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = os.path.join(self.run_dir, "tmp")
        self.env = env
        self.donor: Optional[str] = None

    # -- set-up ----------------------------------------------------------
    def prepare(self) -> None:
        if not os.path.isfile(os.path.join(self.root, "src", "repro",
                                           "service", "cli.py")):
            raise BenchmarkError("no src/repro/service/cli.py here; run "
                                 "from the root of a checkout")
        strays = procs.stray_servers()
        if strays:
            raise BenchmarkError(f"tuning-service server(s) from an earlier "
                                 f"run still alive: pids {strays}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.env["TMPDIR"])
        # An installed service has a warm bytecode cache.
        self._python(["-m", "compileall", "-q", "src"])
        if self.workload == "oneshot-mix":
            self.donor = os.path.join(self.run_dir, "donor.jsonl")
            self._python([os.path.join(HERE, "donor.py"), "--out",
                          self.donor])

    def _python(self, args: List[str]) -> str:
        done = subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"{' '.join(args[:2])} failed:\n"
                                 f"{done.stderr[-2000:]}")
        return done.stdout

    def _server_args(self, port: int, audit: str, registry: str) -> List[str]:
        args = ["serve", "--port", str(port), "--audit", audit,
                "--registry", registry]
        if self.workload == "fleet-warm":
            args += ["--shards", str(self.clients), "--workers", "1"]
        if self.workload == "oneshot-mix":
            args += ["--oneshot-from-audit", self.donor]
        return args

    def start_server(self, tag: str, capture: Optional[str]):
        """Start one server; returns ``(process, port, files, setup_s)``."""
        base = os.path.join(self.run_dir, tag)
        os.makedirs(base)
        files = {"audit": os.path.join(base, "audit.jsonl"),
                 "registry": os.path.join(base, "registry"),
                 "log": os.path.join(base, "server.log"),
                 "capture": capture}
        port = _free_port()
        serve = self._server_args(port, files["audit"], files["registry"])
        if capture is None:
            command = [sys.executable, "-m", "repro.service.cli", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       capture, *serve]
        with open(files["log"], "wb") as log:
            started = time.perf_counter()
            process = subprocess.Popen(command, cwd=self.root, env=self.env,
                                       stdout=log, stderr=subprocess.STDOUT,
                                       stdin=subprocess.DEVNULL,
                                       start_new_session=True)
        try:
            while not loadgen.healthz_once(HOST, port):
                if process.poll() is not None:
                    raise BenchmarkError(
                        f"server exited with {process.returncode}:\n"
                        f"{_tail_of(files['log'])}")
                if time.perf_counter() - started > SETUP_TIMEOUT_S:
                    raise BenchmarkError("server never answered /v1/healthz")
                time.sleep(0.002)
            setup_s = time.perf_counter() - started
        except BaseException:
            procs.kill_group(process)
            raise
        return process, port, files, setup_s

    # -- one pass ----------------------------------------------------------
    def run_pass(self, starts: int, traced: bool) -> dict:
        """Start the server ``starts`` times, drive the last start, stop it."""
        setup_times = []
        for index in range(starts - 1):
            process, _, _, setup_s = self.start_server(f"setup{index}", None)
            procs.kill_group(process)
            setup_times.append(setup_s)
        tag = "traced" if traced else "serve"
        capture = os.path.join(self.run_dir, tag, "capture") if traced \
            else None
        process, port, files, setup_s = self.start_server(tag, capture)
        setup_times.append(setup_s)
        tail = loadgen.AuditTail(files["audit"]).start()
        try:
            loop = loadgen.ClosedLoop(
                HOST, port, tail, workloads.STREAMS[self.workload](self.seed),
                self.clients, SESSION_TIMEOUT_S)
            # Sessions before the window: the first session after a start
            # pays one-off costs (BLAS thread pools, lazy imports) that a
            # long-running server has already paid.
            loop.run("warmup", sessions=workloads.WARMUP.get(
                self.workload, self.clients))
            entries_start = _registry_entries(files["registry"])
            tree = procs.tree(process.pid)
            cpu_start = procs.cpu_seconds(tree)
            host_start = procs.host_ticks()
            window_start = time.perf_counter()
            loop.run("window", until=window_start + self.seconds)
            window_end = time.perf_counter()
            tree = procs.tree(process.pid)
            cpu = procs.cpu_seconds(tree) - cpu_start
            steal, total = (end - start for end, start
                            in zip(procs.host_ticks(), host_start))
            rss_mb = procs.peak_rss_mb(tree)
            entries_end = _registry_entries(files["registry"])
            self._shutdown(process, port)
        finally:
            procs.kill_group(process)
            tail.stop()
        records = [session.to_dict(tail) for session in loop.sessions]
        audit_bytes = os.path.getsize(files["audit"]) \
            if os.path.exists(files["audit"]) else 0
        return {"setup_times": setup_times, "records": records,
                "window_start": window_start,
                "window_s": window_end - window_start, "cpu_s": cpu,
                "rss_mb": rss_mb, "registry_entries": [entries_start,
                                                       entries_end],
                "audit_bytes": audit_bytes,
                "audit_undecodable": tail.undecodable, "capture": capture,
                "host_steal_share": steal / total if total else 0.0}

    def _shutdown(self, process: subprocess.Popen, port: int) -> None:
        """Graceful drain-and-stop, so a traced server writes its captures."""
        client = loadgen.Client(HOST, port)
        try:
            client.call("POST", "/v1/shutdown", {"drain": True})
        except OSError:
            pass
        finally:
            client.close()
        try:
            process.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass

    def check(self, records: List[dict]) -> dict:
        path = os.path.join(self.run_dir, "sessions.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)
        out = self._python([os.path.join(HERE, "check.py"), "--workload",
                            self.workload, "--sessions", path])
        return json.loads(out.strip().splitlines()[-1])


def _tail_of(path: str, limit: int = 2000) -> str:
    with open(path, "rb") as handle:
        return handle.read()[-limit:].decode("utf-8", "replace")


def _registry_entries(root: str) -> int:
    """Entries in the registry index(es) under ``root`` (shards: one each)."""
    total = 0
    for directory, _, names in os.walk(root):
        if "index.json" in names:
            with open(os.path.join(directory, "index.json"), "r",
                      encoding="utf-8") as handle:
                total += len(json.load(handle)["entries"])
    return total


def _stamp(record: dict, event: str) -> Optional[float]:
    for entry in record["events"]:
        if entry["event"] == event:
            return entry["t"]
    return None


def _terminal(record: dict) -> Optional[float]:
    for entry in record["events"]:
        if entry["event"] in loadgen.TERMINAL_EVENTS:
            return entry["t"]
    return None


def _first_config(record: dict) -> Optional[float]:
    for entry in record["events"]:
        if entry["event"] == "oneshot-predicted" \
                and entry.get("canary_accepted"):
            return entry["t"]
    return _stamp(record, "recommended")


def end_to_end(run: dict, checked: dict) -> Dict[str, object]:
    """The nine end-to-end metrics of one pass, plus their context."""
    window = [record for record in run["records"]
              if record["phase"] == "window"]
    outcomes = [checked["sessions"][record["id"]]
                if record["id"] in checked["sessions"]
                else {"outcome": "failed", "gain": 1.0}
                for record in window]
    latencies = [_terminal(record) - record["sent"] for record in window
                 if record["finished"] and _terminal(record) is not None]
    firsts = [_first_config(record) - record["sent"] for record in window
              if record["finished"] and _first_config(record) is not None]
    if not latencies or not firsts:
        raise BenchmarkError("no session of the window finished")
    tail_value, tail_pct, tail_n = loadgen.tail(latencies)
    terminal = len(latencies)
    metrics = {
        "setup_s": loadgen.median(run["setup_times"]),
        "session_p50_s": loadgen.median(latencies),
        "session_tail_s": tail_value,
        "first_config_p50_s": loadgen.median(firsts),
        "sessions_per_min": 60.0 * _closed_loop_rate(run, window),
        "deployed_share": sum(1 for o in outcomes
                              if o["outcome"] == "deployed") / len(window),
        "gain_p50": loadgen.median([o["gain"] for o in outcomes]),
        "server_cpu_s_per_session": run["cpu_s"] / terminal,
        "server_rss_mb": run["rss_mb"],
    }
    context = {
        "attempted": len(window),
        "failed": sum(1 for o in outcomes if o["outcome"] == "failed"),
        "blocked": sum(1 for o in outcomes if o["outcome"] == "blocked"),
        "terminal": terminal,
        "warmup_sessions": len(run["records"]) - len(window),
        "session_tail_percentile": tail_pct, "session_tail_n": tail_n,
        "first_config_n": len(firsts),
        "window_s": run["window_s"],
        "setup_times_s": run["setup_times"],
        "registry_entries_window_start_end": run["registry_entries"],
        "audit_undecodable_lines": run["audit_undecodable"],
        "host_steal_share": run["host_steal_share"],
        "warm_sessions": checked["warm_sessions"],
        "window_warm_sessions": checked["window_warm_sessions"],
    }
    return {"metrics": metrics, "context": context}


def _closed_loop_rate(run: dict, window: List[dict]) -> float:
    """Terminal sessions per second, summed over the closed-loop clients.

    Each client's rate is its whole sessions over the time from the window
    start to when it was through with its last one, so a session still
    running when the window closes neither counts as a fraction nor
    stretches another client's window.
    """
    rate = 0.0
    for client in {record["client"] for record in window}:
        mine = [record for record in window if record["client"] == client]
        done = [record for record in mine
                if record["finished"] and _terminal(record) is not None]
        if done:
            rate += len(done) / (max(r["done"] for r in mine)
                                 - run["window_start"])
    return rate


def _median_or_zero(values: List[float]) -> float:
    return loadgen.median(values) if values else 0.0


def per_layer(run: dict, checked: dict, untraced_p50: float,
              traced_p50: float) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics from the traced pass's captures and audit stamps,
    and the number of server processes that wrote a capture."""
    stats: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    history_records = 0
    directory = run["capture"]
    captures = sorted(os.listdir(directory)) if os.path.isdir(directory) \
        else []
    captures = [name for name in captures if name.endswith(".json")]
    for name in captures:
        with open(os.path.join(directory, name), "r",
                  encoding="utf-8") as handle:
            capture = json.load(handle)
        for key, values in capture["stats"].items():
            entry = stats.setdefault(key, [0, 0.0, 0.0, 0.0])
            for index, value in enumerate(values):
                entry[index] += value
        for key, value in capture["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        history_records += capture["history_records"]

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0, 0.0])[2]

    def share(count: str, name: str) -> float:
        return counts.get(count, 0.0) / calls(name) if calls(name) else 0.0

    sessions = calls("TuningService.submit")
    if not sessions:
        raise BenchmarkError("the traced run captured no session")
    records = run["records"]
    per = 1.0 / sessions
    sharded = calls("ShardedTuningService.submit") > 0
    rpc = 0.0
    if sharded:
        rpc = (own("ShardedTuningService.submit")
               + own("ShardedTuningService.status")
               - total("TuningService.submit")
               - total("TuningService.status"))
    busy = 0.0
    for record in records:
        started, done = _stamp(record, "started"), _stamp(record,
                                                          "session-report")
        if started is not None and done is not None:
            busy += done - started
    worker_self = sum(values[3] for values in stats.values())
    waits = [_stamp(r, "started") - _stamp(r, "queued") for r in records
             if _stamp(r, "started") is not None
             and _stamp(r, "queued") is not None]
    outcomes = [checked["sessions"].get(r["id"] or "", {}) for r in records]
    oneshot = [o for o in outcomes if o.get("oneshot_checked")]
    return {
        "ddpg.update_s": own("DDPGAgent.update") * per,
        "ddpg.update_share": share("ddpg.trained", "DDPGAgent.update"),
        "ddpg.imitate_s": own("DDPGAgent.imitate") * per,
        "ddpg.act_s": own("DDPGAgent.act") * per,
        "dbsim.evaluate_s": own("SimulatedDatabase.evaluate") * per,
        "dbsim.evaluations": calls("SimulatedDatabase.evaluate") * per,
        "dbsim.cache_hit_share": share("dbsim.cache_hits",
                                       "SimulatedDatabase.evaluate"),
        "dbsim.evaluate_many_s": own("SimulatedDatabase.evaluate_many") * per,
        "env.step_s": own("TuningEnvironment.step") * per,
        "env.steps": calls("TuningEnvironment.step") * per,
        "env.crash_share": share("env.crashes", "TuningEnvironment.step"),
        "pipeline.train_s": own("CDBTune.offline_train") * per,
        "pipeline.tune_s": own("CDBTune.tune") * per,
        "reuse.mix_evaluate_s": own("MixDatabase.evaluate") * per,
        "reuse.bootstrap_s": own("HistoryStore.bootstrap") * per,
        "reuse.history_records": float(history_records),
        "oneshot.predict_s": own("OneShotRecommender.predict") * per,
        "oneshot.fit_s": total("OneShotRecommender.from_history"),
        "oneshot.retained_share": (sum(1 for o in oneshot if o["retained"])
                                   / len(oneshot) if oneshot else 0.0),
        "safety.canary_s": own("SafetyGuard.canary") * per,
        "safety.accept_share": share("safety.accepted", "SafetyGuard.canary"),
        "registry.register_s": own("ModelRegistry.register") * per,
        "registry.load_s": own("ModelRegistry.load_into") * per,
        "registry.find_s": own("ModelRegistry.find_nearest") * per,
        "registry.bytes_per_session": counts.get("registry.bytes", 0.0) * per,
        "registry.warm_share": share("registry.matches",
                                     "ModelRegistry.find_nearest"),
        "audit.emit_s": own("AuditLog.emit") * per,
        "audit.bytes_per_session": run["audit_bytes"] * per,
        "server.queue_wait_s": _median_or_zero(waits),
        "shard.rpc_s": rpc * per,
        "frontdoor.submit_rtt_s": _median_or_zero(
            [r["submit_rtt"] for r in records if r["submit_rtt"] is not None]),
        "frontdoor.status_rtt_s": _median_or_zero(
            [r["status_rtt"] for r in records if r["status_rtt"] is not None]),
        "frontdoor.refused": float(sum(
            1 for r in records if r["submit_status"] not in (None, 202))),
        "trace.coverage": worker_self / busy if busy else 0.0,
        "trace.overhead": traced_p50 - untraced_p50,
    }, len(captures)


#: Per-layer metrics of a traced run, with their units, in print order.
PER_LAYER = [
    ("ddpg.update_s", "s"), ("ddpg.update_share", "ratio"),
    ("ddpg.imitate_s", "s"), ("ddpg.act_s", "s"),
    ("dbsim.evaluate_s", "s"), ("dbsim.evaluations", "count"),
    ("dbsim.cache_hit_share", "ratio"), ("dbsim.evaluate_many_s", "s"),
    ("env.step_s", "s"), ("env.steps", "count"),
    ("env.crash_share", "ratio"), ("pipeline.train_s", "s"),
    ("pipeline.tune_s", "s"), ("reuse.mix_evaluate_s", "s"),
    ("reuse.bootstrap_s", "s"), ("reuse.history_records", "count"),
    ("oneshot.predict_s", "s"), ("oneshot.fit_s", "s"),
    ("oneshot.retained_share", "ratio"), ("safety.canary_s", "s"),
    ("safety.accept_share", "ratio"), ("registry.register_s", "s"),
    ("registry.load_s", "s"), ("registry.find_s", "s"),
    ("registry.bytes_per_session", "bytes"), ("registry.warm_share", "ratio"),
    ("audit.emit_s", "s"), ("audit.bytes_per_session", "bytes"),
    ("server.queue_wait_s", "s"), ("shard.rpc_s", "s"),
    ("frontdoor.submit_rtt_s", "s"), ("frontdoor.status_rtt_s", "s"),
    ("frontdoor.refused", "count"), ("trace.coverage", "ratio"),
    ("trace.overhead", "s"),
]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the server's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(os.getcwd(), args.workload, args.seed, args.seconds)
    try:
        bench.prepare()
        untraced = bench.run_pass(SETUP_STARTS if not args.trace else 1,
                                  traced=False)
        checked = bench.check(untraced["records"])
        result = end_to_end(untraced, checked)
        problems = list(checked["problems"])
        if args.trace:
            traced = bench.run_pass(1, traced=True)
            traced_checked = bench.check(traced["records"])
            problems += traced_checked["problems"]
            traced_e2e = end_to_end(traced, traced_checked)
            metrics, processes = per_layer(
                traced, traced_checked, result["metrics"]["session_p50_s"],
                traced_e2e["metrics"]["session_p50_s"])
            metrics = {name: metrics[name] for name, _ in PER_LAYER}
            units = dict(PER_LAYER)
            traced_e2e["context"]["captured_processes"] = processes
            traced_e2e["context"]["untraced"] = result["metrics"]
            traced_e2e["context"]["traced"] = traced_e2e["metrics"]
            result = traced_e2e
        else:
            metrics = result["metrics"]
            units = dict(END_TO_END)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    context = result["context"]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loop": f"closed, {bench.clients} client(s), one keep-alive "
                f"connection each",
        "warmup": f"{context['warmup_sessions']} session(s) before the "
                  f"window, checked but not measured",
        "timing": f"lifecycle transitions stamped as their audit lines "
                  f"appear (file polled every {loadgen.POLL_S * 1000:g} ms); "
                  f"one /v1 status GET per session",
        "thread_env_seen_and_unset_for_server": bench.thread_env,
        "files": f"registry and audit under {RUN_DIR}/ in the checkout, "
                 f"filesystem {_filesystem(bench.root)}; deleted after "
                 f"the run",
        **checked["provenance"],
    }
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print("context " + json.dumps(context))
    print("provenance " + json.dumps(provenance))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": context["attempted"],
        "failed": context["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``/proc/mounts``)."""
    best, kind = "", "unknown"
    real = os.path.realpath(path)
    with open("/proc/mounts", "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, kind = mount, f"{fields[2]} at {mount}"
    return kind


if __name__ == "__main__":
    sys.exit(main())
