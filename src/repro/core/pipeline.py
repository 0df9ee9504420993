"""Offline training and online tuning pipelines (§2.1).

* **Offline training** — cold start from standard workloads: episodes of
  try-and-error steps feed the memory pool; the model converges when "the
  performance change between two steps does not exceed 0.5 % in five
  consecutive steps" (Appendix C.1.1), measured on noise-free greedy probes.
* **Online tuning** — for a user request: replay the workload, start from
  the user's current knobs, run at most 5 recommendation steps (§2.1.2)
  while fine-tuning the pre-trained model, and return the configuration
  with the best observed performance.

Both pipelines are instrumented through :mod:`repro.obs`: one root span
per run with child spans per phase (episode reset, step, probe, the
per-step actor/critic update), per-phase histograms, and a
:class:`~repro.core.results.Telemetry` block on every result.  Every
duration they report is a span's ``wall_s``.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .environment import StepResult, TuningEnvironment
from .results import EvalRecord, Telemetry, TrainingResult, TuningResult
from ..obs import get_metrics, get_tracer
from ..rl.ddpg import DDPGAgent
from ..rl.reward import PerformanceSample, performance_score

__all__ = [
    "EvalRecord",
    "Telemetry",
    "TrainingResult",
    "TuningResult",
    "check_train_args",
    "offline_train",
    "online_tune",
]

CONVERGENCE_THRESHOLD = 0.005   # paper: 0.5 % change
CONVERGENCE_WINDOW = 5          # over five consecutive probes


#: The keyword arguments of :func:`offline_train`: each numeric one with
#: the number type and the closed range its value must lie in.
_TRAIN_ARGS: Dict[str, Tuple[type, float, float] | None] = {
    "max_steps": (numbers.Integral, 1, math.inf),
    "episode_length": (numbers.Integral, 1, math.inf),
    "updates_per_step": (numbers.Integral, 0, math.inf),
    "probe_every": (numbers.Integral, 1, math.inf),
    "warmup_steps": (numbers.Integral, 0, math.inf),
    "exploit_frac": (numbers.Real, 0.0, 1.0),
    "convergence_threshold": (numbers.Real, 0.0, math.inf),
    "convergence_window": (numbers.Integral, 1, math.inf),
    "stop_on_convergence": None,
    "warmup_seeds": None,
    "replay_seeds": None,
}


def check_train_args(args: Mapping[str, object]) -> None:
    """Raise if :func:`offline_train` cannot run with these arguments.

    An unknown name raises ``TypeError``, as the call would; a value of
    the wrong type or range raises ``ValueError``.  The action width of
    ``warmup_seeds`` needs the environment, so :func:`offline_train`
    checks it when it uses them.
    """
    unknown = sorted(set(args) - set(_TRAIN_ARGS))
    if unknown:
        raise TypeError(f"unknown offline_train arguments {unknown}")
    for name, value in args.items():
        if _TRAIN_ARGS[name] is None:
            continue
        kind, low, high = _TRAIN_ARGS[name]
        if not isinstance(value, kind) or not low <= value <= high:
            noun = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{name} must be {noun} in [{low}, {high}], "
                             f"not {value!r}")
    seeds, replay = args.get("warmup_seeds"), args.get("replay_seeds")
    try:
        rows = np.asarray([] if seeds is None else seeds, dtype=float)
        for action, reward in [] if replay is None else replay:
            np.asarray(action, dtype=float)
            float(reward)
    except (TypeError, ValueError):
        rows = None
    if rows is None or (rows.size and rows.ndim != 2):
        raise ValueError("warmup_seeds must be a matrix of action rows and "
                         "replay_seeds a list of (action, reward) pairs")


def _greedy_probe(env: TuningEnvironment, agent: DDPGAgent) -> StepResult:
    """One noise-free recommendation from the episode's initial state.

    The probe is a pure measurement: it runs on saved/restored environment
    state so its ``reset`` cannot re-anchor the reward function's T₀/L₀
    baseline mid-episode (with ``probe_every`` not a multiple of
    ``episode_length`` the remainder of the episode would otherwise be
    scored against the probe's baseline), and its step and any crash it
    provokes are excluded from ``env.steps``/``env.crashes``.
    """
    saved = env.save_state()
    try:
        state = env.reset()
        _update_normalizer(agent, state)
        action = agent.act(state, explore=False)
        return env.step(action)
    finally:
        env.restore_state(saved)


def _update_normalizer(agent: DDPGAgent, state: np.ndarray) -> None:
    if agent.state_normalizer is not None:
        agent.state_normalizer.update(state.reshape(1, -1))


def _latin_hypercube(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stratified samples: each dimension's range covered once per block."""
    samples = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        samples[:, j] = (perm + rng.random(n)) / n
    return samples


def offline_train(env: TuningEnvironment, agent: DDPGAgent,
                  max_steps: int = 300, episode_length: int = 5,
                  updates_per_step: int = 2, probe_every: int = 15,
                  warmup_steps: int = 48, exploit_frac: float = 0.6,
                  convergence_threshold: float = CONVERGENCE_THRESHOLD,
                  convergence_window: int = CONVERGENCE_WINDOW,
                  stop_on_convergence: bool = True,
                  warmup_seeds: np.ndarray | None = None,
                  replay_seeds: "Sequence[Tuple[np.ndarray, float]] | None"
                  = None) -> TrainingResult:
    """Cold-start offline training (§2.1.1).

    Runs try-and-error episodes against the standard-workload environment.
    The first ``warmup_steps`` actions are latin-hypercube samples of the
    knob space — the cold-start try-and-error phase that seeds the memory
    pool with diverse samples before the policy takes over.  After warmup,
    a fraction ``exploit_frac`` of actions perturb the best configuration
    found so far (the DBA-style "adjust from the current best" move the
    paper's try-and-error strategy describes); the rest come from the
    policy plus exploration noise.  Every ``probe_every`` steps a greedy
    probe measures policy quality; the paper's 0.5 %-over-5-probes rule
    decides convergence.

    The agent's weights are snapshotted at every probe that sets a new
    best and restored at the end — standard early-stopping model
    selection, guarding against late-training policy drift.  The restored
    agent keeps the run's best measured action as ``best_known_action``,
    which online tuning measures first.

    History bootstrap (:mod:`repro.reuse.history`): ``warmup_seeds`` is a
    ``(m, action_dim)`` matrix of known-good action vectors that replace
    the first ``m`` latin-hypercube warmup rows, so the cold-start phase
    measures promising regions before uniform exploration; ``replay_seeds``
    is a list of ``(action, reward)`` pairs injected into the agent's
    replay memory before training, anchored on the first episode's reset
    state — neither consumes a stress test.
    """
    check_train_args({name: value for name, value in locals().items()
                      if name in _TRAIN_ARGS})
    tracer = get_tracer()
    metrics = get_metrics()
    database = env.database
    evaluations_before = database.evaluations
    cache_hits_before = database.cache_hits
    stress_tests_before = database.stress_tests
    crashes_before = env.crashes
    train_steps_before = agent.train_steps
    phase_timings: Dict[str, float] = {
        "reset": 0.0, "warmup": 0.0, "train": 0.0, "probe": 0.0,
    }
    rewards: List[float] = []
    probe_throughputs: List[float] = []
    probe_latencies: List[float] = []
    converged_at: int | None = None
    episodes = 0
    steps = 0
    warmup_plan = _latin_hypercube(agent.rng, max(warmup_steps, 1),
                                   env.action_dim)
    if warmup_seeds is not None and len(warmup_seeds) > 0:
        seeds = np.clip(np.asarray(warmup_seeds, dtype=float), 0.0, 1.0)
        if seeds.ndim != 2 or seeds.shape[1] != env.action_dim:
            raise ValueError(
                f"warmup_seeds must be (m, {env.action_dim}), "
                f"got {seeds.shape}")
        n_seeded = min(len(seeds), len(warmup_plan))
        warmup_plan[:n_seeded] = seeds[:n_seeded]
    replay_seeded = 0
    # Best configuration seen across the whole run (env.best_config only
    # spans one episode); this anchors the exploit-around-best moves and
    # ships as the agent's best_known_action.
    global_best_vector: np.ndarray | None = None
    global_best_score = -np.inf
    exploit_moves = 0
    focus_coords: np.ndarray | None = None  # critic's top-|∇aQ| knobs
    best_score = -np.inf
    best_probe: PerformanceSample | None = None
    best_snapshot = None

    def _maybe_snapshot(perf: PerformanceSample | None) -> None:
        nonlocal best_score, best_probe, best_snapshot
        score = performance_score(perf)
        if score > best_score:
            best_score = score
            best_probe = perf
            normalizer_state = (agent.state_normalizer.state_dict()
                                if agent.state_normalizer is not None else None)
            best_snapshot = (agent.state_dict(), normalizer_state)

    def _finish(converged: bool) -> TrainingResult:
        agent_updates = agent.train_steps - train_steps_before
        if best_snapshot is not None:
            agent_state, normalizer_state = best_snapshot
            agent.load_state_dict(agent_state)
            if normalizer_state is not None and agent.state_normalizer is not None:
                agent.state_normalizer.load_state_dict(normalizer_state)
        if global_best_vector is not None:
            # After the restore, which reloads the value the run started
            # with: a configuration found after the last best probe counts.
            agent.best_known_action = global_best_vector
        telemetry = Telemetry(trace_id=tracer.current_trace_id())
        telemetry.count("evaluations",
                        database.evaluations - evaluations_before)
        telemetry.count("cache_hits", database.cache_hits - cache_hits_before)
        telemetry.count("stress_tests",
                        database.stress_tests - stress_tests_before)
        telemetry.count("crashes", env.crashes - crashes_before)
        telemetry.count("agent_updates", agent_updates)
        if replay_seeded:
            telemetry.count("replay_seeds", replay_seeded)
        for phase, seconds in phase_timings.items():
            telemetry.add_phase(phase, seconds)
        return TrainingResult(
            steps=steps, episodes=episodes, converged=converged,
            iterations_to_convergence=converged_at, rewards=rewards,
            probe_throughputs=probe_throughputs,
            probe_latencies=probe_latencies, crashes=env.crashes,
            best_probe=best_probe, telemetry=telemetry)

    with tracer.span("offline_train", max_steps=max_steps,
                     episode_length=episode_length,
                     warmup_steps=warmup_steps) as run_span:
        while steps < max_steps:
            episodes += 1
            with tracer.span("offline_train.episode",
                             episode=episodes) as reset_span:
                state = env.reset()
            metrics.histogram("offline_train.reset").observe(
                reset_span.wall_s)
            phase_timings["reset"] += reset_span.wall_s
            _update_normalizer(agent, state)
            if episodes == 1 and replay_seeds:
                # Pre-fill the memory pool from history, anchored on the
                # freshly measured reset state — the critic starts with a
                # ranking over actions instead of an empty memory.
                for seed_action, seed_reward in replay_seeds:
                    action = np.clip(np.asarray(seed_action, dtype=float),
                                     0.0, 1.0)
                    if action.shape != (env.action_dim,):
                        raise ValueError(
                            f"replay seed action must be ({env.action_dim},),"
                            f" got {action.shape}")
                    agent.observe(state, action, float(seed_reward), state,
                                  done=False)
                    replay_seeded += 1
            agent.reset_noise()
            for _ in range(episode_length):
                if steps >= max_steps:
                    break
                with tracer.span("offline_train.step",
                                 step=steps + 1) as step_span:
                    if steps < warmup_steps:
                        action = warmup_plan[steps]
                    elif (global_best_vector is not None
                            and agent.rng.random() < exploit_frac):
                        # DBA-style move: adjust a handful of knobs of the
                        # best configuration (isotropic perturbation of all
                        # 266 knobs almost never improves a sharply-tuned
                        # config).  Half the moves pick coordinates by the
                        # critic's |∇_a Q| — the learned knob importance of
                        # §5.2.2 — and step along the gradient sign; the
                        # rest explore random coordinates.
                        action = global_best_vector.copy()
                        exploit_moves += 1
                        n_coords = int(agent.rng.integers(
                            1, min(13, env.action_dim + 1)))
                        move_kind = agent.rng.random()
                        if move_kind < 0.5:
                            # Line search.  Most probes target the knobs the
                            # critic currently ranks important (|∇aQ|, the
                            # learned knob importance of §5.2.2) so the
                            # impactful knobs get several probes per run;
                            # the rest round-robin the full catalog so
                            # nothing is starved.
                            if (exploit_moves % 40 == 0
                                    and agent.train_steps > 0):
                                grad = agent.action_gradient(
                                    state, global_best_vector)
                                k = min(48, env.action_dim)
                                focus_coords = np.argsort(
                                    np.abs(grad))[::-1][:k]
                            if (focus_coords is not None
                                    and agent.rng.random() < 0.7):
                                coord = int(agent.rng.choice(focus_coords))
                            else:
                                coord = exploit_moves % env.action_dim
                            action[coord] = agent.rng.random()
                        elif move_kind < 0.75 and agent.train_steps > 0:
                            grad = agent.action_gradient(state, action)
                            order = np.argsort(np.abs(grad))[::-1]
                            coords = order[:n_coords]
                            step = (0.08 * np.sign(grad[coords])
                                    + 0.05 * agent.rng.standard_normal(
                                        n_coords))
                            action[coords] = np.clip(action[coords] + step,
                                                     0.0, 1.0)
                        else:
                            coords = agent.rng.choice(env.action_dim,
                                                      size=n_coords,
                                                      replace=False)
                            fresh = agent.rng.random(n_coords) < 0.3
                            action[coords] = np.where(
                                fresh,
                                agent.rng.random(n_coords),
                                np.clip(action[coords]
                                        + 0.2 * agent.rng.standard_normal(
                                            n_coords),
                                        0.0, 1.0))
                    else:
                        action = agent.act(state, explore=True)
                    result = env.step(action)
                    if result.crashed:
                        # The instance restarted with defaults: the
                        # correlated exploration noise was walking a region
                        # that just crashed, so start a fresh noise
                        # sequence for the fresh instance.
                        agent.reset_noise()
                    step_score = performance_score(result.performance)
                    if step_score > global_best_score:
                        global_best_score = step_score
                        global_best_vector = action.copy()
                    _update_normalizer(agent, result.state)
                    agent.observe(state, action, result.reward, result.state,
                                  done=result.crashed)
                    with tracer.span("offline_train.update",
                                     updates=updates_per_step):
                        for _ in range(updates_per_step):
                            agent.update()
                        if global_best_vector is not None \
                                and steps % 2 == 0:
                            agent.imitate(state, global_best_vector)
                    rewards.append(result.reward)
                    state = result.state
                    steps += 1
                phase = "warmup" if steps <= warmup_steps else "train"
                phase_timings[phase] += step_span.wall_s

                if steps % probe_every == 0:
                    with tracer.span("offline_train.probe",
                                     step=steps) as probe_span:
                        probe = _greedy_probe(env, agent)
                    metrics.histogram("offline_train.probe").observe(
                        probe_span.wall_s)
                    phase_timings["probe"] += probe_span.wall_s
                    perf = probe.performance
                    if perf is None:  # greedy policy crashed the instance
                        probe_throughputs.append(0.0)
                        probe_latencies.append(float("inf"))
                    else:
                        probe_throughputs.append(perf.throughput)
                        probe_latencies.append(perf.latency)
                    _maybe_snapshot(perf)
                    if converged_at is None and _has_converged(
                            probe_throughputs, convergence_threshold,
                            convergence_window):
                        converged_at = steps
                        if stop_on_convergence:
                            run_span.set_tag("steps", steps)
                            run_span.set_tag("converged", True)
                            return _finish(True)

        run_span.set_tag("steps", steps)
        run_span.set_tag("converged", converged_at is not None)
        return _finish(converged_at is not None)


def _has_converged(throughputs: List[float], threshold: float,
                   window: int) -> bool:
    if len(throughputs) < window + 1:
        return False
    recent = throughputs[-(window + 1):]
    for prev, curr in zip(recent, recent[1:]):
        if prev <= 0:
            return False
        if abs(curr - prev) / prev > threshold:
            return False
    return True


def online_tune(env: TuningEnvironment, agent: DDPGAgent, steps: int = 5,
                initial_config: Dict[str, float] | None = None,
                fine_tune: bool = True, updates_per_step: int = 2,
                explore: bool = False) -> TuningResult:
    """Serve one tuning request (§2.1.2).

    At most ``steps`` recommendations (the paper's maximum is 5); the best
    performance observed wins.  With ``fine_tune`` the request's transitions
    also update the model — the incremental training of §2.1.1.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    tracer = get_tracer()
    database = env.database
    evaluations_before = database.evaluations
    cache_hits_before = database.cache_hits
    with tracer.span("online_tune", steps=steps,
                     fine_tune=fine_tune) as run_span:
        with tracer.span("online_tune.reset") as reset_span:
            state = env.reset(initial_config=initial_config)
        get_metrics().histogram("online_tune.reset").observe(
            reset_span.wall_s)
        _update_normalizer(agent, state)
        assert env.initial_performance is not None
        initial = env.initial_performance

        best_known = agent.best_known_action
        session_best = (best_known.copy() if best_known is not None
                        and best_known.size == env.action_dim else None)
        session_best_score = -np.inf
        step_walls: List[float] = []
        for step_index in range(steps):
            with tracer.span("online_tune.step",
                             step=step_index + 1) as step_span:
                if session_best is not None and step_index == 0:
                    # Measure the memory pool's best-known configuration
                    # first so the session baseline is real before
                    # anything can displace it.
                    action = session_best.copy()
                elif session_best is not None and step_index >= 2:
                    # Greedy local refinement around the session's best so
                    # far — the fine-tuning the paper's accumulated trying
                    # steps perform.
                    action = session_best.copy()
                    coords = agent.rng.choice(env.action_dim,
                                              size=min(4, env.action_dim),
                                              replace=False)
                    action[coords] = np.clip(
                        action[coords]
                        + 0.08 * agent.rng.standard_normal(coords.size),
                        0.0, 1.0)
                else:
                    action = agent.act(state, explore=explore)
                result = env.step(action)
                score = performance_score(result.performance)
                if score > session_best_score:
                    session_best_score = score
                    session_best = action.copy()
                _update_normalizer(agent, result.state)
                if fine_tune:
                    with tracer.span("online_tune.update",
                                     updates=updates_per_step):
                        agent.observe(state, action, result.reward,
                                      result.state, done=result.crashed)
                        for _ in range(updates_per_step):
                            agent.update()
                state = result.state
            step_walls.append(step_span.wall_s)

        best = env.best_performance
        best_config = env.best_config
        assert best is not None and best_config is not None
        telemetry = Telemetry(trace_id=tracer.current_trace_id())
        telemetry.count("evaluations",
                        database.evaluations - evaluations_before)
        telemetry.count("cache_hits", database.cache_hits - cache_hits_before)
        telemetry.count("crashes",
                        sum(1 for s in env.history if s.crashed))
        telemetry.add_phase("reset", reset_span.wall_s)
        telemetry.add_phase("steps", sum(step_walls))
        records = [EvalRecord.from_step(s, wall_s=w)
                   for s, w in zip(env.history, step_walls)]
        run_span.set_tag("best_throughput", best.throughput)
        run_span.set_tag("improvement",
                         (best.throughput - initial.throughput)
                         / max(initial.throughput, 1e-9))
        return TuningResult(initial=initial, best=best,
                            best_config=best_config, steps=steps,
                            records=records, telemetry=telemetry)
