"""The oracle itself: generate intended policies, train against each, judge.

One oracle run generates a batch of intended policies, trains the program
under test once per policy with the matching compliance-driven reward,
turns every run log into a compliance series, trend-checks each series,
and votes: the program is NonBuggy when the healthy fraction reaches the
oracle threshold.

All randomness flows from one master seed through namespaced child seeds,
so adding policies or reordering work never perturbs existing results.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import AgentConfig, make_agent
from .compliance import (
    ComplianceSeries,
    EpochTrace,
    RunLog,
    make_reward_fn,
    policy_compliance_series,
)
# env_step is not called here; bench/layers.py patches it by this name.
from .envs import EnvSpec, env_reset, env_step, env_stepper
from .errors import (
    InvalidActionError,
    NumericalDivergenceError,
    PolicyTooLargeError,
    PolicyTooSmallError,
    SamplingExhaustedError,
)
from .policy import IntendedPolicy
from .trend import TrendParams, TrendReport, trend_analysis

# Child-seed namespaces, so each random stream is independent of the others.
_NS_POLICY = 1
_NS_AGENT = 2
_NS_ENV = 3

_REJECTION_ATTEMPTS = 10_000
_MIN_NORMALIZED_GAP = 0.1

LABEL_BUGGY = "Buggy"
LABEL_NON_BUGGY = "NonBuggy"


def child_rng(*entropy) -> np.random.Generator:
    """Generator seeded by a namespaced entropy path."""
    return np.random.default_rng([int(e) for e in entropy])


@dataclass(frozen=True)
class OracleConfig:
    """Counts, thresholds, and seeds for one oracle run.

    ``trend`` is the :class:`TrendParams` of ``window``, ``epsilon`` and
    ``delta``, whose own checks run before this config's.
    """

    policies: int = 10
    epochs: int = 300
    theta_oracle: float = 0.7
    theta_step: float = 0.3
    policy_size: int | None = None
    master_seed: int = 0
    reward_scale: float = 1.0
    # The only mode; it stays a field because every report writes it.
    reward_mode: str = "replace"
    filter_mode: str = "state"
    window: int = TrendParams.window
    epsilon: float = TrendParams.epsilon
    delta: float = TrendParams.delta

    def __post_init__(self):
        object.__setattr__(self, "trend", TrendParams(self.window, self.epsilon, self.delta))
        if self.policies < 1:
            raise ValueError("need at least one intended policy")
        if self.epochs < 2:
            raise ValueError("need at least two epochs")
        if not 0.0 <= self.theta_oracle <= 1.0:
            raise ValueError("theta_oracle must lie in [0, 1]")
        if not 0.0 <= self.theta_step <= 1.0:
            raise ValueError("theta_step must lie in [0, 1]")
        if self.policy_size is not None and self.policy_size < 2:
            raise ValueError("policy_size must be at least 2")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if not self.reward_scale > 0:
            raise ValueError("reward_scale must be positive")
        if self.reward_mode != "replace":
            raise ValueError("reward_mode must be 'replace'")
        if self.filter_mode not in ("state", "step"):
            raise ValueError("filter_mode must be 'state' or 'step'")
        if not self.window <= self.epochs - 1:
            raise ValueError("trend window must be at most epochs - 1")


@dataclass(frozen=True)
class PolicyOutcome:
    """Everything the oracle learned from one intended policy."""

    policy_id: int
    series: ComplianceSeries
    trend: TrendReport
    healthy: bool
    aborted_epochs: tuple = ()
    # What the run cost, for meta.json; not part of the outcome's value.
    train_seconds: float = field(default=0.0, compare=False)
    analyze_seconds: float = field(default=0.0, compare=False)
    env_steps: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Verdict:
    label: str
    per_policy: tuple
    true_count: int
    ratio: float

    @property
    def buggy(self) -> bool:
        return self.label == LABEL_BUGGY


def default_policy_size(env_spec: EnvSpec) -> int:
    return 4 if env_spec.kind == "grid" else 3


def oracle_policies(env_spec: EnvSpec, config: OracleConfig) -> list[IntendedPolicy]:
    """The intended policies an oracle run with ``config`` will use."""
    size = config.policy_size or default_policy_size(env_spec)
    return generate_policies(
        env_spec, config.policies, size, (config.master_seed, _NS_POLICY)
    )


def generate_policies(
    env_spec: EnvSpec, count: int, policy_size: int, seed
) -> list[IntendedPolicy]:
    """Random intended policies for ``env_spec``.

    Grid reference states are drawn without replacement from non-terminal
    cells; continuous ones are rejection-sampled with a minimum pairwise
    normalized gap. Ideal actions are uniform over the action space. Each
    policy derives its own child seed, so extending ``count`` preserves
    earlier policies.
    """
    if policy_size < 2:
        raise PolicyTooSmallError("policy_size must be at least 2")
    state_space = env_spec.state_space()
    action_space = env_spec.action_space()
    seed_path = seed if isinstance(seed, (list, tuple)) else (seed,)

    policies = []
    for i in range(count):
        rng = child_rng(*seed_path, i)
        if env_spec.kind == "grid":
            cells = env_spec.non_terminal_cells()
            if policy_size > len(cells):
                raise PolicyTooLargeError(
                    f"policy_size {policy_size} exceeds the "
                    f"{len(cells)} non-terminal cells"
                )
            picks = rng.choice(len(cells), size=policy_size, replace=False)
            refs = [cells[int(p)] for p in picks]
            actions = [int(a) for a in rng.integers(0, action_space.n, policy_size)]
        else:
            refs = _sample_separated_points(state_space, policy_size, rng)
            actions = [
                tuple(
                    float(rng.uniform(lo, hi))
                    for lo, hi in zip(action_space.lows, action_space.highs)
                )
                for _ in range(policy_size)
            ]
        policies.append(
            IntendedPolicy(list(zip(refs, actions)), state_space, action_space)
        )
    return policies


def _sample_separated_points(space, count: int, rng) -> list:
    """``count`` uniform points of the box ``space`` at least ``_MIN_NORMALIZED_GAP``
    apart, each candidate measured by one search over the points accepted so far."""
    points: list = []
    search = None
    for _ in range(_REJECTION_ATTEMPTS):
        candidate = tuple(
            float(rng.uniform(lo, hi)) for lo, hi in zip(space.lows, space.highs)
        )
        if search is None or search(candidate)[1] >= _MIN_NORMALIZED_GAP:
            points.append(candidate)
            if len(points) == count:
                return points
            search = space.nearest(points)
    raise SamplingExhaustedError(
        f"could not place {count} reference states after "
        f"{_REJECTION_ATTEMPTS} attempts"
    )


def run_training_phase(
    agent_config: AgentConfig,
    env_spec: EnvSpec,
    policy: IntendedPolicy,
    epochs: int,
    seed,
    reward_scale: float = 1.0,
    policy_id: int = 1,
) -> RunLog:
    """Train one agent against one intended policy and log every step.

    Each epoch resets the environment and rolls out until a terminal state
    or the step budget; the budget-truncated final step is marked done so
    the learner treats the epoch as finished. An epoch whose update
    diverges, or whose learner emits an action the environment rejects
    (such as NaN), is logged as far as it got and training moves on; an
    epoch that aborts on its first action has no steps. Numpy's overflow
    and invalid-value warnings, which such a learner sets off, are silenced.

    The agent's ``act`` and ``update``, and each epoch's ``append``, are
    looked up once, not once per step. Every step goes through one
    :func:`~fuzzoracle.envs.env_stepper` per run, one closure that pairs
    the transition of :func:`~fuzzoracle.envs.env_step` with its
    :class:`~fuzzoracle.compliance.TraceStep` record; on a slip-free grid
    its memo builds the pair once per (cell, action), so a step records a
    shared record and allocates none.
    """
    seed_path = seed if isinstance(seed, (list, tuple)) else (seed,)
    agent = make_agent(
        agent_config, env_spec, child_rng(*seed_path, _NS_AGENT, agent_config.seed)
    )
    env_rng = child_rng(*seed_path, _NS_ENV)
    step = env_stepper(env_spec, make_reward_fn(policy, reward_scale), env_rng)
    max_steps = env_spec.max_steps_per_epoch
    last = max_steps - 1
    progress_span = max(epochs - 1, 1)
    act, update = agent.act, agent.update

    epoch_traces = []
    aborted = []
    clamped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(1, epochs + 1):
            progress = (e - 1) / progress_span
            state = env_reset(env_spec, env_rng)
            steps = []
            append = steps.append
            for t in range(max_steps):
                try:
                    action = act(state, progress)
                    tr, record = step(state, action)
                    _, _, _, next_state, done, was_clamped = tr
                    if was_clamped:
                        clamped += 1
                    if not done and t == last:
                        tr = tr._replace(done=True)
                        done = True
                    append(record)
                    update(tr)
                except (NumericalDivergenceError, InvalidActionError):
                    aborted.append(e)
                    break
                if done:
                    break
                state = next_state
            epoch_traces.append(EpochTrace(tuple(steps), e))
    return RunLog(policy_id, tuple(epoch_traces), tuple(aborted), clamped)


def healthy(report: TrendReport, log: RunLog) -> bool:
    """Whether the run ``log``, with trend ``report``, is healthy. A run in
    which every single epoch aborted is unhealthy outright, on top of
    whatever the trend check says."""
    return report.verdict and len(log.aborted_epochs) != len(log.epochs)


def analyze_log(policy: IntendedPolicy, log: RunLog, config: OracleConfig) -> PolicyOutcome:
    """Series, trend report, and :func:`healthy` of one run log."""
    series = policy_compliance_series(
        policy, log, config.theta_step, filter_mode=config.filter_mode
    )
    report = trend_analysis(series, config.trend)
    return PolicyOutcome(
        log.policy_id, series, report, healthy(report, log), log.aborted_epochs
    )


def _judge_one_policy(task):
    """Outcome of one (program, policy) task, with its run log when
    ``keep_log`` is set."""
    program, env_spec, policy, policy_id, config, keep_log = task
    seed = (config.master_seed, policy_id)
    started = time.perf_counter()
    if isinstance(program, AgentConfig):
        log = run_training_phase(
            program,
            env_spec,
            policy,
            config.epochs,
            seed,
            reward_scale=config.reward_scale,
            policy_id=policy_id,
        )
    else:
        log = program(env_spec, policy, config.epochs, seed)
    trained = time.perf_counter()
    if log.policy_id != policy_id:
        log = replace(log, policy_id=policy_id)
    outcome = replace(
        analyze_log(policy, log, config),
        train_seconds=trained - started,
        analyze_seconds=time.perf_counter() - trained,
        env_steps=sum(len(epoch.steps) for epoch in log.epochs),
    )
    return outcome, (log if keep_log else None)


def assemble_verdict(outcomes, theta_oracle: float) -> Verdict:
    """Vote over per-policy outcomes: NonBuggy when the healthy fraction
    reaches ``theta_oracle`` (the boundary counts as healthy enough)."""
    outcomes = tuple(outcomes)
    true_count = sum(1 for o in outcomes if o.healthy)
    ratio = true_count / len(outcomes)
    label = LABEL_NON_BUGGY if ratio >= theta_oracle else LABEL_BUGGY
    return Verdict(label, outcomes, true_count, ratio)


def judge_programs(
    programs,
    env_spec: EnvSpec,
    config: OracleConfig,
    workers: int | None = None,
    on_log=None,
) -> list[Verdict]:
    """Judge several programs, one verdict each.

    A program is an :class:`AgentConfig` for the built-in learners, or a
    callable ``(env_spec, policy, epochs, seed) -> RunLog`` for programs
    that produce their traces elsewhere; the oracle sets each log's
    ``policy_id``. ``programs`` may be any iterable, and is read once.
    Every (program, policy) run is independent, so all of
    them are one flat batch of tasks, in program-major order. With
    ``workers`` > 1 and more than one task, the whole batch trains on one
    process pool of at most one worker per task when every program is an
    :class:`AgentConfig`; a callable, which may be a closure, always runs in
    the calling process. Results are identical either way.

    ``on_log(program_index, policy_id, policy, log)``, when given, is called
    in the calling process with every run log, in task order.
    """
    programs = list(programs)
    policies = oracle_policies(env_spec, config)
    n = len(policies)
    tasks = [
        (program, env_spec, policy, pid, config, on_log is not None)
        for program in programs
        for pid, policy in enumerate(policies, start=1)
    ]
    workers = min(workers or 1, len(tasks))
    pooled = workers > 1 and all(isinstance(p, AgentConfig) for p in programs)
    with (ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext()) as pool:
        results = pool.map(_judge_one_policy, tasks) if pooled else map(_judge_one_policy, tasks)
        outcomes = []
        for i, (outcome, log) in enumerate(results):
            if on_log is not None:
                program_index, p = divmod(i, n)
                on_log(program_index, p + 1, policies[p], log)
            outcomes.append(outcome)
    return [
        assemble_verdict(outcomes[i:i + n], config.theta_oracle)
        for i in range(0, len(outcomes), n)
    ]


def oracle_main(
    program,
    env_spec: EnvSpec,
    config: OracleConfig,
    workers: int | None = None,
    on_log=None,
) -> Verdict:
    """Judge a program: train it against generated policies and vote.

    ``program``, ``workers`` and ``on_log`` are as for
    :func:`judge_programs`; results are identical at any pool size.
    """
    return judge_programs([program], env_spec, config, workers, on_log)[0]
