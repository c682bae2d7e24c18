"""The grid training and scoring hot path against a straight-line reference.

``reference_run`` replays a tabular Q-learning run step by step with no
precomputed tables, no resolved switches and no fast paths: the learner
reads ``config.bug`` at every step, the grid move is clamped with min/max,
terminal cells are looked up in the spec's fields, and every reward is
scored by the brute-force scorer of ``conftest``, through the checked
action metric. The program's run logs, rewards and compliance series must
equal it bit for bit on every corpus variant. Its rewards must also equal
:func:`fuzzy_reward`. Further cases pin the loop's budget-truncated
final step against the same reference, and the series scorer's one state
search per distinct step.
"""

from __future__ import annotations

import json
import math
import os
from unittest import mock

import numpy as np
import pytest

from fuzzoracle import (
    AgentConfig,
    EpochTrace,
    GridSpec,
    OracleConfig,
    RunLog,
    TraceStep,
    fuzzy_reward,
    inject_bug,
    oracle_policies,
    policy_compliance_series,
    run_training_phase,
)
from fuzzoracle import compliance
from fuzzoracle.spaces import GridSpace

from conftest import brute_force_series

CORPUS = os.path.join(os.path.dirname(__file__), "..", "configs", "corpus_grid12.json")
with open(CORPUS, encoding="utf-8") as _fh:
    VARIANT_BUGS = [v["bug"] for v in json.load(_fh)["variants"]]

EPOCHS = 20
ORACLE = OracleConfig(policies=2, epochs=EPOCHS)
MOVES = {0: (0, -1), 1: (1, 0), 2: (0, 1), 3: (-1, 0)}


def brute_force_reward(policy, state, action) -> float:
    """Step compliance of one step: the series of a one-step log, ungated."""
    log = RunLog(1, (EpochTrace((TraceStep(state, action),), 1),))
    return brute_force_series(policy, log, 0.0)[0]


def reference_run(config, spec, policy, epochs, seed_path, policy_id) -> RunLog:
    """Straight-line tabular Q-learning run with the oracle's seeding."""
    rng = np.random.default_rng([*seed_path, 2, config.seed])
    env_rng = np.random.default_rng([*seed_path, 3])
    n_states = spec.rows * spec.cols
    q = [[float(config.init_value)] * 4 for _ in range(n_states)]
    write = list(range(n_states))
    if config.bug == "WRONG_FEATURE_MAP":
        perm = np.random.default_rng([max(config.seed, 0), 97]).permutation(n_states)
        write = [int(i) for i in perm]
    updates = 0
    traces, aborted = [], []
    for e in range(1, epochs + 1):
        progress = (e - 1) / max(epochs - 1, 1)
        eps = config.epsilon_start + (config.epsilon_end - config.epsilon_start) * progress
        state = (0, 0)
        steps = []
        for t in range(spec.max_steps_per_epoch):
            if eps > 0.0 and rng.random() < eps:
                action = int(rng.integers(4))
            else:
                row = q[state[0] * spec.cols + state[1]]
                action = 0
                for i in range(1, 4):
                    if row[i] > row[action]:
                        action = i
            if config.bug == "ACTION_CLAMP_WRONG":
                action = min(action, 1)
            effective = action
            if spec.slip_prob > 0.0 and env_rng.random() < spec.slip_prob:
                effective = int((action + 1, action + 3)[env_rng.integers(0, 2)]) % 4
            dr, dc = MOVES[effective]
            next_state = (
                min(max(state[0] + dr, 0), spec.rows - 1),
                min(max(state[1] + dc, 0), spec.cols - 1),
            )
            terminal = next_state == spec.goal or next_state in spec.holes
            done = terminal or t == spec.max_steps_per_epoch - 1
            reward = brute_force_reward(policy, state, action)
            steps.append(TraceStep(state, action, reward))

            learn = config.bug != "UPDATE_SKIPPED"
            if learn and config.bug == "UPDATE_EVERY_OTHER":
                updates += 1
                learn = updates % 2 == 1
            if learn:
                r = -reward if config.bug == "REWARD_NEGATED" else reward
                s = state[0] * spec.cols + state[1]
                s2 = s if config.bug == "STALE_STATE" else next_state[0] * spec.cols + next_state[1]
                bootstrap = 0.0 if done else config.discount * max(q[s2])
                old = q[s][action]
                value = old + config.learning_rate * (r + bootstrap - old)
                if not math.isfinite(value):
                    aborted.append(e)
                    break
                q[write[s]][action] = value
            if terminal:
                break
            state = next_state
        traces.append(EpochTrace(tuple(steps), e))
    return RunLog(policy_id, tuple(traces), tuple(aborted))


CASES = [(bug, 0.0) for bug in VARIANT_BUGS] + [(None, 0.2)]


@pytest.mark.parametrize(
    "bug, slip", CASES, ids=[f"{bug or 'clean'}-slip{slip}" for bug, slip in CASES]
)
def test_run_logs_rewards_and_series_match_reference(bug, slip):
    spec = GridSpec(slip_prob=slip)
    config = inject_bug(AgentConfig(), bug) if bug else AgentConfig()
    for pid, policy in enumerate(oracle_policies(spec, ORACLE), start=1):
        seed_path = (ORACLE.master_seed, pid)
        log = run_training_phase(config, spec, policy, EPOCHS, seed_path, policy_id=pid)
        expected = reference_run(config, spec, policy, EPOCHS, seed_path, pid)
        assert log == expected
        steps = [step for epoch in log.epochs for step in epoch.steps]
        for step in steps:
            assert step.reward == fuzzy_reward(step.state, step.action, policy)
        for mode in ("state", "step"):
            series = policy_compliance_series(policy, log, ORACLE.theta_step, mode)
            assert list(series.values) == brute_force_series(
                policy, log, ORACLE.theta_step, mode
            )


@pytest.mark.parametrize("bug", [None, "REWARD_NEGATED"], ids=["clean", "REWARD_NEGATED"])
def test_step_budget_matches_reference(bug):
    """The training loop's budget-truncated final step, on a grid where some
    epochs end at the step budget."""
    max_steps = 5
    spec = GridSpec(rows=3, cols=3, holes=((1, 1),), goal=(2, 2), max_steps_per_epoch=max_steps)
    # With an optimistic start every bootstrap is nonzero, so a truncated
    # step that is not marked done shows in the actions after it.
    config = AgentConfig(init_value=1.0)
    config = inject_bug(config, bug) if bug else config
    full = 0
    for pid, policy in enumerate(oracle_policies(spec, ORACLE), start=1):
        seed_path = (ORACLE.master_seed, pid)
        log = run_training_phase(config, spec, policy, EPOCHS, seed_path, policy_id=pid)
        assert log == reference_run(config, spec, policy, EPOCHS, seed_path, pid)
        full += sum(len(epoch.steps) == max_steps for epoch in log.epochs)
    # The branch under test ran.
    assert full > 0


def test_slip_free_records_of_one_cell_and_action_are_one_object():
    """Training on a grid without slip logs one shared record per (cell,
    action), which the series scorer's dedup then matches by identity. The
    log equals the reference; with slip, so does the case above."""
    config = AgentConfig()
    spec = GridSpec()
    seed_path = (ORACLE.master_seed, 1)
    policy = oracle_policies(spec, ORACLE)[0]
    log = run_training_phase(config, spec, policy, EPOCHS, seed_path)
    assert log == reference_run(config, spec, policy, EPOCHS, seed_path, 1)
    shared = {}
    for epoch in log.epochs:
        for step in epoch.steps:
            assert type(step) is TraceStep and type(step.action) is int
            shared.setdefault((step.state, step.action), []).append(step)
    assert max(map(len, shared.values())) > 1
    for group in shared.values():
        assert all(step is group[0] for step in group)


def test_scoring_searches_each_distinct_step_once_per_batch():
    """A 300-epoch grid log is scored with one state search per distinct
    step of each batch of whole epochs, and its series equals the
    straight-line one."""
    spec = GridSpec()
    policy = oracle_policies(spec, ORACLE)[0]
    log = run_training_phase(AgentConfig(), spec, policy, 300, (ORACLE.master_seed, 1))
    batches, batch = [], []
    for epoch in log.epochs:
        batch.extend(epoch.steps)
        if len(batch) >= compliance._BATCH:
            batches.append(batch)
            batch = []
    batches.append(batch)
    searched = []
    nearest = GridSpace.nearest

    def counted(space, refs):
        search = nearest(space, refs)

        def wrapped(state):
            searched.append(state)
            return search(state)

        return wrapped

    with mock.patch.object(GridSpace, "nearest", counted):
        series = policy_compliance_series(policy, log, ORACLE.theta_step)
    assert len(batches) > 1
    assert len(searched) == sum(len(set(batch)) for batch in batches)
    assert len(searched) < sum(map(len, batches))
    assert list(series.values) == brute_force_series(policy, log, ORACLE.theta_step)
