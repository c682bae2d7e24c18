"""Hill-car training, with every applicable fault, against a straight-line
reference.

``reference_run`` replays a linear actor-critic run step by step with no
feature memo, no fault layer and no fast paths: it reads ``config.bug`` at
every step, maps each state to its radial basis features afresh, moves the
car with the classic control equations, and scores every step with
:func:`fuzzy_reward`. The program's run logs must equal it bit for bit for
the clean learner and for each bug that applies to ``linear_actor_critic``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fuzzoracle import (
    BUG_REGISTRY,
    AgentConfig,
    EpochTrace,
    HillCarSpec,
    OracleConfig,
    RunLog,
    TraceStep,
    fuzzy_reward,
    inject_bug,
    oracle_policies,
    run_training_phase,
)

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "hillcar_clean.json")
with open(CONFIG, encoding="utf-8") as _fh:
    AGENT = AgentConfig(**json.load(_fh)["agent"])

EPOCHS = 10
ORACLE = OracleConfig(policies=2, epochs=EPOCHS)
BUGS = [b.id for b in BUG_REGISTRY.values() if AGENT.algorithm in b.algorithms]
# A critic step this large, from a tiny nonzero start, first diverges in
# epoch 3 after two full epochs, on both policies.
DIVERGING = replace(AGENT, critic_learning_rate=5.0, init_value=1e-9)
CONFIGS = {
    "clean": AGENT,
    **{bug: inject_bug(AGENT, bug) for bug in BUGS},
    "diverging": DIVERGING,
}


def reference_run(config, spec, policy, epochs, seed_path, policy_id) -> RunLog:
    """Straight-line actor-critic run with the oracle's seeding."""
    rng = np.random.default_rng([*seed_path, 2, config.seed])
    env_rng = np.random.default_rng([*seed_path, 3])
    k = config.feature_grid
    centers = np.linspace(0.0, 1.0, k)
    grid = np.array([(cx, cy) for cx in centers for cy in centers], dtype=float)
    bandwidth = 1.0 / max(k - 1, 1)

    def features(state):
        pos = (state[0] - spec.min_position) / (spec.max_position - spec.min_position)
        vel = (state[1] + spec.max_speed) / (2.0 * spec.max_speed)
        diff = grid - (pos, vel)
        phi = np.empty(k * k + 1)
        phi[:-1] = np.exp(-(diff[:, 0] ** 2 + diff[:, 1] ** 2) / (2.0 * bandwidth**2))
        phi[-1] = 1.0
        return phi

    w_value = np.full(k * k + 1, float(config.init_value))
    w_mean = np.full(k * k + 1, float(config.init_value))
    perm = None
    if config.bug == "WRONG_FEATURE_MAP":
        perm = np.random.default_rng([max(config.seed, 0), 97]).permutation(k * k + 1)
    updates = 0
    traces, aborted = [], []
    for e in range(1, epochs + 1):
        state = (float(env_rng.uniform(-0.6, -0.4)), 0.0)
        steps = []
        for t in range(spec.max_steps_per_epoch):
            mean = float(w_mean @ features(state))
            noisy = mean + config.action_noise * float(rng.standard_normal())
            bound = 0.5 if config.bug == "ACTION_CLAMP_WRONG" else 1.0
            force = min(max(noisy, -bound), bound)
            if not math.isfinite(force):
                aborted.append(e)
                break
            position, velocity = state
            velocity = velocity + force * spec.force - spec.gravity * math.cos(3.0 * position)
            velocity = min(max(velocity, -spec.max_speed), spec.max_speed)
            position = min(max(position + velocity, spec.min_position), spec.max_position)
            next_state = (position, velocity)
            terminal = position >= spec.goal_position
            done = terminal or t == spec.max_steps_per_epoch - 1
            reward = fuzzy_reward(state, (force,), policy)
            steps.append(TraceStep(state, (force,), reward))

            learn = config.bug != "UPDATE_SKIPPED"
            if learn and config.bug == "UPDATE_EVERY_OTHER":
                updates += 1
                learn = updates % 2 == 1
            if learn:
                r = -reward if config.bug == "REWARD_NEGATED" else reward
                phi = features(state)
                successor = state if config.bug == "STALE_STATE" else next_state
                future = 0.0 if done else config.discount * float(w_value @ features(successor))
                td_error = r + future - float(w_value @ phi)
                mean = float(w_mean @ phi)
                write = phi if perm is None else phi[perm]
                w_value += config.critic_learning_rate * td_error * write
                w_mean += (
                    config.learning_rate * td_error * (force - mean) / (config.action_noise**2)
                ) * write
                if not (np.isfinite(w_value).all() and np.isfinite(w_mean).all()):
                    aborted.append(e)
                    break
            if terminal:
                break
            state = next_state
        traces.append(EpochTrace(tuple(steps), e))
    return RunLog(policy_id, tuple(traces), tuple(aborted))


def test_every_applicable_bug_is_checked():
    assert len(BUGS) == 9
    assert not {"EPSILON_FROZEN_ONE", "EPSILON_ZERO_START"} & set(BUGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_logs_match_reference(name):
    spec = HillCarSpec()
    config = CONFIGS[name]
    for pid, policy in enumerate(oracle_policies(spec, ORACLE), start=1):
        seed_path = (ORACLE.master_seed, pid)
        with np.errstate(all="ignore"):
            log = run_training_phase(config, spec, policy, EPOCHS, seed_path, policy_id=pid)
            assert log == reference_run(config, spec, policy, EPOCHS, seed_path, pid)
        if config is DIVERGING:
            assert 1 < log.aborted_epochs[0] < EPOCHS


@pytest.mark.parametrize("scale", [3.0, 0.3])
def test_scaled_training_rewards_equal_fuzzy_reward(scale):
    # A scale that is not a power of two rounds differently in
    # scale * (mu_state * mu_action) than in (scale * mu_state) * mu_action.
    # The fifth policy's reference states lie where the car starts, so most
    # steps earn a reward.
    spec = HillCarSpec()
    policy = oracle_policies(spec, replace(ORACLE, policies=5))[4]
    log = run_training_phase(AGENT, spec, policy, EPOCHS, (0, 5), reward_scale=scale)
    steps = [step for epoch in log.epochs for step in epoch.steps]
    assert sum(step.reward != 0.0 for step in steps) > 1000
    for step in steps:
        assert step.reward == fuzzy_reward(step.state, step.action, policy, scale)
