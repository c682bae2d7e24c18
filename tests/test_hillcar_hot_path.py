"""Hill-car training, with every applicable fault, against a straight-line
reference.

``reference_run`` replays a linear actor-critic run step by step with no
feature memo, no fault layer and no fast paths: it reads ``config.bug`` at
every step, maps each state to its radial basis features afresh, moves the
car with the classic control equations, and scores every step with its own
straight-line scorer (``straight_reward``), which shares no code with the
package's nearest-reference search. The program's run logs must equal it
bit for bit for the clean learner and for each bug that applies to
``linear_actor_critic``.
"""

from __future__ import annotations

import itertools
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
from fuzzoracle.membership import MembershipShape

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


def straight_reward(policy, state, action) -> float:
    """Fuzzy reward of one hill-car step, written out: the normalised
    Euclidean distance, added up in dimension order, to the first nearest
    reference; a linear state shape over half the smallest reference gap;
    a linear action shape over the action box's diagonal."""
    lows, highs = policy.state_space.lows, policy.state_space.highs
    assert policy.state_shape == MembershipShape("linear")
    assert policy.action_shape.kind == "linear"

    def metric(a, b):
        total = 0.0
        for x, y, lo, hi in zip(a, b, lows, highs):
            d = (x - y) / (hi - lo)
            total += d * d
        return math.sqrt(total)

    refs = [s for s, _ in policy.entries]
    assert len(state) == len(lows)
    best_i, best_d = 0, metric(state, refs[0])
    for i in range(1, len(refs)):
        d = metric(state, refs[i])
        if d < best_d:
            best_i, best_d = i, d
    half = min(metric(a, b) for a, b in itertools.combinations(refs, 2)) / 2.0
    if best_d >= half:
        return 0.0
    mu_state = 1.0 - best_d / half
    total = 0.0
    for x, y in zip(action, policy.entries[best_i][1]):
        d = x - y
        total += d * d
    distance = math.sqrt(total)
    total = 0.0
    for lo, hi in zip(policy.action_space.lows, policy.action_space.highs):
        total += (hi - lo) * (hi - lo)
    width = math.sqrt(total)
    mu_action = 0.0 if distance >= width else 1.0 - distance / width
    return 1.0 * mu_state * mu_action


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
            reward = straight_reward(policy, state, (force,))
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
        log = run_training_phase(config, spec, policy, EPOCHS, seed_path, policy_id=pid)
        with np.errstate(all="ignore"):
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
