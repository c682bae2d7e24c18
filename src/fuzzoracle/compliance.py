"""Fuzzy compliance scoring of executed (state, action) steps.

The chain of degrees, every value in [0, 1]:

* state compliance: how close a visited state sits to its nearest
  reference state, zero beyond half the minimum reference gap;
* action compliance: how close the taken action is to that reference's
  ideal action;
* step compliance: the product of the two;
* epoch compliance: average step compliance over the qualifying steps of
  one training epoch, which strung over epochs forms the compliance
  series the trend analyzer consumes.

:func:`step_compliance_at` and :func:`fuzzy_reward` are the scalar
reference. Training scores one step at a time through
:func:`make_reward_fn`, which keeps each grid cell's rewards, and a run log
is scored in batches of whole epochs (:func:`policy_compliance_series`):
a box policy's in one array pass, any other through the scalar chain.
Both reproduce the reference bit for bit; ``tests/test_grid_hot_path.py``
tests the reward callable and the series against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import EmptyLogError, InvalidMembershipError
from .policy import IntendedPolicy
from .spaces import (
    BoxSpace,
    DiscreteSpace,
    GridSpace,
    continuous_action_distance,
)


class TraceStep(NamedTuple):
    """One executed step. The reward is kept for diagnostics only."""

    state: tuple
    action: object
    reward: float = 0.0


_action = itemgetter(1)


@dataclass(frozen=True)
class EpochTrace:
    steps: tuple
    epoch_index: int

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RunLog:
    """All epoch traces of one training run against one intended policy."""

    policy_id: int
    epochs: tuple
    aborted_epochs: tuple = ()
    clamped_actions: int = 0

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass(frozen=True)
class ComplianceSeries:
    """Per-epoch compliance values, one per training epoch."""

    values: tuple

    def __post_init__(self):
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise InvalidMembershipError(f"compliance value {v} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def step_compliance(mu_state: float, mu_action: float) -> float:
    """Product of state and action compliance."""
    for name, value in (("state", mu_state), ("action", mu_action)):
        if not 0.0 <= value <= 1.0:
            raise InvalidMembershipError(
                f"{name} compliance {value} outside [0, 1]"
            )
    return mu_state * mu_action


def _state_degree(policy: IntendedPolicy):
    """Callable ``state -> (state compliance, ideal action of the nearest
    reference)``: hard zero beyond half the minimum reference gap, inside it
    the state shape at its own width, or at the half-gap if it has none.
    The search, the half-gap and the shape at its width are built once.
    """
    search = policy.state_space.nearest([s for s, _ in policy.entries])
    ideals = [a for _, a in policy.entries]
    half = policy.min_ref_distance / 2.0
    shape = policy.state_shape
    ramp = shape.at(shape.width or half)

    def degree(state) -> tuple:
        index, distance = search(state)
        return (0.0 if distance > half else ramp(distance)), ideals[index]

    return degree


def _action_degree(policy: IntendedPolicy):
    """Callable ``(action, ideal action) -> action compliance`` under
    ``policy``, with the action shape bound at its width once.

    A box policy measures a plain tuple action of the ideal's length
    inline, with the arithmetic of
    :func:`~fuzzoracle.spaces.continuous_action_distance`; any other action
    goes through that function, so it raises what the function raises.
    """
    ramp = policy.action_shape.at()
    if isinstance(policy.action_space, DiscreteSpace):
        metric = policy.action_space.distance
        return lambda action, ideal: ramp(metric(action, ideal))
    sqrt = math.sqrt

    def degree(action, ideal) -> float:
        if type(action) is tuple and len(action) == len(ideal):
            total = 0.0
            for x, y in zip(action, ideal):
                d = x - y
                total += d * d
            return ramp(sqrt(total))
        return ramp(continuous_action_distance(action, ideal))

    return degree


def step_compliance_at(policy: IntendedPolicy, state, action) -> tuple[float, float, float]:
    """(mu_state, mu_action, mu_step) of one step under ``policy``."""
    mu_state, ideal = _state_degree(policy)(state)
    mu_action = _action_degree(policy)(action, ideal)
    return mu_state, mu_action, step_compliance(mu_state, mu_action)


def fuzzy_reward(state, action, policy: IntendedPolicy, reward_scale: float = 1.0) -> float:
    """Reward proportional to the step compliance under ``policy``:
    ``reward_scale * mu_state * mu_action``, multiplied left to right as in
    training (:func:`make_reward_fn`)."""
    if not reward_scale > 0:
        raise ValueError("reward_scale must be positive")
    mu_state, mu_action, _ = step_compliance_at(policy, state, action)
    return reward_scale * mu_state * mu_action


def make_reward_fn(policy: IntendedPolicy, reward_scale: float = 1.0):
    """Reward callable (state, action) -> float, with the arithmetic of
    :func:`fuzzy_reward`.

    Grid states recur. On a grid policy with a discrete action space, each
    cell's rewards for every action id are computed once, on its first
    visit, and a plain int action id reads them. Any other action, such as
    a bool, a negative int or a float, is scored afresh once its state's
    row is found, so a bad state raises first, as it would for any action.
    Continuous states practically never recur, so a memo would only grow by
    one entry per step; they are scored afresh. Either way the policy's
    nearest-reference search is built once, here.

    The reward depends on ``(state, action)`` alone, so a training run may
    step through :func:`~fuzzoracle.envs.env_stepper`, which on a grid
    without slip calls it once per (cell, action).
    """
    if not reward_scale > 0:
        raise ValueError("reward_scale must be positive")
    state_degree = _state_degree(policy)
    action_degree = _action_degree(policy)

    def scored(state, action) -> float:
        mu_state, ideal = state_degree(state)
        if mu_state == 0.0:
            return 0.0
        return reward_scale * mu_state * action_degree(action, ideal)

    if not (
        isinstance(policy.state_space, GridSpace)
        and isinstance(policy.action_space, DiscreteSpace)
    ):
        return scored
    n = policy.action_space.n
    rows = _RewardRows(scored, n)

    def reward(state, action) -> float:
        row = rows[state]
        if type(action) is int and 0 <= action < n:
            return row[action]
        return scored(state, action)

    return reward


class _RewardRows(dict):
    """cell -> ``[scored(cell, a) for a in range(n)]``, filled on first use.

    A training run reads a row only while its stepper builds that cell's
    transitions (:func:`~fuzzoracle.envs.env_stepper`); slip grids and
    direct :func:`~fuzzoracle.envs.env_step` callers read it at every step.
    """

    def __init__(self, scored, n: int):
        super().__init__()
        self._scored, self._n = scored, n

    def __missing__(self, cell):
        row = self[cell] = [self._scored(cell, a) for a in range(self._n)]
        return row


def policy_compliance_series(
    policy: IntendedPolicy,
    log: RunLog,
    theta_step: float,
    filter_mode: str = "state",
) -> ComplianceSeries:
    """Per-epoch compliance of a run log with respect to ``policy``.

    For each epoch, steps whose filtered degree reaches ``theta_step``
    contribute their step compliance to the epoch average; an epoch with no
    qualifying step scores 0. An epoch without steps is an error unless the
    log lists it as aborted (it aborted on its first action), in which case
    it also scores 0. ``filter_mode`` selects which degree gates a
    step: ``"state"`` gates on state compliance (the default), ``"step"``
    gates on the product instead.

    Steps are scored in batches of whole epochs (see :func:`_step_degrees`),
    a well-formed box log's in one array pass that matches the scalar chain
    of :func:`step_compliance_at` bit for bit, any other through that chain.
    Epoch sums use exactly rounded summation so the result is independent
    of step order within an epoch.
    """
    if not 0.0 <= theta_step <= 1.0:
        raise InvalidMembershipError(f"theta_step {theta_step} outside [0, 1]")
    if filter_mode not in ("state", "step"):
        raise ValueError(f"filter_mode must be 'state' or 'step', got {filter_mode!r}")
    if len(log.epochs) == 0:
        raise EmptyLogError("run log has no epochs")

    # Whole epochs are scored in batches of about _BATCH steps, which
    # bounds the memory a long log needs to a batch's worth.
    values: list = []
    steps: list = []
    offsets = [0]
    for epoch in log.epochs:
        if len(epoch.steps) == 0 and epoch.epoch_index not in log.aborted_epochs:
            # The steps before it are scored first, so a bad step there is
            # reported first, as a step-by-step scan would.
            _epoch_values(policy, steps, offsets, theta_step, filter_mode)
            raise EmptyLogError(f"epoch {epoch.epoch_index} has no steps")
        steps.extend(epoch.steps)
        offsets.append(len(steps))
        if len(steps) >= _BATCH:
            values.extend(_epoch_values(policy, steps, offsets, theta_step, filter_mode))
            steps, offsets = [], [0]
    values.extend(_epoch_values(policy, steps, offsets, theta_step, filter_mode))
    return ComplianceSeries(tuple(values))


# Steps scored per batch by :func:`policy_compliance_series`.
_BATCH = 4096


def _epoch_values(policy: IntendedPolicy, steps: list, offsets: list, theta_step, filter_mode) -> list:
    """Compliance of each epoch ``steps[offsets[i]:offsets[i + 1]]``."""
    if not steps:
        return [0.0] * (len(offsets) - 1)
    mu_state, mu_step = _step_degrees(policy, steps)
    gate = (mu_state if filter_mode == "state" else mu_step) >= theta_step
    qualifying = mu_step[gate].tolist()
    ends = np.concatenate(([0], np.cumsum(gate)))[offsets].tolist()
    return [
        math.fsum(qualifying[lo:hi]) / (hi - lo) if hi > lo else 0.0
        for lo, hi in zip(ends, ends[1:])
    ]


def _step_degrees(policy: IntendedPolicy, steps: list) -> tuple:
    """(state compliance, step compliance) arrays of ``steps``.

    A box policy's batch whose states and actions are tuples of their
    spaces' lengths, every coordinate a float or an int that is no bool,
    goes to the array pass; any other goes through the scalar chain, so a
    bad step raises what :func:`step_compliance_at` raises. Steps that
    compare equal score equally once every action is a plain int (an
    action ``True`` or ``1.0`` equals ``1`` but is rejected), so then each
    distinct step is scored once and its degrees are spread back;
    otherwise every step is scored in order.
    """
    if isinstance(policy.state_space, BoxSpace) and isinstance(policy.action_space, BoxSpace):
        states, actions, _ = zip(*steps)
        visited = _coordinates(states, policy.state_space)
        if visited is not None:
            taken = _coordinates(actions, policy.action_space)
            if taken is not None:
                return _array_degrees(policy, visited, taken)
    state_degree, action_degree = _state_degree(policy), _action_degree(policy)

    def degrees(step) -> tuple:
        mu_state, ideal = state_degree(step[0])
        return mu_state, mu_state * action_degree(step[1], ideal)

    if set(map(type, map(_action, steps))) <= {int}:
        first = {}  # distinct step -> index of its first occurrence
        firsts = np.fromiter(map(first.setdefault, steps, count()), np.intp, len(steps))
        mu_state, mu_step = np.array(list(map(degrees, first))).T
        row = np.empty(len(steps), np.intp)  # first occurrence -> row of its degrees
        row[list(first.values())] = np.arange(len(first))
        rows = row[firsts]
        return mu_state[rows], mu_step[rows]
    mu_state, mu_step = np.array(list(map(degrees, steps))).T
    return mu_state, mu_step


def _coordinates(points, space: BoxSpace):
    """``(len(points), dim)`` float array of ``points`` if every one is a
    tuple of ``space``'s length whose coordinates are floats or ints (no
    bools), else None. The points are flattened once, into a tuple whose
    types are checked and which is then converted."""
    dim = space.dim
    if set(map(type, points)) != {tuple} or set(map(len, points)) != {dim}:
        return None
    flat = tuple(chain.from_iterable(points))
    if not set(map(type, flat)) <= {float, int}:
        return None
    return np.fromiter(flat, float, len(flat)).reshape(len(points), dim)


def _array_degrees(policy: IntendedPolicy, states: np.ndarray, actions: np.ndarray) -> tuple:
    """(state compliance, step compliance) arrays of a box policy's
    ``states`` and ``actions``, each an array of one point per row.

    The array form of :func:`step_compliance_at`: distances from every
    state to every reference, the nearest by ``argmin`` (the first minimum,
    so ties go to the lowest index as in the space's ``nearest``), then the
    state degree, the ideal action and the action degree. Only ``+ - * /``
    and ``sqrt`` are used, accumulated per dimension in the metrics' order,
    so every value matches the scalar chain bit for bit.
    """
    distances = policy.state_space.distances(states, [s for s, _ in policy.entries])
    nearest = distances.argmin(axis=1)
    distance = distances.min(axis=1)
    half = policy.min_ref_distance / 2.0
    shape = policy.state_shape
    mu_state = np.where(distance > half, 0.0, shape.degrees(distance, shape.width or half))

    wanted = np.array([a for _, a in policy.entries], dtype=float)[nearest]
    total = 0.0
    for k in range(policy.action_space.dim):
        d = actions[:, k] - wanted[:, k]
        total = total + d * d
    mu_action = policy.action_shape.degrees(np.sqrt(total))
    return mu_state, mu_state * mu_action
