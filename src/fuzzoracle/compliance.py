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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import EmptyLogError, InvalidDeltaError, InvalidMembershipError
from .membership import MembershipShape
from .policy import IntendedPolicy, closest_reference
from .spaces import DiscreteSpace, GridSpace, continuous_action_distance


class TraceStep(NamedTuple):
    """One executed step. The reward is kept for diagnostics only."""

    state: tuple
    action: object
    reward: float = 0.0


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


def state_compliance(distance: float, delta: float, shape: MembershipShape) -> float:
    """Membership of a state given its distance to the nearest reference.

    Hard zero beyond half the minimum reference gap; inside, the shape is
    evaluated with that half-gap as its scale unless it carries one of its
    own.
    """
    if not delta > 0:
        raise InvalidDeltaError(f"delta must be positive, got {delta}")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    half = delta / 2.0
    if distance > half:
        return 0.0
    return shape(distance, width=shape.width or half)


def action_compliance(action, ideal_action, metric, shape: MembershipShape) -> float:
    """Membership of the taken action relative to the ideal one."""
    return shape(metric(action, ideal_action))


def step_compliance(mu_state: float, mu_action: float) -> float:
    """Product of state and action compliance."""
    for name, value in (("state", mu_state), ("action", mu_action)):
        if not 0.0 <= value <= 1.0:
            raise InvalidMembershipError(
                f"{name} compliance {value} outside [0, 1]"
            )
    return mu_state * mu_action


def _state_degree(policy: IntendedPolicy, state) -> tuple:
    """(state compliance, ideal action of the nearest reference) of ``state``."""
    index, distance = closest_reference(state, policy)
    return (
        state_compliance(distance, policy.min_ref_distance, policy.state_shape),
        policy.entries[index][1],
    )


def _action_degree(policy: IntendedPolicy):
    """:func:`action_compliance` under ``policy`` as a callable of
    (action, ideal action).

    On a discrete action space with int ideal actions, a plain int action
    scores 1 when it equals the ideal and 0 otherwise. That is exact: the
    discrete metric gives 0 or inf, and the shape is checked to give 1 at 0
    and 0 at inf. Any other action goes through the checked metric, which
    rejects it as before.
    """
    shape = policy.action_shape
    if not isinstance(policy.action_space, DiscreteSpace):
        return lambda action, ideal: shape(continuous_action_distance(action, ideal))
    checked = partial(action_compliance, metric=policy.action_distance, shape=shape)
    try:
        exact = shape(0.0) == 1.0 and shape(math.inf) == 0.0
    except ValueError:  # a scaled shape without a width
        exact = False
    if not (exact and all(type(ideal) is int for _, ideal in policy.entries)):
        return checked

    def degree(action, ideal) -> float:
        if type(action) is int:
            return 1.0 if action == ideal else 0.0
        return checked(action, ideal)

    return degree


def step_compliance_at(policy: IntendedPolicy, state, action) -> tuple[float, float, float]:
    """(mu_state, mu_action, mu_step) of one step under ``policy``."""
    mu_state, ideal = _state_degree(policy, state)
    mu_action = _action_degree(policy)(action, ideal)
    return mu_state, mu_action, mu_state * mu_action


def fuzzy_reward(state, action, policy: IntendedPolicy, reward_scale: float = 1.0) -> float:
    """Reward proportional to the step compliance under ``policy``."""
    if not reward_scale > 0:
        raise ValueError("reward_scale must be positive")
    _, _, mu_step = step_compliance_at(policy, state, action)
    return reward_scale * mu_step


class _GridMemo(dict):
    """state -> _state_degree(policy, state), filled on first use."""

    def __init__(self, policy: IntendedPolicy):
        super().__init__()
        self._policy = policy

    def __missing__(self, state):
        hit = self[state] = _state_degree(self._policy, state)
        return hit


def _reference_lookup(policy: IntendedPolicy):
    """:func:`_state_degree` under ``policy`` as a callable of the state.

    Grid states recur, so lookups on a grid are memoised per state.
    Continuous states practically never recur, so there a memo would only
    grow by one entry per step and is not kept.
    """
    if isinstance(policy.state_space, GridSpace):
        return _GridMemo(policy).__getitem__
    return partial(_state_degree, policy)


def make_reward_fn(policy: IntendedPolicy, reward_scale: float = 1.0):
    """Reward callable (state, action) -> float.

    The nearest-reference lookup depends only on the state; on a grid its
    result is memoised per state, continuous states are looked up afresh.
    The arithmetic is identical to :func:`fuzzy_reward`.
    """
    if not reward_scale > 0:
        raise ValueError("reward_scale must be positive")
    lookup = _reference_lookup(policy)
    action_degree = _action_degree(policy)

    def reward(state, action) -> float:
        mu_state, ideal = lookup(state)
        if mu_state == 0.0:
            return 0.0
        return reward_scale * mu_state * action_degree(action, ideal)

    return reward


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

    Epoch sums use exactly rounded summation so the result is independent
    of step order within an epoch. Nearest-reference lookups are memoised
    per state for grid states only, as in :func:`make_reward_fn`.
    """
    if not 0.0 <= theta_step <= 1.0:
        raise InvalidMembershipError(f"theta_step {theta_step} outside [0, 1]")
    if filter_mode not in ("state", "step"):
        raise ValueError(f"filter_mode must be 'state' or 'step', got {filter_mode!r}")
    if len(log.epochs) == 0:
        raise EmptyLogError("run log has no epochs")

    gate_on_state = filter_mode == "state"
    lookup = _reference_lookup(policy)
    action_degree = _action_degree(policy)
    values = []
    for epoch in log.epochs:
        if len(epoch.steps) == 0 and epoch.epoch_index not in log.aborted_epochs:
            raise EmptyLogError(f"epoch {epoch.epoch_index} has no steps")
        qualifying = []
        for step in epoch.steps:
            mu_state, ideal = lookup(step.state)
            mu_step = mu_state * action_degree(step.action, ideal)
            gate = mu_state if gate_on_state else mu_step
            if gate >= theta_step:
                qualifying.append(mu_step)
        if qualifying:
            values.append(math.fsum(qualifying) / len(qualifying))
        else:
            values.append(0.0)
    return ComplianceSeries(tuple(values))
