"""Shared fixtures and independent reference implementations.

The brute-force helpers here deliberately reimplement the scoring math as
straight-line loops with no caching or shared helpers, so the main code
path is checked against an independent route.
"""

from __future__ import annotations

import math
import os

import pytest

import fuzzoracle
from fuzzoracle import GridSpec, IntendedPolicy
from fuzzoracle.spaces import DiscreteSpace, GridSpace, continuous_action_distance


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so say
    # which package the run tests.
    return f"fuzzoracle under test: {os.path.dirname(fuzzoracle.__file__)}"


@pytest.fixture
def grid_spec():
    return GridSpec()


@pytest.fixture
def two_ref_policy():
    """Reference states (0,0) -> RIGHT and (2,2) -> DOWN on the 4x4 grid."""
    return IntendedPolicy(
        [((0, 0), 2), ((2, 2), 1)], GridSpace(4, 4), DiscreteSpace(4)
    )


def brute_force_series(policy, log, theta_step, filter_mode="state"):
    """Straight-line recomputation of the per-epoch compliance series.

    Every step rescans all reference states; epoch sums use exactly
    rounded summation, mirroring the documented contract.
    """
    delta = None
    refs = [s for s, _ in policy.entries]
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            d = _metric(policy, refs[i], refs[j])
            if delta is None or d < delta:
                delta = d

    if isinstance(policy.action_space, DiscreteSpace):
        action_metric = policy.action_space.distance
    else:
        action_metric = continuous_action_distance

    out = []
    for epoch in log.epochs:
        contributions = []
        count = 0
        for step in epoch.steps:
            best_i = 0
            best_d = _metric(policy, step.state, refs[0])
            for i in range(1, len(refs)):
                d = _metric(policy, step.state, refs[i])
                if d < best_d:
                    best_i, best_d = i, d
            if best_d > delta / 2.0:
                mu_state = 0.0
            elif policy.state_shape.width is not None:
                mu_state = policy.state_shape(best_d)
            else:
                mu_state = policy.state_shape(best_d, width=delta / 2.0)
            ideal = policy.entries[best_i][1]
            mu_action = policy.action_shape(action_metric(step.action, ideal))
            mu_step = mu_state * mu_action
            gate = mu_state if filter_mode == "state" else mu_step
            if gate >= theta_step:
                contributions.append(mu_step)
                count += 1
        out.append(math.fsum(contributions) / count if count else 0.0)
    return out


def _metric(policy, a, b):
    if isinstance(policy.state_space, GridSpace):
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))
    total = 0.0
    for x, y, lo, hi in zip(a, b, policy.state_space.lows, policy.state_space.highs):
        d = (x - y) / (hi - lo)
        total += d * d
    return math.sqrt(total)


def brute_force_slope(values):
    """Closed-form OLS slope computed with plain running sums."""
    n = len(values)
    xs = list(range(n))
    x_mean = sum(xs) / n
    y_mean = sum(values) / n
    num = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, values))
    den = sum((x - x_mean) ** 2 for x in xs)
    return num / den
