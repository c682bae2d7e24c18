"""Independent reference checker for fuzzoracle verdicts.

Everything here is written from the specification (``docs/formats.md``,
the ``compliance`` and ``trend`` docstrings, the README's verdict rule)
and shares no code with the package: distances, membership shapes,
nearest-reference search, compliance series, trend rule and vote are
recomputed by brute force on plain Python data.

Two choices make the check exact rather than approximate:

* epoch values use exactly rounded sums (``math.fsum``) and the same
  elementwise float operations the specification states, so a correct
  program agrees bit for bit;
* the sign of the least-squares slope is decided over exact rationals.
  The slope's sign is what the verdict reads, so a float slope whose sign
  differs from the exact one flips a verdict on rounding (defect A of the
  roadmap: ``trend.linreg_slope``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

DEFECT_A = "defect A (trend.linreg_slope rounding flips the slope sign)"


# ---------------------------------------------------------------------------
# Policies as plain data


@dataclass(frozen=True)
class RefPolicy:
    """An intended policy reduced to the numbers the scoring rule needs."""

    refs: tuple  # reference states
    ideals: tuple  # ideal action per reference state
    state_kind: str  # "grid" or "box"
    state_lows: tuple
    state_highs: tuple
    action_kind: str  # "discrete" or "box"
    state_shape: tuple  # (kind, width or None)
    action_shape: tuple


def policy_from_file_dict(data: dict) -> RefPolicy:
    """Read a parsed ``fuzzoracle-policy`` file (docs/formats.md)."""
    state_space = data["state_space"]
    action_space = data["action_space"]
    state_kind = state_space["kind"]
    if state_kind == "grid":
        refs = tuple(tuple(int(v) for v in e["state"]) for e in data["entries"])
        lows = highs = ()
    else:
        refs = tuple(tuple(float(v) for v in e["state"]) for e in data["entries"])
        lows = tuple(state_space["lows"])
        highs = tuple(state_space["highs"])
    if action_space["kind"] == "discrete":
        ideals = tuple(int(e["action"]) for e in data["entries"])
    else:
        ideals = tuple(tuple(float(v) for v in e["action"]) for e in data["entries"])
    return RefPolicy(
        refs, ideals, state_kind, lows, highs, action_space["kind"],
        (data["state_shape"]["kind"], data["state_shape"]["width"]),
        (data["action_shape"]["kind"], data["action_shape"]["width"]),
    )


def policy_from_object(policy) -> RefPolicy:
    """Read the public fields of an in-memory intended policy."""
    space = policy.state_space
    is_grid = hasattr(space, "rows")
    return RefPolicy(
        tuple(s for s, _ in policy.entries),
        tuple(a for _, a in policy.entries),
        "grid" if is_grid else "box",
        () if is_grid else tuple(space.lows),
        () if is_grid else tuple(space.highs),
        "discrete" if hasattr(policy.action_space, "n") else "box",
        (policy.state_shape.kind, policy.state_shape.width),
        (policy.action_shape.kind, policy.action_shape.width),
    )


# ---------------------------------------------------------------------------
# Scoring, straight from the specification


def state_distance(p: RefPolicy, a, b) -> float:
    """Manhattan distance on grid cells; Euclidean on box coordinates
    normalised to [0, 1] per dimension."""
    if p.state_kind == "grid":
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))
    total = 0.0
    for x, y, lo, hi in zip(a, b, p.state_lows, p.state_highs):
        d = (x - y) / (hi - lo)
        total += d * d
    return math.sqrt(total)


def action_distance(p: RefPolicy, a, b) -> float:
    """Exact-match metric for discrete actions, plain Euclidean otherwise."""
    if p.action_kind == "discrete":
        return 0.0 if a == b else math.inf
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return math.sqrt(total)


def membership(kind: str, width, d: float) -> float:
    if kind == "indicator":
        return 1.0 if d == 0 else 0.0
    if d >= width:
        return 0.0
    ramp = 1.0 - d / width
    return ramp * ramp if kind == "quadratic" else ramp


def min_gap(p: RefPolicy) -> float:
    return min(
        state_distance(p, p.refs[i], p.refs[j])
        for i in range(len(p.refs))
        for j in range(i + 1, len(p.refs))
    )


def nearest(p: RefPolicy, state) -> tuple[int, float]:
    """Nearest reference by full scan; ties go to the lowest index."""
    best_i, best_d = 0, state_distance(p, state, p.refs[0])
    for i in range(1, len(p.refs)):
        d = state_distance(p, state, p.refs[i])
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def compliance_series(p: RefPolicy, epochs, theta_step: float, filter_mode: str) -> list:
    """Per-epoch compliance of ``epochs``, a list of [(state, action), ...].

    A step's state compliance is the state shape at its distance to the
    nearest reference, scaled by half the minimum reference gap, and zero
    beyond that half-gap; its action compliance is the action shape at the
    distance to that reference's ideal action; its step compliance is the
    product. Steps whose gated degree reaches ``theta_step`` are averaged
    with an exactly rounded sum; an epoch with none scores 0.
    """
    half = min_gap(p) / 2.0
    s_kind, s_width = p.state_shape
    a_kind, a_width = p.action_shape
    values = []
    for steps in epochs:
        qualifying = []
        for state, action in steps:
            i, d = nearest(p, state)
            mu_state = 0.0 if d > half else membership(
                s_kind, s_width if s_width is not None else half, d
            )
            mu_action = membership(a_kind, a_width, action_distance(p, action, p.ideals[i]))
            mu_step = mu_state * mu_action
            gate = mu_state if filter_mode == "state" else mu_step
            if gate >= theta_step:
                qualifying.append(mu_step)
        values.append(math.fsum(qualifying) / len(qualifying) if qualifying else 0.0)
    return values


def log_epochs(log) -> list:
    """A run log's epochs as plain [(state, action), ...] lists."""
    return [[(s.state, s.action) for s in epoch.steps] for epoch in log.epochs]


# ---------------------------------------------------------------------------
# Trend rule and vote


def exact_slope(values) -> Fraction:
    """Least-squares slope against indices 0..n-1 over exact rationals.

    With x centred, the slope is sum((2i - (n-1)) * y_i) / (n (n^2 - 1) / 6);
    every float is a rational, so nothing rounds.
    """
    n = len(values)
    num = sum((2 * i - (n - 1)) * Fraction(v) for i, v in enumerate(values))
    return num / Fraction(n * (n * n - 1), 6)


@dataclass(frozen=True)
class Health:
    healthy: bool
    slope_sign: int  # -1, 0 or 1, decided exactly
    convergence_index: int | None
    abnormality_found: bool


def health(values, window: int, epsilon: float, delta: float) -> Health:
    """The trend rule as the ``trend_analysis`` docstring states it.

    Unhealthy when the slope is negative; otherwise find the first window of
    ``window`` values whose max - min is at most ``epsilon``. After it, a
    run of ``window`` consecutive values strictly below the window's first
    value minus max(spread, delta) is a collapse. (The oracle also judges a
    run whose every epoch aborted unhealthy; callers add that.)
    """
    slope = exact_slope(values)
    sign = (slope > 0) - (slope < 0)
    if sign < 0:
        return Health(False, sign, None, False)
    cnvg = None
    for i in range(len(values) - window + 1):
        chunk = values[i : i + window]
        if max(chunk) - min(chunk) <= epsilon:
            cnvg = i
            break
    if cnvg is None:
        return Health(True, sign, None, False)
    chunk = values[cnvg : cnvg + window]
    lower = values[cnvg] - max(max(chunk) - min(chunk), delta)
    run = 0
    for v in values[cnvg + 1 :]:
        run = run + 1 if v < lower else 0
        if run >= window:
            return Health(False, sign, cnvg, True)
    return Health(True, sign, cnvg, False)


def label(healthy: int, policies: int, theta_oracle: float) -> str:
    """NonBuggy when the healthy fraction reaches the threshold, the
    boundary included."""
    return "NonBuggy" if Fraction(healthy, policies) >= Fraction(theta_oracle) else "Buggy"


def confusion(labels, ground_truth_buggy) -> dict:
    """Confusion counts with Buggy as the positive class."""
    out = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for label, buggy in zip(labels, ground_truth_buggy):
        flagged = label == "Buggy"
        key = ("tp" if flagged else "fn") if buggy else ("fp" if flagged else "tn")
        out[key] += 1
    return out


def float_sign(x: float) -> int:
    return (x > 0) - (x < 0)
