"""Built-in reference environments.

Two deterministic testbeds with pluggable reward functions:

* a frozen-lake style grid world (discrete states and actions), and
* a hill-car control problem (continuous states, a force action ``(force,)``).

The reward passed to the learner is whatever callable the caller injects,
which is how intended-policy rewards replace the native goal reward during
oracle runs. Without one, the native reward (:func:`native_reward`) applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compliance import TraceStep
from .errors import InvalidActionError, InvalidEnvSpecError, InvalidStateError
from .spaces import BoxSpace, DiscreteSpace, GridSpace, is_int

# Grid action ids follow the classic frozen-lake order.
LEFT, DOWN, RIGHT, UP = 0, 1, 2, 3
GRID_MOVES = {LEFT: (0, -1), DOWN: (1, 0), RIGHT: (0, 1), UP: (-1, 0)}

DEFAULT_HOLES = ((1, 1), (1, 3), (2, 3), (3, 0))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid with hole and goal cells; episodes start at (0, 0)."""

    rows: int = 4
    cols: int = 4
    holes: tuple = DEFAULT_HOLES
    goal: tuple = (3, 3)
    slip_prob: float = 0.0
    max_steps_per_epoch: int = 200

    kind = "grid"

    def __post_init__(self):
        space = GridSpace(self.rows, self.cols)
        if self.rows < 1 or self.cols < 1:
            raise InvalidEnvSpecError("grid needs at least one row and column")
        if self.max_steps_per_epoch < 1:
            raise InvalidEnvSpecError("max_steps_per_epoch must be >= 1")
        if not 0.0 <= self.slip_prob <= 1.0:
            raise InvalidEnvSpecError("slip_prob must lie in [0, 1]")
        if not space.contains(self.goal):
            raise InvalidEnvSpecError(f"goal {self.goal} outside the grid")
        for hole in self.holes:
            if not space.contains(hole):
                raise InvalidEnvSpecError(f"hole {hole} outside the grid")
        if self.goal in self.holes:
            raise InvalidEnvSpecError("goal cell cannot also be a hole")
        if (0, 0) in self.holes or (0, 0) == self.goal:
            raise InvalidEnvSpecError("start cell (0, 0) must be non-terminal")
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_terminal", frozenset(self.holes) | {self.goal})

    def state_space(self) -> GridSpace:
        return self._space

    def action_space(self) -> DiscreteSpace:
        return DiscreteSpace(4)

    def is_terminal(self, cell) -> bool:
        return cell in self._terminal

    def non_terminal_cells(self) -> list:
        return [c for c in self.state_space().all_cells() if not self.is_terminal(c)]


@dataclass(frozen=True)
class HillCarSpec:
    """Under-powered car in a valley; classic control constants."""

    min_position: float = -1.2
    max_position: float = 0.6
    max_speed: float = 0.07
    force: float = 0.0015
    gravity: float = 0.0025
    goal_position: float = 0.45
    max_steps_per_epoch: int = 200

    kind = "hillcar"

    def __post_init__(self):
        if not self.min_position < self.goal_position <= self.max_position:
            raise InvalidEnvSpecError("goal position must sit inside the track")
        if not self.max_speed > 0:
            raise InvalidEnvSpecError("max_speed must be positive")
        if self.max_steps_per_epoch < 1:
            raise InvalidEnvSpecError("max_steps_per_epoch must be >= 1")

    def state_space(self) -> BoxSpace:
        return BoxSpace(
            lows=(self.min_position, -self.max_speed),
            highs=(self.max_position, self.max_speed),
        )

    def action_space(self) -> BoxSpace:
        return BoxSpace(lows=(-1.0,), highs=(1.0,))


EnvSpec = GridSpec | HillCarSpec


class Transition(NamedTuple):
    state: tuple
    action: object
    reward: float
    next_state: tuple
    done: bool
    clamped: bool = False


# _new(Transition, fields) skips the argument handling of Transition(...),
# which every step would pay; likewise for TraceStep.
_new = tuple.__new__


def env_reset(spec: EnvSpec, rng) -> tuple:
    """Initial state for one epoch.

    The grid always starts at (0, 0). The hill car starts at a position
    drawn uniformly from [-0.6, -0.4] with zero velocity; ``rng`` is a
    numpy Generator or a seed for one.
    """
    if spec.kind == "grid":
        return (0, 0)
    gen = np.random.default_rng(rng)
    return (float(gen.uniform(-0.6, -0.4)), 0.0)


def native_reward(spec: EnvSpec, state, action, next_state, done) -> float:
    """The environment's own goal-seeking reward."""
    if spec.kind == "grid":
        return 1.0 if done and next_state == spec.goal else 0.0
    a = action[0]
    bonus = 100.0 if done and next_state[0] >= spec.goal_position else 0.0
    return bonus - 0.1 * a * a


def env_step(spec: EnvSpec, state, action, reward_fn=None, rng=None) -> Transition:
    """Advance one step; the reward is ``reward_fn(state, action)``.

    With ``reward_fn`` None the native reward applies. This is each
    environment's only step; a caller that steps many times with one
    reward, such as a training run, steps through :func:`env_stepper`.

    A grid step checks the action, then the state, which must be a cell of
    the grid (:meth:`~fuzzoracle.spaces.GridSpace.contains`) at every call.
    On a slip grid it then draws from ``np.random.default_rng(rng)``: with
    probability ``slip_prob`` (``random()``) the move carried out is one of
    the two perpendicular to ``action`` (``integers(0, 2)``, drawn only on
    a slip). The move is clamped to the grid.

    A hill-car step checks the action, a one-element tuple of a finite
    number, then the state, a ``(position, velocity)`` pair of the state
    space, and draws nothing. A force outside [-1, 1] is clamped and
    flagged on the transition rather than rejected, so misbehaving learners
    stay runnable; velocity and position are clamped to the track.
    """
    clamped = False
    if spec.kind == "grid":
        if not is_int(action) or action not in GRID_MOVES:
            raise InvalidActionError(f"grid action must be an int in 0..3, got {action!r}")
        if not spec._space.contains(state):
            raise InvalidStateError(f"grid state must be a cell of the grid, got {state!r}")
        effective = action
        if spec.slip_prob > 0.0:
            gen = np.random.default_rng(rng)
            if gen.random() < spec.slip_prob:
                effective = (action + (1, 3)[gen.integers(0, 2)]) % 4
        dr, dc = GRID_MOVES[effective]
        next_state = (
            min(max(state[0] + dr, 0), spec.rows - 1),
            min(max(state[1] + dc, 0), spec.cols - 1),
        )
        done = next_state in spec._terminal
    else:
        if not isinstance(action, tuple) or len(action) != 1:
            raise InvalidActionError(f"hill-car action must be a one-element tuple, got {action!r}")
        force = action[0]
        if type(force) is not float and (
            not isinstance(force, (int, float)) or isinstance(force, bool)
        ):
            raise InvalidActionError(f"hill-car action must be numeric, got {action!r}")
        if not math.isfinite(force):
            raise InvalidActionError(f"hill-car action must be finite, got {force}")
        if force < -1.0:
            force, clamped = -1.0, True
        elif force > 1.0:
            force, clamped = 1.0, True

        top, low, high = spec.max_speed, spec.min_position, spec.max_position
        try:
            position, velocity = state
            inside = low <= position <= high and -top <= velocity <= top
        except (TypeError, ValueError):
            inside = False
        if not inside:
            raise InvalidStateError(
                "hill-car state must be a (position, velocity) pair in the state space, "
                f"got {state!r}"
            )
        velocity = velocity + force * spec.force - spec.gravity * math.cos(3.0 * position)
        # Clamp to the track; comparisons are several times cheaper than min/max.
        velocity = -top if velocity < -top else top if velocity > top else velocity
        position += velocity
        position = low if position < low else high if position > high else position
        next_state = (position, velocity)
        done = position >= spec.goal_position
    reward = (
        reward_fn(state, action)
        if reward_fn is not None
        else native_reward(spec, state, action, next_state, done)
    )
    return _new(Transition, (state, action, reward, next_state, done, clamped))


def env_stepper(spec: EnvSpec, reward_fn=None, rng=None):
    """A callable ``(state, action) -> (Transition, TraceStep)``: the
    transition ``tr = env_step(spec, state, action, reward_fn, gen)``, where
    ``gen`` is one generator made from ``rng`` once, here, and the step's
    log record ``TraceStep(state, action, tr.reward)``. One closure pairs
    the two; the hill car and slip grids step through it at every call.

    On a slip-free grid, a step depends only on the cell and the action, so
    on condition that ``reward_fn`` depends on ``(state, action)`` alone, as
    the reward of :func:`~fuzzoracle.compliance.make_reward_fn` does, the
    stepper keeps a memo from each cell to the pairs of its four actions,
    built through that closure on the cell's first visit. A plain int
    action id reads the memo and returns the same two objects at every
    visit. Any other action, and a state that cannot be hashed, go to the
    closure.

    The memo finds a cell by equality: once ``(1, 0)`` was visited,
    ``(1.0, 0)`` reads the pair of ``(1, 0)``, whose state is ``(1, 0)``,
    where ``env_step`` raises. Training passes only the cells the
    environment returns, so no run meets such a state.
    """
    gen = np.random.default_rng(rng)

    def step(state, action) -> tuple:
        tr = env_step(spec, state, action, reward_fn, gen)
        return tr, _new(TraceStep, (state, action, tr[2]))

    if spec.kind != "grid" or spec.slip_prob > 0.0:
        return step
    table = {}

    def memo_step(state, action) -> tuple:
        if type(action) is int and 0 <= action <= 3:
            try:
                return table[state][action]
            except KeyError:
                pass
            except TypeError:
                return step(state, action)
            row = table[state] = tuple([step(state, a) for a in range(4)])
            return row[action]
        return step(state, action)

    return memo_step
