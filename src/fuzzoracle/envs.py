"""Built-in reference environments.

Two deterministic testbeds with pluggable reward functions:

* a frozen-lake style grid world (discrete states and actions), and
* a hill-car control problem (continuous states, scalar force action).

The reward passed to the learner is whatever callable the caller injects,
which is how intended-policy rewards replace the native goal reward during
oracle runs. Without one, the native reward (:func:`native_reward`) applies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidActionError, InvalidEnvSpecError, InvalidStateError
from .spaces import BoxSpace, DiscreteSpace, GridSpace

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
        terminal = frozenset(self.holes) | {self.goal}
        object.__setattr__(self, "_terminal", terminal)
        object.__setattr__(self, "_moves", _GridMoves(space, terminal))

    def state_space(self) -> GridSpace:
        return GridSpace(self.rows, self.cols)

    def action_space(self) -> DiscreteSpace:
        return DiscreteSpace(4)

    def is_terminal(self, cell) -> bool:
        return cell in self._terminal

    def non_terminal_cells(self) -> list:
        return [c for c in self.state_space().all_cells() if not self.is_terminal(c)]


class _GridMoves(dict):
    """cell -> one ``(next_cell, done)`` slot per action id, filled on first
    visit.

    It keeps the grid's space and terminal cells, not the spec, so a large
    grid costs only the cells stepped from, and it pickles empty. A key that
    is not a cell of the grid raises :class:`InvalidStateError` here; one
    equal to a cell already in the table, such as ``(1.0, 0)`` once
    ``(1, 0)`` was stepped from, reads that cell's moves.
    """

    def __init__(self, space: GridSpace, terminal: frozenset):
        super().__init__()
        self._space, self._terminal = space, terminal

    def __missing__(self, cell):
        space = self._space
        if not space.contains(cell):
            raise InvalidStateError(f"grid state must be a cell of the grid, got {cell!r}")
        moves = []
        for action in range(len(GRID_MOVES)):
            dr, dc = GRID_MOVES[action]
            nr = min(max(cell[0] + dr, 0), space.rows - 1)
            nc = min(max(cell[1] + dc, 0), space.cols - 1)
            moves.append(((nr, nc), (nr, nc) in self._terminal))
        hit = self[cell] = tuple(moves)
        return hit

    def __reduce__(self):
        return type(self), (self._space, self._terminal)


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
# which every step would pay.
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
    a = action[0] if isinstance(action, tuple) else action
    bonus = 100.0 if done and next_state[0] >= spec.goal_position else 0.0
    return bonus - 0.1 * a * a


def env_step(spec: EnvSpec, state, action, reward_fn=None, rng=None) -> Transition:
    """Advance one step; the reward is ``reward_fn(state, action)``.

    With ``reward_fn`` None the native reward applies. Out-of-range
    hill-car forces are clamped and flagged on the transition rather than
    rejected, so misbehaving learners stay runnable.

    The grid step runs inline, without a call of its own. A caller that
    steps many times with one reward, such as a training run, steps through
    :func:`env_stepper` instead.
    """
    if spec.kind != "grid":
        return _hillcar_step(spec, reward_fn, state, action)
    # A plain int action id skips the isinstance checks and GRID_MOVES;
    # int subclasses other than bool are accepted as before.
    if not (type(action) is int and 0 <= action <= 3) and (
        not isinstance(action, int) or isinstance(action, bool) or action not in GRID_MOVES
    ):
        raise InvalidActionError(f"grid action must be an int in 0..3, got {action!r}")
    try:
        moves = spec._moves[state]
    except TypeError:
        raise InvalidStateError(f"grid state must be a cell of the grid, got {state!r}") from None
    effective = action
    if spec.slip_prob > 0.0:
        gen = np.random.default_rng(rng)
        if gen.random() < spec.slip_prob:
            # Slip to one of the two perpendicular directions.
            sideways = (action + 1, action + 3)
            effective = int(sideways[gen.integers(0, 2)]) % 4
    next_state, done = moves[effective]
    reward = (
        reward_fn(state, action)
        if reward_fn is not None
        else native_reward(spec, state, action, next_state, done)
    )
    return _new(Transition, (state, action, reward, next_state, done, False))


def env_stepper(spec: EnvSpec, reward_fn=None, rng=None):
    """A callable ``(state, action) -> Transition`` equal to
    ``env_step(spec, state, action, reward_fn, rng)``, on condition that
    ``reward_fn`` depends on ``(state, action)`` alone, as the reward of
    :func:`~fuzzoracle.compliance.make_reward_fn` does.

    On a grid without slip a transition depends only on the cell and the
    action, so the stepper keeps a memo from each cell to its 4
    transitions, built by :func:`env_step` on the cell's first visit; every
    state check and error is then ``env_step``'s own. A plain int action
    id reads the memo, which finds a cell by equality, as ``env_step``
    does. Any other action, and a state that cannot be hashed, goes to
    ``env_step``. A memo transition's ``state`` equals the given state but
    may be another tuple object. A slip grid steps through ``env_step``,
    drawing from ``rng``. The hill-car stepper is the step itself, with no
    call of its own and no memo: the given state is the transition's state.
    """
    if spec.kind != "grid":
        return functools.partial(_hillcar_step, spec, reward_fn)
    if spec.slip_prob > 0.0:
        return lambda state, action: env_step(spec, state, action, reward_fn, rng)
    table = {}
    actions = range(len(GRID_MOVES))

    def step(state, action) -> Transition:
        if type(action) is int and 0 <= action <= 3:
            try:
                return table[state][action]
            except KeyError:
                pass
            except TypeError:
                return env_step(spec, state, action, reward_fn)
            row = table[state] = tuple([env_step(spec, state, a, reward_fn) for a in actions])
            return row[action]
        return env_step(spec, state, action, reward_fn)

    return step


def _hillcar_step(spec: HillCarSpec, reward_fn, state, action) -> Transition:
    if isinstance(action, tuple):
        if len(action) != 1:
            raise InvalidActionError(f"hill-car action must be scalar, got {action!r}")
        force = action[0]
        if type(force) is not float and (
            not isinstance(force, (int, float)) or isinstance(force, bool)
        ):
            raise InvalidActionError(f"hill-car action must be numeric, got {action!r}")
    elif isinstance(action, (int, float)) and not isinstance(action, bool):
        force = float(action)
    else:
        raise InvalidActionError(f"hill-car action must be numeric, got {action!r}")
    if not math.isfinite(force):
        raise InvalidActionError(f"hill-car action must be finite, got {force}")

    clamped = False
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
            f"hill-car state must be a (position, velocity) pair in the state space, got {state!r}"
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
