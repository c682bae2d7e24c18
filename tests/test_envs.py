import enum
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from fuzzoracle import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    GridSpec,
    HillCarSpec,
    OracleConfig,
    TraceStep,
    env_reset,
    env_step,
    make_reward_fn,
    native_reward,
    oracle_policies,
)
from fuzzoracle import envs
from fuzzoracle.envs import env_stepper
from fuzzoracle.errors import InvalidActionError, InvalidEnvSpecError, InvalidStateError


class TestSpecs:
    def test_grid_default_layout(self, grid_spec):
        assert grid_spec.goal == (3, 3)
        assert (1, 1) in grid_spec.holes
        assert len(grid_spec.non_terminal_cells()) == 11

    def test_grid_validation(self):
        with pytest.raises(InvalidEnvSpecError):
            GridSpec(goal=(9, 9))
        with pytest.raises(InvalidEnvSpecError):
            GridSpec(holes=((0, 0),))
        with pytest.raises(InvalidEnvSpecError):
            GridSpec(slip_prob=1.5)
        with pytest.raises(InvalidEnvSpecError):
            GridSpec(max_steps_per_epoch=0)

    def test_hillcar_validation(self):
        with pytest.raises(InvalidEnvSpecError):
            HillCarSpec(goal_position=-2.0)


class TestReset:
    def test_grid_starts_at_origin(self, grid_spec):
        for seed in (0, 1, 999):
            assert env_reset(grid_spec, seed) == (0, 0)

    def test_hillcar_reset_deterministic_per_seed(self):
        spec = HillCarSpec()
        assert env_reset(spec, 42) == env_reset(spec, 42)

    def test_hillcar_reset_sweep(self):
        spec = HillCarSpec()
        for seed in range(1000):
            pos, vel = env_reset(spec, seed)
            assert -0.6 <= pos <= -0.4
            assert vel == 0.0


class TestGridStep:
    def test_move_right(self, grid_spec):
        tr = env_step(grid_spec, (0, 0), RIGHT)
        assert tr.next_state == (0, 1)
        assert tr.done is False

    def test_wall_clamp(self, grid_spec):
        tr = env_step(grid_spec, (0, 3), RIGHT)
        assert tr.next_state == (0, 3)

    def test_hole_and_goal_are_terminal(self, grid_spec):
        assert env_step(grid_spec, (0, 1), DOWN).done is True
        assert env_step(grid_spec, (3, 2), RIGHT).done is True

    def test_invalid_action(self, grid_spec):
        for action in (7, (0.5,), True, 1.0, 4, -1):
            with pytest.raises(InvalidActionError):
                env_step(grid_spec, (0, 0), action)

    def test_int_subclass_action_accepted(self, grid_spec):
        class Move(enum.IntEnum):
            RIGHT = 2

        assert env_step(grid_spec, (0, 0), Move.RIGHT).next_state == (0, 1)

    def test_injected_reward_fn(self, grid_spec):
        tr = env_step(grid_spec, (2, 1), UP, reward_fn=lambda s, a: 42.0)
        assert tr.reward == 42.0

    def test_native_reward_only_at_goal(self, grid_spec):
        assert env_step(grid_spec, (3, 2), RIGHT).reward == 1.0
        assert env_step(grid_spec, (0, 0), RIGHT).reward == 0.0

    def test_deterministic_without_slip(self, grid_spec):
        a = env_step(grid_spec, (2, 1), LEFT)
        b = env_step(grid_spec, (2, 1), LEFT)
        assert a == b

    def test_slip_changes_outcomes_reproducibly(self):
        spec = GridSpec(slip_prob=1.0)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = env_step(spec, (2, 1), UP, rng=rng1)
        b = env_step(spec, (2, 1), UP, rng=rng2)
        assert a == b
        # With certain slip the move is perpendicular to the intent.
        assert a.next_state in ((2, 0), (2, 2))

    @pytest.mark.parametrize("state, action", [
        ((7, 7), LEFT), ((0.5, 0), RIGHT), ([0, 0], RIGHT),
    ], ids=["outside", "float_coordinate", "list"])
    def test_state_not_a_cell_raises(self, grid_spec, state, action):
        with pytest.raises(InvalidStateError, match=re.escape(repr(state))):
            env_step(grid_spec, state, action)

    def test_a_float_coordinate_raises_after_its_cell_was_stepped_from(self, grid_spec):
        env_step(grid_spec, (1, 0), DOWN)
        for _ in range(2):
            with pytest.raises(InvalidStateError, match=re.escape(repr((1.0, 0)))):
                env_step(grid_spec, (1.0, 0), DOWN)


def clamped_move(spec, state, action):
    """The successor and terminal flag by the clamp formula."""
    dr, dc = {LEFT: (0, -1), DOWN: (1, 0), RIGHT: (0, 1), UP: (-1, 0)}[action]
    cell = (
        min(max(state[0] + dr, 0), spec.rows - 1),
        min(max(state[1] + dc, 0), spec.cols - 1),
    )
    return cell, cell == spec.goal or cell in spec.holes


class TestMoveTable:
    # Not square, with holes, goal in a corner.
    spec = GridSpec(rows=3, cols=5, holes=((1, 1), (0, 3), (2, 2)), goal=(2, 4))

    def test_every_cell_and_action_follows_the_clamp_formula(self):
        for state in self.spec.state_space().all_cells():
            for action in (LEFT, DOWN, RIGHT, UP):
                tr = env_step(self.spec, state, action)
                assert (tr.next_state, tr.done) == clamped_move(self.spec, state, action)
                assert type(tr.next_state[0]) is int and type(tr.done) is bool

    def test_slip_takes_the_same_seeded_draw(self):
        spec = GridSpec(rows=3, cols=5, holes=self.spec.holes, goal=(2, 4), slip_prob=0.4)
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        cells = spec.state_space().all_cells()
        for i in range(400):
            state, action = cells[i % len(cells)], i % 4
            effective = action
            if reference.random() < spec.slip_prob:
                effective = int((action + 1, action + 3)[reference.integers(0, 2)]) % 4
            tr = env_step(spec, state, action, rng=rng)
            assert (tr.next_state, tr.done) == clamped_move(spec, state, effective)
        assert rng.random() == reference.random()

    def test_a_large_grid_spec_keeps_nothing_of_its_steps(self):
        spec = GridSpec(rows=10_000, cols=10_000, holes=(), goal=(9_999, 9_999))
        state = (0, 0)
        for action in (RIGHT, DOWN, DOWN, LEFT, RIGHT):
            state = env_step(spec, state, action).next_state
        assert state == (2, 1)
        # A stepped spec pickles to the bytes of a fresh equal one.
        fresh = GridSpec(rows=10_000, cols=10_000, holes=(), goal=(9_999, 9_999))
        assert pickle.dumps(spec) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_a_reused_transition_holds_the_given_fields(self):
        # A repeated step may return the transition built before; a step
        # that differs in its reward, its state object or its action may not.
        spec = GridSpec(slip_prob=0.5)
        half = float("0.5")
        rng = np.random.default_rng(3)
        steps = [((1, 0), RIGHT, half), ((1, 0), RIGHT, half), ((1, 0), RIGHT, 0.25)] + [
            ((1, 0), a, half) for a in (0, 1, 2, 3) * 20
        ]
        for state, action, reward in steps:
            tr = env_step(spec, state, action, lambda s, a: reward, rng)
            assert tr.state is state and tr.action == action and tr.reward is reward


def outcome(step, *args):
    """What ``step(*args)`` returns, or the type and message it raises."""
    try:
        return step(*args)
    except Exception as exc:
        return type(exc), str(exc)


def stepped(step, state, action):
    """The transition of ``step(state, action)``, once its record is checked
    to be the step's :class:`TraceStep`."""
    tr, record = step(state, action)
    assert type(record) is TraceStep
    assert record == TraceStep(state, action, tr.reward)
    return tr


class TestStepper:
    """env_stepper against env_step, which its transitions must equal step
    for step; each comes with the step's log record."""

    spec = TestMoveTable.spec

    def policy_reward(self, spec):
        policy = oracle_policies(spec, OracleConfig(policies=1, master_seed=5))[0]
        return make_reward_fn(policy)

    @pytest.mark.parametrize("rewarded", [False, True], ids=["native", "policy"])
    def test_every_cell_and_action_equals_env_step(self, rewarded):
        reward_fn = self.policy_reward(self.spec) if rewarded else None
        step = env_stepper(self.spec, reward_fn)
        rewards = set()
        for _ in range(2):
            for state in self.spec.state_space().all_cells():
                for action in (LEFT, DOWN, RIGHT, UP):
                    tr = stepped(step, state, action)
                    assert tr == env_step(self.spec, state, action, reward_fn)
                    assert type(tr.reward) is float and type(tr.action) is int
                    rewards.add(tr.reward)
        assert len(rewards) > 1

    @pytest.mark.parametrize("action", [True, -1, 4, 1.0, None, np.int64(1), (1,)],
                             ids=["true", "minus_one", "four", "float", "none",
                                  "numpy_int", "tuple"])
    def test_a_bad_action_raises_as_env_step_does(self, action):
        step = env_stepper(self.spec)
        step((0, 0), LEFT)
        # A cell in the memo, one not yet visited, and two bad states: the
        # action is checked first.
        for state in ((0, 0), (1, 0), (9, 9), [0, 0]):
            expected = outcome(env_step, self.spec, state, action)
            assert expected[0] is InvalidActionError
            assert outcome(step, state, action) == expected

    def test_an_int_subclass_action_steps(self):
        class Move(enum.IntEnum):
            RIGHT = 2

        step = env_stepper(self.spec)
        step((0, 0), RIGHT)
        tr = stepped(step, (0, 0), Move.RIGHT)
        assert tr == env_step(self.spec, (0, 0), Move.RIGHT) and tr.next_state == (0, 1)
        assert tr.action is Move.RIGHT

    @pytest.mark.parametrize("state", [(4, 0), [0, 0], (0,), None, (1.0, 0)],
                             ids=["outside", "list", "short", "none", "float_coordinate"])
    def test_a_bad_state_raises_as_env_step_does(self, state):
        # A spec of its own, so no other test has stepped from (1, 0).
        spec = GridSpec(rows=3, cols=5, holes=self.spec.holes, goal=self.spec.goal)
        reward_fn = self.policy_reward(spec)
        step = env_stepper(spec, reward_fn)
        for action in (LEFT, UP, True):
            expected = outcome(env_step, spec, state, action, reward_fn)
            assert expected[0] in (InvalidStateError, InvalidActionError)
            assert outcome(step, state, action) == expected

    def test_a_float_cell_reads_the_cell_once_it_was_visited(self):
        # The memo finds a cell by equality and checks a state only on a
        # miss; env_step checks it at every call.
        spec = GridSpec(rows=3, cols=5, holes=self.spec.holes, goal=self.spec.goal)
        reward_fn = self.policy_reward(spec)
        step = env_stepper(spec, reward_fn)
        expected = outcome(env_step, spec, (1.0, 0), DOWN, reward_fn)
        assert expected[0] is InvalidStateError
        assert outcome(step, (1.0, 0), DOWN) == expected
        visited = step((1, 0), DOWN)
        assert step((1.0, 0), DOWN) is visited
        assert outcome(env_step, spec, (1.0, 0), DOWN, reward_fn) == expected

    def test_a_slip_grid_takes_the_same_seeded_draws(self):
        spec = GridSpec(rows=3, cols=5, holes=self.spec.holes, goal=(2, 4), slip_prob=0.4)
        reward_fn = self.policy_reward(spec)
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        step = env_stepper(spec, reward_fn, rng)
        cells = spec.state_space().all_cells()
        for i in range(400):
            state, action = cells[i % len(cells)], i % 4
            tr = stepped(step, state, action)
            assert tr == env_step(spec, state, action, reward_fn, reference)
        assert rng.random() == reference.random()

    def test_a_slip_stepper_given_a_seed_draws_from_one_generator(self):
        # A seed makes one generator for the stepper's life, so its steps
        # equal those of a stepper given that seed's generator, and slip.
        spec = GridSpec(slip_prob=0.5)
        seeded = env_stepper(spec, None, 7)
        given = env_stepper(spec, None, np.random.default_rng(7))
        moves = Counter()
        for _ in range(40):
            tr = stepped(seeded, (0, 0), RIGHT)
            assert tr == stepped(given, (0, 0), RIGHT)
            moves[tr.next_state] += 1
        assert moves[(0, 1)] and len(moves) == 3

    def test_a_slip_stepper_with_the_native_reward_equals_env_step(self):
        # From (3, 2) neither UP nor DOWN reaches the goal, but a slip to the
        # right does, so the native reward depends on the move carried out.
        spec = GridSpec(slip_prob=0.5)
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        step = env_stepper(spec, None, rng)
        rewards = Counter()
        for i in range(200):
            action = (UP, DOWN)[i % 2]
            tr = stepped(step, (3, 2), action)
            assert tr == env_step(spec, (3, 2), action, None, reference)
            rewards[tr.reward] += 1
        assert rewards[1.0] and rewards[0.0]
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("rewarded", [False, True], ids=["native", "policy"])
    def test_hillcar_transitions_are_equal_bit_for_bit(self, rewarded):
        spec = HillCarSpec()
        reward_fn = self.policy_reward(spec) if rewarded else None
        step = env_stepper(spec, reward_fn)
        rng = np.random.default_rng(7)
        space = spec.state_space()

        def bits(tr):
            return (tr.state, tr.action, tr.reward.hex(),
                    tuple(x.hex() for x in tr.next_state), tr.done, tr.clamped)

        clamped = 0
        for _ in range(300):
            state = tuple(float(rng.uniform(lo, hi)) for lo, hi in zip(space.lows, space.highs))
            action = (float(rng.uniform(-3.0, 3.0)),)
            tr, record = step(state, action)
            assert bits(tr) == bits(env_step(spec, state, action, reward_fn))
            assert tr.state is state
            assert type(record) is TraceStep and record.state is state
            assert (record.state, record.action, record.reward.hex()) == bits(tr)[:3]
            clamped += tr.clamped
        assert 0 < clamped < 300
        for args in (((-0.5, 0.0), (math.nan,)), ((5.0, 0.0), (0.0,)), ((-0.5, 0.0), "left")):
            expected = outcome(env_step, spec, *args)
            assert expected[0] in (InvalidStateError, InvalidActionError)
            assert outcome(step, *args) == expected

    @pytest.mark.parametrize("rewarded", [False, True], ids=["native", "policy"])
    def test_a_hill_car_step_builds_its_transition_and_a_stepper_adds_its_record(
        self, monkeypatch, rewarded
    ):
        # env_step builds no record it would drop; the stepper builds the
        # record from the state and action it was given.
        built = []

        def counted(cls, fields):
            built.append(cls)
            return tuple.__new__(cls, fields)

        monkeypatch.setattr(envs, "_new", counted)
        spec = HillCarSpec()
        reward_fn = self.policy_reward(spec) if rewarded else None
        step = env_stepper(spec, reward_fn)
        for state, action in (((-0.5, 0.0), (0.25,)), ((0.2, -0.01), (-3.0,))):
            env_step(spec, state, action, reward_fn)
            assert built == [envs.Transition]
            built.clear()
            tr, record = step(state, action)
            assert built == [envs.Transition, TraceStep]
            assert record.state is state and record.action is action
            assert record.reward == tr.reward
            built.clear()

    def test_a_repeated_step_with_a_policy_reward_returns_the_same_pair(self):
        # A stepper builds each (cell, action) transition and record once,
        # nonzero rewards included, and a repeated step returns them again.
        spec = GridSpec()
        policy = oracle_policies(spec, OracleConfig(policies=1, master_seed=3))[0]
        step = env_stepper(spec, make_reward_fn(policy))
        rewards = []
        for cell in spec.non_terminal_cells():
            for action in (UP, RIGHT, DOWN, LEFT):
                first = step(cell, action)
                assert step(cell, action) is first
                rewards.append(stepped(step, cell, action).reward)
        assert any(r != 0.0 for r in rewards) and 0.0 in rewards

    def test_a_slip_free_stepper_steps_each_visited_cell_four_times(self, monkeypatch):
        # A cell's first visit builds its row through env_step, one call per
        # action; every later step of a plain action id reads the memo.
        calls = Counter()

        def counted(spec, state, action, *args):
            calls[state] += 1
            return env_step(spec, state, action, *args)

        monkeypatch.setattr(envs, "env_step", counted)
        step = env_stepper(self.spec, self.policy_reward(self.spec))
        cells = self.spec.non_terminal_cells()
        for cell in cells:
            for action in (UP, RIGHT, UP, DOWN, LEFT):
                step(cell, action)
                assert calls[cell] == 4
        assert sum(calls.values()) == 4 * len(cells)
        for cell in cells:
            step(cell, RIGHT)
        assert sum(calls.values()) == 4 * len(cells)

    def test_a_pure_reward_is_called_once_per_cell_and_action(self):
        spec = GridSpec(rows=3, cols=5, holes=self.spec.holes, goal=self.spec.goal)
        reward = self.policy_reward(spec)
        calls = Counter()

        def counted(state, action):
            calls[state, action] += 1
            return reward(state, action)

        step = env_stepper(spec, counted)
        rng = np.random.default_rng(2)
        for _ in range(50):
            state = (0, 0)
            for _ in range(40):
                tr = stepped(step, state, int(rng.integers(0, 4)))
                if tr.done:
                    break
                state = tr.next_state
        assert calls and max(calls.values()) == 1
        assert len(calls) == 4 * len({s for s, _ in calls})


class TestHillCarStep:
    def test_zero_gravity_point(self):
        # cos(3 * pi/6) = 0, so with no force the velocity stays zero.
        spec = HillCarSpec()
        tr = env_step(spec, (math.pi / 6, 0.0), (0.0,))
        assert tr.next_state[1] == pytest.approx(0.0, abs=1e-15)

    def test_force_accelerates(self):
        spec = HillCarSpec()
        tr = env_step(spec, (-0.5, 0.0), (1.0,))
        expected = 1.0 * spec.force - spec.gravity * math.cos(3.0 * -0.5)
        assert tr.next_state[1] == pytest.approx(expected)
        assert tr.next_state[0] == pytest.approx(-0.5 + tr.next_state[1])

    def test_goal_terminates(self):
        spec = HillCarSpec()
        tr = env_step(spec, (0.449, 0.07), (1.0,))
        assert tr.done is True

    def test_out_of_range_action_clamped_and_flagged(self):
        spec = HillCarSpec()
        tr = env_step(spec, (-0.5, 0.0), (3.0,))
        assert tr.clamped is True
        capped = env_step(spec, (-0.5, 0.0), (1.0,))
        assert tr.next_state == capped.next_state

    def test_velocity_clamped_to_bounds(self):
        spec = HillCarSpec()
        state = (-0.5, 0.069)
        for _ in range(10):
            tr = env_step(spec, state, (1.0,))
            state = tr.next_state
            assert -spec.max_speed <= state[1] <= spec.max_speed

    def test_invalid_action_kinds(self):
        spec = HillCarSpec()
        with pytest.raises(InvalidActionError):
            env_step(spec, (-0.5, 0.0), (0.1, 0.2))
        with pytest.raises(InvalidActionError):
            env_step(spec, (-0.5, 0.0), "left")
        with pytest.raises(InvalidActionError):
            env_step(spec, (-0.5, 0.0), (math.nan,))

    @pytest.mark.parametrize("force", [True, False, None, "a", [0.5], 1j],
                             ids=["true", "false", "none", "str", "list", "complex"])
    def test_tuple_element_is_checked_as_a_bare_action(self, force):
        # (True,) must not step with a force of 1, nor (None,) raise a
        # TypeError, which the training loop does not catch.
        spec = HillCarSpec()
        with pytest.raises(InvalidActionError):
            env_step(spec, (-0.5, 0.0), force)
        with pytest.raises(InvalidActionError, match=re.escape(repr((force,)))):
            env_step(spec, (-0.5, 0.0), (force,))

    @pytest.mark.parametrize("force", [1, 0.5, np.float64(0.5), -3],
                             ids=["int", "float", "numpy_float", "clamped_int"])
    def test_a_tuple_steps_and_its_bare_element_is_refused(self, force):
        # An action is a point of the one-coordinate action space, as every
        # built-in learner emits it; a bare number would log an action the
        # scorer and the trace writer refuse.
        spec = HillCarSpec()
        tr = env_step(spec, (-0.5, 0.0), (force,))
        assert tr[3:] == env_step(spec, (-0.5, 0.0), (float(force),))[3:]
        refusal = "one-element tuple, got " + re.escape(repr(force))
        with pytest.raises(InvalidActionError, match=refusal):
            env_step(spec, (-0.5, 0.0), force)

    @pytest.mark.parametrize("state", [
        (-0.5,), (-0.5, 0.0, 0.0), -0.5, (5.0, 0.0), (-1.3, 0.0), (-0.5, 0.08),
        (math.nan, 0.0), (-0.5, math.nan), ("-0.5", 0.0),
    ], ids=["short", "long", "scalar", "past_the_top", "past_the_bottom", "too_fast",
            "nan_position", "nan_velocity", "string"])
    def test_state_outside_the_state_space_raises(self, state):
        with pytest.raises(InvalidStateError, match=re.escape(repr(state))):
            env_step(HillCarSpec(), state, (0.0,))

    def test_native_reward_penalizes_effort(self):
        spec = HillCarSpec()
        assert native_reward(spec, (-0.5, 0.0), (0.5,), (-0.5, 0.001), False) == (
            pytest.approx(-0.1 * 0.25)
        )


class TestContainmentFuzz:
    def test_grid_states_stay_in_bounds(self, grid_spec):
        rng = np.random.default_rng(0)
        space = grid_spec.state_space()
        for _ in range(30):
            state = (0, 0)
            for _ in range(grid_spec.max_steps_per_epoch):
                tr = env_step(grid_spec, state, int(rng.integers(0, 4)))
                assert space.contains(tr.next_state)
                if tr.done:
                    break
                state = tr.next_state

    def test_hillcar_states_stay_in_bounds(self):
        spec = HillCarSpec(max_steps_per_epoch=120)
        space = spec.state_space()
        rng = np.random.default_rng(1)
        for seed in range(10):
            state = env_reset(spec, seed)
            for _ in range(spec.max_steps_per_epoch):
                tr = env_step(spec, state, (float(rng.uniform(-1, 1)),))
                assert space.contains(tr.next_state)
                if tr.done:
                    break
                state = tr.next_state
