import enum
import struct
from collections import namedtuple
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fuzzoracle import (
    AgentConfig,
    ComplianceSeries,
    EpochTrace,
    HillCarSpec,
    IntendedPolicy,
    RunLog,
    TraceStep,
    fuzzy_reward,
    generate_policies,
    make_reward_fn,
    policy_compliance_series,
    run_training_phase,
    step_compliance,
    step_compliance_at,
)
from fuzzoracle import compliance
from fuzzoracle.errors import (
    ActionKindMismatchError,
    EmptyLogError,
    InvalidMembershipError,
    InvalidStateError,
)
from fuzzoracle.membership import MembershipShape
from fuzzoracle.spaces import BoxSpace, DiscreteSpace, GridSpace, continuous_action_distance

from conftest import brute_force_series


class TestStateCompliance:
    """The state degree of :func:`step_compliance_at`, at a state's ideal
    action. On ``two_ref_policy`` the references are 4 cells apart, so the
    half-gap is 2."""

    def test_zero_distance_full_membership(self, two_ref_policy):
        assert step_compliance_at(two_ref_policy, (0, 0), 2) == (1.0, 1.0, 1.0)

    def test_beyond_half_gap_cutoff(self, two_ref_policy):
        # (0, 3) is 3 cells from both references.
        assert step_compliance_at(two_ref_policy, (0, 3), 2)[0] == 0.0

    def test_linear_ramp_over_the_half_gap(self, two_ref_policy):
        # One cell from (0, 0) scores 1 - 1/2; (1, 1) is 2 cells from both
        # references, at the half-gap itself, and takes the first.
        assert step_compliance_at(two_ref_policy, (0, 1), 2) == (0.5, 1.0, 0.5)
        assert step_compliance_at(two_ref_policy, (1, 1), 2) == (0.0, 1.0, 0.0)

    def test_shape_width_is_honoured(self, two_ref_policy):
        # The shape's own width sets the ramp, and the hard zero still
        # sits at the half-gap.
        narrow = replace(two_ref_policy, state_shape=MembershipShape("linear", width=1.0))
        assert step_compliance_at(narrow, (0, 1), 2)[0] == 0.0
        wide = replace(two_ref_policy, state_shape=MembershipShape("linear", width=4.0))
        assert step_compliance_at(wide, (0, 1), 2)[0] == 0.75
        assert step_compliance_at(wide, (1, 1), 2)[0] == 0.5
        assert step_compliance_at(wide, (0, 3), 2)[0] == 0.0

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_in_unit_interval_and_cutoff(self, two_ref_policy, kind):
        policy = replace(two_ref_policy, state_shape=MembershipShape(kind))
        for cell in GridSpace(4, 4).all_cells():
            mu = step_compliance_at(policy, cell, 2)[0]
            distance = min(abs(cell[0] - r) + abs(cell[1] - c) for (r, c), _ in policy.entries)
            assert 0.0 <= mu <= 1.0
            assert (mu == 0.0) == (distance >= 2)


class TestActionCompliance:
    """The action degree of :func:`step_compliance_at`, at a reference."""

    def test_discrete_equal(self, two_ref_policy):
        assert step_compliance_at(two_ref_policy, (2, 2), 1) == (1.0, 1.0, 1.0)

    def test_discrete_unequal(self, two_ref_policy):
        assert step_compliance_at(two_ref_policy, (2, 2), 3) == (1.0, 0.0, 0.0)

    def test_continuous_diameter_normalized(self):
        # Scalar action range [-1, 1]: diameter 2, so 0.5 away scores 0.75.
        policy = IntendedPolicy(
            [((0.0,), (0.0,)), ((1.0,), (0.5,))],
            BoxSpace((0.0,), (1.0,)), BoxSpace((-1.0,), (1.0,)),
        )
        assert step_compliance_at(policy, (0.0,), (0.5,)) == (1.0, 0.75, 0.75)
        assert step_compliance_at(policy, (1.0,), (-0.5,)) == (1.0, 0.5, 0.5)

    def test_kind_mismatch(self, two_ref_policy):
        with pytest.raises(ActionKindMismatchError):
            step_compliance_at(two_ref_policy, (0, 0), (0.4,))


Force = namedtuple("Force", "force")


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return struct.pack("<d", fn(*args))
    except Exception as error:
        return type(error), str(error)


class TestActionKindChecks:
    """Every action is checked by the action metric, except by the reward at
    a state of degree 0, which scores 0.0 first."""

    @pytest.mark.parametrize("action", [True, 1.0, "1"])
    def test_grid_policy_rejects_non_int_actions(self, two_ref_policy, action):
        # The step before it equals it when the action is True or 1.0.
        steps = (TraceStep((0, 0), 1), TraceStep((0, 0), action))
        log = RunLog(1, (EpochTrace(steps, 1),))
        with pytest.raises(ActionKindMismatchError):
            make_reward_fn(two_ref_policy)((0, 0), action)
        with pytest.raises(ActionKindMismatchError):
            fuzzy_reward((0, 0), action, two_ref_policy)
        with pytest.raises(ActionKindMismatchError):
            policy_compliance_series(two_ref_policy, log, 0.3)

    def test_grid_policy_scores_int_subclass_actions(self, two_ref_policy):
        class Move(enum.IntEnum):
            DOWN = 1
            RIGHT = 2

        reward = make_reward_fn(two_ref_policy)
        assert reward((0, 0), Move.RIGHT) == 1.0
        assert reward((0, 0), Move.DOWN) == 0.0

    def test_action_shape_without_width_still_raises(self, two_ref_policy):
        # A scaled action shape has nothing to fall back on, so the policy
        # is rejected when it is built, before anything is scored.
        with pytest.raises(ValueError):
            IntendedPolicy(
                [((0, 0), 2), ((2, 2), 1)], GridSpace(4, 4), DiscreteSpace(4),
                action_shape=MembershipShape("linear"),
            )
        with pytest.raises(ValueError):
            replace(two_ref_policy, action_shape=MembershipShape("quadratic"))

    def test_non_int_ideal_action_still_rejected(self, two_ref_policy):
        with pytest.raises(ValueError, match="ideal action 2.0 outside the action space"):
            replace(two_ref_policy, entries=(((0, 0), 2.0), ((2, 2), 1)))

    def test_out_of_range_int_actions_score_zero(self):
        # The ideal action at (0, 0) is UP, the last id, so reading a cell's
        # rewards at index -1 would give 1.0.
        policy = IntendedPolicy(
            [((0, 0), 3), ((2, 2), 1)], GridSpace(4, 4), DiscreteSpace(4)
        )
        reward = make_reward_fn(policy)
        assert [reward((0, 0), -1), reward((0, 0), 4)] == [0.0, 0.0]
        assert reward((0, 0), 3) == 1.0
        assert [reward((0, 0), -1), reward((0, 0), 4)] == [0.0, 0.0]

    @pytest.mark.parametrize("action", [True, 1.0])
    def test_non_int_action_at_zero_degree_cell_scores_zero(self, two_ref_policy, action):
        # (0, 3) is 3 cells from both references, beyond the half-gap of 2,
        # so the state degree is 0 and the action is never checked.
        reward = make_reward_fn(two_ref_policy)
        assert reward((0, 3), action) == 0.0
        assert reward((0, 3), 1) == 0.0
        assert reward((0, 3), action) == 0.0

    @pytest.mark.parametrize(
        "state, error", [([0, 0], None), (None, TypeError), ((0,), InvalidStateError)]
    )
    @pytest.mark.parametrize("action", [1, True, -1])
    def test_non_cell_state_raises_before_the_action_is_checked(
        self, two_ref_policy, state, error, action
    ):
        reward = make_reward_fn(two_ref_policy)
        reward((0, 0), 1)
        if error is None:
            # A list of a cell's coordinates is measured as that cell, by the
            # reward as by fuzzy_reward: a value, or the action's error.
            expected = outcome(fuzzy_reward, state, action, two_ref_policy)
            assert outcome(reward, state, action) == expected
            return
        with pytest.raises(error):
            reward(state, action)

    def test_hillcar_policy_rejects_int_action(self):
        policy = generate_policies(HillCarSpec(), 1, 3, 0)[0]
        state = policy.entries[0][0]
        log = RunLog(1, (EpochTrace((TraceStep(state, 1),), 1),))
        with pytest.raises(ActionKindMismatchError):
            make_reward_fn(policy)(state, 1)
        with pytest.raises(ActionKindMismatchError):
            policy_compliance_series(policy, log, 0.3)

    @pytest.mark.parametrize(
        "action",
        [Force(0.25), [0.25], (0.25, 0.5), (), (None,), ("a",), (True,), (0.25,), (1,)],
        ids=["namedtuple", "list", "arity", "empty", "none", "str", "bool", "float", "int"],
    )
    def test_hillcar_reward_takes_what_the_metric_takes(self, action):
        # At a reference state the state degree is exactly 1, so the reward
        # is the action degree through the action metric.
        policy = generate_policies(HillCarSpec(), 1, 3, 0)[0]
        state, ideal = policy.entries[0]
        shape = policy.action_shape
        expected = outcome(lambda a: shape(continuous_action_distance(a, ideal)), action)
        assert outcome(make_reward_fn(policy), state, action) == expected
        assert outcome(fuzzy_reward, state, action, policy) == expected

    @pytest.mark.parametrize("coordinate", [None, "a"])
    @pytest.mark.parametrize("where", ["state", "action"])
    def test_hillcar_series_rejects_a_coordinate_that_is_no_number(self, coordinate, where):
        # The box array pass read an action (None,) as NaN and raised a
        # ValueError for "a"; the scalar metric raises a TypeError for both.
        policy = generate_policies(HillCarSpec(), 1, 3, 0)[0]
        state, action = policy.entries[0]
        if where == "state":
            bad = TraceStep((state[0], coordinate), action)
        else:
            bad = TraceStep(state, (coordinate,))
        log = RunLog(1, (EpochTrace((TraceStep(state, action), bad), 1),))
        with pytest.raises(TypeError):
            step_compliance_at(policy, bad.state, bad.action)
        with pytest.raises(TypeError):
            policy_compliance_series(policy, log, 0.3)


class TestStepCompliance:
    def test_both_full(self):
        assert step_compliance(1.0, 1.0) == 1.0

    def test_zero_annihilates(self):
        assert step_compliance(0.0, 0.9) == 0.0

    def test_product(self):
        assert step_compliance(0.5, 0.8) == pytest.approx(0.4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidMembershipError):
            step_compliance(1.2, 0.5)
        with pytest.raises(InvalidMembershipError):
            step_compliance(0.5, -0.1)


class TestFuzzyReward:
    def test_on_reference_with_ideal_action(self, two_ref_policy):
        assert fuzzy_reward((0, 0), 2, two_ref_policy) == 1.0

    def test_far_state_scores_zero(self, two_ref_policy):
        # (0, 3) sits 3 cells from both references; delta/2 is 2.
        assert fuzzy_reward((0, 3), 2, two_ref_policy) == 0.0

    def test_linear_in_scale(self):
        policy = IntendedPolicy(
            [((0, 0), 2), ((0, 2), 1), ((2, 0), 3), ((2, 2), 0)],
            GridSpace(4, 4),
            DiscreteSpace(4),
        )
        r1 = fuzzy_reward((0, 0), 2, policy, reward_scale=1.0)
        r10 = fuzzy_reward((0, 0), 2, policy, reward_scale=10.0)
        assert r10 == pytest.approx(10.0 * r1)

    def test_scale_applied_to_partial_compliance(self):
        policy = IntendedPolicy(
            [((0, 0), 2), ((0, 4), 1)], GridSpace(5, 5), DiscreteSpace(4)
        )
        # delta 4, half 2: distance 1 with the ideal action gives
        # mu_step 0.5, scaled by 10.
        assert fuzzy_reward((1, 0), 2, policy, reward_scale=10.0) == pytest.approx(5.0)

    @given(data=st.data())
    def test_monotone_in_step_compliance(self, data):
        policy = IntendedPolicy(
            [((0, 0), 2), ((0, 4), 1), ((4, 0), 0)], GridSpace(5, 5), DiscreteSpace(4)
        )
        cells = GridSpace(5, 5).all_cells()
        s1 = data.draw(st.sampled_from(cells))
        s2 = data.draw(st.sampled_from(cells))
        a1 = data.draw(st.integers(0, 3))
        a2 = data.draw(st.integers(0, 3))
        mu1 = step_compliance_at(policy, s1, a1)[2]
        mu2 = step_compliance_at(policy, s2, a2)[2]
        r1 = fuzzy_reward(s1, a1, policy, reward_scale=3.0)
        r2 = fuzzy_reward(s2, a2, policy, reward_scale=3.0)
        if mu1 <= mu2:
            assert r1 <= r2
        else:
            assert r1 >= r2


def make_log(epoch_steps):
    epochs = tuple(
        EpochTrace(tuple(TraceStep(s, a) for s, a in steps), e)
        for e, steps in enumerate(epoch_steps, start=1)
    )
    return RunLog(1, epochs)


class TestComplianceSeries:
    def test_worked_single_epoch(self):
        policy = IntendedPolicy(
            [((0, 0), 2), ((3, 3), 1)], GridSpace(4, 4), DiscreteSpace(4)
        )
        # Step on the reference with its ideal action scores 1 and passes
        # the gate; the far state is filtered by mu_state < theta.
        log = make_log([[((0, 0), 2), ((0, 3), 0)]])
        series = policy_compliance_series(policy, log, 0.5)
        assert series.values == (1.0,)

    def test_epoch_with_no_qualifying_steps_scores_zero(self, two_ref_policy):
        log = make_log([[((0, 3), 2), ((3, 0), 1)]])
        series = policy_compliance_series(two_ref_policy, log, 0.5)
        assert series.values == (0.0,)

    def test_perfect_trace_scores_all_ones(self, two_ref_policy):
        steps = [((0, 0), 2), ((2, 2), 1)]
        log = make_log([steps, steps, steps])
        series = policy_compliance_series(two_ref_policy, log, 0.3)
        assert series.values == (1.0, 1.0, 1.0)

    def test_empty_aborted_epoch_scores_zero(self, two_ref_policy):
        # An epoch that aborted on its first action logged no steps.
        steps = (TraceStep((0, 0), 2),)
        log = RunLog(1, (EpochTrace(steps, 1), EpochTrace((), 2)), aborted_epochs=(2,))
        assert policy_compliance_series(two_ref_policy, log, 0.3).values == (1.0, 0.0)
        with pytest.raises(EmptyLogError):
            policy_compliance_series(two_ref_policy, RunLog(1, log.epochs), 0.3)

    def test_empty_log_rejected(self, two_ref_policy):
        with pytest.raises(EmptyLogError):
            policy_compliance_series(two_ref_policy, RunLog(1, ()), 0.3)
        with pytest.raises(EmptyLogError):
            policy_compliance_series(
                two_ref_policy, RunLog(1, (EpochTrace((), 1),)), 0.3
            )

    def test_step_filter_mode_gates_on_product(self, two_ref_policy):
        # (0, 1) with the wrong action: mu_state 0.5 but mu_step 0. The
        # state gate admits it (diluting the epoch), the step gate does not.
        log = make_log([[((0, 0), 2), ((0, 1), 0)]])
        state_gated = policy_compliance_series(two_ref_policy, log, 0.5)
        step_gated = policy_compliance_series(
            two_ref_policy, log, 0.5, filter_mode="step"
        )
        assert state_gated.values == (0.5,)
        assert step_gated.values == (1.0,)

    def test_series_validates_range(self):
        with pytest.raises(InvalidMembershipError):
            ComplianceSeries((0.5, 1.2))


grid_step = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 3)
)


@st.composite
def random_policy_and_log(draw):
    cells = [(r, c) for r in range(4) for c in range(4)]
    refs = draw(
        st.lists(st.sampled_from(cells), min_size=2, max_size=5, unique=True)
    )
    actions = draw(
        st.lists(st.integers(0, 3), min_size=len(refs), max_size=len(refs))
    )
    policy = IntendedPolicy(
        list(zip(refs, actions)), GridSpace(4, 4), DiscreteSpace(4)
    )
    epochs = draw(
        st.lists(
            st.lists(grid_step, min_size=1, max_size=20), min_size=1, max_size=5
        )
    )
    return policy, make_log(epochs), draw(st.floats(0.0, 1.0))


class TestSeriesAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(case=random_policy_and_log(), mode=st.sampled_from(["state", "step"]))
    def test_bit_exact_equality(self, case, mode):
        policy, log, theta = case
        got = policy_compliance_series(policy, log, theta, filter_mode=mode)
        expected = brute_force_series(policy, log, theta, filter_mode=mode)
        assert list(got.values) == expected

    @settings(max_examples=60, deadline=None)
    @given(case=random_policy_and_log(), seed=st.integers(0, 2**16))
    def test_step_order_within_epoch_is_irrelevant(self, case, seed):
        import numpy as np

        policy, log, theta = case
        rng = np.random.default_rng(seed)
        shuffled_epochs = []
        for epoch in log.epochs:
            steps = list(epoch.steps)
            rng.shuffle(steps)
            shuffled_epochs.append(EpochTrace(tuple(steps), epoch.epoch_index))
        shuffled = RunLog(1, tuple(shuffled_epochs))
        a = policy_compliance_series(policy, log, theta)
        b = policy_compliance_series(policy, shuffled, theta)
        assert a.values == b.values

    @settings(max_examples=40, deadline=None)
    @given(case=random_policy_and_log(), width=st.floats(0.25, 6.0))
    def test_bit_exact_with_state_shape_width(self, case, width):
        policy, log, theta = case
        policy = replace(policy, state_shape=MembershipShape("linear", width=width))
        got = policy_compliance_series(policy, log, theta)
        assert list(got.values) == brute_force_series(policy, log, theta)

    @pytest.mark.parametrize("mode", ["state", "step"])
    def test_bit_exact_on_hillcar_training_log(self, mode):
        # Continuous states never repeat, so every step is scored afresh.
        spec = HillCarSpec(max_steps_per_epoch=80)
        config = AgentConfig(algorithm="linear_actor_critic", learning_rate=0.05)
        scored = []
        for policy in generate_policies(spec, 3, 3, 7):
            log = run_training_phase(config, spec, policy, 6, 2)
            got = policy_compliance_series(policy, log, 0.3, filter_mode=mode)
            assert list(got.values) == brute_force_series(policy, log, 0.3, filter_mode=mode)
            scored.extend(got.values)
        assert sum(v > 0 for v in scored) >= 3

    @settings(max_examples=100, deadline=None)
    @given(case=random_policy_and_log())
    def test_values_in_unit_interval(self, case):
        policy, log, theta = case
        series = policy_compliance_series(policy, log, theta)
        assert all(0.0 <= v <= 1.0 for v in series.values)


# ---------------------------------------------------------------------------
# The series scorer against the straight-line brute force


SHAPE_KINDS = ["linear", "quadratic", "indicator"]


class Compass(enum.IntEnum):
    LEFT, DOWN, RIGHT, UP = range(4)

HILLCAR = HillCarSpec()
# Coarse dyadic lattices inside the grid and the hill-car box: every
# coordinate difference on them is exact, so states equidistant from two
# references are frequent and their distances tie exactly.
GRID_CELLS = [(r, c) for r in range(5) for c in range(5)]
BOX_LATTICE = [(p / 4, v / 64) for p in range(-4, 3) for v in range(-4, 5)]
FORCES = [-1.0, -0.5, 0.0, 0.25, 1.0]


@st.composite
def state_shapes(draw):
    kind = draw(st.sampled_from(SHAPE_KINDS))
    return MembershipShape(kind, draw(st.none() | st.floats(0.05, 4.0)))


@st.composite
def action_shapes(draw, width):
    kind = draw(st.sampled_from(SHAPE_KINDS))
    return MembershipShape(kind, None if kind == "indicator" else draw(width))


@st.composite
def grid_case(draw):
    space = GridSpace(5, 5)
    state_shape = draw(state_shapes())
    if draw(st.booleans()):
        refs = draw(st.lists(st.sampled_from(GRID_CELLS), min_size=2, max_size=5, unique=True))
        ideals = draw(st.lists(st.integers(0, 3), min_size=len(refs), max_size=len(refs)))
        # Steps recur more often over a few cells.
        pool = draw(
            st.just(GRID_CELLS)
            | st.lists(st.sampled_from(GRID_CELLS), min_size=1, max_size=4, unique=True)
        )
    else:
        # A state equidistant from two references sits at half their gap,
        # which only a state shape wider than that scores above 0.
        r, c = draw(st.integers(0, 4)), draw(st.integers(1, 3))
        refs = draw(st.permutations([(r, c - 1), (r, c + 1)]))
        ideals = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        state_shape = MembershipShape(state_shape.kind, draw(st.floats(1.5, 4.0)))
        pool = [(r, c), (r, c - 1), (r, c + 1)]
    policy = IntendedPolicy(
        list(zip(refs, ideals)), space, DiscreteSpace(4),
        state_shape, draw(action_shapes(st.floats(0.5, 3.0))),
    )
    # Plain int actions let recurring steps be scored once; IntEnum ones do
    # not.
    action = draw(st.sampled_from([st.integers(0, 3)] * 3 + [st.sampled_from(list(Compass))]))
    return policy, st.tuples(st.sampled_from(pool), action)


@st.composite
def hillcar_case(draw):
    if draw(st.booleans()):
        policy = generate_policies(HILLCAR, 1, draw(st.integers(2, 5)), draw(st.integers(0, 999)))[0]
        policy = replace(
            policy, state_shape=draw(state_shapes()),
            action_shape=draw(action_shapes(st.just(2.0) | st.floats(0.1, 3.0))),
        )
    else:
        refs = draw(st.lists(st.sampled_from(BOX_LATTICE), min_size=2, max_size=5, unique=True))
        ideals = [(draw(st.sampled_from(FORCES)),) for _ in refs]
        policy = IntendedPolicy(
            list(zip(refs, ideals)), HILLCAR.state_space(), HILLCAR.action_space(),
            draw(state_shapes()), draw(action_shapes(st.floats(0.1, 3.0))),
        )
    lows, highs = HILLCAR.state_space().lows, HILLCAR.state_space().highs
    anywhere = st.tuples(st.floats(lows[0], highs[0]), st.floats(lows[1], highs[1]))
    state = st.sampled_from(BOX_LATTICE) | st.sampled_from([s for s, _ in policy.entries]) | anywhere
    action = st.tuples(st.sampled_from(FORCES) | st.floats(-1.0, 1.0))
    return policy, st.tuples(state, action)


@st.composite
def mixed_case(draw):
    """A box-state/discrete-action or a grid-state/box-action policy, which
    only the library API builds."""
    if draw(st.booleans()):
        refs = draw(st.lists(st.sampled_from(BOX_LATTICE), min_size=2, max_size=5, unique=True))
        ideals = draw(st.lists(st.integers(0, 3), min_size=len(refs), max_size=len(refs)))
        spaces = HILLCAR.state_space(), DiscreteSpace(4)
        state = st.sampled_from(BOX_LATTICE) | st.sampled_from(refs)
        action = draw(st.sampled_from([st.integers(0, 3)] * 3 + [st.sampled_from(list(Compass))]))
    else:
        refs = draw(st.lists(st.sampled_from(GRID_CELLS), min_size=2, max_size=5, unique=True))
        ideals = [(draw(st.sampled_from(FORCES)),) for _ in refs]
        spaces = GridSpace(5, 5), HILLCAR.action_space()
        state = st.sampled_from(GRID_CELLS)
        action = st.tuples(st.sampled_from(FORCES) | st.floats(-1.0, 1.0))
    policy = IntendedPolicy(
        list(zip(refs, ideals)), *spaces,
        draw(state_shapes()), draw(action_shapes(st.floats(0.1, 3.0))),
    )
    return policy, st.tuples(state, action)


@st.composite
def scoring_case(draw):
    policy, step = draw(grid_case() | hillcar_case() | mixed_case())
    epochs = draw(st.lists(st.lists(step, max_size=12), min_size=1, max_size=6))
    log = make_log(epochs)
    empty = [e.epoch_index for e in log.epochs if not e.steps]
    # Usually every empty epoch is listed as aborted; sometimes one is not.
    listed = draw(st.sampled_from([empty, empty[1:]])) if empty else []
    log = replace(log, aborted_epochs=tuple(listed))
    theta = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return policy, log, theta, draw(st.sampled_from(["state", "step"]))


def step_by_step(policy, log, theta, mode):
    """The brute-force series, epoch by epoch, raising what a step-by-step
    scan raises first."""
    values = []
    for epoch in log.epochs:
        if not epoch.steps and epoch.epoch_index not in log.aborted_epochs:
            raise EmptyLogError(f"epoch {epoch.epoch_index} has no steps")
        values.extend(brute_force_series(policy, RunLog(1, (epoch,)), theta, mode))
    return values


class TestArrayScorerAgainstBruteForce:
    """The series scorer gives the straight-line values bit for bit, on
    grid, hill-car and mixed-space policies, every shape, ties, aborted
    epochs and the same exceptions."""

    @settings(max_examples=400, deadline=None)
    @given(case=scoring_case(), batch=st.sampled_from([1, 7, compliance._BATCH]))
    def test_bit_exact_or_same_exception(self, case, batch):
        policy, log, theta, mode = case
        with mock.patch.object(compliance, "_BATCH", batch):
            try:
                expected = step_by_step(policy, log, theta, mode)
            except EmptyLogError:
                with pytest.raises(EmptyLogError):
                    policy_compliance_series(policy, log, theta, filter_mode=mode)
                return
            got = policy_compliance_series(policy, log, theta, filter_mode=mode)
        assert list(got.values) == expected

    @settings(max_examples=100, deadline=None)
    @given(case=scoring_case(), data=st.data())
    def test_bad_grid_action_raises_like_the_scalar_metric(self, case, data):
        policy, log, theta, mode = case
        steps = [(e, i) for e, epoch in enumerate(log.epochs) for i in range(len(epoch.steps))]
        if not isinstance(policy.action_space, DiscreteSpace) or not steps:
            return
        e, i = data.draw(st.sampled_from(steps))
        bad = data.draw(st.sampled_from([True, False, 1.0, 2.0]))
        epoch = log.epochs[e]
        broken = epoch.steps[:i] + (epoch.steps[i]._replace(action=bad),) + epoch.steps[i + 1:]
        log = replace(log, epochs=log.epochs[:e] + (replace(epoch, steps=broken),) + log.epochs[e + 1:])
        with pytest.raises(Exception) as expected:
            step_by_step(policy, log, theta, mode)
        with pytest.raises(expected.type):
            policy_compliance_series(policy, log, theta, filter_mode=mode)

    def test_bad_step_before_an_empty_epoch_is_reported_first(self, two_ref_policy):
        steps = (TraceStep((0, 0), 2), TraceStep((0, 1), True))
        log = RunLog(1, (EpochTrace(steps, 1), EpochTrace((), 2)))
        with pytest.raises(ActionKindMismatchError):
            policy_compliance_series(two_ref_policy, log, 0.3)

    def test_equidistant_states_take_the_lowest_reference(self):
        # (1, 1) is 2 cells from both references; the first one's ideal
        # action 2 is the one that scores.
        policy = IntendedPolicy(
            [((0, 0), 2), ((2, 2), 1)], GridSpace(4, 4), DiscreteSpace(4),
            MembershipShape("linear", width=4.0),
        )
        log = make_log([[((1, 1), 2)], [((1, 1), 1)]])
        assert policy_compliance_series(policy, log, 0.0).values == (0.5, 0.0)
        assert brute_force_series(policy, log, 0.0) == [0.5, 0.0]

    def test_gate_admits_degree_equal_to_theta(self, two_ref_policy):
        # (0, 1) has state degree exactly 0.5.
        log = make_log([[((0, 1), 2)]])
        assert policy_compliance_series(two_ref_policy, log, 0.5).values == (0.5,)
        assert policy_compliance_series(two_ref_policy, log, 0.5, "step").values == (0.5,)
