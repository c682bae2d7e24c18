import enum
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzoracle import (
    EpochTrace,
    GridSpec,
    HillCarSpec,
    IntendedPolicy,
    RunLog,
    TraceStep,
    fuzzy_reward,
    generate_policies,
    make_reward_fn,
    min_reference_distance,
    policy_compliance_series,
    step_compliance_at,
)
from fuzzoracle.errors import (
    ActionKindMismatchError,
    DuplicateReferenceStateError,
    InvalidStateError,
    PolicyTooSmallError,
)
from fuzzoracle.membership import MembershipShape
from fuzzoracle.spaces import (
    BoxSpace,
    DiscreteSpace,
    GridSpace,
    continuous_action_distance,
)


GRID = (GridSpace(4, 4), DiscreteSpace(4))
HILL = (HillCarSpec().state_space(), HillCarSpec().action_space())


class TestSpaces:
    def test_grid_contains(self):
        space = GridSpace(4, 4)
        assert space.contains((0, 0))
        assert space.contains((3, 3))
        assert not space.contains((4, 0))
        assert not space.contains((0, -1))
        assert not space.contains((0.0, 1))

    def test_grid_refuses_bool_coordinates(self):
        space = GridSpace(4, 4)
        assert not space.contains((True, 0))
        assert not space.contains((0, False))

    def test_box_refuses_bool_coordinates(self):
        space = BoxSpace((0.0, 0.0), (1.0, 1.0))
        assert not space.contains((True, 0.5))
        assert not space.contains((0.5, False))
        assert space.contains((1, 0.5))

    def test_manhattan(self):
        space = GridSpace(4, 4)
        assert space.nearest([(2, 3)])((0, 0)) == (0, 5.0)

    def test_box_normalized_distance(self):
        space = BoxSpace(lows=(0.0, 0.0), highs=(2.0, 20.0))
        # Each dimension spans exactly its range, so the normalized
        # displacement is (1, 1) and the distance sqrt(2).
        assert space.nearest([(2.0, 20.0)])((0.0, 0.0))[1] == pytest.approx(math.sqrt(2))

    def test_box_diameter(self):
        space = BoxSpace(lows=(-1.0,), highs=(1.0,))
        assert space.diameter == pytest.approx(2.0)

    def test_box_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BoxSpace(lows=(1.0,), highs=(1.0,))

    def test_discrete_metric(self):
        space = DiscreteSpace(4)
        assert space.distance(2, 2) == 0.0
        assert space.distance(1, 3) == math.inf
        with pytest.raises(ActionKindMismatchError):
            space.distance((0.5,), 1)

    @pytest.mark.parametrize("a, b, message", [
        ((0.5,), 1, "expected a continuous action tuple, got int"),
        ((0.5,), (0.5, 0.2), "action arity mismatch: 1 vs 2"),
        # a is checked, then b, then the arity.
        (1, "x", "expected a continuous action tuple, got int"),
        ([0.5], (0.5,), "expected a continuous action tuple, got list"),
        ((), 2, "expected a continuous action tuple, got tuple"),
        ((0.5,), None, "expected a continuous action tuple, got NoneType"),
        ((0.5,), (), "expected a continuous action tuple, got tuple"),
        ((0.5, 0.2, 0.1), (0.5,), "action arity mismatch: 3 vs 1"),
    ])
    def test_continuous_action_distance_mismatch(self, a, b, message):
        with pytest.raises(ActionKindMismatchError) as raised:
            continuous_action_distance(a, b)
        assert str(raised.value) == message

    def test_continuous_action_distance_value(self):
        a, b = (0.1, -0.7, 0.3), (-0.2, 0.25, 0.9)
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) * (x - y)
        assert continuous_action_distance(a, b).hex() == math.sqrt(total).hex()
        assert continuous_action_distance((0.0, 3.0), (4.0, 0.0)) == 5.0

    @pytest.mark.parametrize("space", [
        GridSpace(4, 4), BoxSpace((0.0, 0.0), (1.0, 1.0)), BoxSpace((0.0,) * 3, (1.0,) * 3),
    ], ids=["grid", "box2", "box3"])
    def test_an_empty_reference_set_is_refused(self, space):
        for refs in ([], (), iter(())):
            with pytest.raises(PolicyTooSmallError, match="needs a reference state"):
                space.nearest(refs)


class TestPolicyBuild:
    def test_rejects_out_of_space_entries(self):
        with pytest.raises(ValueError):
            IntendedPolicy(
                [((0, 0), 0), ((9, 9), 1)], GridSpace(4, 4), DiscreteSpace(4)
            )
        with pytest.raises(ValueError):
            IntendedPolicy(
                [((0, 0), 0), ((1, 1), 7)], GridSpace(4, 4), DiscreteSpace(4)
            )

    def test_rejects_bool_grid_state(self):
        with pytest.raises(ValueError, match="outside the state space"):
            IntendedPolicy(
                [((True, 0), 1), ((2, 2), 0)], GridSpace(4, 4), DiscreteSpace(4)
            )

    def test_caches_min_reference_distance(self):
        policy = IntendedPolicy(
            [((0, 0), 0), ((0, 2), 1), ((3, 3), 2)], GridSpace(4, 4), DiscreteSpace(4)
        )
        assert policy.min_ref_distance == 2.0

    def test_default_action_shape_for_continuous_space(self):
        space = BoxSpace(lows=(-1.2, -0.07), highs=(0.6, 0.07))
        actions = BoxSpace(lows=(-1.0,), highs=(1.0,))
        policy = IntendedPolicy(
            [((-0.5, 0.0), (0.3,)), ((0.1, 0.01), (-0.2,))], space, actions
        )
        assert policy.action_shape.kind == "linear"
        assert policy.action_shape.width == pytest.approx(2.0)

    @pytest.mark.parametrize("entries, spaces, shape, error, message", [
        ([((0, 0), 0), ((9, 9), 1)], GRID, None, ValueError,
         "reference state (9, 9) outside the state space"),
        ([((0, 0), 0), ((1, 1), 7)], GRID, None, ValueError,
         "ideal action 7 outside the action space"),
        ([((-0.5, 0.0), (0.3,)), ((0.1, 0.01), (True,))], HILL, None, ValueError,
         "ideal action (True,) outside the action space"),
        ([((0, 0), 0)], GRID, None, PolicyTooSmallError,
         "need at least 2 reference states, got 1"),
        ([((0, 0), 0), ((2, 2), 1), ((0, 0), 3)], GRID, None, DuplicateReferenceStateError,
         "reference states 0 and 2 coincide"),
        ([((0, 0), 0), ((2, 2), 1)], GRID, MembershipShape("quadratic"), ValueError,
         "action shape 'quadratic' needs a width"),
    ], ids=["state_outside", "action_outside", "bool_force", "single_entry", "duplicates",
            "shape_without_width"])
    def test_refuses_a_bad_policy(self, entries, spaces, shape, error, message):
        with pytest.raises(error) as raised:
            IntendedPolicy(entries, *spaces, action_shape=shape)
        assert type(raised.value) is error and str(raised.value) == message

    def test_the_gap_is_not_an_argument(self):
        with pytest.raises(TypeError):
            IntendedPolicy([((0, 0), 2), ((2, 2), 1)], *GRID, min_ref_distance=40.0)

    def test_replace_validates_again(self):
        policy = IntendedPolicy([((0, 0), 2), ((2, 2), 1)], *GRID)
        assert replace(policy, entries=(((0, 0), 2), ((0, 1), 1))).min_ref_distance == 1.0
        with pytest.raises(ValueError, match=re.escape("reference state (9, 9) outside")):
            replace(policy, entries=(((0, 0), 2), ((9, 9), 1)))
        with pytest.raises(ValueError, match="ideal action 7 outside"):
            replace(policy, action_space=DiscreteSpace(7), entries=(((0, 0), 7), ((2, 2), 1)))

    def test_ideal_actions_are_stored_plain(self):
        class Move(enum.IntEnum):
            DOWN = 1

        grid = IntendedPolicy([((0, 0), Move.DOWN), ((2, 2), 1)], *GRID)
        assert [type(a) for _, a in grid.entries] == [int, int]
        hill = IntendedPolicy([((-0.5, 0.0), (1,)), ((0.1, 0.01), (-0.2,))], *HILL)
        assert hill.entries[0][1] == (1.0,) and type(hill.entries[0][1][0]) is float

    @pytest.mark.parametrize("spec", [GridSpec(), HillCarSpec()], ids=["grid", "hillcar"])
    @pytest.mark.parametrize("seed", range(5))
    def test_generated_policies_build_again_equal(self, spec, seed):
        for policy in generate_policies(spec, 3, 4, seed):
            again = IntendedPolicy(
                policy.entries, policy.state_space, policy.action_space,
                policy.state_shape, policy.action_shape,
            )
            assert again == policy
            assert again.min_ref_distance == policy.min_ref_distance


def straight_distance(space, a, b) -> float:
    """The metrics as plain per-dimension loops: Manhattan as a float on a
    grid; on a box, ``((x - y) / span)**2`` added to 0.0 in dimension order,
    then ``sqrt``."""
    if isinstance(space, GridSpace):
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))
    total = 0.0
    for x, y, lo, hi in zip(a, b, space.lows, space.highs):
        d = (x - y) / (hi - lo)
        total += d * d
    return math.sqrt(total)


def straight_scan(space, refs, state) -> tuple:
    """Index and distance of the first nearest reference, one by one."""
    best_index, best = 0, None
    for i, ref in enumerate(refs):
        d = straight_distance(space, state, ref)
        if i == 0 or d < best:
            best_index, best = i, d
    return best_index, best


def bits(found) -> tuple:
    index, distance = found
    return index, distance.hex()


@st.composite
def boxes(draw):
    """A 1-, 2- or 3-dimensional box with dyadic bounds, so that lattice
    points on it have exact coordinate differences."""
    dim = draw(st.integers(1, 3))
    lows = [draw(st.integers(-40, 40)) / 4 for _ in range(dim)]
    spans = [draw(st.integers(1, 80)) / 4 for _ in range(dim)]
    return BoxSpace(tuple(lows), tuple(lo + w for lo, w in zip(lows, spans)))


def box_lattice(space):
    """Points ``lo + k * span / 16`` of ``space``."""
    return st.tuples(*(
        st.integers(0, 16).map(lambda k, lo=lo, hi=hi: lo + k * (hi - lo) / 16)
        for lo, hi in zip(space.lows, space.highs)
    ))


def midpoints(refs) -> list:
    """(i, j, midpoint of references i < j), for the pairs whose midpoint
    is a point of the same lattice: exactly as far from both."""
    mids = []
    for (i, a), (j, b) in itertools.combinations(enumerate(refs), 2):
        if all(type(x) is int for x in a) and any((x + y) % 2 for x, y in zip(a, b)):
            continue
        mid = tuple((x + y) // 2 if type(x) is int else (x + y) / 2 for x, y in zip(a, b))
        mids.append((i, j, mid))
    return mids


@st.composite
def nearest_cases(draw, lattice=False):
    """(space, references, states) on a grid or a box. The states include
    every reference and every midpoint; ``lattice`` keeps box points on a
    lattice, where the midpoints tie exactly."""
    if draw(st.booleans()):
        space = GridSpace(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        point = st.tuples(st.integers(0, space.rows - 1), st.integers(0, space.cols - 1))
    else:
        space = draw(boxes())
        point = box_lattice(space)
        if not lattice:
            point = point | st.tuples(*(st.floats(lo, hi) for lo, hi in zip(space.lows, space.highs)))
    refs = draw(st.lists(point, min_size=1, max_size=5, unique=True))
    states = draw(st.lists(point, max_size=10)) + refs + [m for _, _, m in midpoints(refs)]
    return space, refs, states


@st.composite
def reference_sets(draw):
    """(space, reference states) on a grid or a 1-, 2- or 3-D box, with up
    to three copies of earlier states put anywhere, so coinciding pairs may
    cross, as in ``[A, B, B, A]``."""
    if draw(st.booleans()):
        space = GridSpace(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        point = st.tuples(st.integers(0, space.rows - 1), st.integers(0, space.cols - 1))
    else:
        space = draw(boxes())
        point = box_lattice(space) | st.tuples(
            *(st.floats(lo, hi) for lo, hi in zip(space.lows, space.highs))
        )
    refs = draw(st.lists(point, min_size=2, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        copy = refs[draw(st.integers(0, len(refs) - 1))]
        refs.insert(draw(st.integers(0, len(refs))), copy)
    return space, refs


def pairwise_min_reference_distance(ref_states, space) -> tuple:
    """The reference gap pair by pair, each pair ``i < j`` measured by a
    search with state ``j`` as its one reference: ``("gap", minimum.hex())``,
    or ``("duplicate", message)`` for the first coinciding pair."""
    best = None
    for i in range(len(ref_states)):
        for j in range(i + 1, len(ref_states)):
            d = space.nearest((ref_states[j],))(ref_states[i])[1]
            if d == 0:
                return "duplicate", f"reference states {i} and {j} coincide"
            if best is None or d < best:
                best = d
    return "gap", best.hex()


def formula_distance(space, a, b) -> float:
    """The metric as ``docs/formats.md`` gives it under "Scoring metrics",
    written out for a grid cell and for a 2-D and a 3-D box point."""
    if isinstance(space, GridSpace):
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))
    d0 = (a[0] - b[0]) / (space.highs[0] - space.lows[0])
    d1 = (a[1] - b[1]) / (space.highs[1] - space.lows[1])
    if space.dim == 2:
        return math.sqrt((0.0 + d0 * d0) + d1 * d1)
    d2 = (a[2] - b[2]) / (space.highs[2] - space.lows[2])
    return math.sqrt(((0.0 + d0 * d0) + d1 * d1) + d2 * d2)


@st.composite
def distance_cases(draw):
    """(space, a, b, a point of another length) on a grid or a 2-D or 3-D
    box. Box points may lie outside the box."""
    dim = draw(st.sampled_from([None, 2, 3]))
    if dim is None:
        space = GridSpace(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        point = st.tuples(st.integers(0, space.rows - 1), st.integers(0, space.cols - 1))
        coordinate = st.integers(0, 9)
        dim = 2
    else:
        lows = [draw(st.floats(-10, 10)) for _ in range(dim)]
        spans = [draw(st.floats(0.01, 20)) for _ in range(dim)]
        space = BoxSpace(tuple(lows), tuple(lo + w for lo, w in zip(lows, spans)))
        coordinate = st.floats(-1e6, 1e6) | st.integers(-10, 10)
        point = st.tuples(*(
            st.floats(lo, hi) | coordinate for lo, hi in zip(space.lows, space.highs)
        ))
    length = draw(st.integers(0, 4).filter(lambda n: n != dim))
    wrong = tuple(draw(st.lists(coordinate, min_size=length, max_size=length)))
    return space, draw(point), draw(point), wrong


class TestMinReferenceDistance:
    def test_cells_in_a_row(self):
        assert min_reference_distance([(0, 0), (0, 2), (0, 5)], GridSpace(1, 6)) == 2.0

    def test_singleton_rejected(self):
        with pytest.raises(PolicyTooSmallError):
            min_reference_distance([(0, 0)], GridSpace(4, 4))

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateReferenceStateError, match="states 1 and 2 coincide"):
            min_reference_distance([(0, 0), (0, 3), (0, 3)], GridSpace(1, 4))

    def test_a_crossing_duplicate_names_the_first_pair(self):
        a, b = (0.25, 0.5), (0.75, 0.5)
        with pytest.raises(DuplicateReferenceStateError, match="states 0 and 3 coincide"):
            min_reference_distance([a, b, b, a], BoxSpace((0.0, 0.0), (1.0, 1.0)))

    def test_matches_exhaustive_pairwise_minimum(self):
        rng = np.random.default_rng(7)
        points = [tuple(map(float, rng.uniform(0, 1, 2))) for _ in range(8)]
        space = BoxSpace(lows=(0.0, 0.0), highs=(1.0, 1.0))
        got = min_reference_distance(points, space)
        expected = min(
            straight_distance(space, a, b) for a, b in itertools.combinations(points, 2)
        )
        assert got == expected
        assert got > 0

    @settings(max_examples=300, deadline=None)
    @given(case=reference_sets())
    def test_matches_the_pairwise_loop(self, case):
        space, refs = case
        try:
            got = ("gap", min_reference_distance(refs, space).hex())
        except DuplicateReferenceStateError as raised:
            got = ("duplicate", str(raised))
        assert got == pairwise_min_reference_distance(refs, space)


class TestDistance:
    """The distance of a one-reference ``space.nearest`` pinned bit for bit
    to the documented formula."""

    @settings(max_examples=300, deadline=None)
    @given(case=distance_cases())
    def test_matches_the_formula_and_is_symmetric(self, case):
        space, a, b, _ = case
        d = space.nearest([b])(a)
        assert bits(d) == (0, formula_distance(space, a, b).hex())
        assert bits(space.nearest([a])(b)) == bits(d)

    @settings(max_examples=200, deadline=None)
    @given(case=distance_cases(), a_wrong=st.booleans())
    def test_a_wrong_length_reference_is_named_first(self, case, a_wrong):
        space, a, _, wrong = case
        if a_wrong:
            a = a + a
        dim = 2 if isinstance(space, GridSpace) else space.dim
        message = f"state {wrong!r} has length {len(wrong)}, not {dim}"
        with pytest.raises(InvalidStateError) as raised:
            space.nearest([wrong])(a)
        assert str(raised.value) == message


class TestNearest:
    """``space.nearest(refs)`` against a straight scan over the old
    per-dimension loops, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=nearest_cases())
    def test_matches_straight_scan(self, case):
        space, refs, states = case
        search = space.nearest(refs)
        for state in states:
            assert bits(search(state)) == bits(straight_scan(space, refs, state))

    @settings(max_examples=200, deadline=None)
    @given(case=nearest_cases(lattice=True))
    def test_exact_ties_go_to_the_lowest_index(self, case):
        space, refs, _ = case
        search = space.nearest(refs)
        for i, ref in enumerate(refs):
            assert bits(search(ref)) == (i, (0.0).hex())
        for i, j, mid in midpoints(refs):
            tie = straight_distance(space, mid, refs[i])
            assert tie == straight_distance(space, mid, refs[j])
            index, distance = search(mid)
            assert bits((index, distance)) == bits(straight_scan(space, refs, mid))
            if distance == tie:
                # Reference j is as near as i, so it never wins.
                assert index <= i

    @settings(max_examples=200, deadline=None)
    @given(case=nearest_cases())
    def test_distance_is_unchanged(self, case):
        space, refs, states = case
        for a, b in itertools.product(states[:6], refs):
            assert space.nearest([b])(a)[1].hex() == straight_distance(space, a, b).hex()

    def test_grid_tie_on_a_midpoint(self):
        # (2, 2) is 2 cells from (0, 2), (2, 0) and (4, 2).
        search = GridSpace(5, 5).nearest([(4, 2), (0, 2), (2, 0)])
        assert search((2, 2)) == (0, 2.0)
        assert GridSpace(5, 5).nearest([(0, 2), (4, 2)])((2, 2)) == (0, 2.0)

    def test_search_keeps_the_references_it_was_built_with(self):
        refs = [(0, 0), (3, 3)]
        search = GridSpace(4, 4).nearest(refs)
        refs.append((1, 1))
        assert search((1, 1)) == (0, 2.0)

    @pytest.mark.parametrize("lows, highs", [
        ((-1.0,), (1.3,)),
        ((-1.0, -0.5), (1.0, 0.5)),
        ((-1.1, -0.7), (1.0, 0.6)),
        ((-1.1, -0.5, -2.0), (1.0, 0.6, 1.7)),
    ], ids=["1d", "2d", "2d_uneven", "3d"])
    def test_box_matches_linear_scan_with_exact_ties(self, lows, highs):
        space = BoxSpace(lows, highs)
        dim = space.dim
        # Dyadic coordinates: states with x = 0 are exactly as far from the
        # mirrored references 1 and 2, whatever the spans.
        refs = [
            r[:dim]
            for r in [(0.75, 0.375, 1.5), (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0), (-0.75, -0.375, -1.5)]
        ]
        search = space.nearest(refs)
        rng = np.random.default_rng(8)
        ties = [(0.0, v, -2.0 * v)[:dim] for v in (0.0, 0.125, -0.125, 0.25, -0.25)]
        states = ties + [tuple(map(float, row)) for row in rng.uniform(-1, 1, size=(200, dim)) / 2]
        for state in states:
            distances = [straight_distance(space, state, r) for r in refs]
            best = min(distances)
            assert search(state) == (distances.index(best), best)
        for state in ties:
            assert straight_distance(space, state, refs[1]) == straight_distance(space, state, refs[2])
            assert search(state)[0] == 1


    # The two-dimension search, unrolled, against the per-dimension scan.
    PLANE = BoxSpace((-1.2, -0.07), (0.6, 0.07))
    PLANE_REFS = [(-0.5, 0.0), (0.25, -0.03), (-1.0, 0.05)]

    @pytest.mark.parametrize("state", [
        (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
        (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf), (0.0, -math.inf),
        (math.inf, math.inf), (math.inf, -math.inf), (math.inf, math.nan),
        (-0.0, -0.0), (1e308, -1e308),
    ])
    def test_plane_non_finite_coordinates(self, state):
        search = self.PLANE.nearest(self.PLANE_REFS)
        assert bits(search(state)) == bits(straight_scan(self.PLANE, self.PLANE_REFS, state))

    @pytest.mark.parametrize("refs", [
        [(math.inf, 0.0), (0.0, 0.0)], [(0.0, -math.inf), (math.nan, 0.0)], [(math.nan, math.nan)],
    ])
    def test_plane_non_finite_references(self, refs):
        search = self.PLANE.nearest(refs)
        for state in [(0.0, 0.0), (math.inf, 0.0), (math.nan, 0.0)] + self.PLANE_REFS:
            assert bits(search(state)) == bits(straight_scan(self.PLANE, refs, state))

    @pytest.mark.parametrize("state", [
        (0, 0), (-1, 0), [0.25, -0.03], [0, 0.01], np.array([-0.5, 0.0]),
        np.array([0.1, -0.02], dtype=np.float32), np.array([0, 1]), (np.float64(-0.2), 0.04),
    ], ids=["ints", "negative_int", "list", "list_int", "ndarray", "float32", "int_ndarray", "scalar"])
    def test_plane_state_types(self, state):
        for space, refs in ((self.PLANE, self.PLANE_REFS), (BoxSpace((0, 0), (3, 2)), [(1, 1), (2, 0)])):
            search = space.nearest(refs)
            assert bits(search(state)) == bits(straight_scan(space, refs, state))

    @pytest.mark.parametrize("state", [
        (None, 0.0), (0.0, None), ("a", 0.0), (0.0, "b"), (None, "b"), ("ab", 0.0),
    ])
    def test_plane_bad_coordinates_raise_as_the_scan_does(self, state):
        with pytest.raises(TypeError) as scan:
            straight_scan(self.PLANE, self.PLANE_REFS, state)
        with pytest.raises(TypeError) as search:
            self.PLANE.nearest(self.PLANE_REFS)(state)
        assert type(search.value) is type(scan.value)
        assert str(search.value) == str(scan.value)

    @pytest.mark.parametrize("state", [
        (), (0.0,), (0.0, 0.0, 0.0), [0.0], np.zeros(3), "abc",
    ], ids=["empty", "one", "three", "list", "ndarray", "string"])
    def test_plane_wrong_length(self, state):
        with pytest.raises(InvalidStateError) as raised:
            self.PLANE.nearest(self.PLANE_REFS)(state)
        assert str(raised.value) == f"state {state!r} has length {len(state)}, not 2"


def hill_policy():
    return generate_policies(HillCarSpec(), 1, 3, 0)[0]


def grid_policy():
    return IntendedPolicy([((0, 0), 2), ((2, 2), 1)], GridSpace(4, 4), DiscreteSpace(4))


class TestWrongLengthStates:
    """A state of the wrong length raises InvalidStateError wherever it is
    scored, instead of being read as its first coordinates."""

    @pytest.mark.parametrize("state", [(-0.5,), (-0.5, 0.0, 0.0), ()])
    def test_box_state(self, state):
        policy = hill_policy()
        with pytest.raises(InvalidStateError, match="length"):
            policy.state_space.nearest([s for s, _ in policy.entries])(state)
        with pytest.raises(InvalidStateError):
            fuzzy_reward(state, (0.0,), policy)
        with pytest.raises(InvalidStateError):
            step_compliance_at(policy, state, (0.0,))
        with pytest.raises(InvalidStateError):
            make_reward_fn(policy)(state, (0.0,))
        with pytest.raises(InvalidStateError):
            policy.state_space.nearest([policy.entries[0][0]])(state)

    @pytest.mark.parametrize("state", [(0, 0, 7), (0,)])
    def test_grid_state(self, state):
        policy = grid_policy()
        with pytest.raises(InvalidStateError, match="length"):
            step_compliance_at(policy, state, 1)
        with pytest.raises(InvalidStateError):
            policy.state_space.nearest([s for s, _ in policy.entries])(state)
        with pytest.raises(InvalidStateError):
            make_reward_fn(policy)(state, 1)
        with pytest.raises(InvalidStateError):
            GridSpace(4, 4).nearest([(0, 0)])(state)

    @pytest.mark.parametrize("policy, good, bad, action", [
        (hill_policy(), (-0.5, 0.0), (-0.5,), (0.0,)),
        (grid_policy(), (0, 1), (0, 1, 7), 2),
    ], ids=["box", "grid"])
    def test_array_scorer(self, policy, good, bad, action):
        steps = (TraceStep(good, action), TraceStep(bad, action))
        log = RunLog(1, (EpochTrace(steps, 1),))
        with pytest.raises(InvalidStateError, match=re.escape(f"state {bad!r} has length")):
            policy_compliance_series(policy, log, 0.3)

    @pytest.mark.parametrize("policy, good, bad, action", [
        (hill_policy(), (-0.5, 0.0), (-0.5,), 1),
        (hill_policy(), (-0.5, 0.0), (-0.5,), (0.0, 0.0)),
        (grid_policy(), (0, 1), (0, 1, 7), (0.5,)),
    ], ids=["box", "box_tuple", "grid"])
    def test_array_scorer_reports_an_earlier_bad_action_first(self, policy, good, bad, action):
        # The scalar chain meets the bad action of the first step first.
        steps = (TraceStep(good, action), TraceStep(bad, action))
        log = RunLog(1, (EpochTrace(steps, 1),))
        with pytest.raises(ActionKindMismatchError):
            step_compliance_at(policy, good, action)
        with pytest.raises(ActionKindMismatchError):
            policy_compliance_series(policy, log, 0.3)

    def test_reference_of_the_wrong_length(self):
        with pytest.raises(InvalidStateError):
            BoxSpace((0.0, 0.0), (1.0, 1.0)).nearest([(0.5, 0.5), (0.5,)])
        with pytest.raises(InvalidStateError):
            GridSpace(4, 4).nearest([(0, 0), (1, 1, 1)])


class TestZeroGap:
    """A policy with a zero reference gap cannot be built, so the scorers
    never meet one."""

    @pytest.mark.parametrize("make", [grid_policy, hill_policy], ids=["grid", "box"])
    def test_a_zero_gap_cannot_be_built(self, make):
        built = make()
        (state, action), (_, other) = built.entries[:2]
        with pytest.raises(DuplicateReferenceStateError):
            IntendedPolicy(((state, action), (state, other)), built.state_space, built.action_space)

    def test_a_bad_state_is_reported_before_the_gap(self):
        built = hill_policy()
        policy = IntendedPolicy(built.entries, built.state_space, built.action_space,
                                action_shape=MembershipShape("linear", 2.0))
        with pytest.raises(InvalidStateError):
            make_reward_fn(policy)((0.0,), (0.0,))
