import itertools
import math

import numpy as np
import pytest

from fuzzoracle import IntendedPolicy, closest_reference, min_reference_distance
from fuzzoracle.errors import (
    ActionKindMismatchError,
    DuplicateReferenceStateError,
    PolicyTooSmallError,
)
from fuzzoracle.spaces import (
    BoxSpace,
    DiscreteSpace,
    GridSpace,
    continuous_action_distance,
)


def abs_metric(a, b):
    return abs(a - b)


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

    def test_manhattan(self):
        space = GridSpace(4, 4)
        assert space.distance((0, 0), (2, 3)) == 5.0

    def test_box_normalized_distance(self):
        space = BoxSpace(lows=(0.0, 0.0), highs=(2.0, 20.0))
        # Each dimension spans exactly its range, so the normalized
        # displacement is (1, 1) and the distance sqrt(2).
        assert space.distance((0.0, 0.0), (2.0, 20.0)) == pytest.approx(math.sqrt(2))

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

    def test_continuous_action_distance_mismatch(self):
        with pytest.raises(ActionKindMismatchError):
            continuous_action_distance((0.5,), 1)
        with pytest.raises(ActionKindMismatchError):
            continuous_action_distance((0.5,), (0.5, 0.2))


class TestMinReferenceDistance:
    def test_scalar_states(self):
        assert min_reference_distance([0, 2, 5], abs_metric) == 2

    def test_singleton_rejected(self):
        with pytest.raises(PolicyTooSmallError):
            min_reference_distance([0], abs_metric)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateReferenceStateError):
            min_reference_distance([0, 3, 3], abs_metric)

    def test_matches_exhaustive_pairwise_minimum(self):
        rng = np.random.default_rng(7)
        points = [tuple(map(float, rng.uniform(0, 1, 2))) for _ in range(8)]
        space = BoxSpace(lows=(0.0, 0.0), highs=(1.0, 1.0))
        got = min_reference_distance(points, space.distance)
        expected = min(
            space.distance(a, b) for a, b in itertools.combinations(points, 2)
        )
        assert got == expected
        assert got > 0


class TestClosestReference:
    def make_policy(self, refs):
        entries = [(r, 0) for r in refs]
        return IntendedPolicy.build(entries, GridSpace(8, 8), DiscreteSpace(4))

    def test_exact_hit(self):
        policy = self.make_policy([(0, 0), (2, 5), (4, 1), (7, 7)])
        assert closest_reference((4, 1), policy) == (2, 0.0)

    def test_tie_breaks_to_lowest_index(self):
        # (1, 0) is at distance 1 from both (0, 0) and (2, 0).
        policy = self.make_policy([(0, 0), (5, 5), (2, 0)])
        assert closest_reference((1, 0), policy) == (0, 1.0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        cells = [(int(r), int(c)) for r, c in rng.integers(0, 8, size=(30, 2))]
        refs = []
        for cell in cells:
            if cell not in refs:
                refs.append(cell)
            if len(refs) == 10:
                break
        policy = self.make_policy(refs)
        space = GridSpace(8, 8)
        for _ in range(50):
            state = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            idx, dist = closest_reference(state, policy)
            distances = [space.distance(state, r) for r in refs]
            assert dist == min(distances)
            assert idx == distances.index(min(distances))


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
        policy = IntendedPolicy.build(
            [(r, (0.0,)) for r in refs], space, BoxSpace((-1.0,), (1.0,))
        )
        rng = np.random.default_rng(8)
        ties = [(0.0, v, -2.0 * v)[:dim] for v in (0.0, 0.125, -0.125, 0.25, -0.25)]
        states = ties + [tuple(map(float, row)) for row in rng.uniform(-1, 1, size=(200, dim)) / 2]
        for state in states:
            distances = [space.distance(state, r) for r in refs]
            best = min(distances)
            assert closest_reference(state, policy) == (distances.index(best), best)
        for state in ties:
            assert space.distance(state, refs[1]) == space.distance(state, refs[2])
            assert closest_reference(state, policy)[0] == 1


class TestPolicyBuild:
    def test_rejects_out_of_space_entries(self):
        with pytest.raises(ValueError):
            IntendedPolicy.build(
                [((0, 0), 0), ((9, 9), 1)], GridSpace(4, 4), DiscreteSpace(4)
            )
        with pytest.raises(ValueError):
            IntendedPolicy.build(
                [((0, 0), 0), ((1, 1), 7)], GridSpace(4, 4), DiscreteSpace(4)
            )

    def test_rejects_bool_grid_state(self):
        with pytest.raises(ValueError, match="outside the state space"):
            IntendedPolicy.build(
                [((True, 0), 1), ((2, 2), 0)], GridSpace(4, 4), DiscreteSpace(4)
            )

    def test_caches_min_reference_distance(self):
        policy = IntendedPolicy.build(
            [((0, 0), 0), ((0, 2), 1), ((3, 3), 2)], GridSpace(4, 4), DiscreteSpace(4)
        )
        assert policy.min_ref_distance == 2.0

    def test_default_action_shape_for_continuous_space(self):
        space = BoxSpace(lows=(-1.2, -0.07), highs=(0.6, 0.07))
        actions = BoxSpace(lows=(-1.0,), highs=(1.0,))
        policy = IntendedPolicy.build(
            [((-0.5, 0.0), (0.3,)), ((0.1, 0.01), (-0.2,))], space, actions
        )
        assert policy.action_shape.kind == "linear"
        assert policy.action_shape.width == pytest.approx(2.0)
