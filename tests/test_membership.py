import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzoracle.membership import MembershipShape


def test_linear_values():
    shape = MembershipShape("linear", width=2.0)
    assert shape(0.0) == 1.0
    assert shape(1.0) == 0.5
    assert shape(2.0) == 0.0
    assert shape(5.0) == 0.0


def test_linear_width_override():
    shape = MembershipShape("linear")
    assert shape(0.5, width=1.0) == 0.5
    with pytest.raises(ValueError):
        shape(0.5)


def test_quadratic_values():
    shape = MembershipShape("quadratic", width=2.0)
    assert shape(0.0) == 1.0
    assert shape(1.0) == 0.25
    assert shape(2.0) == 0.0


def test_indicator():
    shape = MembershipShape("indicator")
    assert shape(0.0) == 1.0
    assert shape(1e-12) == 0.0
    assert shape(math.inf) == 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        MembershipShape("sigmoid")


def test_negative_width_rejected():
    with pytest.raises(ValueError):
        MembershipShape("linear", width=-1.0)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        MembershipShape("linear", width=1.0)(-0.1)


@given(
    kind=st.sampled_from(["linear", "quadratic", "indicator"]),
    width=st.floats(0.01, 100.0),
    distances=st.lists(st.floats(0.0, 200.0), min_size=2, max_size=2),
)
def test_shapes_bounded_and_non_increasing(kind, width, distances):
    shape = MembershipShape(kind, width=width)
    d1, d2 = sorted(distances)
    m1, m2 = shape(d1), shape(d2)
    assert 0.0 <= m1 <= 1.0
    assert 0.0 <= m2 <= 1.0
    assert m1 >= m2


@given(kind=st.sampled_from(["linear", "quadratic"]), width=st.floats(0.01, 50.0))
def test_scaled_shapes_start_at_one(kind, width):
    assert MembershipShape(kind, width=width)(0.0) == 1.0


class TestBoundShape:
    """``shape.at(width)`` is ``shape(distance, width)`` bit for bit, and so
    is the array form, and it refuses what the call refuses."""

    WIDTH = 1.5

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "indicator"])
    @pytest.mark.parametrize(
        "distance",
        [0.0, math.nextafter(WIDTH, 0.0), WIDTH, 2.0, math.inf, math.nan],
        ids=["zero", "below", "at", "above", "inf", "nan"],
    )
    def test_equals_the_call(self, kind, distance):
        own = MembershipShape(kind, width=self.WIDTH)
        given_at_call = MembershipShape(kind)
        pairs = [
            (own.at()(distance), own(distance)),
            (given_at_call.at(self.WIDTH)(distance), given_at_call(distance, self.WIDTH)),
            (own.at(0.5)(distance), own(distance, 0.5)),
        ]
        array = own.degrees(np.array([distance]))[0]
        for bound, called in pairs + [(own.at()(distance), array)]:
            assert struct.pack("<d", bound) == struct.pack("<d", called)

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("width", [None, 0.0, -1.0])
    def test_missing_width_raises_like_the_call(self, kind, width):
        shape = MembershipShape(kind)
        with pytest.raises(ValueError) as called:
            shape(0.5, width)
        with pytest.raises(ValueError) as bound:
            shape.at(width)
        assert str(bound.value) == str(called.value) == f"shape {kind!r} needs a positive width"

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "indicator"])
    def test_negative_distance_rejected(self, kind):
        with pytest.raises(ValueError, match="distance must be non-negative"):
            MembershipShape(kind, width=1.0).at()(-0.1)
