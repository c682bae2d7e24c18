"""Intended policies: finite maps from reference states to ideal actions.

An intended policy is the oracle's probe. It pairs a handful of reference
states with the actions a correct learner should take there, and carries
the metrics and membership shapes used to score how closely visited
(state, action) pairs comply with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateReferenceStateError, PolicyTooSmallError
from .membership import MembershipShape
from .spaces import BoxSpace, DiscreteSpace, GridSpace


def min_reference_distance(ref_states, space) -> float:
    """The smallest distance from each reference state to the states after
    it, measured by one ``space.nearest`` search over those later states.

    Raises PolicyTooSmallError for fewer than two states and
    DuplicateReferenceStateError naming the first coinciding pair ``i < j``.
    """
    if len(ref_states) < 2:
        raise PolicyTooSmallError(
            f"need at least 2 reference states, got {len(ref_states)}"
        )
    best = None
    for i in range(len(ref_states) - 1):
        j, d = space.nearest(ref_states[i + 1:])(ref_states[i])
        if d == 0:
            raise DuplicateReferenceStateError(
                f"reference states {i} and {i + 1 + j} coincide"
            )
        if best is None or d < best:
            best = d
    return best


@dataclass(frozen=True)
class IntendedPolicy:
    """Reference states, their ideal actions, and the scoring apparatus.

    ``entries`` is an ordered tuple of (reference state, ideal action)
    pairs. Construction checks each entry against both spaces and computes
    ``min_ref_distance``, the minimum pairwise state distance. The default
    action shape is the exact-match indicator for discrete action spaces
    and a linear ramp scaled by the space diameter for continuous ones.
    Ideal actions are stored as plain ints or tuples of floats.
    """

    entries: tuple
    state_space: GridSpace | BoxSpace
    action_space: DiscreteSpace | BoxSpace
    state_shape: MembershipShape = field(default=MembershipShape("linear"))
    action_shape: MembershipShape | None = None
    min_ref_distance: float = field(init=False)

    def __post_init__(self):
        entries = tuple((state, action) for state, action in self.entries)
        for state, action in entries:
            if not self.state_space.contains(state):
                raise ValueError(f"reference state {state!r} outside the state space")
            if not self.action_space.contains(action):
                raise ValueError(f"ideal action {action!r} outside the action space")
        delta = min_reference_distance([s for s, _ in entries], self.state_space)
        discrete = isinstance(self.action_space, DiscreteSpace)
        shape = self.action_shape
        if shape is None:
            if discrete:
                shape = MembershipShape("indicator")
            else:
                shape = MembershipShape("linear", width=self.action_space.diameter)
        elif shape.kind != "indicator" and shape.width is None:
            # Unlike the state shape, which falls back to half the reference
            # gap, a scaled action shape gets no width at scoring time.
            raise ValueError(f"action shape {shape.kind!r} needs a width")
        entries = tuple(
            (state, int(action) if discrete else tuple(map(float, action)))
            for state, action in entries
        )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "action_shape", shape)
        object.__setattr__(self, "min_ref_distance", delta)

    def __len__(self) -> int:
        return len(self.entries)

