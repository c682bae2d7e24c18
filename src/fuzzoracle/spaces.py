"""State and action spaces with their distance metrics.

Points are plain Python values: a grid state is an ``(row, col)`` tuple of
ints, a continuous state or action is a tuple of floats, a discrete action
is a non-negative int. Space objects validate points and own the distance
metric used by the fuzzy compliance machinery:

* grid states use Manhattan distance on cells;
* continuous states use Euclidean distance on coordinates normalized to
  [0, 1] per dimension, so no dimension dominates by sheer scale;
* discrete actions use the exact-match metric (0 when equal, inf otherwise);
* continuous actions use raw Euclidean distance, paired downstream with a
  membership shape scaled by the space diameter.

Each metric is written once. A state space's metric lives in its
``nearest``, which builds a policy's nearest-reference search, and its
``distance(a, b)`` is that search with ``b`` as the one reference, so it
checks ``b`` as a reference, then ``a`` as a state, and refuses a point of
the wrong length with :class:`InvalidStateError`. An action is measured by
:meth:`DiscreteSpace.distance` or :func:`continuous_action_distance`.
:class:`BoxSpace` alone adds an array form (``distances``), for the array
pass over box run logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ActionKindMismatchError, InvalidStateError

GridCell = tuple[int, int]
Coords = tuple[float, ...]


def is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool; a plain int is the
    quickest to tell."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def wrong_length(state, dim: int) -> InvalidStateError:
    """The error for a state whose length is not the ``dim`` of its space."""
    return InvalidStateError(f"state {state!r} has length {len(state)}, not {dim}")


def _refs(refs, dim: int) -> tuple:
    """``refs`` as a tuple, refused as states are if one has the wrong length."""
    refs = tuple(refs)
    for ref in refs:
        if len(ref) != dim:
            raise wrong_length(ref, dim)
    return refs


@dataclass(frozen=True)
class GridSpace:
    """Discrete rectangular grid of cells addressed as (row, col)."""

    rows: int
    cols: int

    kind = "grid"

    def contains(self, point) -> bool:
        if not (isinstance(point, tuple) and len(point) == 2):
            return False
        r, c = point
        return is_int(r) and is_int(c) and 0 <= r < self.rows and 0 <= c < self.cols

    def distance(self, a: GridCell, b: GridCell) -> float:
        """The distance of :meth:`nearest` with ``b`` the one reference."""
        return self.nearest((b,))(a)[1]

    def nearest(self, refs):
        """Callable ``state -> (index, distance)`` of the first of ``refs``
        nearest to ``state``: the Manhattan distance, summed in integers and
        then made a float. A state that is not two coordinates long raises
        :class:`InvalidStateError`."""
        cells = tuple(enumerate(_refs(refs, 2)))

        def search(state):
            if len(state) != 2:
                raise wrong_length(state, 2)
            r, c = state
            best_index, best = 0, None
            for i, (ref_r, ref_c) in cells:
                d = float(abs(r - ref_r) + abs(c - ref_c))
                if best is None or d < best:
                    best_index, best = i, d
            return best_index, best

        return search

    def all_cells(self) -> list[GridCell]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]


@dataclass(frozen=True)
class BoxSpace:
    """Axis-aligned box of real vectors with per-dimension bounds."""

    lows: Coords
    highs: Coords

    kind = "box"

    def __post_init__(self):
        if len(self.lows) != len(self.highs) or not self.lows:
            raise ValueError("bounds must be non-empty and of equal length")
        for lo, hi in zip(self.lows, self.highs):
            if not lo < hi:
                raise ValueError(f"bounds must satisfy low < high, got [{lo}, {hi}]")
        # Per-dimension widths for the normalized metric.
        object.__setattr__(
            self, "_spans", tuple(hi - lo for lo, hi in zip(self.lows, self.highs))
        )

    @property
    def dim(self) -> int:
        return len(self.lows)

    def contains(self, point) -> bool:
        if not (isinstance(point, tuple) and len(point) == self.dim):
            return False
        return all(
            (isinstance(x, float) or is_int(x)) and lo <= x <= hi
            for x, lo, hi in zip(point, self.lows, self.highs)
        )

    def distance(self, a: Coords, b: Coords) -> float:
        """The distance of :meth:`nearest` with ``b`` the one reference."""
        return self.nearest((b,))(a)[1]

    def nearest(self, refs):
        """Callable ``state -> (index, distance)`` of the first of ``refs``
        nearest to ``state``: the Euclidean distance after scaling each
        dimension to [0, 1].

        Per dimension in order, ``(x - y) / span`` is squared and added to a
        total that starts at 0.0, whose ``sqrt`` is the distance. Each
        reference is bound once as its ``(dimension, coordinate, span)``
        terms. In two dimensions the loop is unrolled, each reference bound
        as ``(index, y0, span0, y1, span1)``: ``sqrt(d0 * d0 + d1 * d1)`` is
        the loop's ``(0.0 + d0 * d0) + d1 * d1``, since a square is never
        -0.0. A state whose length is not :attr:`dim` raises
        :class:`InvalidStateError`.
        """
        dim = self.dim
        refs = _refs(refs, dim)
        sqrt = math.sqrt
        if dim == 2:
            span0, span1 = self._spans
            pairs = tuple((i, y0, span0, y1, span1) for i, (y0, y1) in enumerate(refs))

            def search2(state):
                if len(state) != 2:
                    raise wrong_length(state, 2)
                x0, x1 = state[0], state[1]
                best_index, best = 0, None
                for i, y0, s0, y1, s1 in pairs:
                    d0 = (x0 - y0) / s0
                    d1 = (x1 - y1) / s1
                    d = sqrt(d0 * d0 + d1 * d1)
                    if best is None or d < best:
                        best_index, best = i, d
                return best_index, best

            return search2
        terms = tuple(
            (i, tuple(zip(range(dim), ref, self._spans))) for i, ref in enumerate(refs)
        )

        def search(state):
            if len(state) != dim:
                raise wrong_length(state, dim)
            best_index, best = 0, None
            for i, ref in terms:
                total = 0.0
                for k, y, span in ref:
                    d = (state[k] - y) / span
                    total += d * d
                d = sqrt(total)
                if best is None or d < best:
                    best_index, best = i, d
            return best_index, best

        return search

    def distances(self, points: np.ndarray, refs) -> np.ndarray:
        """:meth:`distance` from every point (rows) to every reference
        (columns), accumulated per dimension in the same order, so each
        entry matches the scalar metric bit for bit. ``points`` is a float
        array of one point of :attr:`dim` coordinates per row."""
        r = np.array(refs, dtype=float)
        total = 0.0
        for k, span in enumerate(self._spans):
            d = (points[:, None, k] - r[None, :, k]) / span
            total = total + d * d
        return np.sqrt(total)

    @property
    def diameter(self) -> float:
        """Euclidean length of the box diagonal in original units."""
        total = 0.0
        for lo, hi in zip(self.lows, self.highs):
            d = hi - lo
            total += d * d
        return math.sqrt(total)


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite action set {0, ..., n-1}."""

    n: int

    kind = "discrete"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("discrete space needs at least one action")

    def contains(self, point) -> bool:
        return is_int(point) and 0 <= point < self.n

    def distance(self, a: int, b: int) -> float:
        """Exact-match metric: 0 for equal ids, inf otherwise."""
        self._check_kind(a)
        self._check_kind(b)
        return 0.0 if a == b else math.inf

    def _check_kind(self, point):
        if not is_int(point):
            raise ActionKindMismatchError(
                f"expected a discrete action id, got {type(point).__name__}"
            )


def continuous_action_distance(a, b) -> float:
    """Euclidean distance between continuous action vectors.

    Raises ActionKindMismatchError when either operand is not a float
    vector or the arities differ.
    """
    for point in (a, b):
        if not isinstance(point, tuple) or not point:
            raise ActionKindMismatchError(
                f"expected a continuous action tuple, got {type(point).__name__}"
            )
    if len(a) != len(b):
        raise ActionKindMismatchError(
            f"action arity mismatch: {len(a)} vs {len(b)}"
        )
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return math.sqrt(total)
