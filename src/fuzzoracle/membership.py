"""Fuzzy membership shapes.

A shape maps a distance (>= 0) to a membership degree in [0, 1]. All shapes
are non-increasing and return 1 at distance zero. Shapes are identified by
name so they can round-trip through policy files:

* ``linear``    1 - d/width, clipped at 0
* ``quadratic`` (1 - d/width)^2 on [0, width], 0 beyond
* ``indicator`` 1 when d == 0, else 0 (width ignored)

``width`` may be left unset for shapes whose scale is supplied at call time
(the state shape is evaluated against half the minimum reference distance
of whichever policy is in play). ``shape.at(width)`` binds a shape to a
width once, for a scorer that evaluates it at one width at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHAPE_KINDS = ("linear", "quadratic", "indicator")


@dataclass(frozen=True)
class MembershipShape:
    kind: str
    width: float | None = None

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown membership shape {self.kind!r}")
        if self.width is not None and not self.width > 0:
            raise ValueError("shape width must be positive")

    def __call__(self, distance: float, width: float | None = None) -> float:
        """Membership degree for ``distance``.

        ``width`` overrides the shape's own width for this evaluation; one
        of the two must be set for scaled shapes.
        """
        return self.at(width)(distance)

    def at(self, width: float | None = None):
        """The shape as a callable of the distance alone: ``shape.at(w)(d)``
        is ``shape(d, w)``, with the width resolved and checked once, here."""
        if self.kind == "indicator":
            return _indicator
        return _RAMPS[self.kind](self._width(width))

    def degrees(self, distances: np.ndarray, width: float | None = None) -> np.ndarray:
        """:meth:`__call__` over an array of non-negative distances, with the
        same float operations, so each degree matches the scalar one bit for
        bit."""
        if self.kind == "indicator":
            return np.where(distances == 0, 1.0, 0.0)
        w = self._width(width)
        ramp = 1.0 - distances / w
        if self.kind == "quadratic":
            ramp = ramp * ramp
        return np.where(distances >= w, 0.0, ramp)

    def _width(self, width: float | None) -> float:
        w = width if width is not None else self.width
        if w is None or w <= 0:
            raise ValueError(f"shape {self.kind!r} needs a positive width")
        return w


# The one scalar body of each shape kind; a ramp's is bound to its width.


def _indicator(distance: float) -> float:
    if distance < 0:
        raise _negative()
    return 1.0 if distance == 0 else 0.0


def _linear(w: float):
    def degree(distance: float) -> float:
        if distance < 0:
            raise _negative()
        if distance >= w:
            return 0.0
        return 1.0 - distance / w

    return degree


def _quadratic(w: float):
    def degree(distance: float) -> float:
        if distance < 0:
            raise _negative()
        if distance >= w:
            return 0.0
        ramp = 1.0 - distance / w
        return ramp * ramp

    return degree


_RAMPS = {"linear": _linear, "quadratic": _quadratic}


def _negative() -> ValueError:
    return ValueError("distance must be non-negative")
