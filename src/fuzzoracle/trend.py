"""Trend analysis of a compliance series.

A healthy training run shows a non-negative overall trend and, once the
series has settled, no sustained collapse below the settled level. The
verdict for one intended policy is the conjunction of those two checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidWindowError, SeriesTooShortError


@dataclass(frozen=True)
class TrendParams:
    """Knobs for convergence detection and abnormality scanning.

    window: number of consecutive points that must sit inside a band of
        height ``epsilon`` for the series to count as converged, and the
        number of consecutive violations that flags an abnormality.
    epsilon: band height for convergence.
    delta: floor on the abnormality margin, so a perfectly flat converged
        window does not flag on the first speck of noise.
    """

    window: int = 5
    epsilon: float = 0.02
    delta: float = 0.1

    def __post_init__(self):
        if self.window < 1:
            raise InvalidWindowError(f"window must be >= 1, got {self.window}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class TrendReport:
    slope: float
    convergence_index: int | None
    abnormality_found: bool
    verdict: bool


def _values(series):
    values = tuple(getattr(series, "values", series))
    return values


def linreg_slope(series) -> float:
    """Ordinary-least-squares slope of the series against epoch indices.

    The sign is exact: the verdict turns on it, and a series whose true
    slope is zero can round to a tiny negative value. Where the rounded
    slope's sign is wrong, the exact slope rounded once is returned
    instead (0.0 for an exact zero, and the smallest float of its sign for
    a slope too small for any other).
    """
    y = _values(series)
    n = len(y)
    if n < 2:
        raise SeriesTooShortError(f"need at least 2 points, got {n}")
    x_mean = (n - 1) / 2.0
    y_mean = sum(y) / n
    sxy = 0.0
    sxx = 0.0
    for i, v in enumerate(y):
        dx = i - x_mean
        sxy += dx * (v - y_mean)
        sxx += dx * dx
    slope = sxy / sxx
    if not math.isfinite(slope):
        return slope
    # slope = 6 * sum((2i - (n-1)) * y_i) / (n (n^2 - 1)). Every float is
    # an integer over a power of two, so scaling all values to the largest
    # denominator 2**shift makes the weighted sum an exact integer.
    ratios = [float(v).as_integer_ratio() for v in y]
    shift = max(q for _, q in ratios).bit_length() - 1
    numerator = 6 * sum(
        (2 * i - (n - 1)) * (p << (shift - q.bit_length() + 1))
        for i, (p, q) in enumerate(ratios)
    )
    if (slope > 0) - (slope < 0) == (numerator > 0) - (numerator < 0):
        return slope
    if not numerator:
        return 0.0
    # Integer true division rounds correctly.
    exact = numerator / ((n * (n * n - 1)) << shift)
    return exact if exact else math.copysign(5e-324, numerator)


def convergence_start(series, window: int, epsilon: float) -> int | None:
    """First index where ``window`` consecutive points span at most ``epsilon``.

    Returns None when no window qualifies.
    """
    y = _values(series)
    if not 1 <= window <= len(y):
        raise InvalidWindowError(
            f"window {window} out of range for series of length {len(y)}"
        )
    for i in range(len(y) - window + 1):
        chunk = y[i : i + window]
        if max(chunk) - min(chunk) <= epsilon:
            return i
    return None


def trend_analysis(series, params: TrendParams) -> TrendReport:
    """Judge one compliance series.

    Unhealthy (verdict False) when the overall slope is negative, or when
    the series converges and later spends ``window`` consecutive epochs
    strictly below the settled level minus the abnormality margin. The
    margin is the converged window's own max-min spread, floored at
    ``params.delta``.
    """
    y = _values(series)
    if len(y) < 2:
        raise SeriesTooShortError(f"need at least 2 points, got {len(y)}")
    if len(y) < params.window + 1:
        raise InvalidWindowError(
            f"series of length {len(y)} too short for window {params.window}"
        )

    slope = linreg_slope(y)
    if slope < 0:
        return TrendReport(slope, None, False, False)

    cnvg = convergence_start(y, params.window, params.epsilon)
    if cnvg is None:
        return TrendReport(slope, None, False, True)

    chunk = y[cnvg : cnvg + params.window]
    spread = max(chunk) - min(chunk)
    lower_bound = y[cnvg] - max(spread, params.delta)

    consecutive = 0
    for value in y[cnvg + 1 :]:
        if value < lower_bound:
            consecutive += 1
            if consecutive >= params.window:
                return TrendReport(slope, cnvg, True, False)
        else:
            consecutive = 0
    return TrendReport(slope, cnvg, False, True)
