"""Diurnal arrival-rate pattern with two flash crowds (paper Section VI-A).

"User population in each channel follows a daily pattern with two flash
crowds around noon and in the evening." The pattern is a baseline plus two
Gaussian bumps, evaluated as a multiplicative factor on a channel's average
arrival rate; it repeats every 24 hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["DiurnalPattern"]

_DAY_SECONDS = 24 * 3600.0


@dataclass(frozen=True)
class DiurnalPattern:
    """A 24-hour periodic rate multiplier.

    factor(t) = base + sum_k amp_k * exp(-(h(t) - peak_k)^2 / (2 width_k^2))

    with ``h(t)`` the hour-of-day. The default parameters give a noon flash
    crowd and a larger evening flash crowd, normalized so that the *mean*
    factor over a day is 1 — multiplying by an average rate preserves that
    average.

    Attributes
    ----------
    base:
        Off-peak level before normalization.
    peak_hours / amplitudes / widths_hours:
        Per-bump Gaussian parameters (hours).
    """

    base: float = 0.5
    peak_hours: Sequence[float] = (12.0, 20.5)
    amplitudes: Sequence[float] = (0.9, 1.4)
    widths_hours: Sequence[float] = (1.5, 2.0)
    _norm: float = field(init=False, default=1.0)
    _peak: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if not (
            len(self.peak_hours) == len(self.amplitudes) == len(self.widths_hours)
        ):
            raise ValueError("peak/amplitude/width sequences must align")
        if any(a < 0 for a in self.amplitudes):
            raise ValueError("amplitudes must be >= 0")
        if any(w <= 0 for w in self.widths_hours):
            raise ValueError("widths must be > 0")
        # Normalize so the daily mean factor is 1.
        hours = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
        raw = self._raw(hours)
        mean = float(np.mean(raw))
        if mean <= 0:
            raise ValueError("pattern must have positive mean")
        object.__setattr__(self, "_norm", mean)
        # The day grid is in hand; cache the peak so per-channel trace
        # builders don't re-evaluate it.
        object.__setattr__(self, "_peak", float(np.max(raw) / mean))

    def _raw(self, hours: np.ndarray) -> np.ndarray:
        value = np.full_like(hours, self.base, dtype=float)
        for peak, amp, width in zip(
            self.peak_hours, self.amplitudes, self.widths_hours
        ):
            # Wrap-around distance on the 24 h circle.
            delta = np.abs(hours - peak)
            delta = np.minimum(delta, 24.0 - delta)
            value += amp * np.exp(-(delta**2) / (2.0 * width**2))
        return value

    def factor(self, time_seconds: float) -> float:
        """Rate multiplier at an absolute simulated time (seconds)."""
        hours = np.asarray([(time_seconds % _DAY_SECONDS) / 3600.0])
        return float(self._raw(hours)[0] / self._norm)

    def factors(self, times_seconds: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`factor`.

        The hour of day is ``t % day`` bit for bit, at a fraction of
        numpy's floor-remainder cost: ``fmod`` is exact, and the floor
        remainder is it plus the day where it is negative.  (A zero
        keeps the sign of ``t``, which no factor can see.)
        """
        t = np.asarray(times_seconds, dtype=float)
        hours = np.fmod(t, _DAY_SECONDS)
        np.add(hours, _DAY_SECONDS, out=hours, where=hours < 0)
        hours /= 3600.0
        return self._raw(hours) / self._norm

    def peak_factor(self) -> float:
        """Maximum multiplier over the day (flash-crowd intensity)."""
        return self._peak
