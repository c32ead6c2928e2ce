"""Demand predictors (paper Section V-B).

The paper's controller uses "user arrival patterns in the previous time
interval... to predict the capacity demand in the next interval" — the
last-interval rule — and explicitly leaves "more accurate prediction
methods based on historical data collected over more intervals" as future
work. We implement that rule and two such extensions (moving average and
EWMA), benchmarked against each other in the predictor ablation.

A predictor maps the per-interval observed arrival-rate history of one
channel to the rate used for the next interval's capacity calculation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Protocol

from repro.vod.delivery import sequential_sum

__all__ = [
    "ArrivalRatePredictor",
    "LastIntervalPredictor",
    "MovingAveragePredictor",
    "EWMAPredictor",
    "SeasonalPredictor",
]


class ArrivalRatePredictor(Protocol):
    """Predicts the next interval's arrival rate for each channel."""

    def observe(self, channel_id: int, rate: float) -> None:
        """Record the rate measured over the interval that just closed."""
        ...

    def predict(self, channel_id: int) -> float:
        """Rate to provision for in the upcoming interval."""
        ...


class LastIntervalPredictor:
    """The paper's predictor: next interval looks like the last one."""

    def __init__(self, initial_rate: float = 0.0) -> None:
        if initial_rate < 0:
            raise ValueError("initial rate must be >= 0")
        self.initial_rate = initial_rate
        self._last: Dict[int, float] = {}

    def observe(self, channel_id: int, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self._last[channel_id] = rate

    def predict(self, channel_id: int) -> float:
        return self._last.get(channel_id, self.initial_rate)


class MovingAveragePredictor:
    """Mean of the last ``window`` observed interval rates."""

    def __init__(self, window: int = 3, initial_rate: float = 0.0) -> None:
        if window <= 0:
            raise ValueError("window must be >= 1")
        if initial_rate < 0:
            raise ValueError("initial rate must be >= 0")
        self.window = window
        self.initial_rate = initial_rate
        self._history: Dict[int, Deque[float]] = {}

    def observe(self, channel_id: int, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self._history.setdefault(channel_id, deque(maxlen=self.window)).append(rate)

    def predict(self, channel_id: int) -> float:
        history = self._history.get(channel_id)
        if not history:
            return self.initial_rate
        return sequential_sum(history) / len(history)


class SeasonalPredictor:
    """Blend of the last interval and the same slot in the previous period.

    VoD demand is strongly diurnal (two flash crowds a day), so the rate
    observed 24 hours ago is often a better predictor of the *next* hour
    than the rate observed in the last hour — especially on the rising
    edge of a flash crowd, exactly where the last-interval rule
    under-provisions.

        prediction = blend * seasonal + (1 - blend) * last

    where ``seasonal`` is the observation ``period`` intervals ago (falls
    back to ``last`` until a full period of history exists).

    Parameters
    ----------
    period:
        Number of intervals per season (24 for hourly intervals and a
        daily pattern).
    blend:
        Weight of the seasonal component, in [0, 1].
    """

    def __init__(
        self,
        period: int = 24,
        blend: float = 0.5,
        initial_rate: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be >= 1")
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        if initial_rate < 0:
            raise ValueError("initial rate must be >= 0")
        self.period = period
        self.blend = blend
        self.initial_rate = initial_rate
        self._history: Dict[int, Deque[float]] = {}

    def observe(self, channel_id: int, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self._history.setdefault(
            channel_id, deque(maxlen=self.period)
        ).append(rate)

    def predict(self, channel_id: int) -> float:
        history = self._history.get(channel_id)
        if not history:
            return self.initial_rate
        last = history[-1]
        if len(history) == self.period:
            # The oldest retained entry is the observation from exactly one
            # period ago relative to the *upcoming* interval.
            seasonal = history[0]
            return self.blend * seasonal + (1.0 - self.blend) * last
        return last


class EWMAPredictor:
    """Exponentially weighted moving average with smoothing ``beta``.

    prediction <- beta * observation + (1 - beta) * prediction.
    ``beta = 1`` degenerates to the last-interval rule.
    """

    def __init__(self, beta: float = 0.5, initial_rate: float = 0.0) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if initial_rate < 0:
            raise ValueError("initial rate must be >= 0")
        self.beta = beta
        self.initial_rate = initial_rate
        self._state: Dict[int, float] = {}

    def observe(self, channel_id: int, rate: float) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        previous: Optional[float] = self._state.get(channel_id)
        if previous is None:
            self._state[channel_id] = rate
        else:
            self._state[channel_id] = self.beta * rate + (1 - self.beta) * previous

    def predict(self, channel_id: int) -> float:
        return self._state.get(channel_id, self.initial_rate)
