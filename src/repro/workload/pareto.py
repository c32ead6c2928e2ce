"""Bounded Pareto peer upload capacities (paper Section VI-A).

"The upload capacity of users follows a Pareto distribution within range
[180 Kbps, 10 Mbps] with shape parameter k = 3." We sample a Pareto with
scale = lower bound and shape k, truncated at the upper bound via inverse
CDF sampling restricted to the admissible quantile range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoundedPareto"]


@dataclass(frozen=True)
class BoundedPareto:
    """Pareto(shape, low) truncated to [low, high].

    Attributes are in bytes/second to match the rest of the library; the
    defaults encode the paper's range (180 kbps = 22 500 B/s, 10 Mbps =
    1 250 000 B/s) and shape 3.
    """

    low: float = 180e3 / 8.0
    high: float = 10e6 / 8.0
    shape: float = 3.0

    def __post_init__(self) -> None:
        if self.low <= 0:
            raise ValueError(f"low must be > 0, got {self.low}")
        if self.high <= self.low:
            raise ValueError("high must exceed low")
        if self.shape <= 0:
            raise ValueError(f"shape must be > 0, got {self.shape}")

    def mean(self) -> float:
        """Mean of the truncated distribution (closed form)."""
        k, lo, h = self.shape, self.low, self.high
        cap = 1.0 - (lo / h) ** k
        if k == 1.0:
            integral = lo * np.log(h / lo)
        else:
            integral = lo**k * (lo ** (1.0 - k) - h ** (1.0 - k)) * k / (k - 1.0)
        return float(integral / cap)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` capacities via inverse-CDF on the truncated range."""
        if size < 0:
            raise ValueError("size must be >= 0")
        cap = 1.0 - (self.low / self.high) ** self.shape
        u = rng.random(size) * cap
        return self.low / (1.0 - u) ** (1.0 / self.shape)

    def scaled_to_mean(self, target_mean: float) -> "BoundedPareto":
        """Return a copy whose bounds are scaled to hit ``target_mean``.

        Used for the Fig 11 sweep, which varies the ratio of average peer
        upload capacity to the streaming rate while keeping the shape.
        """
        if target_mean <= 0:
            raise ValueError("target mean must be > 0")
        ratio = target_mean / self.mean()
        return BoundedPareto(self.low * ratio, self.high * ratio, self.shape)
