"""Metric value types: bounded-memory duration histograms.

Each span exit feeds a :class:`Histogram` per name, so every
instrumented phase gets a latency *distribution* (p50/p95/p99), not just
a total.  The histogram keeps raw samples up to a limit — quantiles are
**exact** below the limit — then decimates deterministically (keep every
second retained sample, double the stride) so memory stays bounded no
matter how many observations arrive.  Decimation keeps an unbiased
systematic sample of the observation stream, which is the right
trade-off for wall-clock durations: tails stay visible, memory stays
O(limit).
"""

from __future__ import annotations

import math
from typing import Any


class Histogram:
    """A duration distribution with exact-until-bounded quantiles.

    ``count``/``total``/``minimum``/``maximum`` always reflect *every*
    observation; quantiles are computed from the retained sample set
    (exact while ``sample_stride == 1``).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_samples", "_limit",
                 "_stride", "_since_kept")

    def __init__(self, limit: int = 2048) -> None:
        if limit < 2:
            raise ValueError(f"sample limit must be >= 2, got {limit}")
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: list[float] = []
        self._limit = limit
        self._stride = 1
        self._since_kept = 0

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._since_kept += 1
        if self._since_kept >= self._stride:
            self._since_kept = 0
            self._samples.append(value)
            if len(self._samples) >= self._limit:
                # Deterministic decimation: halve the retained samples,
                # double the keep-stride.  Stays a systematic 1-in-stride
                # sample of the stream.
                self._samples = self._samples[::2]
                self._stride *= 2

    # -- statistics ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        """True while quantiles are computed over every observation."""
        return self._stride == 1

    @property
    def sample_stride(self) -> int:
        """Current keep-every-Nth stride of the retained sample set."""
        return self._stride

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained samples.

        ``q=0`` returns the true minimum and ``q=1`` the true maximum
        (tracked exactly regardless of decimation).

        Raises:
            ValueError: if ``q`` is outside [0, 1] or nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("quantile of an empty histogram")
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def summary(self) -> dict[str, Any]:
        """JSON-ready digest: count, sum, min/max/mean, p50/p95/p99."""
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "exact": self.exact,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.6f}, "
            f"stride={self._stride})"
        )
