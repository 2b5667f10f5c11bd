"""Zipf popularity distributions.

Measurements of Napster and Gnutella traffic contemporary with the
paper consistently showed Zipf-like object popularity; the replication
experiment (E6) and the query workloads use this distribution to decide
which objects get requested and therefore replicated.
"""

from __future__ import annotations

import bisect
import random


class ZipfDistribution:
    """A Zipf(s) distribution over ranks ``0 .. n-1``."""

    def __init__(self, n: int, *, exponent: float = 1.0, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("the distribution needs at least one rank")
        if exponent < 0:
            raise ValueError("the exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        self._rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        self._cumulative: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0

    # ------------------------------------------------------------------
    def sample(self) -> int:
        """Draw one rank (0 is the most popular)."""
        return bisect.bisect_left(self._cumulative, self._rng.random())

    def sample_many(self, count: int) -> list[int]:
        return [self.sample() for _ in range(count)]

    def probability(self, rank: int) -> float:
        """The probability mass of ``rank``."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} outside [0, {self.n})")
        previous = self._cumulative[rank - 1] if rank > 0 else 0.0
        return self._cumulative[rank] - previous
