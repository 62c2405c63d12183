"""Sampling primitives for synthetic grid workloads.

The paper's workload is summarised qualitatively: "a high percentage of the
nodes and jobs have relatively low resource capabilities and requirements,
and a low percentage ... have high resource capabilities and requirements,
which is a common node capability distribution in grid environments"
(Section V-A).  :class:`Tiered` encodes exactly that: weighted tiers, each a
uniform range, with the weights front-loaded on the low tiers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Tiered", "WeightedChoice"]


def _choice_cdf(weights: Sequence[float]) -> List[float]:
    """The CDF ``Generator.choice(n, p=w / w.sum())`` searches.

    numpy draws a weighted choice as ``cumsum`` of ``p`` renormalised by
    its last entry, one ``random()`` draw and a right-sided search.
    Computing the CDF once and bisecting it per draw returns the same
    index and leaves the generator in the same state, without numpy's
    per-draw array work (about 20 µs a draw on a 2-core Xeon).
    """
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass(frozen=True)
class Tiered:
    """Mixture of uniform ranges: pick a tier by weight, then a value."""

    tiers: Tuple[Tuple[float, float, float], ...]  # (weight, low, high)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier required")
        for w, lo, hi in self.tiers:
            if w <= 0:
                raise ValueError("tier weights must be positive")
            if hi < lo:
                raise ValueError(f"tier range inverted: [{lo}, {hi}]")
        object.__setattr__(self, "_cdf", _choice_cdf([t[0] for t in self.tiers]))

    def sample(self, rng: np.random.Generator) -> float:
        _, lo, hi = self.tiers[bisect_right(self._cdf, rng.random())]
        return float(rng.uniform(lo, hi)) if hi > lo else lo

    @property
    def max_value(self) -> float:
        return max(t[2] for t in self.tiers)

    @property
    def min_value(self) -> float:
        return min(t[1] for t in self.tiers)


@dataclass(frozen=True)
class WeightedChoice:
    """Discrete weighted choice over explicit values (core counts etc.)."""

    values: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights):
            raise ValueError("values and weights must align")
        if not self.values:
            raise ValueError("empty choice set")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "_cdf", _choice_cdf(self.weights))

    def sample(self, rng: np.random.Generator) -> float:
        return self.values[bisect_right(self._cdf, rng.random())]

    @property
    def max_value(self) -> float:
        return max(self.values)
