"""Unit tests for workload sampling primitives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.distributions import Tiered, WeightedChoice
from repro.workload.jobs import JobDistribution
from repro.workload.nodes import NodeDistribution


class TestTiered:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tiered(tiers=())
        with pytest.raises(ValueError):
            Tiered(tiers=((0.0, 1, 2),))
        with pytest.raises(ValueError):
            Tiered(tiers=((1.0, 2, 1),))

    def test_samples_within_bounds(self, rng):
        dist = Tiered(tiers=((0.7, 1.0, 2.0), (0.3, 5.0, 9.0)))
        samples = [dist.sample(rng) for _ in range(500)]
        for s in samples:
            assert (1.0 <= s <= 2.0) or (5.0 <= s <= 9.0)
        assert dist.min_value == 1.0
        assert dist.max_value == 9.0

    def test_weights_respected(self, rng):
        dist = Tiered(tiers=((0.9, 0.0, 1.0), (0.1, 10.0, 11.0)))
        samples = np.array([dist.sample(rng) for _ in range(2000)])
        low_fraction = (samples < 5).mean()
        assert 0.85 < low_fraction < 0.95

    def test_degenerate_tier(self, rng):
        dist = Tiered(tiers=((1.0, 3.0, 3.0),))
        assert dist.sample(rng) == 3.0


class TestWeightedChoice:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedChoice(values=(), weights=())
        with pytest.raises(ValueError):
            WeightedChoice(values=(1, 2), weights=(1,))
        with pytest.raises(ValueError):
            WeightedChoice(values=(1,), weights=(0,))

    def test_samples_are_members(self, rng):
        choice = WeightedChoice(values=(1, 2, 4, 8), weights=(4, 3, 2, 1))
        for _ in range(200):
            assert choice.sample(rng) in (1, 2, 4, 8)

    def test_skew(self, rng):
        choice = WeightedChoice(values=(0, 1), weights=(9, 1))
        samples = np.array([choice.sample(rng) for _ in range(2000)])
        assert samples.mean() < 0.2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_deterministic_per_seed(self, seed):
        choice = WeightedChoice(values=(1, 2, 3), weights=(1, 1, 1))
        a = [choice.sample(np.random.default_rng(seed)) for _ in range(5)]
        b = [choice.sample(np.random.default_rng(seed)) for _ in range(5)]
        assert a == b


def _numpy_sample(dist, rng):
    """The sampler drawn through numpy's own ``Generator.choice(p=...)``."""
    if isinstance(dist, Tiered):
        w = np.array([t[0] for t in dist.tiers])
        _, lo, hi = dist.tiers[rng.choice(len(dist.tiers), p=w / w.sum())]
        return float(rng.uniform(lo, hi)) if hi > lo else lo
    w = np.asarray(dist.weights, dtype=float)
    return dist.values[rng.choice(len(dist.values), p=w / w.sum())]


_SAMPLERS = [
    (f"{type(owner).__name__}.{f.name}", getattr(owner, f.name))
    for owner in (NodeDistribution(), JobDistribution())
    for f in dataclasses.fields(owner)
    if isinstance(getattr(owner, f.name), (Tiered, WeightedChoice))
]


class TestMatchesNumpyChoice:
    """The cached-CDF samplers replay ``rng.choice(n, p=...)`` exactly:
    same values, and the generator ends in the same state.  A numpy that
    changes its weighted-choice algorithm fails here, not in the goldens."""

    @staticmethod
    def _assert_same_draws(dist, seed, draws=40):
        fast = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        assert [dist.sample(fast) for _ in range(draws)] == [
            _numpy_sample(dist, ref) for _ in range(draws)
        ]
        assert fast.bit_generator.state == ref.bit_generator.state

    def test_covers_every_workload_sampler(self):
        assert len(_SAMPLERS) == 14

    @pytest.mark.parametrize(
        "dist", [d for _, d in _SAMPLERS], ids=[n for n, _ in _SAMPLERS]
    )
    def test_workload_samplers(self, dist):
        for seed in range(100):
            self._assert_same_draws(dist, seed)

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_arbitrary_weights(self, weights, seed):
        values = tuple(range(len(weights)))
        self._assert_same_draws(
            WeightedChoice(values=values, weights=tuple(weights)), seed
        )
        tiers = tuple((w, float(i), i + 0.5) for i, w in enumerate(weights))
        self._assert_same_draws(Tiered(tiers=tiers), seed)
