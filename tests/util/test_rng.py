"""Deterministic RNG stream tests."""

import numpy as np
import pytest

from repro.util.rng import RngStream, spawn_streams


class TestRngStream:
    def test_same_seed_and_name_reproduce(self):
        a = RngStream(42, "faults").uniform(size=100)
        b = RngStream(42, "faults").uniform(size=100)
        assert np.array_equal(a, b)

    def test_different_names_are_independent(self):
        a = RngStream(42, "faults").uniform(size=100)
        b = RngStream(42, "apps").uniform(size=100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1, "x").uniform(size=50)
        b = RngStream(2, "x").uniform(size=50)
        assert not np.array_equal(a, b)

    def test_child_streams_are_namespaced(self):
        root = RngStream(7, "root")
        c1 = root.child("a")
        c2 = root.child("b")
        assert c1.name == "root/a"
        assert not np.array_equal(c1.uniform(size=20), c2.uniform(size=20))

    def test_child_is_reproducible(self):
        a = RngStream(7, "root").child("sub").exponential(2.0, size=10)
        b = RngStream(7, "root").child("sub").exponential(2.0, size=10)
        assert np.array_equal(a, b)

    def test_copy_continues_from_the_same_position_independently(self):
        stream = RngStream(7, "root")
        stream.normal(size=5)
        twin = stream.copy()
        assert (twin.root_seed, twin.name) == (stream.root_seed, stream.name)
        assert np.array_equal(twin.uniform(size=8), stream.uniform(size=8))
        # Drawing from one leaves the other where it was.
        stream.uniform(size=3)
        fresh = RngStream(7, "root")
        fresh.normal(size=5)
        fresh.uniform(size=8)
        assert np.array_equal(twin.uniform(size=4), fresh.uniform(size=4))

    def test_weibull_scale_applied(self):
        rng = RngStream(0, "w")
        samples = rng.weibull(1.0, 100.0, size=20_000)
        # shape 1 Weibull = exponential with the given scale (mean == scale).
        assert np.mean(samples) == pytest.approx(100.0, rel=0.05)

    def test_integers_bounds(self):
        rng = RngStream(0, "i")
        vals = rng.integers(0, 10, size=1000)
        assert vals.min() >= 0 and vals.max() < 10

    def test_spawn_streams(self):
        streams = spawn_streams(9, "a", "b", "c")
        assert set(streams) == {"a", "b", "c"}
        assert all(isinstance(s, RngStream) for s in streams.values())
