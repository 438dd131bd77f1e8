"""ReplicaApp base-class and partitioning tests."""

import numpy as np
import pytest

from repro.apps import partition_bounds
from repro.apps.base import _hash_unit
from repro.apps.registry import make_app
from repro.apps.synthetic import SyntheticApp, synthetic_descriptor
from repro.pup import pack, unpack
from repro.util.errors import ConfigurationError
from tests.conftest import check_copied_state


class TestPartitionBounds:
    def test_exact_division(self):
        assert partition_bounds(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_remainder_spread_to_front(self):
        bounds = partition_bounds(10, 4)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [3, 3, 2, 2]

    def test_covers_everything_contiguously(self):
        bounds = partition_bounds(100, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c

    def test_rejects_more_parts_than_items(self):
        with pytest.raises(ConfigurationError):
            partition_bounds(3, 4)


class TestIterationTimeJitter:
    """iteration_time reads (seed, task) hash prefixes from a per-app table;
    it must stay bit-identical to the three-round _hash_unit."""

    @staticmethod
    def reference(app, task_id, iteration):
        base = app.descriptor.base_iteration_seconds
        return base * (1.0 + 0.05 * _hash_unit(app.seed, task_id, iteration))

    def test_bitwise_equal_to_hash_unit(self):
        rng = np.random.default_rng(20131117)
        seeds = [0, 1, 2**31 - 1] + rng.integers(0, 2**31, 9).tolist()
        for seed in seeds:
            app = SyntheticApp(2, seed=seed)
            tasks = rng.integers(0, 70_000, 2_000).tolist()
            iters = rng.integers(0, 10**6 + 1, 2_000).tolist()
            for task_id, iteration in zip(tasks, iters):
                got = app.iteration_time(task_id, iteration)
                assert got == self.reference(app, task_id, iteration), (
                    seed, task_id, iteration)

    def test_table_grows_in_any_order(self):
        app = SyntheticApp(2, seed=7)
        order = [5, 0, 4096, 3, 70, 9000, 1]
        got = [app.iteration_time(t, 12) for t in order]
        assert got == [self.reference(app, t, 12) for t in order]
        assert len(app._jitter_prefixes[0]) > 9000

    def test_negative_task_id_uses_reference_hash(self):
        app = SyntheticApp(2, seed=7)
        app.iteration_time(3, 1)
        assert app.iteration_time(-2, 5) == self.reference(app, -2, 5)


class TestSyntheticApp:
    def test_descriptor_customization(self):
        d = synthetic_descriptor(bytes_per_core=123, serialize_factor=2.5,
                                 iteration_seconds=0.7, memory_pressure="low")
        app = SyntheticApp(2, descriptor=d)
        assert app.descriptor.declared_bytes_per_core == 123
        assert app.checkpoint_profile().serialize_factor == 2.5

    def test_state_bounded_under_long_evolution(self):
        app = SyntheticApp(2, seed=5)
        app.advance_to(500)
        assert np.abs(app.state).max() < 10.0

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticApp(2, scale=0.0)
        with pytest.raises(ConfigurationError):
            SyntheticApp(2, scale=1.5)

    def test_nodes_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticApp(0)

    def test_checkpoint_round_trip_mid_run(self):
        a = SyntheticApp(3, seed=1)
        a.advance_to(7)
        shards = [pack(a.shard(r)) for r in range(3)]
        a.advance_to(20)
        target = a.result_digest()

        b = SyntheticApp(3, seed=1)
        for r in range(3):
            unpack(b.shard(r), shards[r])
        b.advance_to(20)
        assert np.array_equal(b.result_digest(), target)


class TestCopyStateFrom:
    """``copy_state_from`` is what re-running the kernel would give, into the
    destination's own buffers."""

    @pytest.mark.parametrize("name", [
        "lulesh", "hpccg", "jacobi3d-charm", "jacobi3d-ampi", "minimd",
        "leanmd", "synthetic"])
    def test_copy_equals_recompute(self, name):
        src, dst, ref = (make_app(name, 2, scale=0.005, seed=4)
                         for _ in range(3))
        buffers = {k: id(v) for k, v in vars(dst).items()
                   if isinstance(v, np.ndarray)}
        src.advance_to(3)
        ref.advance_to(3)
        dst.copy_state_from(src)
        check_copied_state(dst, ref, src)
        assert buffers == {k: id(v) for k, v in vars(dst).items()
                           if isinstance(v, np.ndarray)}
        # The copy owns its state: moving the source on leaves it alone,
        # and it continues exactly like the reference.
        src.advance_to(5)
        check_copied_state(dst, ref, src)
        dst.advance_to(5)
        ref.advance_to(5)
        check_copied_state(dst, ref, src)


class TestClone:
    """``clone`` is what building the app a second time would give."""

    @pytest.mark.parametrize("name", [
        "lulesh", "hpccg", "jacobi3d-charm", "jacobi3d-ampi", "minimd",
        "leanmd", "synthetic"])
    def test_clone_equals_a_second_build(self, name):
        first, built = (make_app(name, 3, scale=0.005, seed=9)
                        for _ in range(2))
        twin = first.clone()
        check_copied_state(twin, built, first)
        for key, value in vars(built).items():
            mine = vars(twin)[key]
            if isinstance(value, np.ndarray):
                assert mine.strides == value.strides, key
            elif isinstance(value, (list, dict)):
                assert mine == value and mine is not vars(first)[key], key
        assert (twin.rng.generator.bit_generator.state
                == built.rng.generator.bit_generator.state)
        assert twin.rng is not first.rng
        # Independent from here on: advancing the original leaves the twin
        # alone, and the twin advances exactly like the second build.
        first.advance_to(2)
        check_copied_state(twin, built, first)
        twin.advance_to(4)
        built.advance_to(4)
        check_copied_state(twin, built, first)
