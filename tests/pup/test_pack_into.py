"""Zero-copy packing tests: buffer reuse, dirty tracking, drift detection."""

import threading

import numpy as np
import pytest

from repro.pup.puper import (
    BufferPackingPUPer,
    PUPError,
    SizingPUPer,
    pack,
    pack_into,
    unpack,
)


class State:
    def __init__(self, n=32):
        self.iteration = 0
        self.grid = np.arange(float(n))
        self.ids = np.arange(4, dtype=np.int32)

    def pup(self, p):
        self.iteration = p.pup_int("iteration", self.iteration)
        self.grid = p.pup_array("grid", self.grid)
        self.ids = p.pup_array("ids", self.ids)


class TestBufferIdentity:
    def test_buffer_identity_stable_across_rounds(self):
        src = State()
        state = pack_into(src)
        buf = state.buffer
        for _ in range(3):
            src.iteration += 1
            src.grid += 1.0
            out = pack_into(src, state)
            assert out is state
            assert out.buffer is buf  # zero allocations in steady state

    def test_first_call_matches_pack(self):
        src = State()
        assert np.array_equal(pack_into(State()).buffer, pack(src).buffer)

    def test_round_trip_is_bit_identical(self):
        src = State()
        state = pack_into(src)
        for round_no in range(1, 4):
            src.iteration = round_no
            src.grid *= -1.5
            pack_into(src, state)
            dst = State()
            unpack(dst, state)
            assert dst.iteration == round_no
            assert np.array_equal(dst.grid.view(np.uint64),
                                  src.grid.view(np.uint64))
            assert np.array_equal(dst.ids, src.ids)


class TestDirtyTracking:
    def test_unchanged_fields_keep_version(self):
        src = State()
        state = pack_into(src)
        src.grid += 1.0
        pack_into(src, state, track_dirty=True)
        assert state.version_of("grid") == 1
        assert state.version_of("ids") == 0
        assert state.version_of("iteration") == 0

    def test_every_change_bumps_version(self):
        src = State()
        state = pack_into(src)
        for expected in range(1, 4):
            src.grid += 1.0
            pack_into(src, state, track_dirty=True)
            assert state.version_of("grid") == expected

    def test_untracked_repack_bumps_everything(self):
        src = State()
        state = pack_into(src)
        pack_into(src, state)  # track_dirty=False: conservative bump
        assert state.version_of("ids") == 1

    def test_copy_preserves_versions(self):
        src = State()
        state = pack_into(src)
        src.grid += 1.0
        pack_into(src, state, track_dirty=True)
        assert state.copy().version_of("grid") == 1


class TestDriftDetection:
    def test_shape_drift_raises(self):
        src = State()
        state = pack_into(src)
        src.grid = np.arange(16.0)
        with pytest.raises(PUPError, match="drifted"):
            pack_into(src, state)

    def test_dtype_drift_raises(self):
        src = State()
        state = pack_into(src)
        src.ids = src.ids.astype(np.int64)
        with pytest.raises(PUPError, match="drifted"):
            pack_into(src, state)

    def test_extra_field_raises(self):
        src = State()
        state = pack_into(src)

        class Grown(State):
            def pup(self, p):
                super().pup(p)
                p.pup_int("extra", 7)

        grown = Grown()
        with pytest.raises(PUPError, match="grew"):
            pack_into(grown, state)

    def test_missing_field_raises(self):
        src = State()
        state = pack_into(src)

        class Shrunk(State):
            def pup(self, p):
                self.iteration = p.pup_int("iteration", self.iteration)
                self.grid = p.pup_array("grid", self.grid)

        with pytest.raises(PUPError, match="consumed 2 of 3"):
            pack_into(Shrunk(), state)

    def test_renamed_field_raises(self):
        src = State()
        state = pack_into(src)

        class Renamed(State):
            def pup(self, p):
                self.iteration = p.pup_int("step", self.iteration)
                self.grid = p.pup_array("grid", self.grid)
                self.ids = p.pup_array("ids", self.ids)

        with pytest.raises(PUPError, match="order mismatch"):
            pack_into(Renamed(), state)

    def test_drift_never_writes_out_of_bounds(self):
        src = State()
        state = pack_into(src)
        before = state.buffer.copy()
        src.ids = np.arange(400, dtype=np.int32)  # would overrun its slice
        with pytest.raises(PUPError):
            pack_into(src, state)
        # iteration and grid were re-written (same values); ids slice intact.
        assert np.array_equal(state.buffer, before)


class TestBufferValidation:
    def test_non_uint8_buffer_rejected(self):
        with pytest.raises(PUPError, match="uint8"):
            BufferPackingPUPer(np.zeros(8, dtype=np.float64), expect=[])

    def test_readonly_buffer_rejected(self):
        buf = np.zeros(8, dtype=np.uint8)
        buf.flags.writeable = False
        with pytest.raises(PUPError, match="writable"):
            BufferPackingPUPer(buf, expect=[])


class Inner:
    def __init__(self, tag):
        self.value = np.full(3, float(tag))

    def pup(self, p):
        self.value = p.pup_array("value", self.value)


class Outer:
    def __init__(self, tag):
        self.tag = tag
        self.inner = Inner(tag)

    def pup(self, p):
        self.tag = p.pup_int("tag", self.tag)
        p.pup_object("inner", self.inner)


class TestScopeConcurrency:
    """The scope stack is per-PUPer instance, so concurrent packs of nested
    objects (parallel campaigns, threads) cannot cross-contaminate names."""

    def test_nested_names_qualified_per_instance(self):
        state = pack(Outer(1))
        assert [f.name for f in state.fields] == ["tag", "inner.value"]

    def test_concurrent_nested_packs_keep_names_straight(self):
        errors = []

        def worker(tag):
            try:
                for _ in range(200):
                    state = pack(Outer(tag))
                    names = [f.name for f in state.fields]
                    if names != ["tag", "inner.value"]:
                        errors.append(names)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_interleaved_pupers_do_not_share_scope(self):
        sizer = SizingPUPer()
        outer = Outer(2)
        # Simulate interleaving: enter a scope on one PUPer, then use another.
        sizer._scopes = ["somewhere", "deep"]
        state = pack(outer)
        assert [f.name for f in state.fields] == ["tag", "inner.value"]
