"""``pack(obj, like=...)`` directory sharing and the shared-directory fast
path of ``compare_checkpoints``."""

import numpy as np
import pytest

from repro.pup import checker
from repro.pup.checker import compare_checkpoints
from repro.pup.puper import PackedState, PUPError, pack


class State:
    """Bit-exact, skipped, tolerant and string fields, NaNs included."""

    def __init__(self, n=6, *, dtype=np.float64, rtol=1e-6, label="abc"):
        self.iteration = 4
        self.data = np.linspace(-1.0, 1.0, n).astype(dtype)
        self.data[1] = np.nan
        self.timer = 0.5
        self.noise = np.array([0.25, np.nan, -0.0, 3.0])
        self.rtol = rtol
        self.label = label

    def pup(self, p):
        self.iteration = p.pup_int("iteration", self.iteration)
        self.data = p.pup_array("data", self.data)
        self.timer = p.pup_float("timer", self.timer, skip_compare=True)
        self.noise = p.pup_array("noise", self.noise, rtol=self.rtol)
        self.label = p.pup_str("label", self.label)


def unshared(state: PackedState) -> PackedState:
    """The same bytes and directory entries under a distinct directory."""
    return PackedState(state.buffer, list(state.fields))


class TestPackLike:
    def test_bytes_equal_plain_pack(self):
        base = pack(State())
        for obj in (State(), State(n=9), State(label="longer"),
                    State(dtype=np.float32)):
            plain = pack(obj)
            liked = pack(obj, like=base)
            assert liked.buffer.tobytes() == plain.buffer.tobytes()
            assert liked.fields == plain.fields

    def test_matching_keys_share_the_directory(self):
        base = pack(State())
        state = State()
        state.data += 1.0  # values change, keys do not
        liked = pack(state, like=base)
        assert liked.fields is base.fields
        assert pack(State(), like=liked).fields is base.fields

    @pytest.mark.parametrize("variant", [
        {"n": 7},                      # shape
        {"dtype": np.float32},         # dtype
        {"rtol": 1e-3},                # tolerance
        {"label": "abcd"},             # pup_str length
    ])
    def test_changed_key_builds_a_new_directory(self, variant):
        base = pack(State())
        liked = pack(State(**variant), like=base)
        assert liked.fields is not base.fields
        assert liked.fields == pack(State(**variant)).fields

    def test_skip_flag_and_order_are_keys(self):
        class Flipped(State):
            def pup(self, p):
                p.pup_float("timer", self.timer)  # no skip flag
                p.pup_int("iteration", self.iteration)

        class Plain(Flipped):
            def pup(self, p):
                p.pup_float("timer", self.timer, skip_compare=True)
                p.pup_int("iteration", self.iteration)

        base = pack(Plain())
        assert pack(Flipped(), like=base).fields is not base.fields

    def test_non_contiguous_like_directory_not_shared(self):
        base = pack(State())
        shifted = [type(r)(r.name, r.dtype, r.shape, r.offset + 8, r.nbytes,
                           r.rtol, r.atol, r.skip_compare) for r in base.fields]
        like = PackedState(np.zeros(base.nbytes + 8, np.uint8), shifted)
        assert pack(State(), like=like).fields is not shifted

    def test_duplicate_names_still_raise(self):
        class Dup:
            def pup(self, p):
                p.pup_int("x", 1)
                p.pup_int("x", 2)

        class Single:
            def pup(self, p):
                p.pup_int("x", 1)

        with pytest.raises(PUPError, match="duplicate"):
            pack(Dup(), like=pack(Single()))
        with pytest.raises(PUPError, match="duplicate"):
            pack(Dup())


class TestCompareFastPath:
    def _pair(self):
        local = pack(State())
        remote = pack(State(), like=local)
        assert remote.fields is local.fields
        return local, remote

    def test_clean_pair_result_equals_per_field_result(self, monkeypatch):
        local, remote = self._pair()
        slow = compare_checkpoints(local, unshared(remote))
        assert slow.match and slow.skipped_bytes == 8

        def no_field_views(*args):  # the fast path reads no field
            raise AssertionError("per-field path taken")

        monkeypatch.setattr(checker, "_field_view", no_field_views)
        fast = compare_checkpoints(local, remote)
        assert fast == slow

    def test_default_tolerances_take_the_same_result(self):
        local, remote = self._pair()
        for kwargs in ({"default_rtol": 1e-3}, {"default_atol": 1e-9},
                       {"default_rtol": -0.5, "default_atol": -1.0}):
            assert (compare_checkpoints(local, remote, **kwargs)
                    == compare_checkpoints(local, unshared(remote), **kwargs))

    def test_negative_zero_goes_through_the_per_field_path(self):
        a, b = State(), State()
        a.data[0] = 0.0
        b.data[0] = -0.0
        b.noise[2] = 0.0  # tolerant field: -0.0 vs 0.0 is within rtol
        local = pack(a)
        remote = pack(b, like=local)
        assert remote.fields is local.fields
        result = compare_checkpoints(local, remote)
        assert result == compare_checkpoints(local, unshared(remote))
        assert [m.name for m in result.mismatches] == ["data"]
        assert result.mismatches[0].n_differing == 1

    def test_bit_flip_under_shared_directory_reported(self):
        local, remote = self._pair()
        remote.buffer[9] ^= 0x10  # inside "data"
        result = compare_checkpoints(local, remote)
        assert not result.match
        assert result == compare_checkpoints(local, unshared(remote))
        assert [m.name for m in result.mismatches] == ["data"]
