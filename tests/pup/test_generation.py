"""A replica's checkpoint as one generation: the one-pass pack, the buddy
compare and the restore give what the per-shard calls give.

* ``CheckpointGeneration.pack`` equals ``pack(app.shard(r), like=...)``
  rank by rank, bytes, directories and directory sharing alike;
* ``detect_sdc`` equals a per-rank ``compare_checkpoints`` (or digest)
  reference loop;
* stored and cloned buffers are read-only, and a restore never leaves an
  application array aliasing one.
"""

import numpy as np
import pytest

from repro.apps.registry import MINIAPP_NAMES, make_app
from repro.core.checkpoint import CheckpointGeneration, CheckpointStore
from repro.core.sdc import detect_sdc
from repro.pup.checker import compare_checkpoints, compare_checksums
from repro.pup.checksum import checkpoint_checksum
from repro.pup.puper import _JOIN_LIMIT, PackedState, pack

APPS = (*MINIAPP_NAMES, "synthetic")
#: 7 ranks split every app's state unevenly.
RANK_COUNTS = (1, 3, 16, 7)


def generation(app, iteration=0, like=None):
    gen = CheckpointGeneration(iteration)
    gen.pack(app.pup_shard, app.nodes_per_replica, like=like)
    return gen


def assert_same_shards(gen, states):
    assert len(gen.buffers) == len(states)
    for rank, state in enumerate(states):
        assert gen.buffers[rank].tobytes() == state.buffer.tobytes()
        assert gen.directories[rank] == state.fields


class TestPackEquivalence:
    @pytest.mark.parametrize("nodes", RANK_COUNTS)
    @pytest.mark.parametrize("name", APPS)
    def test_generation_pack_equals_per_shard_packs(self, name, nodes):
        app = make_app(name, nodes, scale=1e-3, seed=5)
        first = generation(app)
        assert_same_shards(first, [pack(app.shard(r)) for r in range(nodes)])

        # The buddy packs like the first generation, as replica 1 does at
        # launch, and the next checkpoint packs like its safe generation.
        for _ in range(2):
            app.advance_to(app.iteration + 1)
            refs = [pack(app.shard(r), like=first.shard(r))
                    for r in range(nodes)]
            gen = generation(app, app.iteration, like=first)
            assert_same_shards(gen, refs)
            for rank in range(nodes):
                shared_ref = refs[rank].fields is first.directories[rank]
                assert (gen.directories[rank] is first.directories[rank]) \
                    == shared_ref
            first = gen

    def test_changed_field_rebuilds_only_that_ranks_directory(self):
        toy = Toy(4, seed=1)
        first = generation(toy)
        toy.ints[2] = np.arange(5)          # rank 2's shape changes
        second = generation(toy, like=first)
        for rank in (0, 1, 3):
            assert second.directories[rank] is first.directories[rank]
        assert second.directories[2] is not first.directories[2]
        assert second.directories[2] == pack(toy.shard(2)).fields
        assert second.keys is not first.keys

    def test_equal_keys_reuse_the_like_key_list(self):
        toy = Toy(4, seed=1)
        first = generation(toy)
        toy.floats[0][0] += 1.0
        second = generation(toy, like=first)
        assert second.keys is first.keys and second.ends is first.ends
        assert second.directories is not first.directories

    def test_equal_directories_are_interned(self):
        app = make_app("synthetic", 8, scale=1e-3, seed=2)
        gen = generation(app)
        assert all(d is gen.directories[0] for d in gen.directories)

    def test_non_contiguous_and_large_fields(self):
        big = Toy(2, seed=3, length=_JOIN_LIMIT // 8 + 5)
        big.floats[1] = np.asfortranarray(
            np.arange(12.0).reshape(3, 4))         # not C-contiguous
        gen = generation(big)
        assert gen.buffers[0].nbytes >= _JOIN_LIMIT
        assert_same_shards(gen, [pack(big.shard(r)) for r in range(2)])


class Toy:
    """A replica-like object with bit-exact, tolerant, atol and skipped
    fields on every rank."""

    def __init__(self, nodes, seed, length=6):
        rng = np.random.default_rng(seed)
        self.nodes_per_replica = nodes
        self.floats = [rng.normal(size=length) for _ in range(nodes)]
        self.close = [rng.normal(size=3) for _ in range(nodes)]
        self.near = [rng.normal(size=3) for _ in range(nodes)]
        self.ints = [rng.integers(0, 1 << 30, size=4) for _ in range(nodes)]
        self.timers = [float(rng.random()) for _ in range(nodes)]

    def copy(self):
        twin = Toy.__new__(Toy)
        twin.nodes_per_replica = self.nodes_per_replica
        for name in ("floats", "close", "near", "ints"):
            setattr(twin, name, [a.copy() for a in getattr(self, name)])
        twin.timers = list(self.timers)
        return twin

    def pup_shard(self, p, rank):
        self.floats[rank] = p.pup_array("floats", self.floats[rank])
        self.close[rank] = p.pup_array("close", self.close[rank], rtol=1e-6)
        self.near[rank] = p.pup_array("near", self.near[rank], atol=1e-3)
        self.ints[rank] = p.pup_array("ints", self.ints[rank])
        self.timers[rank] = p.pup_float("timer", self.timers[rank],
                                        skip_compare=True)

    def shard(self, rank):
        toy = self

        class Ref:
            def pup(self, p):
                toy.pup_shard(p, rank)

        return Ref()

    def arrays(self):
        return [a for name in ("floats", "close", "near", "ints")
                for a in getattr(self, name)]


def flip_bit(rng, toy):
    """Flip one random bit of one random array of one random rank."""
    arrays = toy.arrays()
    arr = arrays[int(rng.integers(len(arrays)))]
    raw = arr.view(np.uint8).reshape(-1)
    raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))


def reference_mismatches(local, remote, *, use_checksum=False, rtol=0.0):
    bad = set()
    for rank in local.ranks:
        a, b = local.shard(rank), remote.shard(rank)
        if use_checksum:
            cmp = compare_checksums(a, checkpoint_checksum(b.buffer))
        else:
            cmp = compare_checkpoints(a, b, default_rtol=rtol)
        if not cmp.match:
            bad.add(rank)
    return bad


class TestCompareEquivalence:
    @pytest.mark.parametrize("use_checksum", (False, True))
    @pytest.mark.parametrize("rtol", (0.0, 1e-9, 0.5))
    def test_random_flips_match_the_reference_loop(self, use_checksum, rtol):
        rng = np.random.default_rng(11)
        caught = 0
        for trial in range(40):
            local_toy = Toy(5, seed=trial)
            remote_toy = local_toy.copy()
            for _ in range(int(rng.integers(0, 3))):
                flip_bit(rng, remote_toy)
            # Tolerated perturbations on the tolerant fields.
            remote_toy.close[trial % 5] *= 1 + 1e-9
            remote_toy.near[(trial + 1) % 5] += 1e-5
            remote_toy.timers[(trial + 2) % 5] += 1.0
            local = generation(local_toy, 1)
            remote = generation(remote_toy, 1, like=local)
            expected = reference_mismatches(local, remote,
                                            use_checksum=use_checksum,
                                            rtol=rtol)
            result = detect_sdc(local, remote, use_checksum=use_checksum,
                                rtol=rtol)
            assert result.mismatched_ranks == expected
            assert result.clean == (not expected)
            caught += bool(expected)
        assert caught > 5  # the trials do exercise detection

    def test_diverged_directories_are_compared_field_by_field(self):
        local_toy = Toy(4, seed=7)
        remote_toy = local_toy.copy()
        remote_toy.ints[1] = np.arange(6)                  # structure differs
        remote_toy.close[3] = remote_toy.close[3] * (1 + 1e-9)  # tolerated
        local = generation(local_toy, 2)
        remote = generation(remote_toy, 2)                 # no like=: own dirs
        assert all(a is not b for a, b in zip(local.directories,
                                              remote.directories))
        assert local.buffers[3].tobytes() != remote.buffers[3].tobytes()
        expected = reference_mismatches(local, remote)
        assert expected == {1}
        assert detect_sdc(local, remote).mismatched_ranks == expected

    def test_shared_directories_with_equal_bytes_skip_the_field_loop(
            self, monkeypatch):
        from repro.core import sdc

        toy = Toy(6, seed=4)
        local = generation(toy, 1)
        remote = generation(toy.copy(), 1, like=local)
        toy2 = toy.copy()
        toy2.ints[4][0] += 1
        diverged = generation(toy2, 1, like=local)
        calls = []
        real = sdc.compare_checkpoints

        def counting(a, b, **kwargs):
            calls.append(a)
            return real(a, b, **kwargs)

        monkeypatch.setattr(sdc, "compare_checkpoints", counting)
        assert detect_sdc(local, remote).clean
        assert calls == []
        assert detect_sdc(local, diverged).mismatched_ranks == {4}
        assert len(calls) == 1


class TestReadOnlyBuffers:
    @pytest.mark.parametrize("length", (6, _JOIN_LIMIT // 8 + 5))
    def test_stored_and_cloned_buffers_reject_writes(self, length):
        toy = Toy(2, seed=9, length=length)
        gen = generation(toy)
        store = CheckpointStore(2)
        store.install_safe(0, gen)
        clone = store.clone_generation(gen)
        store.install_safe(1, clone)
        for held in (gen, clone, store.safe(0), store.safe(1)):
            for rank in range(2):
                with pytest.raises(ValueError, match="read-only"):
                    held.buffers[rank][0] = 1
                with pytest.raises(ValueError, match="read-only"):
                    held.shard(rank).buffer[:] = 0
        assert all(a is b for a, b in zip(gen.buffers, clone.buffers))

    def test_put_shard_stores_a_read_only_copy(self):
        store = CheckpointStore(1)
        store.begin_candidate(0, 1, 0.0)
        buf = np.arange(8, dtype=np.uint8)
        store.put_shard(0, 0, PackedState(buf))
        buf[:] = 0
        stored = store.candidate(0).shard(0).buffer
        assert stored.tolist() == list(range(8))
        assert not stored.flags.writeable

    @pytest.mark.parametrize("length", (6, _JOIN_LIMIT // 8 + 5))
    def test_restore_never_aliases_the_buffers(self, length):
        toy = Toy(3, seed=2, length=length)
        gen = generation(toy)
        target = Toy(3, seed=99, length=length)
        target.ints[1] = np.arange(2)      # another shape: restored by copy
        target.floats[2].flags.writeable = False   # read-only: by copy
        gen.unpack(target.pup_shard)
        for arr in target.arrays():
            assert arr.flags.writeable
            for buf in gen.buffers:
                assert not np.shares_memory(arr, buf)
        again = generation(target)
        assert [b.tobytes() for b in again.buffers] == \
            [b.tobytes() for b in gen.buffers]
