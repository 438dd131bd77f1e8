"""A replica's checkpoint as one generation: the one-pass pack, the buddy
compare and the restore give what the per-shard calls give.

* ``CheckpointGeneration.pack`` equals ``pack(app.shard(r), like=...)``
  rank by rank, bytes, directories and directory sharing alike;
* ``detect_sdc`` equals a per-rank ``compare_checkpoints`` (or digest)
  reference loop over every layout a generation can hold: packed blocks of
  uneven widths, standalone copy-on-write shards, shards stored one by one
  and directories that are not shared;
* a clean scan of block-backed generations compares blocks, not ranks;
* stored and cloned buffers are read-only, and a restore never leaves an
  application array aliasing one.

``Toy`` splits every field across its ranks with ``pup_split``: bit-exact,
``rtol``, ``atol`` and skipped fields, each a 2-D array of one row per rank
unless a test resizes it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.base import ShardRef
from repro.apps.registry import MINIAPP_NAMES, make_app
from repro.core import sdc
from repro.core.checkpoint import CheckpointGeneration, CheckpointStore
from repro.core.sdc import detect_sdc
from repro.pup.checker import compare_checkpoints, compare_checksums
from repro.pup.checksum import checkpoint_checksum
from repro.pup.puper import PackedState, pack
from repro.storage.hierarchy import DurableHierarchy
from repro.storage.tiers import NODE_LOCAL_TIER

APPS = (*MINIAPP_NAMES, "synthetic")
#: 7 ranks split every app's state unevenly.
RANK_COUNTS = (1, 3, 16, 7)
#: Doubles per row of a field packed past 64 KiB per rank.
LARGE = 8197


def generation(app, iteration=0, like=None):
    gen = CheckpointGeneration(iteration)
    gen.pack(app, app.nodes_per_replica, like=like)
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

    def test_resized_split_field_rebuilds_one_run_directory(self):
        toy = Toy(4, seed=1)
        first = generation(toy)
        # One more row: rank 0's part grows to two rows, ranks 1-3 keep one.
        toy.ints = np.insert(toy.ints, 1, 7, axis=0)
        second = generation(toy, like=first)
        for rank in (1, 2, 3):
            assert second.directories[rank] is first.directories[rank]
        assert second.directories[0] is not first.directories[0]
        assert second.directories[0] == pack(toy.shard(0)).fields
        assert_same_shards(second, [pack(toy.shard(r)) for r in range(4)])

    def test_equal_keys_share_the_like_directories(self):
        toy = Toy(4, seed=1)
        first = generation(toy)
        toy.floats[0][0] += 1.0
        second = generation(toy, like=first)
        assert all(a is b for a, b in zip(second.directories,
                                          first.directories))
        assert second.directories is not first.directories

    def test_equal_directories_are_interned(self):
        app = make_app("synthetic", 8, scale=1e-3, seed=2)
        gen = generation(app)
        assert all(d is gen.directories[0] for d in gen.directories)

    def test_non_contiguous_and_large_fields(self):
        big = Toy(2, seed=3, length=LARGE)
        big.floats = np.asfortranarray(big.floats)  # not C-contiguous
        big.close = np.arange(24.0).reshape(4, 6)[::2, ::2]   # strided view
        gen = generation(big)
        assert gen.buffers[0].nbytes >= 1 << 16
        assert_same_shards(gen, [pack(big.shard(r)) for r in range(2)])


class Toy:
    """A replica-like object whose bit-exact, tolerant, atol and skipped
    fields are split across its ranks, one row per rank."""

    FIELDS = ("floats", "close", "near", "ints", "timers")

    def __init__(self, nodes, seed, length=6):
        rng = np.random.default_rng(seed)
        self.nodes_per_replica = nodes
        self.floats = rng.normal(size=(nodes, length))
        self.close = rng.normal(size=(nodes, 3))
        self.near = rng.normal(size=(nodes, 3))
        self.ints = rng.integers(0, 1 << 30, size=(nodes, 4))
        self.timers = rng.random(size=(nodes, 1))

    def copy(self):
        twin = Toy.__new__(Toy)
        twin.nodes_per_replica = self.nodes_per_replica
        for name in self.FIELDS:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def pup(self, p):
        p.pup_split("floats", self.floats)
        p.pup_split("close", self.close, rtol=1e-6)
        p.pup_split("near", self.near, atol=1e-3)
        p.pup_split("ints", self.ints)
        p.pup_split("timer", self.timers, skip_compare=True)

    def shard(self, rank):
        return ShardRef(self, rank)

    def arrays(self):
        return [getattr(self, name) for name in self.FIELDS]


def flip_bit(rng, toy):
    """Flip one random bit of one random compared array, on a random rank."""
    arrays = toy.arrays()[:4]
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


def assert_scan_matches_reference(local, remote):
    """``detect_sdc`` agrees with the reference loop in both modes, both
    ways round; returns the full-mode mismatches."""
    for a, b in ((local, remote), (remote, local)):
        for use_checksum in (False, True):
            for rtol in (0.0, 1e-9):
                expected = reference_mismatches(a, b, use_checksum=use_checksum,
                                                rtol=rtol)
                result = detect_sdc(a, b, use_checksum=use_checksum, rtol=rtol)
                assert result.mismatched_ranks == expected
                assert result.clean == (not expected)
    return reference_mismatches(local, remote)


def counting(monkeypatch, name):
    """Count the calls ``detect_sdc`` makes to ``sdc.<name>``."""
    calls = []
    real = getattr(sdc, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdc, name, wrapper)
    return calls


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
        # Rank 0's part of ``ints`` gains a row: its structure differs.
        remote_toy.ints = np.insert(remote_toy.ints, 1, 7, axis=0)
        remote_toy.close[3] = remote_toy.close[3] * (1 + 1e-9)  # tolerated
        local = generation(local_toy, 2)
        remote = generation(remote_toy, 2)                 # no like=: own dirs
        assert all(a is not b for a, b in zip(local.directories,
                                              remote.directories))
        assert local.buffers[3].tobytes() != remote.buffers[3].tobytes()
        expected = reference_mismatches(local, remote)
        assert expected == {0}
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


    def test_uneven_width_runs(self):
        # 7 ranks cut Jacobi3D's slabs into two runs of different widths.
        app = make_app("jacobi3d-charm", 7, scale=1e-3, seed=3)
        local = generation(app)
        assert len({rows.shape[1] for _, _, rows, _ in local.blocks}) == 2
        rng = np.random.default_rng(5)
        caught = set()
        for trial in range(6):
            twin = app.clone()
            raw = twin.grid.view(np.uint8).reshape(-1)
            for _ in range(trial % 3):
                raw[int(rng.integers(raw.size))] ^= np.uint8(
                    1 << int(rng.integers(8)))
            remote = generation(twin, like=local)
            caught |= assert_scan_matches_reference(local, remote)
        assert caught

    @pytest.mark.parametrize("seed", range(4))
    def test_standalone_copy_on_write_shards(self, seed, monkeypatch):
        # A tier's copy of a generation after bit rot and a torn write:
        # standalone buffers cut into the packed block.
        toy = Toy(6, seed=seed)
        local = generation(toy, 1)
        hier = DurableHierarchy([NODE_LOCAL_TIER], 6, seed=seed)
        hier.persist_now(generation(toy.copy(), 1, like=local), 0.0)
        stored = hier.tiers[NODE_LOCAL_TIER.level].generations[-1]
        assert hier.inject_bit_rot(NODE_LOCAL_TIER.level, 0.0)
        DurableHierarchy._tear(stored, 3, drop_rest=False)
        remote = stored.gen
        assert len(local.blocks) == 1
        standalone = [lo for lo, hi, _, _ in remote.blocks if hi - lo == 1]
        assert 3 in standalone and 1 < len(remote.blocks) <= 5
        assert 3 in assert_scan_matches_reference(local, remote)
        # Copies on write that change no byte read clean.
        for rank in standalone:
            remote.set_shard(rank, local.buffers[rank].copy(),
                             remote.directories[rank])
        assert assert_scan_matches_reference(local, remote) == set()
        compared = counting(monkeypatch, "compare_checkpoints")
        digested = counting(monkeypatch, "checkpoint_checksum")
        assert detect_sdc(local, remote).clean
        assert detect_sdc(local, remote, use_checksum=True).clean
        assert compared == digested == []

    def test_shards_stored_one_by_one(self):
        toy = Toy(5, seed=6)
        local = generation(toy, 1)
        twin = toy.copy()
        twin.ints[2][1] ^= 4
        twin.close[4][0] *= 1 + 1e-12
        remote = CheckpointGeneration(1, shards={
            r: pack(twin.shard(r), like=local.shard(r)) for r in range(5)})
        assert [hi - lo for lo, hi, _, _ in remote.blocks] == [1] * 5
        assert assert_scan_matches_reference(local, remote) == {2}

    def test_unshared_directories_with_equal_bytes(self, monkeypatch):
        toy = Toy(4, seed=8)
        local = generation(toy, 1)
        remote = generation(toy.copy(), 1)             # own directories
        assert all(a is not b for a, b in zip(local.directories,
                                              remote.directories))
        assert assert_scan_matches_reference(local, remote) == set()
        # The same bytes under other field names: full mode compares each
        # unshared directory field by field, checksum mode sees equal bytes.
        renamed = CheckpointGeneration(1, shards={
            r: PackedState(local.buffers[r],
                           [replace(f, name=f.name + "'") for f in fields])
            for r, fields in enumerate(local.directories)})
        assert assert_scan_matches_reference(local, renamed) == {0, 1, 2, 3}
        calls = counting(monkeypatch, "compare_checkpoints")
        assert detect_sdc(local, remote).clean
        assert len(calls) == 4
        assert detect_sdc(local, renamed, use_checksum=True).clean


class TestBlockPath:
    def test_a_clean_scan_at_4096_ranks_compares_blocks(self, monkeypatch):
        toy = Toy(4096, seed=2)
        local = generation(toy, 1)
        remote = generation(toy.copy(), 1, like=local)
        assert len(local.blocks) <= 4
        pieces = []
        real = sdc.block_pairs

        def counting_pairs(a, b):
            for piece in real(a, b):
                pieces.append(piece[:2])
                yield piece

        monkeypatch.setattr(sdc, "block_pairs", counting_pairs)
        compared = counting(monkeypatch, "compare_checkpoints")
        assert detect_sdc(local, remote).clean
        assert pieces == [block[:2] for block in local.blocks]
        assert compared == []

        toy.ints[1234][0] += 1
        flipped = generation(toy, 1, like=local)
        assert detect_sdc(local, flipped).mismatched_ranks == {1234}
        assert len(compared) == 1


class TestReadOnlyBuffers:
    @pytest.mark.parametrize("length", (6, LARGE))
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
        # The clone's buffers are the same bytes in memory, not copies.
        assert all(np.shares_memory(a, b) and a.ctypes.data == b.ctypes.data
                   for a, b in zip(gen.buffers, clone.buffers, strict=True))

    def test_put_shard_stores_a_read_only_copy(self):
        store = CheckpointStore(1)
        store.begin_candidate(0, 1, 0.0)
        buf = np.arange(8, dtype=np.uint8)
        store.put_shard(0, 0, PackedState(buf))
        buf[:] = 0
        stored = store.candidate(0).shard(0).buffer
        assert stored.tolist() == list(range(8))
        assert not stored.flags.writeable

    @pytest.mark.parametrize("length", (6, LARGE))
    def test_restore_never_aliases_the_buffers(self, length):
        toy = Toy(3, seed=2, length=length)
        gen = generation(toy)
        target = Toy(3, seed=99, length=length)
        before = [id(arr) for arr in target.arrays()]
        gen.unpack(target)
        assert [id(arr) for arr in target.arrays()] == before   # in place
        for arr, ref in zip(target.arrays(), toy.arrays()):
            assert arr.flags.writeable
            assert arr.tobytes() == ref.tobytes()
            for buf in gen.buffers:
                assert not np.shares_memory(arr, buf)
        again = generation(target)
        assert [b.tobytes() for b in again.buffers] == \
            [b.tobytes() for b in gen.buffers]
