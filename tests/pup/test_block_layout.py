"""The block layout of a generation: bytes fixed by an oracle recorded from
the per-rank pack path it replaced, bit-exact round trips, one run of the
description per pass, and restores that refuse what they cannot write in
place.

``generation_oracle.json`` holds, for every registered app at 1, 3, 7 and
16 ranks (``scale=1e-3``, ``seed=5``), the generations packed at iterations
0, 1 and 2, each packed ``like=`` the one before: every shard's SHA-256, an
index into the cell's distinct directories, and whether the shard shares
the previous generation's directory.  It was written by the per-rank pack
(one PUP pass per rank) before the block layout replaced it; the block
layout must reproduce it exactly.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.base import ShardRef
from repro.apps.registry import MINIAPP_NAMES, make_app
from repro.apps.synthetic import SyntheticApp
from repro.core.checkpoint import CheckpointGeneration
from repro.pup.puper import PUPError, pack, unpack

APPS = (*MINIAPP_NAMES, "synthetic")
ORACLE = Path(__file__).with_name("generation_oracle.json")


def record(name, nodes, scale, seed, iterations):
    """The oracle's entry for one cell, from the current pack."""
    app = make_app(name, nodes, scale=scale, seed=seed)
    directories, generations, like = [], [], None
    for iteration in iterations:
        app.advance_to(iteration)
        gen = CheckpointGeneration(iteration)
        gen.pack(app, nodes, like=like)
        ranks = []
        for rank in range(nodes):
            entries = [[f.name, f.dtype, list(f.shape), f.offset, f.nbytes,
                        f.rtol, f.atol, f.skip_compare]
                       for f in gen.directories[rank]]
            if entries not in directories:
                directories.append(entries)
            shared = (like is not None
                      and gen.directories[rank] is like.directories[rank])
            ranks.append([hashlib.sha256(gen.buffers[rank].tobytes())
                          .hexdigest(), directories.index(entries), shared])
        generations.append(ranks)
        like = gen
    return {"directories": directories, "generations": generations}


def test_block_pack_reproduces_the_recorded_generations():
    oracle = json.loads(ORACLE.read_text())
    assert len(oracle["cells"]) == len(APPS) * 4
    for key, expected in sorted(oracle["cells"].items()):
        name, nodes = key.rsplit("/", 1)
        got = record(name, int(nodes), oracle["scale"], oracle["seed"],
                     oracle["iterations"])
        assert json.loads(json.dumps(got)) == expected, key


def arrays_of(app):
    return {k: v for k, v in vars(app).items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("nodes", (1, 3, 7, 16))
@pytest.mark.parametrize("name", APPS)
def test_unpack_into_a_fresh_app_restores_every_array(name, nodes):
    app = make_app(name, nodes, scale=1e-3, seed=5)
    app.advance_to(2)
    gen = CheckpointGeneration(2)
    gen.pack(app, nodes)
    target = make_app(name, nodes, scale=1e-3, seed=6)
    held = {k: id(v) for k, v in arrays_of(target).items()}
    gen.unpack(target)
    assert target.iteration == 2
    assert np.array_equal(target.result_digest(), app.result_digest())
    source = arrays_of(app)
    assert source.keys() == held.keys()
    for key, arr in arrays_of(target).items():
        assert id(arr) == held[key]                  # restored in place
        assert arr.tobytes() == source[key].tobytes(), key


def test_uneven_split_round_trips_both_runs():
    app = make_app("jacobi3d-charm", 7, scale=1e-3, seed=5)
    gen = CheckpointGeneration(0)
    gen.pack(app, 7)
    widths = [b.nbytes for b in gen.buffers]
    assert len(set(widths)) == 2 and widths == sorted(widths, reverse=True)
    first, last = gen.directories[0], gen.directories[-1]
    assert first is not last
    assert gen.directories.count(first) + gen.directories.count(last) == 7
    target = make_app("jacobi3d-charm", 7, scale=1e-3, seed=9)
    gen.unpack(target)
    assert target.grid.tobytes() == app.grid.tobytes()


def test_restore_from_copied_shards_matches_the_block_restore():
    """Shards stored one by one (a tier restore, a buddy's copy) are not
    rows of one block: they restore shard by shard, to the same state."""
    app = make_app("lulesh", 5, scale=1e-3, seed=5)
    app.advance_to(1)
    gen = CheckpointGeneration(1)
    gen.pack(app, 5)
    copied = CheckpointGeneration(1, shards=gen.shards)
    target = make_app("lulesh", 5, scale=1e-3, seed=8)
    copied.unpack(target)
    for key, arr in arrays_of(target).items():
        assert arr.tobytes() == arrays_of(app)[key].tobytes(), key


class Counting(SyntheticApp):
    """A synthetic app that counts runs of its description."""

    calls = 0

    def pup(self, p):
        Counting.calls += 1
        super().pup(p)


def test_one_description_run_per_pass_at_4096_ranks():
    app = Counting(4096, elements_per_node=4)
    gen = CheckpointGeneration(0)
    Counting.calls = 0
    gen.pack(app, 4096)
    assert Counting.calls == 1
    again = CheckpointGeneration(0)
    again.pack(app, 4096, like=gen)
    assert Counting.calls == 2
    assert all(d is gen.directories[0] for d in again.directories)
    gen.unpack(Counting(4096, elements_per_node=4, seed=3))
    assert Counting.calls == 3


class Replicated:
    """One split array and replicated scalars that differ by shard."""

    nodes_per_replica = 3

    def __init__(self, rows=3, dtype=np.float64):
        self.data = np.arange(rows * 2, dtype=dtype).reshape(rows, 2)
        self.step = 0

    def pup(self, p):
        self.step = p.pup_int("step", self.step)
        p.pup_split("data", self.data)


def test_replicated_scalar_restores_from_the_last_shard():
    states = {}
    for rank in range(3):
        obj = Replicated()
        obj.step = 10 + rank
        states[rank] = pack(ShardRef(obj, rank))
    mixed = CheckpointGeneration(0, shards=states)
    target = Replicated()
    mixed.unpack(target)
    assert target.step == 12


@pytest.mark.parametrize("target", (
    Replicated(rows=4),                      # another split: shape differs
    Replicated(dtype=np.float32),            # dtype differs
))
def test_mismatched_split_field_raises(target):
    gen = CheckpointGeneration(0)
    gen.pack(Replicated(), 3)
    with pytest.raises(PUPError, match="data"):
        gen.unpack(target)


def test_read_only_split_field_raises():
    gen = CheckpointGeneration(0)
    gen.pack(Replicated(), 3)
    target = Replicated()
    target.data.flags.writeable = False
    with pytest.raises(PUPError, match="read-only"):
        gen.unpack(target)


def test_single_shard_unpack_raises_on_a_resized_split_field():
    state = pack(ShardRef(Replicated(), 1))
    with pytest.raises(PUPError, match="in place"):
        unpack(ShardRef(Replicated(rows=6), 1), state)


def test_a_wide_run_is_stored_as_capped_blocks():
    # 8 ranks of 64 KiB (the iteration and 8,191 doubles): four rows fill
    # a 256 KiB block.
    app = make_app("synthetic", 8, seed=5, elements_per_node=8191)
    app.advance_to(1)
    gen = CheckpointGeneration(1)
    gen.pack(app, 8)
    bases = [buf.base for buf in gen.buffers]
    assert all(b is bases[0] for b in bases[:4])
    assert all(b is bases[4] for b in bases[4:]) and bases[4] is not bases[0]
    assert all(d is gen.directories[0] for d in gen.directories)
    assert [b.tobytes() for b in gen.buffers] == \
        [pack(app.shard(r)).buffer.tobytes() for r in range(8)]
    target = make_app("synthetic", 8, seed=6, elements_per_node=8191)
    gen.unpack(target)
    assert target.iteration == 1
    assert target.state.tobytes() == app.state.tobytes()


def test_set_shard_cuts_the_block_and_keeps_the_counts():
    gen = CheckpointGeneration(0)
    gen.pack(Replicated(rows=6), 6)
    (block,) = gen.blocks
    width = block[2].shape[1]
    copy = gen.buffers[2].copy()
    copy.flags.writeable = False
    assert gen.set_shard(2, copy, gen.directories[2]) == width
    assert [b[:2] for b in gen.blocks] == [(0, 2), (2, 3), (3, 6)]
    assert gen.blocks[0][2].base is block[2] and gen.blocks[1][2].base is copy
    assert gen.set_shard(4, None, None) == width
    assert [b[:2] for b in gen.blocks] == [(0, 2), (2, 3), (3, 4), (5, 6)]
    assert (gen.ranks, gen.nbytes) == ([0, 1, 2, 3, 5], 5 * width)
    assert not gen.complete(6) and gen.directories[4] is None
    with pytest.raises(PUPError, match="shard 4 is not stored"):
        gen.unpack(Replicated(rows=6))
    assert gen.set_shard(4, copy, gen.directories[0]) == 0
    assert gen.complete(6) and gen.nbytes == 6 * width
    target = Replicated(rows=6)
    target.data[:] = -1
    gen.unpack(target)
    expected = Replicated(rows=6).data
    expected[4] = expected[2]           # rank 4 now holds rank 2's bytes
    assert target.data.tobytes() == expected.tobytes()
