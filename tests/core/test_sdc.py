"""SDC scan tests over checkpoint generations."""

import numpy as np
import pytest

from repro.core import sdc
from repro.core.checkpoint import CheckpointGeneration
from repro.core.sdc import detect_sdc
from repro.pup import checker
from repro.pup.puper import pack
from repro.util.errors import SimulationError


class Blob:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def pup(self, p):
        self.values = p.pup_array("values", self.values)


def generation(iteration, per_rank_values):
    gen = CheckpointGeneration(iteration=iteration)
    for rank, values in enumerate(per_rank_values):
        gen.put(rank, pack(Blob(values)))
    return gen


class TestDetectSDC:
    def test_identical_generations_clean(self):
        a = generation(3, [[1.0, 2.0], [3.0, 4.0]])
        b = generation(3, [[1.0, 2.0], [3.0, 4.0]])
        result = detect_sdc(a, b)
        assert result.clean
        assert result.mismatched_ranks == set()

    def test_mismatch_localized_to_rank(self):
        a = generation(3, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        b = generation(3, [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]])
        result = detect_sdc(a, b)
        assert not result.clean
        assert result.mismatched_ranks == {1}

    def test_checksum_mode(self):
        a = generation(1, [[1.0], [2.0]])
        b = generation(1, [[1.0], [2.0]])
        assert detect_sdc(a, b, use_checksum=True).clean
        c = generation(1, [[1.0], [2.25]])
        result = detect_sdc(a, c, use_checksum=True)
        assert not result.clean
        assert result.method == "checksum"

    def test_rtol_forgives_roundoff(self):
        a = generation(1, [[1.0, 2.0]])
        b = generation(1, [[1.0 + 1e-12, 2.0]])
        assert not detect_sdc(a, b).clean
        assert detect_sdc(a, b, rtol=1e-9).clean

    def test_iteration_mismatch_rejected(self):
        a = generation(3, [[1.0]])
        b = generation(4, [[1.0]])
        with pytest.raises(SimulationError):
            detect_sdc(a, b)

    def test_rank_set_mismatch_rejected(self):
        a = generation(3, [[1.0], [2.0]])
        b = generation(3, [[1.0]])
        with pytest.raises(SimulationError):
            detect_sdc(a, b)

    def test_missing_generation_rejected(self):
        with pytest.raises(SimulationError):
            detect_sdc(None, generation(1, [[1.0]]))


class Rows:
    """A replica of one split array, one row of four doubles per rank."""

    def __init__(self, nodes):
        self.data = np.arange(nodes * 4, dtype=np.float64).reshape(nodes, 4)

    def pup(self, p):
        p.pup_split("data", self.data)


def packed(rows, like=None):
    gen = CheckpointGeneration(iteration=1)
    gen.pack(rows, len(rows.data), like=like)
    return gen


def stored_one_by_one(rows, like=None):
    gen = CheckpointGeneration(iteration=1)
    for rank in range(len(rows.data)):
        gen.put(rank, pack(Blob(rows.data[rank]),
                           like=like.shard(rank) if like else None))
    return gen


@pytest.fixture
def digested(monkeypatch):
    """The bytes of every buffer a scan digests, in call order."""
    calls = []
    real = sdc.checkpoint_checksum

    def counting(data):
        calls.append(bytes(data))
        return real(data)

    monkeypatch.setattr(sdc, "checkpoint_checksum", counting)
    monkeypatch.setattr(checker, "checkpoint_checksum", counting)
    return calls


@pytest.mark.parametrize("build", (packed, stored_one_by_one))
class TestBytesFirst:
    """Checksum mode digests only the ranks whose bytes differ."""

    def test_equal_generations_digest_nothing(self, build, digested):
        rows = Rows(6)
        local = build(rows)
        remote = build(Rows(6), like=local)
        assert detect_sdc(local, remote, use_checksum=True).clean
        assert digested == []

    def test_one_flipped_rank_digests_that_rank_twice(self, build, digested):
        local = build(Rows(6))
        flipped = Rows(6)
        flipped.data[2, 1] += 1.0
        remote = build(flipped, like=local)
        result = detect_sdc(local, remote, use_checksum=True)
        assert result.mismatched_ranks == {2}
        assert sorted(digested) == sorted([local.buffers[2].tobytes(),
                                           remote.buffers[2].tobytes()])

    def test_a_digest_collision_stays_undetected(self, build, monkeypatch):
        local = build(Rows(6))
        flipped = Rows(6)
        flipped.data[4, 0] = -1.0
        remote = build(flipped, like=local)
        # Every buffer collides: the bytes differ, the digests do not.
        collide = lambda data: bytes(32)  # noqa: E731
        monkeypatch.setattr(sdc, "checkpoint_checksum", collide)
        monkeypatch.setattr(checker, "checkpoint_checksum", collide)
        assert detect_sdc(local, remote, use_checksum=True).clean
        assert detect_sdc(local, remote).mismatched_ranks == {4}


class ByteRows:
    """A replica of one split byte array, one row of ``width`` bytes per
    rank."""

    def __init__(self, nodes, width):
        self.data = (np.arange(nodes * width) % 251).astype(
            np.uint8).reshape(nodes, width)

    def pup(self, p):
        p.pup_split("data", self.data)


@pytest.mark.parametrize("width,unit", [(24, np.uint64), (13, np.uint8)])
@pytest.mark.parametrize("use_checksum", [False, True])
def test_a_one_bit_flip_anywhere_in_a_row_is_found(width, unit,
                                                   use_checksum):
    local = packed(ByteRows(5, width))
    assert all(sdc._words(rows).dtype == unit
               for _, _, rows, _ in local.blocks)
    for byte in (0, width // 2, width - 1):
        flipped = ByteRows(5, width)
        flipped.data[3, byte] ^= 0x10
        remote = packed(flipped, like=local)
        result = detect_sdc(local, remote, use_checksum=use_checksum)
        assert result.mismatched_ranks == {3}, byte
        assert detect_sdc(local, packed(ByteRows(5, width), like=local),
                          use_checksum=use_checksum).clean
