"""Fletcher checksum tests (paper §4.2 optimization)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pup.checksum import (
    CHECKSUM_NBYTES,
    checkpoint_checksum,
    fletcher32,
    fletcher64,
)


def _naive_fletcher(data: bytes, word_size: int, modulus: int) -> tuple[int, int]:
    """Straightforward word-at-a-time scalar reference implementation."""
    if len(data) % word_size:
        data = data + b"\x00" * (word_size - len(data) % word_size)
    s1 = s2 = 0
    for i in range(0, len(data), word_size):
        word = int.from_bytes(data[i : i + word_size], "little")
        s1 = (s1 + word) % modulus
        s2 = (s2 + s1) % modulus
    return s1, s2


def _naive_fletcher32(data: bytes) -> int:
    s1, s2 = _naive_fletcher(data, 2, 65535)
    return (s2 << 16) | s1


def _naive_fletcher64(data: bytes) -> int:
    s1, s2 = _naive_fletcher(data, 4, 2**32 - 1)
    return (s2 << 32) | s1


def _naive_checkpoint_checksum(data: bytes) -> bytes:
    """Scalar reference of the 32-byte striped digest."""
    out = b""
    for stripe in range(4):
        out += _naive_fletcher64(data[stripe::4]).to_bytes(8, "little")
    return out


class TestFletcher32:
    def test_matches_naive_reference(self):
        data = bytes(range(256)) * 3
        assert fletcher32(data) == _naive_fletcher32(data)

    def test_known_vector_abcde(self):
        # Standard test vector: Fletcher-32 of "abcde" = 0xF04FC729
        # (16-bit little-endian words, zero-padded).
        assert fletcher32(b"abcde") == 0xF04FC729

    def test_known_vector_abcdef(self):
        assert fletcher32(b"abcdef") == 0x56502D2A

    def test_position_dependence(self):
        # A plain additive checksum cannot distinguish transposed blocks.
        a = fletcher32(b"\x01\x00\x02\x00")
        b = fletcher32(b"\x02\x00\x01\x00")
        assert a != b

    def test_empty_input(self):
        assert fletcher32(b"") == 0

    def test_accepts_ndarray(self):
        arr = np.arange(100, dtype=np.float64)
        assert fletcher32(arr) == fletcher32(arr.tobytes())

    def test_blockwise_matches_naive_on_large_input(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=5_000_000, dtype=np.uint8).tobytes()
        assert fletcher32(data) == _naive_fletcher32(data)

    @given(st.binary(max_size=2048))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_reference(self, data):
        assert fletcher32(data) == _naive_fletcher32(data)


class TestFletcher64:
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 1000])
    def test_matches_naive_reference_edge_sizes(self, size):
        # Empty, sub-word, unaligned, and multi-word buffers.
        rng = np.random.default_rng(size)
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        assert fletcher64(data) == _naive_fletcher64(data)

    def test_blockwise_matches_naive_across_block_boundary(self):
        # _BLOCK = 2**14 words = 64 KiB; cross it with an unaligned size.
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=3 * (1 << 16) + 5,
                            dtype=np.uint8).tobytes()
        assert fletcher64(data) == _naive_fletcher64(data)

    @given(st.binary(max_size=2048))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_reference(self, data):
        assert fletcher64(data) == _naive_fletcher64(data)

    def test_single_bit_flip_detected(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, size=4096, dtype=np.uint8)
        base = fletcher64(data)
        for byte in (0, 100, 4095):
            corrupted = data.copy()
            corrupted[byte] ^= 0x10
            assert fletcher64(corrupted) != base

    def test_deterministic(self):
        data = b"checkpoint" * 100
        assert fletcher64(data) == fletcher64(data)


class TestCheckpointChecksum:
    def test_digest_is_32_bytes(self):
        # "the checksum data size is only 32 bytes" (§6.2).
        assert CHECKSUM_NBYTES == 32
        assert len(checkpoint_checksum(b"some checkpoint data")) == 32

    def test_detects_bit_flips_anywhere(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, size=10_000, dtype=np.uint8)
        base = checkpoint_checksum(data)
        for byte_index in (0, 1, 2, 3, 9_999, 5_000):
            for bit in (0, 7):
                corrupted = data.copy()
                corrupted[byte_index] ^= 1 << bit
                assert checkpoint_checksum(corrupted) != base, (byte_index, bit)

    @given(st.binary(min_size=1, max_size=512),
           st.integers(0, 10_000), st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_property_any_single_bit_flip_detected(self, data, pos, bit):
        pos %= len(data)
        arr = np.frombuffer(data, dtype=np.uint8).copy()
        base = checkpoint_checksum(arr)
        arr[pos] ^= 1 << bit
        assert checkpoint_checksum(arr) != base

    def test_empty_digest_stable(self):
        assert checkpoint_checksum(b"") == checkpoint_checksum(b"")

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 15, 16, 17, 63, 64, 1001])
    def test_matches_naive_striped_reference(self, size):
        rng = np.random.default_rng(size + 100)
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        assert checkpoint_checksum(data) == _naive_checkpoint_checksum(data)

    def test_blockwise_matches_naive_on_large_input(self):
        # Each stripe of 600 KB spans multiple 2**14-word Fletcher-64 blocks.
        rng = np.random.default_rng(8)
        data = rng.integers(0, 256, size=600_000, dtype=np.uint8).tobytes()
        assert checkpoint_checksum(data) == _naive_checkpoint_checksum(data)

    @given(st.binary(max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_striped_reference(self, data):
        assert checkpoint_checksum(data) == _naive_checkpoint_checksum(data)
