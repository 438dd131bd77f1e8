"""Jacobi3D's flat stencil against the textbook 3-D seven-term form."""

import numpy as np
import pytest

from repro.apps.jacobi3d import Jacobi3D


def reference_step(g: np.ndarray) -> None:
    """The seven-term 3-D slice expression the flat stencil replaces."""
    center = g[1:-1, 1:-1, 1:-1]
    new = (
        center
        + g[:-2, 1:-1, 1:-1]
        + g[2:, 1:-1, 1:-1]
        + g[1:-1, :-2, 1:-1]
        + g[1:-1, 2:, 1:-1]
        + g[1:-1, 1:-1, :-2]
        + g[1:-1, 1:-1, 2:]
    ) / 7.0
    g[1:-1, 1:-1, 1:-1] = new


@pytest.mark.parametrize("nodes, scale, model, cross", [
    (1, 1e-6, "charm++", 4),     # minimum cross-section, two X-planes
    (3, 1e-6, "mpi", 4),         # AMPI descriptor
    (16, 1e-4, "charm++", 6),    # the perfbench fault_mix cell
    (3, 3e-4, "mpi", 9),         # odd cross-section
    (2, 2e-3, "charm++", 16),
    (16, 0.02, "charm++", 35),   # the perfbench ckpt_bulk cell, many blocks
])
def test_flat_stencil_is_bitwise_the_3d_expression(nodes, scale, model,
                                                   cross):
    app = Jacobi3D(nodes, scale=scale, seed=11, programming_model=model)
    assert app.ny == app.nz == cross
    expected = app.grid.copy()
    for _ in range(6):
        app.advance()
        reference_step(expected)
        assert np.array_equal(app.grid.view(np.uint64),
                              expected.view(np.uint64))



def _flipped(flips) -> np.ndarray:
    """The digest of a Jacobi3D grid after XOR-ing ``(x, y, z, bit)`` bits
    into its float64 words (an SDC in the packed state)."""
    app = Jacobi3D(4, scale=1e-4, seed=42)
    app.advance_to(3)
    words = app.grid.view(np.uint64)
    for x, y, z, bit in flips:
        words[x, y, z] ^= np.uint64(1 << bit)
    return app.result_digest()


def test_overflowing_norms_still_tell_grids_apart():
    # Bit 62 lifts a value in (0.1, 0.5) past 1e307, so its square
    # overflows; the two grids then differ only in a low exponent bit of
    # another value, which neither the sum nor the max can see.
    a = _flipped([(1, 1, 1, 62), (1, 1, 2, 52)])
    b = _flipped([(1, 1, 1, 62), (1, 1, 2, 53)])
    assert a[0] == b[0] and a[2] == b[2]
    assert np.isfinite(a[1]) and np.isfinite(b[1]) and a[1] != b[1]
    # The raw-byte norm is negative, so it never equals a norm of values.
    assert a[1] < 0 and _flipped([])[1] > 0


def test_finite_norm_is_the_plain_norm():
    app = Jacobi3D(4, scale=1e-4, seed=42)
    app.advance_to(3)
    interior = app.grid[1:-1, 1:-1, 1:-1]
    assert app.result_digest()[1] == float(np.sqrt((interior ** 2).sum()))
