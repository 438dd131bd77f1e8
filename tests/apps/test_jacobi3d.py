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

