"""Jacobi3D — 7-point stencil relaxation on a 3D structured mesh.

"A simple but commonly-used kernel that performs a 7-point stencil-based
computation on a three dimensional structured mesh" (§6.1).  The paper
evaluates both a Charm++ and an MPI (AMPI) implementation with the same
configuration — 64×64×128 grid points per core (Table 2, high memory
pressure); we mirror that with a ``programming_model`` switch that changes
the task wiring and serialization overhead but not the numerics.

The replica's grid is one padded global array; node ``rank`` owns a contiguous
slab of X-planes (checkpointing a slab is a contiguous memory region, exactly
like a Charm++ chare array section).
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import AppDescriptor, ReplicaApp
from repro.pup.puper import PUPer

JACOBI_CHARM = AppDescriptor(
    name="jacobi3d-charm",
    programming_model="charm++",
    table2_configuration="64*64*128 grid points",
    memory_pressure="high",
    declared_bytes_per_core=64 * 64 * 128 * 8,
    serialize_factor=1.0,
    base_iteration_seconds=0.05,
)

JACOBI_AMPI = AppDescriptor(
    name="jacobi3d-ampi",
    programming_model="mpi",
    table2_configuration="64*64*128 grid points",
    memory_pressure="high",
    # AMPI virtualizes MPI ranks as migratable threads; their stacks ride
    # along in the checkpoint, a small constant serialization overhead.
    declared_bytes_per_core=64 * 64 * 128 * 8 + 64 * 1024,
    serialize_factor=1.05,
    base_iteration_seconds=0.05,
)


#: Cells per block of the flat stencil: 32 Ki doubles (256 KiB), so a
#: block's output and its neighbour slices stay in a core's L2.
_BLOCK = 32 * 1024


class Jacobi3D(ReplicaApp):
    """One replica of the Jacobi3D relaxation."""

    descriptor = JACOBI_CHARM

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0,
                 seed: int = 0, programming_model: str = "charm++"):
        if programming_model == "mpi":
            self.descriptor = JACOBI_AMPI
        elif programming_model == "charm++":
            self.descriptor = JACOBI_CHARM
        else:
            raise ValueError(f"unknown programming model {programming_model!r}")
        super().__init__(nodes_per_replica, scale=scale, seed=seed)

        # Scaled-down actual grid: per-node slab of X-planes over a (g, g)
        # cross-section.  Full Table-2 scale would be 4 x 64*64*128 cells/node.
        per_node_cells = self._scaled(4 * 64 * 64 * 128, minimum=32)
        g = int(np.clip(round(per_node_cells ** (1.0 / 3.0)), 4, 96))
        sx = max(per_node_cells // (g * g), 2)
        self.slab_x = sx
        self.ny = g
        self.nz = g
        nx = sx * nodes_per_replica
        # Padded array: one ghost layer on every face (zero Dirichlet walls).
        self.grid = np.zeros((nx + 2, g + 2, g + 2), dtype=np.float64)
        interior = self.rng.uniform(0.0, 1.0, size=(nx, g, g))
        self.grid[1:-1, 1:-1, 1:-1] = interior
        # Hot plate on the low-X wall drives a steady heat flow.
        self.grid[0, :, :] = 1.0

    # -- numerics ----------------------------------------------------------------
    def advance(self) -> None:
        # The 7-point stencil over the flattened padded grid: every neighbor
        # is a fixed flat offset (±plane for X, ±row for Y, ±1 for Z), so each
        # term is one contiguous 1-D slice instead of a strided 3-D view.  The
        # run [lo, hi) spans the first to the last interior cell; the ghost
        # cells inside it are computed and then ignored.  The seven terms are
        # added in the same left-to-right order as the textbook form
        # (center, X-, X+, Y-, Y+, Z-, Z+) before the one division, so the
        # interior is bitwise what the 3-D expression gives.  The run is
        # evaluated in blocks of _BLOCK cells, so each block of ``new`` stays
        # in cache across its seven passes.
        g = self.grid
        row = g.shape[2]
        plane = g.shape[1] * row
        flat = g.reshape(-1)
        lo = plane + row + 1
        hi = flat.size - lo
        # Laid out like the grid, so the interior writes back as one strided
        # slice assignment; freed on return.
        out = np.empty_like(flat)
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            new = out[start:stop]
            np.add(flat[start:stop], flat[start - plane:stop - plane], out=new)
            new += flat[start + plane:stop + plane]
            new += flat[start - row:stop - row]
            new += flat[start + row:stop + row]
            new += flat[start - 1:stop - 1]
            new += flat[start + 1:stop + 1]
            new /= 7.0
        g[1:-1, 1:-1, 1:-1] = out.reshape(g.shape)[1:-1, 1:-1, 1:-1]

    # -- checkpointing -------------------------------------------------------------
    def pup(self, p: PUPer) -> None:
        self.iteration = p.pup_int("iteration", self.iteration)
        # Each node owns a slab of X-planes, the ghost planes included.
        # Slicing the first axis of a C-ordered array keeps the slab
        # contiguous, so in-place restore and bit-flip injection both work.
        p.pup_split("slab", self.grid)

    def result_digest(self) -> np.ndarray:
        interior = self.grid[1:-1, 1:-1, 1:-1]
        with np.errstate(over="ignore"):
            norm = float(np.sqrt((interior ** 2).sum()))
        if not math.isfinite(norm):
            # An SDC set a high exponent bit and the squares overflowed; an
            # inf norm would equate differently corrupted grids.  Take the
            # norm of the raw bytes instead, negated so that it never equals
            # a norm of the values.
            raw = np.ascontiguousarray(interior).view(np.uint8).astype(np.int64)
            norm = -math.sqrt(int((raw * raw).sum()))
        return np.asarray([
            float(interior.sum()),
            norm,
            float(interior.max()),
        ])
