"""HPCCG — conjugate-gradient solve on a 27-point finite-element stencil.

"Distributed as part of the MPI-based Mantevo benchmark suite ... mimics the
performance of unstructured implicit finite element methods" (§6.1).
Configuration from Table 2: 40×40×40 grid points per core, high memory
pressure.

We solve ``A x = b`` matrix-free, where A has 27 on the diagonal and −1 for
each of the 26 neighbours (zero Dirichlet boundary) — the HPCCG operator.
One application iteration is one CG step; the checkpointable state is the CG
vectors plus the two scalars the recurrence needs, so a restart resumes the
Krylov iteration bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppDescriptor, ReplicaApp
from repro.pup.puper import PUPer

HPCCG_DESCRIPTOR = AppDescriptor(
    name="hpccg",
    programming_model="mpi",
    table2_configuration="40*40*40 grid points",
    memory_pressure="high",
    # CG keeps x, r, p plus b and scratch: ~9 vectors of 40^3 doubles.
    declared_bytes_per_core=9 * 40 * 40 * 40 * 8,
    serialize_factor=1.1,
    base_iteration_seconds=0.06,
)


class HPCCG(ReplicaApp):
    """One replica of the HPCCG conjugate-gradient proxy."""

    descriptor = HPCCG_DESCRIPTOR

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0, seed: int = 0):
        super().__init__(nodes_per_replica, scale=scale, seed=seed)
        per_node_cells = self._scaled(4 * 40 * 40 * 40, minimum=32)
        g = int(np.clip(round(per_node_cells ** (1.0 / 3.0)), 4, 64))
        sx = max(per_node_cells // (g * g), 2)
        nx = sx * nodes_per_replica
        self.shape = (nx, g, g)
        rhs = self.rng.uniform(-1.0, 1.0, size=self.shape)
        self.b = np.ascontiguousarray(rhs)
        self.x = np.zeros(self.shape, dtype=np.float64)
        self.r = self.b.copy()          # r0 = b - A*0
        self.p = self.r.copy()
        self.rho = float((self.r * self.r).sum())

    # -- the 27-point operator ------------------------------------------------------
    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A·u with 27-point stencil: 27 on the diagonal, −1 off-diagonal.

        The neighbour sum runs over the flattened zero-padded copy of ``u``,
        where every neighbour is a fixed flat offset (``dx``·plane +
        ``dy``·row + ``dz``), so each of the 26 terms is one contiguous 1-D
        add.  The run spans the first to the last interior cell; the padding
        cells inside it are summed and then ignored.  The accumulator starts
        from zeros and takes the terms in the textbook ``dx, dy, dz`` order,
        so the interior is bitwise the 3-D slice form.
        """
        nx, ny, nz = self.shape
        padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=np.float64)
        padded[1:-1, 1:-1, 1:-1] = u
        row = nz + 2
        plane = (ny + 2) * row
        flat = padded.reshape(-1)
        lo = plane + row + 1
        hi = flat.size - lo
        # Laid out like ``padded``, so the interior is one strided view.
        total = np.zeros_like(flat)
        acc = total[lo:hi]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    off = dx * plane + dy * row + dz
                    acc += flat[lo + off:hi + off]
        out = u * 27.0
        out -= total.reshape(padded.shape)[1:-1, 1:-1, 1:-1]
        return out

    # -- one CG step -----------------------------------------------------------------
    def advance(self) -> None:
        ap = self.matvec(self.p)
        denom = float((self.p * ap).sum())
        if denom == 0.0 or self.rho == 0.0:
            return  # converged to machine precision; iterate as identity
        alpha = self.rho / denom
        # In place, each product formed before its update as in
        # r −= α·ap, x += α·p, p = r + β·p; ap is the products' scratch.
        ap *= alpha
        self.r -= ap
        np.multiply(self.p, alpha, out=ap)
        self.x += ap
        rho_new = float((self.r * self.r).sum())
        beta = rho_new / self.rho
        self.p *= beta
        self.p += self.r
        self.rho = rho_new

    # -- checkpointing ------------------------------------------------------------
    def pup(self, p: PUPer) -> None:
        self.iteration = p.pup_int("iteration", self.iteration)
        self.rho = p.pup_float("rho", self.rho)
        p.pup_split("x", self.x)
        p.pup_split("r", self.r)
        p.pup_split("p", self.p)
        p.pup_split("b", self.b)

    def result_digest(self) -> np.ndarray:
        return np.asarray([
            float(self.x.sum()),
            float(np.sqrt((self.r ** 2).sum())),
            self.rho,
        ])

    @property
    def residual_norm(self) -> float:
        """Current CG residual — monotonically shrinking on the forward path."""
        return float(np.sqrt((self.r ** 2).sum()))
