"""LULESH proxy — Lagrangian explicit shock hydrodynamics on a hex mesh.

"A mesh-based physics code on an unstructured hexahedral mesh with element
centering and nodal centering" (§6.1, Table 2: 32×32×64 mesh elements per
core, high memory pressure).  The paper notes LULESH "takes longer in local
checkpointing since it contains more complicated data structures for
serialization" — we mirror that with both element-centered *and*
node-centered field groups (seven distinct arrays) and a serialization factor
of 1.6 in the cost model.

The dynamics are a simplified—but deterministic and numerically bounded—
energy/pressure/volume relaxation with nodal velocities, enough to make
checkpoints carry live, evolving multi-field state.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppDescriptor, ReplicaApp
from repro.pup.puper import PUPer

LULESH_DESCRIPTOR = AppDescriptor(
    name="lulesh",
    programming_model="mpi",
    table2_configuration="32*32*64 mesh elements",
    memory_pressure="high",
    # Element fields (energy, pressure, volume, mass) + nodal fields
    # (3-component velocity) on a 32*32*64 per-core block.
    declared_bytes_per_core=int(32 * 32 * 64 * 8 * (4 + 3 * 1.05)),
    serialize_factor=1.6,
    base_iteration_seconds=0.08,
)

_GAMMA = 1.4       # ideal-gas constant for the pressure EOS
_DT = 0.02         # fixed Lagrange step
_RELAX = 0.05      # volume relaxation rate


class LULESH(ReplicaApp):
    """One replica of the shock-hydro proxy."""

    descriptor = LULESH_DESCRIPTOR

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0, seed: int = 0):
        super().__init__(nodes_per_replica, scale=scale, seed=seed)
        per_node_elems = self._scaled(4 * 32 * 32 * 64, minimum=32)
        g = int(np.clip(round(per_node_elems ** (1.0 / 3.0)), 4, 64))
        sx = max(per_node_elems // (g * g), 2)
        nx = sx * nodes_per_replica
        self.shape = (nx, g, g)
        # Element-centered fields: the "shock" is a hot region near one corner.
        xs = np.arange(nx)[:, None, None] / max(nx - 1, 1)
        self.energy = np.ascontiguousarray(1.0 + 4.0 * np.exp(-8.0 * xs)
                                           * np.ones(self.shape))
        self.volume = np.ones(self.shape, dtype=np.float64)
        self.pressure = self._eos()
        self.mass = np.ascontiguousarray(
            self.rng.uniform(0.9, 1.1, size=self.shape)
        )
        # Node-centered field (one value set per element corner-owner here):
        # 3-component velocities, initially quiescent.
        self.velocity = np.zeros(self.shape + (3,), dtype=np.float64)

    def _eos(self) -> np.ndarray:
        """Ideal-gas equation of state: p = (γ−1) e / v."""
        return np.ascontiguousarray((_GAMMA - 1.0) * self.energy / self.volume)

    def _central_difference(self, src: np.ndarray, axis: int,
                            out: np.ndarray) -> np.ndarray:
        """``0.5·(src[i+1] − src[i−1])`` along ``axis`` into ``out`` (a
        contiguous array shaped like the mesh), zero on that axis's walls.

        ``src`` is the flattened field, contiguous or a strided component
        view.  Along the flattened C-ordered mesh an axis neighbour is a fixed
        flat offset (±plane, ±row, ±1), so the difference is one 1-D
        subtraction over ``[offset, size − offset)``; the cells on the axis's
        two walls, where that offset wraps into the next row or plane, are
        then overwritten with the zeros the one-sided walls carry.
        """
        _, ny, nz = self.shape
        offset = (ny * nz, nz, 1)[axis]
        flat = out.reshape(-1)
        mid = flat[offset:flat.size - offset]
        np.subtract(src[2 * offset:], src[:src.size - 2 * offset], out=mid)
        mid *= 0.5
        walls = [slice(None)] * 3
        for wall in (0, -1):
            walls[axis] = wall
            out[tuple(walls)] = 0.0
        return out

    def advance(self) -> None:
        """One Lagrange leapfrog step: pressure gradients accelerate nodes,
        velocity divergence changes volumes, volume work changes energy.

        Scratch the size of the mesh is allocated here and freed on return;
        the element fields are updated in place.
        """
        g = np.empty(self.shape, dtype=np.float64)
        # Central-difference pressure gradient along each axis (zero at the
        # walls), applied to its velocity component.
        p = self.pressure.reshape(-1)
        for axis in range(3):
            self._central_difference(p, axis, g)
            g *= _DT
            g /= self.mass
            self.velocity[..., axis] -= g
        self.velocity *= 0.999  # numerical damping (hourglass control stand-in)

        div = np.zeros(self.shape, dtype=np.float64)
        v = self.velocity.reshape(-1)
        for axis in range(3):
            div += self._central_difference(v[axis::3], axis, g)
        # volume·(1 + Δt·div) + (relax·Δt)·(1 − volume), clipped; g is the
        # second term's scratch.
        vol = self.volume
        np.subtract(1.0, vol, out=g)
        g *= _RELAX * _DT
        work = div * _DT
        work += 1.0
        work *= vol
        work += g
        np.clip(work, 0.2, 5.0, out=vol)
        # Volume work with the pressure of the step's start.
        np.multiply(self.pressure, div, out=work)
        work *= _DT
        self.energy -= work
        np.clip(self.energy, 1e-6, None, out=self.energy)
        np.multiply(self.energy, _GAMMA - 1.0, out=self.pressure)
        self.pressure /= self.volume

    # -- checkpointing -------------------------------------------------------------
    def pup(self, p: PUPer) -> None:
        self.iteration = p.pup_int("iteration", self.iteration)
        # Element-centered group, then node-centered group: the multi-field
        # traversal is what makes LULESH checkpoints slow to serialize.
        p.pup_split("energy", self.energy)
        p.pup_split("pressure", self.pressure)
        p.pup_split("volume", self.volume)
        p.pup_split("mass", self.mass)
        p.pup_split("velocity", self.velocity)

    def result_digest(self) -> np.ndarray:
        return np.asarray([
            float(self.energy.sum()),
            float(np.abs(self.velocity).sum()),
            float(self.volume.mean()),
        ])
