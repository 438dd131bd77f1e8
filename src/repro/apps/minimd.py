"""miniMD — LAMMPS-style molecular dynamics from the Mantevo suite.

"miniMD is part of the Mantevo benchmark suite written in MPI.  It mimics the
operations performed in LAMMPS" (§6.1).  Table 2: 1000 atoms per core, low
memory pressure; like LeanMD its checkpoint data is small and scattered in
memory (the paper's explanation for why the checksum method wins for the MD
apps), modelled with the highest serialize factor of the suite.

Physics: truncated, force-capped Lennard-Jones in a periodic box with
velocity-Verlet integration — a bounded deterministic stand-in for the
LJ kernels of LAMMPS.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppDescriptor, ReplicaApp
from repro.pup.puper import PUPer

MINIMD_DESCRIPTOR = AppDescriptor(
    name="minimd",
    programming_model="mpi",
    table2_configuration="1000 atoms",
    memory_pressure="low",
    declared_bytes_per_core=1000 * 6 * 8,
    serialize_factor=2.0,
    base_iteration_seconds=0.02,
)

_DT = 0.002
_CUTOFF = 0.4
_SIGMA = 0.15
_EPSILON = 0.2
_FORCE_CAP = 50.0


class MiniMD(ReplicaApp):
    """One replica of the miniMD Lennard-Jones proxy."""

    descriptor = MINIMD_DESCRIPTOR
    _max_actual_atoms = 2048

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0, seed: int = 0):
        super().__init__(nodes_per_replica, scale=scale, seed=seed)
        n = min(self._scaled(4 * 1000, minimum=8) * nodes_per_replica,
                self._max_actual_atoms)
        n -= n % nodes_per_replica
        n = max(n, nodes_per_replica)
        self.n_atoms = n
        self.box = 1.0
        # Start from a jittered lattice, the standard MD initial condition.
        side = int(np.ceil(n ** (1.0 / 3.0)))
        lattice = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                           axis=-1).reshape(-1, 3)[:n]
        self.pos = np.ascontiguousarray(
            (lattice + 0.5) / side * self.box
            + self.rng.uniform(-0.01, 0.01, size=(n, 3))
        )
        self.vel = np.ascontiguousarray(self.rng.normal(0.0, 0.02, size=(n, 3)))

    # -- physics -----------------------------------------------------------------
    def _forces(self) -> np.ndarray:
        delta = self.pos[:, None, :] - self.pos[None, :, :]
        delta -= self.box * np.round(delta / self.box)
        dist2 = (delta ** 2).sum(axis=-1)
        np.fill_diagonal(dist2, np.inf)
        inside = dist2 < _CUTOFF ** 2
        inv2 = np.where(inside, _SIGMA ** 2 / np.maximum(dist2, 1e-12), 0.0)
        inv6 = inv2 ** 3
        # d(LJ)/dr magnitude over r: 24 eps (2 s^12/r^12 - s^6/r^6) / r^2.
        mag = 24.0 * _EPSILON * (2.0 * inv6 ** 2 - inv6) / np.maximum(dist2, 1e-12)
        mag = np.clip(mag, -_FORCE_CAP, _FORCE_CAP)
        return (mag[..., None] * delta).sum(axis=1)

    def advance(self) -> None:
        f = self._forces()
        self.vel += 0.5 * _DT * f
        self.pos += _DT * self.vel
        np.mod(self.pos, self.box, out=self.pos)
        f = self._forces()
        self.vel += 0.5 * _DT * f

    # -- checkpointing -------------------------------------------------------------
    def pup(self, p: PUPer) -> None:
        self.iteration = p.pup_int("iteration", self.iteration)
        p.pup_split("pos", self.pos)
        p.pup_split("vel", self.vel)

    def result_digest(self) -> np.ndarray:
        return np.asarray([
            float(self.pos.sum()),
            float((self.vel ** 2).sum()),
            float(self.pos.var()),
        ])
