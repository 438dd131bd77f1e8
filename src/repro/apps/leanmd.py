"""LeanMD — short-range molecular dynamics (Charm++, NAMD-style).

"LeanMD, written in Charm++, simulates the behavior of atoms based on
short-range non-bonded force calculation in NAMD" (§6.1).  Table 2: 4000
atoms per core, *low* memory pressure; the paper notes MD checkpoint data
"may be scattered in the memory resulting in extra overheads" — reflected in
the serialize factor.

Physics: velocity-Verlet integration of a soft-sphere short-range potential
(force ``k (r_c − r)`` inside the cutoff) in a periodic box — bounded, cheap,
and deterministic, while keeping positions and velocities live state.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppDescriptor, ReplicaApp
from repro.pup.puper import PUPer

LEANMD_DESCRIPTOR = AppDescriptor(
    name="leanmd",
    programming_model="charm++",
    table2_configuration="4000 atoms",
    memory_pressure="low",
    declared_bytes_per_core=4000 * 6 * 8,   # positions + velocities
    serialize_factor=1.5,
    base_iteration_seconds=0.03,
)

_DT = 0.005
_CUTOFF = 0.35
_STIFFNESS = 20.0


class LeanMD(ReplicaApp):
    """One replica of the short-range MD mini-app."""

    descriptor = LEANMD_DESCRIPTOR
    _max_actual_atoms = 4096  # keep the O(N^2) force loop laptop-sized

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0, seed: int = 0):
        super().__init__(nodes_per_replica, scale=scale, seed=seed)
        n = min(self._scaled(4 * self.atoms_per_core(), minimum=8)
                * nodes_per_replica, self._max_actual_atoms)
        # Round so every node owns the same number of atoms.
        n -= n % nodes_per_replica
        n = max(n, nodes_per_replica)
        self.n_atoms = n
        self.box = 1.0
        self.pos = np.ascontiguousarray(self.rng.uniform(0.0, self.box, size=(n, 3)))
        self.vel = np.ascontiguousarray(self.rng.normal(0.0, 0.05, size=(n, 3)))

    @classmethod
    def atoms_per_core(cls) -> int:
        return 4000

    # -- physics -----------------------------------------------------------------
    def _forces(self) -> np.ndarray:
        """Soft-sphere short-range forces with minimum-image periodicity."""
        delta = self.pos[:, None, :] - self.pos[None, :, :]
        delta -= self.box * np.round(delta / self.box)
        dist2 = (delta ** 2).sum(axis=-1)
        np.fill_diagonal(dist2, np.inf)
        dist = np.sqrt(dist2)
        overlap = np.clip(_CUTOFF - dist, 0.0, None)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(dist[..., None] > 0, delta / dist[..., None], 0.0)
        return (_STIFFNESS * overlap[..., None] * unit).sum(axis=1)

    def advance(self) -> None:
        f = self._forces()
        self.vel += _DT * f
        self.pos += _DT * self.vel
        np.mod(self.pos, self.box, out=self.pos)

    # -- checkpointing -------------------------------------------------------------
    def pup(self, p: PUPer) -> None:
        self.iteration = p.pup_int("iteration", self.iteration)
        p.pup_split("pos", self.pos)
        p.pup_split("vel", self.vel)

    def result_digest(self) -> np.ndarray:
        return np.asarray([
            float(self.pos.sum()),
            float((self.vel ** 2).sum()),   # twice the kinetic energy
            float(self.pos.std()),
        ])
