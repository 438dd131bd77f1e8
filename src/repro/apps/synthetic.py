"""Synthetic workload — a configurable stand-in application.

Useful for tests and ablations: arbitrary state size per node, trivial but
deterministic compute (a mixing transform on the state), and configurable
memory-pressure characteristics.  Not part of the paper's suite, but handy
for exercising every ACR path with exact control over parameters.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppDescriptor, ReplicaApp
from repro.pup.puper import PUPer


def synthetic_descriptor(
    *,
    bytes_per_core: int = 1 << 20,
    serialize_factor: float = 1.0,
    iteration_seconds: float = 0.05,
    memory_pressure: str = "high",
) -> AppDescriptor:
    return AppDescriptor(
        name="synthetic",
        programming_model="charm++",
        table2_configuration=f"{bytes_per_core} bytes",
        memory_pressure=memory_pressure,
        declared_bytes_per_core=bytes_per_core,
        serialize_factor=serialize_factor,
        base_iteration_seconds=iteration_seconds,
    )


class SyntheticApp(ReplicaApp):
    """Deterministic mixing dynamics over one flat state vector per node."""

    descriptor = synthetic_descriptor()

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0, seed: int = 0,
                 elements_per_node: int = 256,
                 descriptor: AppDescriptor | None = None):
        if descriptor is not None:
            self.descriptor = descriptor
        super().__init__(nodes_per_replica, scale=scale, seed=seed)
        n = max(int(elements_per_node * scale), 4) * nodes_per_replica
        self.state = np.ascontiguousarray(self.rng.uniform(-1.0, 1.0, size=n))

    def advance(self) -> None:
        # A contraction toward the neighbour average plus a fixed rotation
        # keeps the state bounded, mixing, and exactly reproducible.
        rolled = np.roll(self.state, 1) + np.roll(self.state, -1)
        self.state = np.ascontiguousarray(
            0.5 * self.state + 0.24 * rolled + 0.01 * np.sin(self.state)
        )

    def pup(self, p: PUPer) -> None:
        self.iteration = p.pup_int("iteration", self.iteration)
        p.pup_split("state", self.state)

    def result_digest(self) -> np.ndarray:
        return np.asarray([
            float(self.state.sum()),
            float(np.abs(self.state).max()),
            float((self.state ** 2).sum()),
        ])
