"""Deterministic random-number streams.

Every stochastic component (fault injectors, application initial conditions,
tie-breaking) draws from its own named :class:`RngStream` spawned from a single
experiment seed, so that experiments are reproducible regardless of the order
in which components consume randomness.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """A named, independently-seeded ``numpy`` random generator.

    The stream seed is derived from ``(root_seed, name)`` via SHA-256, so two
    streams with different names are statistically independent and the same
    ``(root_seed, name)`` pair always reproduces the same sequence.
    """

    def __init__(self, root_seed: int, name: str):
        self.root_seed = int(root_seed)
        self.name = str(name)
        digest = hashlib.sha256(f"{self.root_seed}:{self.name}".encode()).digest()
        self._seed = int.from_bytes(digest[:8], "little")
        self.generator = np.random.default_rng(self._seed)

    def copy(self) -> "RngStream":
        """An independent stream at this stream's current position."""
        twin = RngStream(self.root_seed, self.name)
        twin.generator.bit_generator.state = self.generator.bit_generator.state
        return twin

    def child(self, suffix: str) -> "RngStream":
        """Spawn a dependent stream with a qualified name."""
        return RngStream(self.root_seed, f"{self.name}/{suffix}")

    # Convenience passthroughs -------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.generator.uniform(low, high, size)

    def exponential(self, scale: float, size=None):
        return self.generator.exponential(scale, size)

    def weibull(self, shape: float, scale: float, size=None):
        """Weibull variates with explicit scale (numpy's is unit-scale)."""
        return scale * self.generator.weibull(shape, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self.generator.integers(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def choice(self, seq, size=None, replace: bool = True):
        return self.generator.choice(seq, size=size, replace=replace)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(root_seed={self.root_seed}, name={self.name!r})"


def spawn_streams(root_seed: int, *names: str) -> dict[str, RngStream]:
    """Create several named streams from one root seed."""
    return {name: RngStream(root_seed, name) for name in names}
