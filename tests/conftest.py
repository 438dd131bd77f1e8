"""Shared fixtures."""

import copy

import numpy as np
import pytest

from repro.core.framework import ACR
from repro.util.errors import SimulationError


class LineageMismatch(SimulationError):
    """A lineage copy differed from an independent recompute.

    An ``ACRError``, so a chaos run records it as a failed schedule (in a
    forked campaign worker too) instead of losing it in a worker crash.
    """


def _state(app):
    """The attributes ``ReplicaApp.copy_state_from`` copies."""
    return {name: value for name, value in vars(app).items()
            if isinstance(value, (np.ndarray, int, float, np.number))}


def check_copied_state(copied, recomputed, source) -> None:
    """``copied`` must equal ``recomputed`` bit for bit (every ndarray and
    numeric attribute, ``iteration`` included) and share no memory with
    ``source``."""
    got, want = _state(copied), _state(recomputed)
    if got.keys() != want.keys():
        raise LineageMismatch(f"attributes differ: {got.keys() ^ want.keys()}")
    for name, value in want.items():
        a, b = np.asarray(got[name]), np.asarray(value)
        if (a.dtype, a.shape) != (b.dtype, b.shape) or a.tobytes() != b.tobytes():
            raise LineageMismatch(
                f"{type(copied).__name__}.{name} at iteration "
                f"{recomputed.iteration}: copy differs from recompute")
    arrays = [v for v in vars(source).values() if isinstance(v, np.ndarray)]
    for name, value in got.items():
        if isinstance(value, np.ndarray) and any(
                np.shares_memory(value, other) for other in arrays):
            raise LineageMismatch(
                f"{type(copied).__name__}.{name} shares memory with the "
                "source replica")


@pytest.fixture
def verify_lineage(monkeypatch):
    """Check every lineage copy against an independent recompute.

    Wraps ``ACR._copy_replica_state``: a deep copy of the destination replica
    is taken before the copy and then runs the kernel to the same iteration;
    the copied replica must match it bitwise and share no memory with the
    source.  A mismatch raises :class:`LineageMismatch`.  Yields the list of
    ``(sim time, replica, iteration)`` copies checked in this process.
    """
    original = ACR._copy_replica_state
    checked = []

    def copy_and_recompute(self, replica, source):
        shadow = copy.deepcopy(self.apps[replica])
        original(self, replica, source)
        shadow.advance_to(self.apps[source].iteration)
        check_copied_state(self.apps[replica], shadow, self.apps[source])
        checked.append((self.sim.now, replica, shadow.iteration))

    monkeypatch.setattr(ACR, "_copy_replica_state", copy_and_recompute)
    yield checked
