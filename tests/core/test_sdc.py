"""SDC scan tests over checkpoint generations."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointGeneration
from repro.core.sdc import detect_sdc
from repro.pup.puper import pack
from repro.util.errors import SimulationError


class Blob:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def pup(self, p):
        self.values = p.pup_array("values", self.values)


def generation(iteration, per_rank_values):
    gen = CheckpointGeneration(iteration=iteration)
    for rank, values in enumerate(per_rank_values):
        gen.put(rank, pack(Blob(values)))
    return gen


class TestDetectSDC:
    def test_identical_generations_clean(self):
        a = generation(3, [[1.0, 2.0], [3.0, 4.0]])
        b = generation(3, [[1.0, 2.0], [3.0, 4.0]])
        result = detect_sdc(a, b)
        assert result.clean
        assert result.mismatched_ranks == set()

    def test_mismatch_localized_to_rank(self):
        a = generation(3, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        b = generation(3, [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]])
        result = detect_sdc(a, b)
        assert not result.clean
        assert result.mismatched_ranks == {1}

    def test_checksum_mode(self):
        a = generation(1, [[1.0], [2.0]])
        b = generation(1, [[1.0], [2.0]])
        assert detect_sdc(a, b, use_checksum=True).clean
        c = generation(1, [[1.0], [2.25]])
        result = detect_sdc(a, c, use_checksum=True)
        assert not result.clean
        assert result.method == "checksum"

    def test_rtol_forgives_roundoff(self):
        a = generation(1, [[1.0, 2.0]])
        b = generation(1, [[1.0 + 1e-12, 2.0]])
        assert not detect_sdc(a, b).clean
        assert detect_sdc(a, b, rtol=1e-9).clean

    def test_iteration_mismatch_rejected(self):
        a = generation(3, [[1.0]])
        b = generation(4, [[1.0]])
        with pytest.raises(SimulationError):
            detect_sdc(a, b)

    def test_rank_set_mismatch_rejected(self):
        a = generation(3, [[1.0], [2.0]])
        b = generation(3, [[1.0]])
        with pytest.raises(SimulationError):
            detect_sdc(a, b)

    def test_missing_generation_rejected(self):
        with pytest.raises(SimulationError):
            detect_sdc(None, generation(1, [[1.0]]))
