"""Chaos campaigns: aggregation, parallel==serial, and the CI smoke sweep."""

import pytest

from repro.chaos import run_chaos_campaign, run_chaos_seed
from tests.chaos.check_fingerprints import load_fingerprints

#: Every lineage copy in these campaigns is checked against a recompute
#: (tests/conftest.py); forked workers inherit the check.
pytestmark = pytest.mark.usefixtures("verify_lineage")


class TestCampaign:
    def test_count_means_range(self):
        result = run_chaos_campaign(4, shrink=False)
        assert result.seeds == [0, 1, 2, 3]
        assert len(result.outcomes) == 4

    def test_explicit_seed_list(self):
        result = run_chaos_campaign([5, 9], shrink=False)
        assert [o.seed for o in result.outcomes] == [5, 9]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_chaos_campaign(2, workers=0)

    def test_coverage_matrix_counts_all_outcomes(self, verify_lineage):
        result = run_chaos_campaign(12, shrink=False)
        coverage = result.coverage()
        assert sum(coverage.values()) == 12
        assert len(coverage) == 12  # the full 12-cell cycle
        assert result.ok
        assert verify_lineage  # replicas shared state, and it was checked

    def test_parallel_matches_serial_bitwise(self):
        serial = run_chaos_campaign(6, workers=1, shrink=False)
        parallel = run_chaos_campaign(6, workers=3, shrink=False)
        assert ([o.fingerprint for o in serial.outcomes]
                == [o.fingerprint for o in parallel.outcomes])

    def test_seed_rerun_is_bitwise_reproducible(self):
        assert (run_chaos_seed(13).fingerprint
                == run_chaos_seed(13).fingerprint)


@pytest.mark.chaos_smoke
class TestSmokeSweep:
    """The bounded chaos sweep CI runs on every push (fixed seeds)."""

    def test_64_schedules_green(self):
        result = run_chaos_campaign(64, workers=4)
        failing = [(o.seed, o.invariant, o.violation)
                   for o in result.failures]
        assert result.ok, failing
        assert result.total_checks > 64  # the oracle actually fired
        # All 12 configuration cells exercised within 64 seeds.
        assert len(result.coverage()) == 12
        # Every run shows what it showed when the fingerprints were pinned
        # (check_fingerprints.py checks all 1,500).
        moved = [o.seed for o, pinned in zip(result.outcomes,
                                              load_fingerprints())
                 if o.fingerprint != pinned]
        assert not moved, moved
