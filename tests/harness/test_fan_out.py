"""fan_out error-surfacing tests: failures name the offending call."""

import os
import time

import pytest

from repro.harness.campaign import FanOutError, fan_out, run_campaign


def _double_or_boom(x):
    """Module-level so worker processes can import it by reference."""
    if x == 3:
        raise ValueError("x too spicy")
    return 2 * x


def _slow_boom(x):
    """Fails *slowly*, so sibling successes land in the same wait batch."""
    if x == 3:
        time.sleep(0.4)
        raise ValueError("x too spicy")
    return 2 * x


def _wait_for_file(path, timeout_s):
    """True once ``path`` exists, False after ``timeout_s`` seconds."""
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(path):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


class TestFanOut:
    def test_success_returns_results_in_input_order(self):
        assert fan_out(_double_or_boom, [(1,), (2,), (4,)], 2) == [2, 4, 8]

    def test_on_result_fires_per_completion_with_position(self):
        seen = {}
        fan_out(_double_or_boom, [(1,), (2,)], 2,
                on_result=lambda i, r: seen.__setitem__(i, r))
        assert seen == {0: 2, 1: 4}

    def test_on_result_fires_while_siblings_still_run(self, tmp_path):
        """Commit as you go: cell 0's result reaches the parent while cell 1
        is still running (cell 1 waits for the file cell 0's commit writes)."""
        flag = str(tmp_path / "committed")

        def commit(position, result):
            if position == 0:
                open(flag, "w").close()

        results = fan_out(_wait_for_file,
                          [(str(tmp_path / "never"), 0.0), (flag, 30.0)], 2,
                          on_result=commit)
        assert results == [False, True]

    def test_task_error_names_the_failing_args_tuple(self):
        with pytest.raises(FanOutError) as exc_info:
            fan_out(_double_or_boom, [(1,), (3,), (2,)], 2)
        err = exc_info.value
        assert err.args_tuple == (3,)
        assert err.fn_name == "_double_or_boom"
        assert "_double_or_boom(3,)" in str(err)
        assert "ValueError" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_completed_results_still_commit_before_the_error(self):
        committed = {}
        with pytest.raises(FanOutError):
            fan_out(_slow_boom, [(1,), (3,)], 2,
                    on_result=lambda i, r: committed.__setitem__(i, r))
        assert committed == {0: 2}

    def test_unpicklable_fn_falls_back_to_serial(self):
        def local_fn(x):  # nested functions cannot pickle
            return x

        assert fan_out(local_fn, [(1,)], 2) is None

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="workers=2 clamps to serial on one CPU")
    def test_type_error_inside_a_cell_names_the_cell(self):
        """A cell's own TypeError is a task error, not an unpicklable call:
        no serial re-run in the parent, and the error names the cell."""
        with pytest.raises(FanOutError) as exc_info:
            run_campaign("jacobi3d-charm", seeds=range(2), workers=2,
                         nodes_per_replica=2, total_iterations=10, bogus=1)
        err = exc_info.value
        assert err.fn_name == "run_experiment_report"
        app, seed, kwargs = err.args_tuple
        assert (app, kwargs["bogus"]) == ("jacobi3d-charm", 1)
        assert seed in (0, 1)
        assert isinstance(err.__cause__, TypeError)
        assert "bogus" in str(err.__cause__)
