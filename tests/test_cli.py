"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestApps:
    def test_lists_all_miniapps(self, capsys):
        code, out = run_cli(capsys, "apps")
        assert code == 0
        for name in ("jacobi3d-charm", "hpccg", "lulesh", "leanmd", "minimd"):
            assert name in out


class TestRun:
    def test_failure_free_run(self, capsys):
        code, out = run_cli(capsys, "run", "--nodes", "2",
                            "--iterations", "60", "--seed", "1")
        assert code == 0
        assert "result bit-correct" in out
        assert "True" in out

    def test_run_with_faults(self, capsys):
        code, out = run_cli(capsys, "run", "--nodes", "4", "--scheme", "medium",
                            "--iterations", "200", "--interval", "3",
                            "--hard-mtbf", "15", "--seed", "2")
        assert code == 0
        assert "recoveries" in out

    def test_checksum_and_mapping_flags(self, capsys):
        code, out = run_cli(capsys, "run", "--nodes", "2", "--iterations", "60",
                            "--checksum", "--mapping", "column")
        assert code == 0

    def test_bad_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--app", "doom"])


class TestModel:
    def test_prints_all_schemes(self, capsys):
        code, out = run_cli(capsys, "model", "--sockets", "16384",
                            "--delta", "15")
        assert code == 0
        for scheme in ("strong", "medium", "weak"):
            assert scheme in out
        assert "tau_opt" in out

    def test_parameters_change_output(self, capsys):
        _, small = run_cli(capsys, "model", "--sockets", "1024")
        _, large = run_cli(capsys, "model", "--sockets", "262144")
        assert small != large


class TestFigures:
    def test_fig6(self, capsys):
        code, out = run_cli(capsys, "figure", "fig6")
        assert code == 0
        assert "default" in out and "column" in out and "mixed" in out

    def test_fig8_restricted_apps(self, capsys):
        code, out = run_cli(capsys, "figure", "fig8", "--apps", "leanmd")
        assert code == 0
        assert "leanmd" in out
        assert "jacobi3d-charm" not in out

    def test_fig9_and_fig11_differ(self, capsys):
        _, fig9 = run_cli(capsys, "figure", "fig9")
        _, fig11 = run_cli(capsys, "figure", "fig11")
        assert fig9 != fig11
        assert "tau_opt" in fig9

    def test_fig10(self, capsys):
        code, out = run_cli(capsys, "figure", "fig10", "--apps", "minimd")
        assert code == 0
        assert "reconstruction" in out

    def test_fig12_small(self, capsys):
        code, out = run_cli(capsys, "figure", "fig12", "--nodes", "4",
                            "--horizon", "300", "--failures", "6")
        assert code == 0
        assert "mean gap" in out

    def test_table2(self, capsys):
        code, out = run_cli(capsys, "table2")
        assert code == 0
        assert "4000 atoms" in out


class TestEntryPoint:
    def test_module_is_executable(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "apps"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "jacobi3d-charm" in proc.stdout

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestPlotMode:
    def test_fig6_plot(self, capsys):
        code, out = run_cli(capsys, "figure", "fig6", "--plot")
        assert code == 0
        assert "1 2 3 4 3 2 1 0" in out
        assert out.count("Figure 6") == 3  # one heatmap per mapping

    def test_fig7_plot(self, capsys):
        code, out = run_cli(capsys, "figure", "fig7", "--plot")
        assert code == 0
        assert "legend: o=strong" in out

    def test_fig7_table(self, capsys):
        code, out = run_cli(capsys, "figure", "fig7")
        assert code == 0
        assert "P(undetected SDC)" in out

    def test_fig8_plot(self, capsys):
        code, out = run_cli(capsys, "figure", "fig8", "--apps", "leanmd",
                            "--plot")
        assert code == 0
        assert "o=local" in out

    def test_fig10_plot(self, capsys):
        code, out = run_cli(capsys, "figure", "fig10", "--apps", "minimd",
                            "--plot")
        assert code == 0
        assert "reconstruction" in out

    def test_fig12_plot(self, capsys):
        code, out = run_cli(capsys, "figure", "fig12", "--nodes", "4",
                            "--horizon", "300", "--failures", "6", "--plot")
        assert code == 0
        assert "trajectory" in out


class TestSweepSpec:
    """``repro campaign`` and ``repro submit`` share one flags->kwargs map."""

    FLAGS = ("--nodes", "2", "--scheme", "medium", "--mapping", "column",
             "--checksum", "--iterations", "30", "--interval", "3",
             "--hard-mtbf", "15", "--sdc-mtbf", "40", "--horizon", "500",
             "--spare-nodes", "8")
    #: What ``repro submit`` sent as ``config`` for FLAGS before the two
    #: subcommands shared their flag spec, key order included.
    EXPECTED = {
        "nodes_per_replica": 2,
        "scheme": "medium",
        "mapping": "column",
        "use_checksum": True,
        "total_iterations": 30,
        "checkpoint_interval": 3.0,
        "hard_mtbf": 15.0,
        "sdc_mtbf": 40.0,
        "horizon": 500.0,
        "spare_nodes": 8,
    }

    class _Captured(Exception):
        pass

    def _campaign_kwargs(self, monkeypatch):
        import repro.harness.campaign as campaign_mod

        def fake_run_campaign(app, **kwargs):
            raise self._Captured(kwargs)

        monkeypatch.setattr(campaign_mod, "run_campaign", fake_run_campaign)
        with pytest.raises(self._Captured) as exc:
            main(["campaign", "--no-cache", *self.FLAGS])
        kwargs = exc.value.args[0]
        for key in ("seeds", "workers", "cache", "resume", "progress"):
            kwargs.pop(key)
        return kwargs

    def _submit_config(self, monkeypatch):
        import repro.serve as serve_mod

        captured = self._Captured

        class FakeClient:
            def __init__(self, server):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, **request):
                raise captured(request["config"])

        monkeypatch.setattr(serve_mod, "ServeClient", FakeClient)
        with pytest.raises(self._Captured) as exc:
            main(["submit", *self.FLAGS])
        return exc.value.args[0]

    def test_campaign_and_submit_send_the_same_kwargs(self, monkeypatch):
        campaign = self._campaign_kwargs(monkeypatch)
        submit = self._submit_config(monkeypatch)
        assert campaign == submit == self.EXPECTED
        assert list(campaign) == list(submit) == list(self.EXPECTED)

    def test_every_axis_is_a_server_config_key(self, monkeypatch):
        from repro.harness.experiment import EXPERIMENT_CONFIG_KEYS

        assert set(self._submit_config(monkeypatch)) <= EXPERIMENT_CONFIG_KEYS
