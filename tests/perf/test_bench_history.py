"""The static code-size counts ``benchmarks/perf/bench_history.py`` records."""

from benchmarks.perf.bench_history import public_names, src_stats


def test_public_names_counts_every_all_entry_without_importing(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        '__all__ = ["a", "b"]\nraise SystemExit("imported")\n')
    (pkg / "mod.py").write_text('x = 1\n__all__ = ("c",)\n')
    (pkg / "plain.py").write_text("def f():\n    __all__ = ['local']\n")
    assert public_names(tmp_path) == 3
    assert src_stats(tmp_path)[0] == 6
