"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import dags


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig7" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "28.800" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "worst list makespan" in out

    def test_fig23_checks_ok(self, capsys):
        assert main(["fig23"]) == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out

    def test_fig6_fast_single_kernel(self, tmp_path, capsys):
        argv = ["fig6", "--kernel", "qr", "--fast", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "qr" in out and "heteroprio" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure42"])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--kernel", "svd"])


class TestFigureCache:
    """Figure sweeps honour ``--cache-dir``, ``--no-cache`` and ``--refresh``."""

    @pytest.fixture(autouse=True)
    def _fresh_sweep_memo(self):
        # The in-process sweep memo would answer before the cache does.
        dags.clear_cache()
        yield
        dags.clear_cache()

    def test_second_fig7_run_executes_nothing(self, tmp_path, capsys):
        argv = [
            "fig7", "--kernel", "cholesky", "--fast", "--jobs", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 cache hits" in cold.err
        dags.clear_cache()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "(100%" in warm.err and " 0 executed" in warm.err
        assert warm.out == cold.out

    def test_refresh_clears_before_running(self, tmp_path, capsys):
        argv = ["fig6", "--kernel", "qr", "--fast", "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--refresh"]) == 0
        err = capsys.readouterr().err
        assert "[fig6] cleared 12 cached entries" in err
        assert "12 executed" in err

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig6", "--kernel", "qr", "--fast", "--jobs", "1", "--no-cache"]) == 0
        assert "0 cache hits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_sweep_experiments_open_no_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["table1"]) == 0
        assert list(tmp_path.iterdir()) == []
