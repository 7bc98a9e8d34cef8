"""Additional CLI coverage: option flags, multiway, O2, engine choices."""

import pytest

from repro.cli import main


@pytest.fixture()
def data_dir(tmp_path):
    rc = main(["generate", "--out", str(tmp_path), "--segments", "2",
               "--minutes", "90", "--air-quality"])
    assert rc == 0
    return tmp_path


class TestCliOptions:
    def test_run_with_o2(self, data_dir, capsys):
        rc = main([
            "run", "-p",
            "PATTERN ITER2(V v) WHERE v.value < 30 WITHIN 10 MINUTES",
            "--o2", "--stream", f"V={data_dir}/V.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FASP-O2" in out

    def test_run_with_o3(self, data_dir, capsys):
        rc = main([
            "run", "-p",
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES",
            "--o3", "id",
            "--stream", f"Q={data_dir}/Q.csv",
            "--stream", f"V={data_dir}/V.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FASP-O3" in out

    def test_explain_with_multiway(self, capsys):
        rc = main([
            "explain", "-p", "PATTERN SEQ(Q a, V b, W c) WITHIN 10 MINUTES",
            "--multiway",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MultiWayJoin" in out

    def test_run_fcep_only(self, data_dir, capsys):
        rc = main([
            "run", "-p", "PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES",
            "--engine", "fcep",
            "--stream", f"Q={data_dir}/Q.csv",
            "--stream", f"V={data_dir}/V.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FCEP]" in out

    def test_run_shows_limited_matches(self, data_dir, capsys):
        rc = main([
            "run", "-p", "PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES",
            "--show", "2",
            "--stream", f"Q={data_dir}/Q.csv",
            "--stream", f"V={data_dir}/V.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("match:") <= 2

    def test_advise_with_aq_stream(self, data_dir, capsys):
        rc = main([
            "advise", "-p",
            "PATTERN ITER3(PM10 p) WITHIN 30 MINUTES",
            "--stream", f"PM10={data_dir}/PM10.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "O2" in out

    def test_syntax_error_is_reported(self, capsys):
        rc = main(["explain", "-p", "PATTERN SEQ(Q a V b) WITHIN 5 MINUTES"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEngineSelection:
    """``--batch-size`` only sets how many events a batch may hold: every
    size runs the one drive loop, with stateless chains fused."""

    PATTERN = (
        "PATTERN OR(Q a, V b) WHERE a.value > 40 AND b.value > 40 "
        "WITHIN 10 MINUTES"
    )

    def _run(self, data_dir, monkeypatch, batch_size):
        from repro.asp.runtime.backends.serial import SerialJob

        drives, results = [], []
        original = SerialJob._drive_batched

        def spy(job):
            drives.append("_drive_batched")
            return original(job)

        monkeypatch.setattr(SerialJob, "_drive_batched", spy)
        original_run = SerialJob.run

        def run(job, *args, **kwargs):
            results.append(original_run(job, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(SerialJob, "run", run)
        rc = main([
            "run", "-p", self.PATTERN, "--batch-size", str(batch_size),
            "--stream", f"Q={data_dir}/Q.csv",
            "--stream", f"V={data_dir}/V.csv",
        ])
        assert rc == 0
        return drives, results[0]

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_every_batch_size_runs_the_one_fused_driver(
        self, data_dir, monkeypatch, batch_size
    ):
        drives, result = self._run(data_dir, monkeypatch, batch_size)
        assert drives == ["_drive_batched"]
        assert result.metadata["batch_size"] == batch_size
        assert result.metadata["fused_segments"]

    @pytest.mark.parametrize("batch_size", ["0", "-3"])
    def test_non_positive_batch_size_is_a_usage_error(
        self, data_dir, monkeypatch, capsys, batch_size
    ):
        from repro.asp.runtime.backends.serial import SerialJob

        monkeypatch.setattr(SerialJob, "run", lambda job, *a, **k: pytest.fail("ran"))
        rc = main([
            "run", "-p", self.PATTERN, "--batch-size", batch_size,
            "--stream", f"Q={data_dir}/Q.csv",
            "--stream", f"V={data_dir}/V.csv",
        ])
        assert rc == 2
        assert f"error: batch size must be >= 1, got {batch_size}" in capsys.readouterr().err

    def test_retired_engine_flags_are_rejected(self, capsys):
        for flag in ("--no-fusion", "--columnar"):
            with pytest.raises(SystemExit):
                main(["run", flag])
        capsys.readouterr()
