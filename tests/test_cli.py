import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurstscan
from hurstscan import NumericalError
from hurstscan.cli import main

ROLLING_HEADER = "date,hurst,stderr_hurst,r_squared,f0,f_sigma,f_range,f_ratio,garch_converged"


def run(args):
    return main(list(args))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HURSTSCAN_OUT_DIR", raising=False)
    return tmp_path


def synth_fgn(workdir, name="fgn.csv", n=10000, seed=42, h=0.7):
    assert run(["synth", "--kind", "fgn", "--h", str(h), "--n", str(n), "--seed", str(seed), "--out", name]) == 0
    return workdir / name


class TestSynth:
    def test_identical_files_for_identical_seeds(self, workdir):
        run(["synth", "--kind", "fgn", "--h", "0.7", "--n", "10000", "--seed", "42", "--out", "a.csv"])
        run(["synth", "--kind", "fgn", "--h", "0.7", "--n", "10000", "--seed", "42", "--out", "b.csv"])
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_manifest_records_spec_and_hash(self, workdir):
        synth_fgn(workdir)
        manifest = json.loads((workdir / "fgn.synth.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 42
        assert manifest["config"]["hurst"] == 0.7
        digest = hashlib.sha256((workdir / "fgn.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["series"]["sha256"] == digest

    def test_hurst_out_of_range_exits_one(self, workdir, capsys):
        assert run(["synth", "--kind", "fgn", "--h", "1.2", "--n", "100"]) == 1
        assert "hurst" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params",
        [
            ["--kind", "garch", "--omega", "1e-6", "--alpha", "nan", "--beta", "0.9"],
            ["--kind", "gaussian-white", "--sigma", "nan"],
            # parameters of other kinds are rejected, not ignored
            ["--kind", "garch", "--omega", "1e-6", "--alpha", "0.08", "--beta", "0.9",
             "--sigma", "nan", "--h", "7"],
            ["--kind", "fgn", "--h", "0.6", "--omega", "1e-6"],
        ],
    )
    def test_nan_parameter_exits_one_without_output(self, workdir, params):
        assert run(["synth", *params, "--n", "600", "--out", "bad.csv"]) == 1
        assert list(workdir.iterdir()) == []

    def test_negative_seed_exits_one_without_output(self, workdir, capsys):
        args = ["synth", "--kind", "gaussian-white", "--n", "50", "--seed", "-1", "--out", "bad.csv"]
        assert run(args) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_start_date_with_no_dates_exits_one_without_output(self, workdir, capsys):
        args = ["synth", "--kind", "gaussian-white", "--n", "50", "--no-dates",
                "--start-date", "2001-01-01", "--out", "bad.csv"]
        assert run(args) == 1
        assert "--start-date" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_start_date_sets_first_date(self, workdir):
        run(["synth", "--kind", "gaussian-white", "--n", "3", "--start-date", "2001-02-03", "--out", "w.csv"])
        lines = (workdir / "w.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["date", "2001-02-03", "2001-02-04", "2001-02-05"]

    def test_no_dates_writes_single_column(self, workdir):
        run(["synth", "--kind", "gaussian-white", "--n", "50", "--no-dates", "--out", "w.csv"])
        lines = (workdir / "w.csv").read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 51


class TestAnalyze:
    def test_fgn_hurst_in_range(self, workdir):
        path = synth_fgn(workdir)
        assert run(["analyze", str(path.name), "--returns"]) == 0
        fits = json.loads((workdir / "fgn.scaling.json").read_text())
        assert len(fits) == 1
        assert 0.65 <= fits[0]["hurst"] <= 0.75
        indicators = json.loads((workdir / "fgn.indicators.json").read_text())
        assert indicators["f_ratio"] >= 1.0

    def test_constant_prices_degenerate(self, workdir, capsys):
        rows = ["date,close"] + [f"2000-01-{d:02d},100" for d in range(1, 32)]
        rows += [f"2000-02-{d:02d},100" for d in range(1, 29)]
        rows += [f"2000-03-{d:02d},100" for d in range(1, 32)]
        rows += [f"2000-04-{d:02d},100" for d in range(1, 21)]
        (workdir / "flat.csv").write_text("\n".join(rows) + "\n")
        assert run(["analyze", "flat.csv", "--s-max", "25"]) == 1
        assert "degenerate" in capsys.readouterr().err

    def test_failed_run_writes_no_files(self, workdir, capsys):
        synth_fgn(workdir, name="x.csv", n=1000)
        assert run(["analyze", "x.csv", "--returns", "--s-max", "400", "--out-dir", "out"]) == 1
        assert "out of range" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_failed_run_creates_no_directory(self, workdir, capsys):
        run(["synth", "--kind", "garch", "--omega", "1e-6", "--alpha", "0.08",
             "--beta", "0.91", "--n", "600", "--seed", "3", "--out", "g.csv"])
        args = ["analyze", "g.csv", "--returns", "--s-max", "400", "--out-dir", "newdir"]
        assert run(args) == 1
        assert "out of range" in capsys.readouterr().err
        assert not (workdir / "newdir").exists()

    def test_missing_file_exits_one_naming_path(self, workdir, capsys):
        assert run(["analyze", "missing.csv"]) == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_manifest_hashes_match_outputs(self, workdir):
        path = synth_fgn(workdir, n=2000)
        run(["analyze", str(path.name), "--returns", "--s-max", "40"])
        manifest = json.loads((workdir / "fgn.analyze.manifest.json").read_text())
        assert manifest["inputs"] == ["fgn.csv"]
        assert manifest["config"]["s_max"] == 40
        for entry in manifest["outputs"].values():
            digest = hashlib.sha256((workdir / entry["path"]).read_bytes()).hexdigest()
            assert entry["sha256"] == digest

    def test_multiple_q_flags(self, workdir):
        path = synth_fgn(workdir, n=2000)
        run(["analyze", str(path.name), "--returns", "--q", "1", "--q", "2", "--q", "4"])
        fits = json.loads((workdir / "fgn.scaling.json").read_text())
        assert [f["q"] for f in fits] == [1.0, 2.0, 4.0]
        assert (workdir / "fgn.fluct_q1.csv").exists()
        assert (workdir / "fgn.fluct_q4.csv").exists()

    def test_q_without_two_rejected(self, workdir, capsys):
        path = synth_fgn(workdir, n=2000)
        assert run(["analyze", str(path.name), "--returns", "--q", "4"]) == 1
        assert "must include 2" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, workdir, monkeypatch, capsys):
        import hurstscan.cli as cli_mod

        def blown_up(args):
            raise NumericalError("forced numerical failure")

        monkeypatch.setattr(cli_mod, "cmd_analyze", blown_up)
        (workdir / "x.csv").write_text("date,close\n2000-01-03,100\n")
        assert run(["analyze", "x.csv"]) == 2
        assert "numerical" in capsys.readouterr().err


class TestRoll:
    def test_step_subsequence_and_workers(self, workdir, capsys):
        run(["synth", "--kind", "garch", "--omega", "0.1", "--alpha", "0.1",
             "--beta", "0.8", "--n", "560", "--seed", "7", "--out", "g.csv"])
        assert run(["roll", "g.csv", "--returns", "--out-dir", "s1"]) == 0
        assert run(["roll", "g.csv", "--returns", "--step", "5", "--out-dir", "s5"]) == 0
        fine = (workdir / "s1" / "g.rolling.csv").read_text().splitlines()
        coarse = (workdir / "s5" / "g.rolling.csv").read_text().splitlines()
        assert fine[0] == ROLLING_HEADER
        assert coarse[1:] == fine[1::5]
        assert run(["roll", "g.csv", "--returns", "--out-dir", "again"]) == 0
        assert (workdir / "again" / "g.rolling.csv").read_bytes() == (
            workdir / "s1" / "g.rolling.csv"
        ).read_bytes()
        capsys.readouterr()
        # there is no thread pool to size: --workers is a usage error
        with pytest.raises(SystemExit) as exc:
            run(["roll", "g.csv", "--returns", "--workers", "4", "--out-dir", "w4"])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err

    def test_series_shorter_than_window(self, workdir, capsys):
        synth_fgn(workdir, name="short.csv", n=400)
        assert run(["roll", "short.csv", "--returns"]) == 1
        assert "window" in capsys.readouterr().err

    def test_failed_run_creates_no_directory(self, workdir, capsys):
        run(["synth", "--kind", "garch", "--omega", "1e-6", "--alpha", "0.08",
             "--beta", "0.91", "--n", "600", "--seed", "3", "--out", "g.csv"])
        args = ["roll", "g.csv", "--returns", "--window", "5000", "--out-dir", "newdir"]
        assert run(args) == 1
        assert "shorter than window" in capsys.readouterr().err
        assert not (workdir / "newdir").exists()


class TestReport:
    def write_rolling(self, workdir, hursts):
        lines = [ROLLING_HEADER]
        for i, h in enumerate(hursts):
            lines.append(
                f"2001-03-{i + 1:02d},{h},0.004,0.99,0.11,0.002,0.008,1.3,true"
            )
        (workdir / "run.rolling.csv").write_text("\n".join(lines) + "\n")

    def test_row_counts_and_regimes(self, workdir):
        self.write_rolling(workdir, [0.6, 0.6, 0.6])
        assert run(["report", "run.rolling.csv"]) == 0
        for name in ("hurst", "f0", "f_sigma", "f_range", "f_ratio"):
            lines = (workdir / f"run.{name}.csv").read_text().splitlines()
            assert lines[0] == "date,value"
            assert len(lines) == 4
        regimes = (workdir / "run.regimes.txt").read_text()
        assert "above 0.5" in regimes
        assert "below" not in regimes

    def test_three_regime_runs(self, workdir):
        self.write_rolling(workdir, [0.6, 0.4, 0.4, 0.6])
        run(["report", "run.rolling.csv"])
        body = (workdir / "run.regimes.txt").read_text().splitlines()[1:]
        assert [line.split()[0] for line in body] == ["above", "below", "above"]
        assert "(2 windows)" in body[1]

    def test_custom_threshold(self, workdir):
        self.write_rolling(workdir, [0.6, 0.6])
        run(["report", "run.rolling.csv", "--threshold", "0.7"])
        assert "below 0.7" in (workdir / "run.regimes.txt").read_text()

    def test_nan_hurst_exits_one_naming_line(self, workdir, capsys):
        self.write_rolling(workdir, [0.6, "nan", 0.6])
        assert run(["report", "run.rolling.csv"]) == 1
        assert "run.rolling.csv:3" in capsys.readouterr().err
        assert not (workdir / "run.hurst.csv").exists()

    def test_malformed_input(self, workdir, capsys):
        (workdir / "bad.csv").write_text("date,hurst\n2000-01-03,0.5\n")
        assert run(["report", "bad.csv"]) == 1

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_one(self, workdir, capsys, threshold):
        self.write_rolling(workdir, [0.6, 0.4])
        args = ["report", "run.rolling.csv", f"--threshold={threshold}", "--out-dir", "newdir"]
        assert run(args) == 1
        assert "threshold must be finite" in capsys.readouterr().err
        assert not (workdir / "newdir").exists()

    def test_failed_run_creates_no_directory(self, workdir, capsys):
        self.write_rolling(workdir, [0.6, "nan", 0.6])
        assert run(["report", "run.rolling.csv", "--out-dir", "newdir"]) == 1
        assert not (workdir / "newdir").exists()


class TestPipeline:
    def test_garch_synth_through_analyze(self, workdir):
        run(["synth", "--kind", "garch", "--omega", "0.1", "--alpha", "0.1",
             "--beta", "0.8", "--n", "5000", "--seed", "7", "--out", "sim.csv"])
        assert run(["analyze", "sim.csv", "--returns"]) == 0
        garch = json.loads((workdir / "sim.garch.json").read_text())
        assert garch["converged"] is True
        assert abs(garch["alpha"] - 0.1) < 0.05

    def test_regime_switch_report(self, workdir):
        run(["synth", "--kind", "fgn", "--h", "0.7", "--n", "1500", "--seed", "1", "--out", "a.csv"])
        run(["synth", "--kind", "fgn", "--h", "0.3", "--n", "1500", "--seed", "2", "--out", "b.csv"])
        a = (workdir / "a.csv").read_text().splitlines()[1:]
        b = (workdir / "b.csv").read_text().splitlines()[1:]
        values = [line.split(",")[1] for line in a + b]
        lines = ["date,value"] + [
            f"{d},{v}" for d, v in zip(self.dates(len(values)), values)
        ]
        (workdir / "spliced.csv").write_text("\n".join(lines) + "\n")
        assert run(["roll", "spliced.csv", "--returns", "--step", "100"]) == 0
        assert run(["report", "spliced.rolling.csv"]) == 0
        regimes = (workdir / "spliced.regimes.txt").read_text()
        assert "below 0.5" in regimes

    @staticmethod
    def dates(n):
        import datetime as dt

        start = dt.date(2000, 1, 3)
        return [(start + dt.timedelta(days=i)).isoformat() for i in range(n)]


class TestEnvironment:
    def test_out_dir_env_var(self, workdir, monkeypatch):
        monkeypatch.setenv("HURSTSCAN_OUT_DIR", str(workdir / "env_out"))
        run(["synth", "--kind", "gaussian-white", "--n", "50", "--out", "w.csv"])
        assert (workdir / "env_out" / "w.csv").exists()

    def test_out_dir_flag_beats_env(self, workdir, monkeypatch):
        monkeypatch.setenv("HURSTSCAN_OUT_DIR", str(workdir / "env_out"))
        run(["synth", "--kind", "gaussian-white", "--n", "50", "--out", "w.csv",
             "--out-dir", str(workdir / "flag_out")])
        assert (workdir / "flag_out" / "w.csv").exists()
        assert not (workdir / "env_out" / "w.csv").exists()


NO_SCIPY_CHECK = """
import sys
import hurstscan.cli as cli
after_import = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert cli.main(["synth", "--kind", "garch", "--omega", "1e-6", "--alpha", "0.08",
                 "--beta", "0.9", "--n", "700", "--out", "g.csv"]) == 0
assert cli.main(["roll", "g.csv", "--returns", "--garch-mode", "per-window", "--step", "100"]) == 0
assert cli.main(["analyze", "g.csv", "--returns"]) == 0
after_runs = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(after_import, after_runs)
"""


def test_import_loads_no_scipy(tmp_path):
    # start-up time: numpy is the only runtime dependency of the CLI, also
    # once the GARCH fit and the scaling kernel have run
    src = Path(hurstscan.__file__).resolve().parent.parent
    path = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("HURSTSCAN_OUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHECK],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


class TestHelp:
    @pytest.mark.parametrize(
        "command,needles",
        [
            ("analyze", ["default: 10", "default: 50", "default: 2", "default: 1", "default: on"]),
            ("roll", ["default: 500", "default: 10", "window/10 = 50", "default: 2",
                      "default: whole-sample", "default: end"]),
            ("synth", ["default: 0", "default: 1.0", "default: 2000-01-03"]),
            ("report", ["default: 0.5"]),
        ],
    )
    def test_defaults_listed(self, command, needles, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for needle in needles:
            assert needle in text

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bogus"])
        assert exc.value.code == 1
