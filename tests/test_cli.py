import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import hurstscan
from helpers import make_return_series
from hurstscan import NumericalError, gen_garch, save_returns
from hurstscan.cli import main

ROLLING_HEADER = "date,hurst,stderr_hurst,r_squared,f0,f_sigma,f_range,f_ratio,garch_converged"


def run(args):
    return main(list(args))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HURSTSCAN_OUT_DIR", raising=False)
    return tmp_path


def subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this hurstscan."""
    src = Path(hurstscan.__file__).resolve().parent.parent
    path = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("HURSTSCAN_OUT_DIR", None)
    return env


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

    @pytest.mark.parametrize(
        "params, config",
        [
            (["--kind", "fgn", "--h", "0.6"],
             {"kind": "fgn", "n": 100, "seed": 3, "hurst": 0.6, "sigma": 1.0}),
            (["--kind", "gaussian-white", "--sigma", "2.5"],
             {"kind": "gaussian-white", "n": 100, "seed": 3, "sigma": 2.5}),
            (["--kind", "garch", "--omega", "1e-6", "--alpha", "0.08", "--beta", "0.91"],
             {"kind": "garch", "n": 100, "seed": 3, "omega": 1e-6, "alpha": 0.08, "beta": 0.91}),
        ],
        ids=["fgn", "gaussian-white", "garch"],
    )
    def test_manifest_config_and_seed(self, workdir, params, config):
        assert run(["synth", *params, "--n", "100", "--seed", "3", "--out", "s.csv"]) == 0
        manifest = json.loads((workdir / "s.synth.manifest.json").read_text())
        assert (manifest["config"], manifest["seed"]) == (config, 3)
        assert list(manifest["config"]) == list(config)

    @pytest.mark.parametrize(
        "params, message",
        [
            (["--kind", "fgn"], "fgn requires hurst"),
            (["--kind", "garch", "--omega", "1e-6"], "garch requires alpha, beta"),
            (["--kind", "gaussian-white", "--h", "0.6", "--alpha", "0.1"],
             "gaussian-white does not take hurst, alpha"),
        ],
    )
    def test_missing_or_foreign_parameter_exits_one_without_output(
        self, workdir, capsys, params, message
    ):
        assert run(["synth", *params, "--n", "100"]) == 1
        assert capsys.readouterr().err == f"hurstscan: error: {message}\n"
        assert list(workdir.iterdir()) == []

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

    @pytest.mark.parametrize(
        "params",
        [
            ["--kind", "fgn", "--n", "2000", "--h", "0.6", "--sigma", "1e300"],
            ["--kind", "fgn", "--n", "2000", "--h", "0.6", "--sigma", "1e-300"],
            # sigma**2 is finite, but the embedding's sums over it are not
            ["--kind", "fgn", "--n", "2000", "--h", "0.6", "--sigma", "1.3e154"],
            ["--kind", "gaussian-white", "--n", "100", "--sigma", "1e308"],
        ],
    )
    def test_sigma_out_of_float_range_exits_one_without_output(self, workdir, capsys, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["synth", *params, "--out", "bad.csv"]) == 1
        err = capsys.readouterr().err
        assert "sigma" in err and "range" in err
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

    def test_start_date_past_the_last_date_exits_one_without_output(self, workdir, capsys):
        args = ["synth", "--kind", "gaussian-white", "--n", "1000",
                "--start-date", "9999-12-01", "--out-dir", "newdir"]
        assert run(args) == 1
        assert "last representable date 9999-12-31" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("out", ["../x.csv", "sub/x.csv", "absolute"])
    def test_out_with_a_directory_part_exits_one_without_output(self, workdir, capsys, out):
        # --out names a file inside --out-dir, never one beside or outside it
        out = str(workdir / "x.csv") if out == "absolute" else out
        args = ["synth", "--kind", "fgn", "--n", "100", "--h", "0.6", "--out", out, "--out-dir", "o"]
        assert run(args) == 1
        assert "is not a bare file name" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []
        assert not (workdir.parent / "x.csv").exists()

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

    def test_overflowing_squares_exit_one_without_warning(self, workdir, capsys):
        # mfdfa scales the series to unit size, so the first value out of
        # range is R(s) = F_2(s)^2 / s^(2H), in squared units
        values = gen_garch(200, 1e-6, 0.08, 0.91, seed=8) * 1e160
        save_returns(make_return_series(values), workdir / "huge.csv")
        args = ["analyze", "huge.csv", "--returns", "--no-garch", "--s-min", "3", "--s-max", "15"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 1
        err = capsys.readouterr().err
        assert "R(s) = F_2(s)^2 / s^(2H) leaves the floating-point range" in err
        assert list(workdir.iterdir()) == [workdir / "huge.csv"]

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

    def test_byte_not_utf8_exits_one_naming_line(self, workdir):
        # Windows-1252 "e acute" inside a price, through the console
        # script's own interpreter so a traceback would show on stderr
        (workdir / "latin.csv").write_bytes(
            b"date,close\n2000-01-03,100.0\n2000-01-04,101.0\n2000-01-05,10\xe9.0\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "hurstscan.cli", "analyze", "latin.csv"],
            cwd=workdir, env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "latin.csv:4: unparsable value" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(workdir.iterdir()) == [workdir / "latin.csv"]

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

    @pytest.mark.parametrize(
        "q, message",
        [
            ("0", "q = 0 is not supported"),
            ("nan", "q must be finite"),
            ("2100", "|q| must be at most 2000"),
        ],
    )
    def test_q_rule_checked_before_the_set_needs_two(self, workdir, capsys, q, message):
        path = synth_fgn(workdir, n=2000)
        assert run(["analyze", str(path.name), "--returns", "--q", q]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "must include 2" not in err

    def test_repeated_q_computed_once(self, workdir, monkeypatch):
        import hurstscan.scaling as scaling

        path = synth_fgn(workdir, n=2000)
        assert run(["analyze", str(path.name), "--returns", "--out-dir", "plain"]) == 0
        power_means, seen = scaling._power_means, set()

        def spy(f2, qs, starts):
            seen.add(tuple(qs))
            return power_means(f2, qs, starts)

        monkeypatch.setattr(scaling, "_power_means", spy)
        args = ["analyze", str(path.name), "--returns", "--q", "2", "--q", "2"]
        assert run([*args, "--out-dir", "twice"]) == 0
        assert seen == {(2.0,)}
        plain = json.loads((workdir / "plain" / "fgn.analyze.manifest.json").read_text())
        twice = json.loads((workdir / "twice" / "fgn.analyze.manifest.json").read_text())
        assert twice["config"]["q_set"] == [2.0]
        for name, entry in plain["outputs"].items():
            assert twice["outputs"][name]["sha256"] == entry["sha256"]
        assert twice["outputs"].keys() == plain["outputs"].keys()

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

    def test_q_two_writes_the_same_bytes(self, workdir):
        # the benchmark's argv form still parses and changes no output
        synth_fgn(workdir, n=700)
        args = ["roll", "fgn.csv", "--returns", "--window", "500", "--s-min", "10",
                "--s-max", "50", "--step", "5"]
        assert run([*args, "--out-dir", "plain"]) == 0
        assert run([*args, "--q", "2", "--out-dir", "q2"]) == 0
        for name in ("fgn.rolling.csv", "fgn.rolling.jsonl"):
            assert (workdir / "q2" / name).read_bytes() == (workdir / "plain" / name).read_bytes()

    @pytest.mark.parametrize("q", [["--q=-2"], ["--q", "4"]], ids=["-2", "4"])
    def test_q_other_than_two_exits_one(self, workdir, q):
        synth_fgn(workdir, n=700)
        proc = subprocess.run(
            [sys.executable, "-m", "hurstscan.cli", "roll", "fgn.csv", "--returns", *q,
             "--out-dir", "out"],
            cwd=workdir, env=subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "usage:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (workdir / "out").exists()

    def test_manifest_config_is_the_library_config(self, workdir):
        synth_fgn(workdir, n=600)
        assert run(["roll", "fgn.csv", "--returns", "--step", "50"]) == 0
        manifest = json.loads((workdir / "fgn.roll.manifest.json").read_text())
        names = {field.name for field in fields(hurstscan.RollingConfig)}
        assert set(manifest["config"]) == names | {"returns"}

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

    def test_huge_returns_write_a_readable_csv(self, workdir):
        # every window's fit raises and its raw returns put R(s) near
        # 1e160, where unscaled squared deviations would overflow f_sigma
        values = hurstscan.gen_garch(200, 1e-6, 0.08, 0.91, seed=8) * 1e80
        dates = hurstscan.synthetic_dates(values.size)
        hurstscan.save_returns(hurstscan.ReturnSeries(dates, values), workdir / "huge.csv")
        args = ["roll", "huge.csv", "--returns", "--window", "60", "--step", "7",
                "--s-min", "3", "--s-max", "15", "--garch-mode", "per-window", "--out-dir", "out"]
        assert run(args) == 0
        results = hurstscan.read_rolling_csv(workdir / "out" / "huge.rolling.csv")
        assert len(results) == 21
        assert (results.f_sigma > 1e150).all() and (results.f_range > 1e150).all()


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

    def test_byte_not_utf8_exits_one_naming_line(self, workdir, capsys):
        self.write_rolling(workdir, [0.6, 0.6, 0.6])
        path = workdir / "run.rolling.csv"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",0.11,", b",0.1\xe91,")
        path.write_bytes(b"\n".join(lines))
        assert run(["report", "run.rolling.csv"]) == 1
        assert "run.rolling.csv:3: unparsable f0 '0.1\ufffd1'" in capsys.readouterr().err
        assert not (workdir / "run.hurst.csv").exists()

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

    def test_dotted_input_names_keep_their_own_outputs(self, workdir):
        # names are cut at the last dot only: two versions of one index
        # written to one directory overwrite none of each other's files
        for version, h in (("v1", 0.7), ("v2", 0.3)):
            synth_fgn(workdir, name=f"idx.{version}.csv", n=1500, h=h)
            assert run(["analyze", f"idx.{version}.csv", "--returns"]) == 0
            assert run(["roll", f"idx.{version}.csv", "--returns", "--step", "100"]) == 0
            assert run(["report", f"idx.{version}.rolling.csv"]) == 0
        for command in ("synth", "analyze", "roll", "report"):
            for version in ("v1", "v2"):
                manifest = json.loads(
                    (workdir / f"idx.{version}.{command}.manifest.json").read_text()
                )
                assert manifest["command"] == command
                for output in manifest["outputs"].values():
                    path = Path(output["path"])
                    assert path.name.startswith(f"idx.{version}.")
                    assert hashlib.sha256(path.read_bytes()).hexdigest() == output["sha256"]
        assert len(list(workdir.glob("*.manifest.json"))) == 8
        for name in ("hurst", "f0", "f_sigma", "f_range", "f_ratio", "regimes"):
            suffix = "txt" if name == "regimes" else "csv"
            v1, v2 = (workdir / f"idx.{v}.{name}.{suffix}" for v in ("v1", "v2"))
            assert v1.read_bytes() != v2.read_bytes()
        assert not (workdir / "idx.hurst.csv").exists()

    @staticmethod
    def dates(n):
        import datetime as dt

        start = dt.date(2000, 1, 3)
        return [(start + dt.timedelta(days=i)).isoformat() for i in range(n)]


class TestRunner:
    @pytest.mark.parametrize(
        "command",
        [
            ["synth", "--kind", "fgn", "--h", "0.6", "--n", "600", "--out", "fgn.csv"],
            ["analyze", "fgn.csv", "--returns", "--q=-2", "--q=2"],
            ["roll", "fgn.csv", "--returns", "--step", "50"],
            ["report", "fgn.rolling.csv"],
        ],
        ids=lambda command: command[0],
    )
    def test_out_dir_holds_the_manifest_outputs_and_nothing_else(self, workdir, capsys, command):
        synth_fgn(workdir, n=600)
        assert run(["roll", "fgn.csv", "--returns", "--step", "50"]) == 0
        capsys.readouterr()
        assert run([*command, "--out-dir", "out"]) == 0
        (manifest,) = (workdir / "out").glob("*.manifest.json")
        outputs = json.loads(manifest.read_text())["outputs"]
        paths = [workdir / entry["path"] for entry in outputs.values()]
        assert sorted((workdir / "out").iterdir()) == sorted([manifest, *paths])
        for path, entry in zip(paths, outputs.values()):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        for path in [*paths, manifest]:
            assert str(path.relative_to(workdir)) in err


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
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHECK],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120,
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

    def test_roll_defaults_build_library_config(self, workdir, monkeypatch):
        import hurstscan.cli as cli

        seen = []

        def capture(series, config):
            seen.append(config)
            raise hurstscan.InputError("stop after the configuration")

        synth_fgn(workdir, n=600)
        monkeypatch.setattr(cli, "roll", capture)
        assert run(["roll", "fgn.csv", "--returns"]) == 1
        assert seen == [hurstscan.RollingConfig()]

    def test_choices_come_from_library(self):
        from hurstscan.cli import build_parser
        from hurstscan.rolling import GARCH_MODES, STAMP_CHOICES
        from hurstscan.synth import _KINDS

        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]

        def choices(command, dest):
            (action,) = [a for a in commands.choices[command]._actions if a.dest == dest]
            return tuple(action.choices)

        assert choices("roll", "garch_mode") == GARCH_MODES
        assert choices("roll", "stamp") == STAMP_CHOICES
        assert choices("synth", "kind") == tuple(_KINDS)

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "x.csv", "--garch", "--no-garch"],
            ["synth", "--kind", "fgn", "--n", "100", "--h", "0.6", "--no-dates", "--dates"],
        ],
    )
    def test_switch_and_its_negation_exit_one(self, workdir, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bogus"])
        assert exc.value.code == 1
