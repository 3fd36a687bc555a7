import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biphoton import cli
from biphoton.cli import main
from biphoton.config import DEFAULTS, ExperimentConfig
from biphoton.errors import ConfigError


def write_config(tmp_path, overrides, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


SMALL_RUN = {
    "run": {"duration_s": 0.02, "seed": 3},
    "scan": {"n_points": 12, "span_periods": 2.0, "duration_s": 0.005},
}


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.default()
        assert cfg.validate() == []

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tipo": 1})

    def test_coherence_warning(self):
        cfg = ExperimentConfig.from_dict(
            {"source": {"coherence_length_m": 0.01}}
        )
        assert any("coherence" in w for w in cfg.validate())

    def test_tac_coverage_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tac": {"electrical_delay_s": 1e-9}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tac": {"range_s": 11e-9}})

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, "7", None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="run.seed"):
            ExperimentConfig.from_dict({"run": {"seed": seed}})

    @pytest.mark.parametrize("n_points", [8.7, 12.0, True, "12"])
    def test_n_points_must_be_integer(self, n_points):
        with pytest.raises(ConfigError, match="scan.n_points"):
            ExperimentConfig.from_dict({"scan": {"n_points": n_points}})

    @pytest.mark.parametrize(
        "scan",
        [{"n_points": 5}, {"span_periods": 0.4}],
        ids=["n_points", "span_periods"],
    )
    def test_scan_limits_enforced(self, scan):
        # at least 8 points over at least one fringe period
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scan": scan})

    @pytest.mark.parametrize("span", ["2", True, math.nan, math.inf])
    def test_span_periods_must_be_finite_number(self, span):
        with pytest.raises(ConfigError, match="scan.span_periods"):
            ExperimentConfig.from_dict({"scan": {"span_periods": span}})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig.default().config_hash()
        b = ExperimentConfig.default().config_hash()
        c = ExperimentConfig.from_dict({"run": {"seed": 2}}).config_hash()
        assert a == b
        assert a != c

    def test_packaged_experimental(self):
        cfg = ExperimentConfig.packaged("experimental")
        assert cfg.data["geometry"]["mode_overlap"] == 0.8


class TestCliCommands:
    def test_print_config(self, capsys):
        assert main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["source"]["pump_wavelength_m"] == 427e-9

    def test_histogram_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["histogram", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "histogram.csv").read_text()
        assert text.startswith("# duration_s=")
        assert "bin_center_s,count" in text

    def test_fringes_writes_scan_and_report(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(
            ["fringes", "--config", cfg, "--out", str(out), "--window", "5",
             "--window", "1"]
        ) == 0
        for tag in ("5ns", "1ns"):
            assert (out / f"fringes_scan_{tag}.csv").exists()
            report = json.loads((out / f"fringes_report_{tag}.json").read_text())
            assert 0.0 <= report["visibility"] <= 1.2
        wide = json.loads((out / "fringes_report_5ns.json").read_text())
        narrow = json.loads((out / "fringes_report_1ns.json").read_text())
        assert wide["regime"] == "classical"
        assert narrow["regime"] == "quantum"
        assert narrow["visibility"] > wide["visibility"]

    def test_compare_table(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        table = json.loads((out / "compare.json").read_text())
        rows = table["rows"]
        mid = rows[4]  # phase pi
        assert mid["quantum_narrow_rate"] == pytest.approx(
            0.5 * DEFAULTS["rates"]["rc0"], rel=1e-6
        )
        assert mid["quantum_wide_rate"] == pytest.approx(
            0.75 * DEFAULTS["rates"]["rc0"], rel=1e-6
        )
        assert rows[0]["quantum_narrow_rate"] == pytest.approx(0.0, abs=1e-6)
        for row in rows:
            assert abs(
                row["classical_mc_rate"] - row["classical_rate"]
            ) < 4 * max(row["classical_mc_stderr"], 1e-9)

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"tac": {"range_s": 11e-9}})
        assert main(["histogram", "--config", cfg]) == 2

    def test_negative_seed_exit_code(self, capsys):
        assert main(["compare", "--seed", "-1"]) == 2
        assert "run.seed" in capsys.readouterr().err

    def test_fractional_n_points_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scan": {"n_points": 8.7}})
        out = tmp_path / "out"
        assert main(["fringes", "--config", cfg, "--out", str(out)]) == 2
        assert "scan.n_points" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("histogram", {"run": {"duration_s": -1}}, "run.duration_s"),
            ("fringes", {"scan": {"duration_s": -0.01}}, "scan.duration_s"),
            ("histogram", {"run": {"duration_s": "1"}}, "run.duration_s"),
            ("histogram", {"tac": {"n_channels": 4096.7}}, "tac.n_channels"),
            ("print-config", {"scan": {"span_periods": "2"}}, "scan.span_periods"),
            ("histogram", {"detector": {"dead_time_s": math.nan}}, "dead_time"),
            ("histogram", {"tac": {"range_s": math.nan}}, "range"),
            ("histogram", {"detector": {"jitter_sigma_s": math.inf}}, "jitter"),
            ("histogram", {"rates": {"pair_rate": math.nan}}, "pair_rate"),
            ("histogram", {"rates": {"singles_background": math.inf}}, "background"),
            ("histogram", {"rates": {"rc0": math.nan}}, "rc0"),
            ("histogram", {"source": {"coherence_length_m": math.nan}}, "delta_k"),
            ("histogram", {"geometry": {"path_short_m": math.nan}}, "path_short"),
            ("histogram", {"rates": {"pair_rate": "1"}}, "rates.pair_rate"),
            ("histogram", {"geometry": {"path_short_m": None}}, "geometry.path_short_m"),
            (
                "histogram",
                {"source": {"coherence_length_m": 0}},
                "source.coherence_length_m",
            ),
            (
                "histogram",
                {"source": {"coherence_length_m": 1e-7}},
                "source.coherence_length_m",
            ),
            # offsets half a period apart sit at two fringe phases, a whole
            # period apart at one
            ("fringes", {"scan": {"n_points": 8, "span_periods": 4.0}}, "fringe phase"),
            ("fringes", {"scan": {"n_points": 8, "span_periods": 8.0}}, "fringe phase"),
            (
                "histogram",
                {"source": {"shape": "lorentzian"}},
                "source.shape must be one of ['gaussian', 'rectangular']",
            ),
            ("histogram", {"tac": {"n_channels": 10**19}}, "tac.n_channels"),
            ("histogram", {"rates": {"rc0": 2.0e5}}, "pair_rate"),
        ],
        ids=[
            "negative_run",
            "negative_scan",
            "string_run",
            "fractional_channels",
            "string_span",
            "nan_dead_time",
            "nan_tac_range",
            "infinite_jitter",
            "nan_pair_rate",
            "infinite_background",
            "nan_rc0",
            "nan_coherence_length",
            "nan_path_short",
            "string_pair_rate",
            "null_path_short",
            "zero_coherence_length",
            "spectrum_crosses_pump",
            "scan_on_two_phases",
            "scan_on_one_phase",
            "unknown_shape",
            "too_many_channels",
            "rc0_over_pair_rate",
        ],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, command, overrides, key):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        # the message opens with the config section the bad value sits in
        (section,) = overrides
        assert re.match(rf"error: {section}[.:]", err)
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("histogram", {"rates": {"pair_rate": 1e300, "rc0": 1.0}}),
            ("histogram", {"rates": {"pair_rate": 1e19}}),
            ("histogram", {"rates": {"singles_background": 1e300}}),
            ("histogram", {"run": {"duration_s": 1e300}}),
            ("fringes", {"scan": {"duration_s": 1e300}}),
            # 1e8 expected photons pass; one photon more does not
            ("histogram", {"run": {"duration_s": 500.000005}}),
        ],
        ids=["pair_rate", "pair_rate_1e19", "background", "run", "scan", "limit"],
    )
    def test_photon_count_bounded(self, tmp_path, capsys, command, overrides):
        # the expected photons of one acquisition size its arrays
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        (name,) = overrides
        section = "scan" if name == "scan" else "run"
        for key in ("rates.pair_rate", "rates.singles_background", f"{section}.duration_s"):
            assert key in err
        assert not out.exists()

    def test_allocation_bounds_inclusive(self):
        ExperimentConfig.from_dict({"run": {"duration_s": 500.0}})
        ExperimentConfig.from_dict({"tac": {"n_channels": 65_536}})

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1])
        assert main(["print-config", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file must be an object")

    def test_validated_once(self, monkeypatch, capsys):
        calls = []
        validate = ExperimentConfig.validate

        def counted(self):
            calls.append(1)
            return validate(self)

        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        assert main(["print-config", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["run"]["seed"] == 5
        assert len(calls) == 1

    def test_empty_scan_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scan": {"duration_s": 0}})
        assert main(["fringes", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no coincidences" in err
        # the window that failed its fit left neither a scan nor a report
        assert list((tmp_path / "out").iterdir()) == []

    # 1.0000001 ns shares the output tag 1ns with the first window
    @pytest.mark.parametrize("window", ["30", "0", "-1", "1.0000001"])
    def test_window_checked_before_acquisition(
        self, tmp_path, capsys, monkeypatch, window
    ):
        def no_acquisition(*args, **kwargs):
            raise AssertionError("acquired a corpus for an invalid window")

        monkeypatch.setattr(cli, "acquire_scan_corpus", no_acquisition)
        out = tmp_path / "out"
        argv = ["fringes", "--out", str(out), "--window", "1", f"--window={window}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --window") and err.count("\n") == 1
        assert not out.exists()

    def test_compare_prints_config_warning_once(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**SMALL_RUN, "geometry": {"path_long_base_m": 0.501}}
        )
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "coherence length" in err

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["histogram", "--config", cfg, "--out", str(out)]) == 0
        assert (out1 / "histogram.csv").read_bytes() == (
            out2 / "histogram.csv"
        ).read_bytes()

    def test_overwrite_guard(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["histogram", "--config", cfg, "--out", str(out)]) == 0
        other = write_config(tmp_path, {**SMALL_RUN, "run": {"seed": 9}}, "b.json")
        assert main(["histogram", "--config", other, "--out", str(out)]) == 2
        assert main(
            ["histogram", "--config", other, "--out", str(out), "--force"]
        ) == 0

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        assert main(["print-config", "--seed", "123"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["run"]["seed"] == 123


def test_import_leaves_out_optimize_and_stats(tmp_path):
    # they are most of the start-up cost and, with scipy.integrate, much of
    # the memory, and no command needs them
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, biphoton.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules]); "
        "biphoton.cli.main(['compare', '--out', sys.argv[1]]); "
        "print([m for m in ('scipy.integrate',) if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"  # after the import
    assert lines[-1] == "[]"  # after compare
