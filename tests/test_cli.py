import json

import pytest

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
