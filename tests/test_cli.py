import errno
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from biphoton import analysis, cli, engines
from biphoton.analysis import gate_scan
from biphoton.cli import main
from biphoton.config import DEFAULTS, KEYS, ExperimentConfig
from biphoton.detection import DetectorModel, acquire_histogram
from biphoton.engines import SourceRates
from biphoton.errors import ConfigError, DomainError
from biphoton.interferometer import InterferometerGeometry
from biphoton.spectral import sample_signal
from conftest import CONFIGS, named_config


def write_config(tmp_path, overrides, name="config.json"):
    """``overrides`` as a JSON file; a string is written as it stands."""
    path = tmp_path / name
    path.write_text(overrides if isinstance(overrides, str) else json.dumps(overrides))
    return str(path)


def run_in_subprocess(argv):
    """Run the CLI in a subprocess with a timeout, so that a command that
    would block fails its test instead of stalling the suite."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "biphoton.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=30,
    )


SMALL_RUN = {
    "run": {"duration_s": 0.02, "seed": 3},
    "scan": {"n_points": 12, "span_periods": 2.0, "duration_s": 0.005},
}


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.validate() == []

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tipo": 1})
        # the pair rate is the only rate knob; the old normalization key is gone
        with pytest.raises(ConfigError, match="unknown config key: rates.rc0"):
            ExperimentConfig.from_dict({"rates": {"rc0": 1e5}})

    def test_coherence_warning(self):
        cfg = ExperimentConfig.from_dict(
            {"source": {"coherence_length_m": 0.01}}
        )
        assert any("coherence" in w for w in cfg.validate())
        # the value as given, not 1/(1/l_c), which prints 0.005899999999999999
        cfg = ExperimentConfig.from_dict({"source": {"coherence_length_m": 0.0059}})
        (warning,) = cfg.validate()
        assert "delta_L = 0.55 m" in warning
        assert "coherence length source.coherence_length_m = 0.0059 m;" in warning

    @pytest.mark.parametrize(
        "section, record, extra",
        [
            ("geometry", InterferometerGeometry, {"path_long_offset_m"}),
            ("detector", DetectorModel, set()),
            ("rates", SourceRates, set()),
        ],
    )
    def test_records_take_the_config_keys(self, section, record, extra):
        # one vocabulary: the scan sets the geometry's one field beyond its keys
        assert {f.name for f in fields(record)} == set(KEYS[section]) | extra

    @pytest.mark.parametrize("name", ["default", "experimental"])
    def test_builders_pass_their_sections_through(self, name):
        cfg = named_config(name)
        geo, det, rates = (cfg.data[s] for s in ("geometry", "detector", "rates"))
        assert cfg.geometry() == InterferometerGeometry(
            path_short_m=geo["path_short_m"],
            path_long_base_m=geo["path_long_base_m"],
            path_long_offset_m=0.0,
            splitter_transmittance=geo["splitter_transmittance"],
            mode_overlap=geo["mode_overlap"],
        )
        assert cfg.detector() == DetectorModel(
            jitter_sigma_s=det["jitter_sigma_s"],
            dead_time_s=det["dead_time_s"],
            efficiency=det["efficiency"],
        )
        assert cfg.rates() == SourceRates(
            pair_rate=rates["pair_rate"],
            singles_background=rates["singles_background"],
        )

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

    def test_span_kept_inside_tac(self):
        # at the defaults the last scan point may lengthen the long arm by
        # (10 ns - 0.55 m / c) * c = 2.448 m, about 5.73e6 periods
        ExperimentConfig.from_dict({"scan": {"span_periods": 1e6, "n_points": 24}})
        with pytest.raises(ConfigError, match="scan.span_periods"):
            ExperimentConfig.from_dict({"scan": {"span_periods": 6e6, "n_points": 23}})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig.from_dict({}).config_hash()
        b = ExperimentConfig.from_dict({}).config_hash()
        c = ExperimentConfig.from_dict({"run": {"seed": 2}}).config_hash()
        assert a == b
        assert a != c

    def test_packaged_experimental(self):
        cfg = ExperimentConfig.from_file(CONFIGS / "experimental.json")
        assert cfg.data["geometry"]["mode_overlap"] == 0.8

    def test_hashes_pinned(self):
        # a table row that changes a default's value or type (1.0e5 must stay
        # a float) changes the hash of every output
        assert ExperimentConfig.from_dict({}).config_hash() == "35faa932129b"
        experimental = ExperimentConfig.from_file(CONFIGS / "experimental.json")
        assert experimental.config_hash() == "8fadb9211e84"

    def test_fuzzed_overrides_end_in_config_error(self):
        # random overrides of 1-3 keys either validate or raise ConfigError,
        # never another exception (and, with warnings as errors, no warning)
        rng = random.Random(16)
        names = [(section, key) for section in KEYS for key in KEYS[section]]
        odd = [math.nan, math.inf, -math.inf, True, None, "1", "gaussian",
               0, -1, 2, 1e12, 10**12, 10**400, 1e300, 1e-300]
        outcomes = set()
        for _ in range(2000):
            overrides = {}
            for section, key in rng.sample(names, rng.randint(1, 3)):
                default = KEYS[section][key][0]
                if rng.random() < 0.5 or isinstance(default, str):
                    value = rng.choice(odd)
                elif isinstance(default, int):
                    value = rng.randint(-2, 2 * default)
                else:
                    value = (default or 1e-9) * 10 ** rng.uniform(-6, 6)
                    value *= rng.choice([1, 1, 1, -1])
                overrides.setdefault(section, {})[key] = value
            try:
                ExperimentConfig.from_dict(overrides)
                outcomes.add("accepted")
            except ConfigError:
                outcomes.add("refused")
        assert outcomes == {"accepted", "refused"}


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

    def test_histogram_csv_round_trip(self, tmp_path, monkeypatch):
        # the CSV holds the histogram the command acquired, stamped with the
        # config hash, and np.loadtxt reads its rows back exactly
        acquire, hists = cli.acquire_histogram, []

        def recorded(*args):
            hists.append(acquire(*args))
            return hists[-1]

        monkeypatch.setattr(cli, "acquire_histogram", recorded)
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["histogram", "--config", cfg, "--out", str(out)]) == 0
        ((hist, _),) = hists
        config = ExperimentConfig.from_file(cfg)
        # an independent reference: the midpoints of the explicit edges
        tac = config.data["tac"]
        edges = np.linspace(0.0, tac["range_s"], tac["n_channels"] + 1)
        path = out / "histogram.csv"
        header = path.read_text().splitlines()[:3]
        assert header == [
            f"# duration_s={config.data['run']['duration_s']!r}",
            f"# config_hash={config.config_hash()}",
            "bin_center_s,count",
        ]
        centers, counts = np.loadtxt(path, delimiter=",", skiprows=3, unpack=True)
        assert np.array_equal(counts, hist)
        assert np.array_equal(centers, 0.5 * (edges[:-1] + edges[1:]))

    def test_fringes_scan_csv_content(self, tmp_path, monkeypatch):
        # each window's scan CSV holds gate_scan's arrays for the corpus the
        # command acquired, read back exactly
        acquire, corpora = cli.acquire_scan_corpus, []

        def recorded(*args):
            corpora.append(acquire(*args))
            return corpora[-1]

        monkeypatch.setattr(cli, "acquire_scan_corpus", recorded)
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        argv = ["fringes", "--config", cfg, "--out", str(out)]
        assert main(argv + ["--window", "1", "--window", "5"]) == 0
        (corpus,) = corpora
        config = ExperimentConfig.from_file(cfg)
        for window_ns in (1.0, 5.0):
            width = window_ns * 1e-9
            path = out / f"fringes_scan_{window_ns:g}ns.csv"
            assert path.read_text().splitlines()[:3] == [
                f"# window_s={width!r}",
                f"# config_hash={config.config_hash()}",
                "offset_m,singles_a,singles_b,coincidences,duration_s",
            ]
            scan = gate_scan(corpus, config.tac(), width)
            table = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
            assert table.shape == (scan.offsets.size, 5)
            assert np.array_equal(table[:, 0], scan.offsets)
            assert np.array_equal(table[:, 1], scan.singles_a)
            assert np.array_equal(table[:, 2], scan.singles_b)
            assert np.array_equal(table[:, 3], scan.coincidences)
            assert np.all(table[:, 4] == scan.duration)

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

    # every rate is pair_rate times a per-pair probability, so each column
    # scales with it, down to zero pairs
    @pytest.mark.parametrize("pair_rate", [1e5, 1e6, 5e4, 0.0])
    def test_compare_table(self, tmp_path, pair_rate):
        cfg = write_config(tmp_path, {**SMALL_RUN, "rates": {"pair_rate": pair_rate}})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        table = json.loads((out / "compare.json").read_text())
        rows = table["rows"]
        mid = rows[4]  # phase pi
        assert mid["quantum_narrow_rate"] == pytest.approx(0.5 * pair_rate, rel=1e-6)
        assert mid["quantum_wide_rate"] == pytest.approx(0.75 * pair_rate, rel=1e-6)
        assert mid["classical_rate"] == pytest.approx(0.75 * pair_rate, rel=1e-6)
        assert rows[0]["quantum_narrow_rate"] == pytest.approx(0.0, abs=1e-6)
        for row in rows:
            assert abs(
                row["classical_mc_rate"] - row["classical_rate"]
            ) < 4 * max(row["classical_mc_stderr"], 1e-9)
            # binomial spread of R times the coincidence fraction of n pairs
            wide = row["quantum_wide_rate"]
            sigma = math.sqrt(wide * (pair_rate - wide) / row["quantum_mc_n"])
            assert abs(row["quantum_mc_wide_rate"] - wide) <= 5 * sigma

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_compare_draws_once_for_all_rows(self, tmp_path, monkeypatch, seed):
        # one set of signal deviations, drawn in one call, serves both Monte
        # Carlo columns of all nine rows
        draws = []

        def counted(profile, rng, size):
            delta = sample_signal(profile, rng, size)
            draws.append(delta.size)
            return delta

        monkeypatch.setattr(engines, "sample_signal", counted)
        out = tmp_path / "out"
        assert main(["compare", "--seed", str(seed), "--out", str(out)]) == 0
        assert draws == [200_000]
        # each Monte Carlo rate within 5 standard errors of its closed form
        pair_rate = DEFAULTS["rates"]["pair_rate"]
        rows = json.loads((out / "compare.json").read_text())["rows"]
        for row in rows:
            diff = row["classical_mc_rate"] - row["classical_rate"]
            assert abs(diff) <= 5.0 * row["classical_mc_stderr"]
            p = row["quantum_wide_rate"] / pair_rate
            sigma = pair_rate * math.sqrt(p * (1.0 - p) / row["quantum_mc_n"])
            diff = row["quantum_mc_wide_rate"] - row["quantum_wide_rate"]
            assert abs(diff) <= 5.0 * sigma
        # pump phases 0 and 2 pi read the same deviations, so their classical
        # z-scores agree; independent draws would differ by O(1)
        z_first, z_last = (
            (row["classical_mc_rate"] - row["classical_rate"]) / row["classical_mc_stderr"]
            for row in (rows[0], rows[8])
        )
        assert abs(z_first - z_last) <= 1e-6

    def test_compare_rectangular_spectrum(self, tmp_path):
        # the rectangular shape end to end: each Monte Carlo rate within 5
        # standard errors of its closed form, as the benchmark's check asks
        cfg = write_config(tmp_path, {"source": {"shape": "rectangular"}})
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        pair_rate = DEFAULTS["rates"]["pair_rate"]
        rows = json.loads((out / "compare.json").read_text())["rows"]
        assert len(rows) == 9
        for row in rows:
            diff = row["classical_mc_rate"] - row["classical_rate"]
            assert abs(diff) <= 5.0 * row["classical_mc_stderr"]
            p = row["quantum_wide_rate"] / pair_rate
            sigma = pair_rate * math.sqrt(p * (1.0 - p) / row["quantum_mc_n"])
            diff = row["quantum_mc_wide_rate"] - row["quantum_wide_rate"]
            assert abs(diff) <= 5.0 * sigma

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
            (
                "histogram",
                {"source": {"coherence_length_m": math.nan}},
                "source.coherence_length_m",
            ),
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
            (
                "histogram",
                {"geometry": {"path_long_base_m": 0.4}},
                "geometry.path_long_base_m = 0.4 m must exceed geometry.path_short_m",
            ),
            # one digit past Python's 4300-digit limit on int parsing
            (
                "print-config",
                '{"run": {"seed": 1' + "0" * 5000 + "}}",
                "integer of 5001 digits, past the 4300-digit limit",
            ),
            # the last scan point moves the long arm by about 4e293 m
            (
                "fringes",
                {"scan": {"span_periods": 1e300, "n_points": 8, "duration_s": 0.001}},
                "scan.span_periods",
            ),
            ("print-config", {"scan": {"n_points": 10**12}}, "scan.n_points"),
            # sqrt(2) * 7 s of jitter spreads each peak far past the TAC
            ("fringes", {"detector": {"jitter_sigma_s": 7}}, "tac.range_s"),
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
            "long_arm_not_longer",
            "seed_past_digit_limit",
            "huge_span",
            "huge_n_points",
            "jitter_beyond_tac",
        ],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, command, overrides, key):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        argv = [command, "--config", cfg]
        if command != "print-config":  # the one command that takes no --out
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        # the message opens with the config section the bad value sits in; a
        # file the JSON reader refuses has no section yet
        if isinstance(overrides, str):
            assert err.startswith("error: config file ")
        else:
            (section,) = overrides
            assert re.match(rf"error: {section}[.:]", err)
        assert key in err
        # the advice of Python's own digit-limit error is no use to a config user
        assert "set_int_max_str_digits" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("histogram", {"rates": {"pair_rate": 1e300}}),
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

    def test_scan_length_overflow_names_both_keys(self, tmp_path, capsys):
        # span_periods * pump_wavelength_m is inf: refused before any scan
        # offset is computed, so no NaN offset and no RuntimeWarning
        cfg = write_config(
            tmp_path,
            {
                "source": {"pump_wavelength_m": 1e10, "coherence_length_m": 1e12},
                "scan": {"span_periods": 1e300, "n_points": 9},
            },
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fringes", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "scan.span_periods" in err and "source.pump_wavelength_m" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["pump_wavelength_m", "coherence_length_m"])
    def test_derived_wavenumber_overflow_names_the_key(self, tmp_path, capsys, key):
        # 1e-320 m lies in the key's (0, inf), but k_pump = 2*pi/lambda or
        # delta_k = 1/l_c derived from it is inf
        cfg = write_config(tmp_path, {"source": {key: 1e-320}})
        out = tmp_path / "out"
        assert main(["histogram", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(f"error: source.{key} = 1e-320 m "), err
        assert "overflows to inf" in err, err
        assert not out.exists()

    def test_allocation_bounds_inclusive(self):
        ExperimentConfig.from_dict({"run": {"duration_s": 500.0}})
        # every closed end of every key's interval is accepted
        for section, keys in KEYS.items():
            for key, (default, allowed) in keys.items():
                if isinstance(default, str):
                    continue
                lo, hi = (float(end) for end in allowed[1:-1].split(","))
                for end, closed in ((lo, allowed[0] == "["), (hi, allowed[-1] == "]")):
                    if closed:
                        value = type(default)(end)
                        ExperimentConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "section, key",
        [
            (section, key)
            for section, keys in KEYS.items()
            for key, (default, _) in keys.items()
            if not isinstance(default, str)
        ],
    )
    def test_every_key_refuses_outside_values(self, tmp_path, capsys, section, key):
        default, allowed = KEYS[section][key]
        lo, hi = (float(end) for end in allowed[1:-1].split(","))
        values = [math.nan, math.inf, True, "1"]
        # just past each finite end: the end itself when open, else one step out
        for end, closed, step in (
            (lo, allowed[0] == "[", -1), (hi, allowed[-1] == "]", 1)
        ):
            if not math.isfinite(end):
                continue
            if isinstance(default, int):
                values.append(int(end) + step if closed else int(end))
            else:
                values.append(math.nextafter(end, step * math.inf) if closed else end)
        for value in values:
            cfg = write_config(tmp_path, {section: {key: value}})
            assert main(["print-config", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            assert err.startswith(f"error: {section}.{key} must be "), err
            assert f" in {allowed}, got {value!r}" in err, err

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1])
        assert main(["print-config", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file must be an object")

    # a config file that cannot be read or parsed ends in one error line
    @pytest.mark.parametrize(
        "fault, message",
        [
            ("malformed", "config file is not valid JSON: "),
            ("not_utf8", "config file is not valid JSON: "),
            ("missing", "cannot read config file: [Errno 2] "),
            ("directory", "cannot read config file: [Errno 21] "),
        ],
    )
    def test_unreadable_config_file(self, tmp_path, capsys, fault, message):
        path = tmp_path / "config.json"
        if fault == "malformed":
            path.write_text("{")
        elif fault == "not_utf8":
            path.write_bytes(b"\xff\xfe{}")
        elif fault == "directory":
            path.mkdir()
        assert main(["print-config", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: {message}"), err

    @pytest.mark.parametrize("depth", [986, 100_000])
    @pytest.mark.parametrize("where", ["file", "value"])
    def test_deep_nesting_refused(self, tmp_path, capsys, depth, where):
        nested = "[" * depth + "]" * depth
        text = nested if where == "file" else f'{{"rates": {{"pair_rate": {nested}}}}}'
        cfg = write_config(tmp_path, text)
        assert main(["print-config", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
        # whether 986 levels parse depends on the stack the parser starts
        # from: if they do, the value is refused, quoted in at most 40 chars
        if depth > 10_000:
            assert err == "error: config file nests arrays or objects too deeply\n"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rates": {"pair_rate": 1e5, "pair_rate": -5}}', "pair_rate"),
            ('{"run": {"seed": 2}, "run": {}}', "run"),
        ],
    )
    def test_duplicate_key_refused(self, tmp_path, capsys, text, key):
        # JSON parsing would keep the last value silently
        cfg = write_config(tmp_path, text)
        assert main(["print-config", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: config file gives the key {key!r} twice\n"
        )

    def test_refused_value_echo_is_short(self, tmp_path, capsys):
        value = list(range(200_000))
        cfg = write_config(tmp_path, {"rates": {"pair_rate": value}})
        assert main(["print-config", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: rates.pair_rate must be a finite number in [0, inf), "
            f"got {repr(value)[:40]}\n"
        )

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

    @pytest.mark.parametrize("option", [["--out", "x"], ["--force"]])
    def test_print_config_takes_no_output_options(
        self, tmp_path, monkeypatch, capsys, option
    ):
        # print-config writes no file, so --out and --force are usage errors
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["print-config", *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: biphoton ")
        assert f"error: unrecognized arguments: {' '.join(option)}\n" in err
        assert not list(tmp_path.iterdir())
        # the three commands that write keep both options
        for command in ("histogram", "fringes", "compare"):
            args = cli.build_parser().parse_args([command, *option])
            assert args.force == ("--force" in option)
            assert args.out == ("x" if "--out" in option else "out")

    def test_empty_scan_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scan": {"duration_s": 0}})
        assert main(["fringes", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no coincidences" in err
        # the window that failed its fit left neither a scan nor a report
        assert list((tmp_path / "out").iterdir()) == []

    def test_failing_scan_point_exit_code(self, tmp_path, monkeypatch, capsys):
        # a point that fails on the acquisition pool ends fringes like any
        # DomainError: exit 3, one error line, no file
        failing = ExperimentConfig.from_dict(SMALL_RUN).scan_offsets()[5]

        def fail_at_point_5(profile, geometry, *args):
            if geometry.path_long_offset_m == failing:
                raise DomainError("point 5 fails")
            return acquire_histogram(profile, geometry, *args)

        monkeypatch.setattr(analysis, "acquire_histogram", fail_at_point_5)
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert main(["fringes", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: point 5 fails\n"
        assert not out.exists() or not list(out.iterdir())

    # 1.0000001 ns shares the output tag 1ns with the first window
    # 0.001 ns lies between two MCA channel centres, so it holds no channel
    @pytest.mark.parametrize("window", ["30", "0", "-1", "1.0000001", "0.001"])
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

    @pytest.mark.parametrize(
        "command, artifact",
        [
            ("histogram", "histogram.csv"),
            ("fringes", "fringes_report_1ns.json"),
            ("compare", "compare.json"),
        ],
    )
    def test_overwrite_guard(self, tmp_path, capsys, command, artifact):
        cfg = write_config(tmp_path, SMALL_RUN)
        run = {**SMALL_RUN["run"], "seed": 9}
        other = write_config(tmp_path, {**SMALL_RUN, "run": run}, "b.json")
        out = tmp_path / "out"
        argv = [command, "--out", str(out), "--config"]
        assert main([*argv, cfg]) == 0
        assert main([*argv, cfg]) == 0
        assert main([*argv, other]) == 2
        assert main([*argv, other, "--force"]) == 0
        # a foreign token that is not hex, in a file that is not all UTF-8
        path = out / artifact
        chash = ExperimentConfig.from_file(other).config_hash()
        text = path.read_text()
        assert chash in text
        path.write_bytes(text.replace(chash, "not-hex").encode() + b"\xff\xfe\n")
        capsys.readouterr()
        assert main([*argv, other]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} was produced with config hash not-hex, current hash "
            f"is {chash}; pass --force to overwrite\n"
        )

    # each fault of an output path ends in one error line before any
    # acquisition, and leaves every file as it was
    @pytest.mark.parametrize(
        "command, fault",
        [
            ("histogram", "out_is_file"),
            ("compare", "out_below_file"),
            ("fringes", "artifact_is_dir"),
            ("fringes", "artifact_is_dir_forced"),
            ("histogram", "foreign_hash_not_utf8"),
        ],
    )
    def test_output_path_fault_exit_code(
        self, tmp_path, capsys, monkeypatch, command, fault
    ):
        def no_acquisition(*args, **kwargs):
            raise AssertionError("acquired before the output paths were checked")

        for name in ("acquire_histogram", "acquire_scan_corpus", "pair_monte_carlo"):
            monkeypatch.setattr(cli, name, no_acquisition)
        cfg = write_config(tmp_path, SMALL_RUN)
        blocker = tmp_path / "file"
        blocker.write_text("a file, not a directory\n")
        out = tmp_path / "out"
        if fault == "out_is_file":
            out = blocker
        elif fault == "out_below_file":
            out = blocker / "out"
        elif fault.startswith("artifact_is_dir"):
            # the second window's report: the first window's files come first
            (out / "fringes_report_1ns.json").mkdir(parents=True)
        else:
            out.mkdir()
            (out / "histogram.csv").write_bytes(b"# config_hash=0123abcd\n\xff\xfe\n")
        argv = [command, "--config", cfg, "--out", str(out)]
        if fault.endswith("forced"):
            argv.append("--force")
        before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert str(out) in err or str(out / "fringes_report_1ns.json") in err, err
        assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == before

    # a directory at an artifact's temporary name passes the checks made
    # before acquisition, so the write itself fails: one error line naming
    # the artifact, exit 2, and no file written, not even the other
    # artifacts of the set or their temporaries
    @pytest.mark.parametrize(
        "command, name",
        [
            ("histogram", "histogram.csv"),
            ("fringes", "fringes_scan_1ns.csv"),
            ("fringes", "fringes_report_5ns.json"),
            ("compare", "compare.json"),
        ],
    )
    def test_unwritable_artifact_exit_code(self, tmp_path, capsys, command, name):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        (out / f"{name}.tmp").mkdir(parents=True)
        before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == before

    def test_unreadable_artifact_exit_code(self, tmp_path, capsys, monkeypatch):
        # an existing artifact whose head cannot be read for its hash: one
        # error line naming it, exit 2, and nothing written
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        argv = ["histogram", "--config", cfg, "--out", str(out)]
        assert main(argv) == 0

        def unreadable(path, mode="r", *args, **kwargs):
            if mode == "rb":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", unreadable, raising=False)
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {out / 'histogram.csv'}: "
            f"{os.strerror(errno.EACCES)}\n"
        )
        assert {p: p.read_bytes() for p in out.iterdir()} == before

    def test_dangling_symlink_artifact_is_replaced(self, tmp_path):
        # the rename into place replaces the link itself, and writes nothing
        # where it pointed
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        out.mkdir()
        (out / "compare.json").symlink_to(tmp_path / "missing" / "compare.json")
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "compare.json").is_symlink()
        assert json.loads((out / "compare.json").read_text())["rows"]
        assert not (tmp_path / "missing").exists()
        assert sorted(p.name for p in out.iterdir()) == ["compare.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("force", [False, True], ids=["refused", "forced"])
    def test_fifo_artifact(self, tmp_path, force):
        # reading a named pipe for its hash would block until a writer came:
        # refused before anything is drawn, or replaced under --force
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "histogram.csv")
        argv = ["histogram", "--config", cfg, "--out", str(out)]
        if force:
            argv.append("--force")
        proc = run_in_subprocess(argv)
        artifact = out / "histogram.csv"
        if force:
            assert proc.returncode == 0, proc.stderr
            assert artifact.read_text().startswith("# duration_s=")
        else:
            assert proc.returncode == 2
            assert proc.stderr == (
                f"error: cannot write {artifact}: it is not a regular file; "
                "pass --force to replace it\n"
            )
            assert proc.stdout == "" and not artifact.is_file()
        assert [p.name for p in out.iterdir()] == ["histogram.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_at_temporary_name(self, tmp_path):
        # opening a named pipe for writing would block until a reader came:
        # the pipe is removed, and a new file takes its name
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / "compare.json.tmp")
        proc = run_in_subprocess(["compare", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "compare.json").read_text())["rows"]
        assert [p.name for p in out.iterdir()] == ["compare.json"]

    def test_symlink_at_temporary_name(self, tmp_path):
        # the link is removed, not written through: its target keeps its
        # bytes, and the artifact is a regular file inside --out
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        out.mkdir()
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me\n")
        (out / "compare.json.tmp").symlink_to(victim)
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert victim.read_text() == "keep me\n"
        artifact = out / "compare.json"
        assert artifact.is_file() and not artifact.is_symlink()
        assert json.loads(artifact.read_text())["rows"]
        assert [p.name for p in out.iterdir()] == ["compare.json"]

    def test_undecodable_artifact_is_overwritten(self, tmp_path):
        # bytes that are not UTF-8 hold no hash line, like a file written by
        # something else: the guard lets the command write over them
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        out.mkdir()
        (out / "histogram.csv").write_bytes(b"\xff\xfe" * 4096)
        assert main(["histogram", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "histogram.csv").read_text().startswith("# duration_s=")

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        assert main(["print-config", "--seed", "123"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["run"]["seed"] == 123


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: importing it is most of the start-up
    # cost and memory of a run, and no command needs it.  A None entry in
    # sys.modules makes every scipy import raise ImportError.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cfg = write_config(tmp_path, SMALL_RUN)
    code = (
        "import sys; sys.modules['scipy'] = None; import biphoton.cli; "
        "out, cfg = sys.argv[1:]; "
        "print([biphoton.cli.main([*args, '--config', cfg]) for args in "
        "[['print-config'], ['histogram', '--out', f'{out}/1'], "
        "['fringes', '--out', f'{out}/2', '--window', '1', '--window', '5'], "
        "['compare', '--out', f'{out}/3']]])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), cfg],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]", proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_quiet(unbuffered):
    # the reader of stdout is gone before the command prints: a buffered
    # stdout fails when flushed, an unbuffered one inside print
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "biphoton.cli", "print-config"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_compare_is_seed_deterministic(tmp_path, capsys, monkeypatch):
    # the same seed gives the same table bytes and, beyond criterion 8's
    # check of the files, the same printed lines
    runs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main(["compare", "--seed", "4", "--out", "out"]) == 0
        printed = capsys.readouterr()
        runs.append((Path("out/compare.json").read_bytes(), printed.out, printed.err))
    assert runs[0] == runs[1]
    assert runs[0][1] == "wrote out/compare.json\n"
