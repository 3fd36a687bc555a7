"""End-to-end acceptance checks.

Each test covers one headline requirement and prints a single PASS/FAIL
line (visible with ``pytest -s`` or on failure).
"""
import time

import numpy as np
import pytest
from scipy import stats

from biphoton.analysis import acquire_scan_corpus, fit_visibility, gate_scan
from biphoton.cli import main
from biphoton.config import ExperimentConfig
from biphoton.detection import DetectorModel, TacConfig, gate_count
from biphoton.engines import (
    SourceRates,
    classical_monte_carlo,
    classical_rate,
    expected_class_probabilities,
    quantum_rate_narrow,
    residual_integral,
    sample_pair_outcomes,
)
from biphoton.interferometer import InterferometerGeometry, delta_L
from biphoton.spectral import SpectralProfile, sample_signal

from conftest import (
    CONFIGS,
    COHERENCE_LENGTH,
    PUMP_WAVELENGTH,
    flatness_pvalue,
    phase_geometry,
    wide_rate,
)
from oracle import coherence_length

C = 299792458.0
PERIOD = PUMP_WAVELENGTH


def report(criterion: int, passed: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    return line


def fringe_visibility(rate_fn, profile, geometry, rates):
    peak = rate_fn(profile, phase_geometry(geometry, profile.k_pump, np.pi), rates)
    null = rate_fn(profile, phase_geometry(geometry, profile.k_pump, 0.0), rates)
    return (peak - null) / (peak + null)


@pytest.fixture(scope="module")
def desk_corpus(profile_m, geometry_m, tac_m):
    """24-point fringe scan at delta_L = 0.55 m, ~2e3 coincidences per point."""
    rates = SourceRates(pair_rate=1e5, singles_background=0.0)
    detector = DetectorModel(jitter_sigma_s=300e-12, dead_time_s=0.0, efficiency=1.0)
    offsets = np.linspace(0.0, 2.0 * PERIOD, 24, endpoint=False)
    start = time.perf_counter()
    corpus = acquire_scan_corpus(
        profile_m, geometry_m, rates, detector, detector, tac_m, offsets, 0.04, 11
    )
    return corpus, time.perf_counter() - start


@pytest.fixture(scope="module")
def profile_m():
    return SpectralProfile(
        k_pump=2.0 * np.pi / PUMP_WAVELENGTH,
        delta_k=1.0 / COHERENCE_LENGTH,
    )


@pytest.fixture(scope="module")
def geometry_m():
    return InterferometerGeometry(path_short_m=0.5, path_long_base_m=1.05)


@pytest.fixture(scope="module")
def tac_m():
    return TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=4096)


@pytest.fixture(scope="module")
def experimental_corpus():
    cfg = ExperimentConfig.from_file(CONFIGS / "experimental.json")
    corpus = acquire_scan_corpus(
        cfg.profile(),
        cfg.geometry(),
        cfg.rates(),
        cfg.detector(),
        cfg.detector(),
        cfg.tac(),
        cfg.scan_offsets(),
        cfg.data["scan"]["duration_s"],
        cfg.data["run"]["seed"],
    )
    return cfg, corpus


def test_criterion_1_analytic_visibilities(profile_m, geometry_m):
    rates = SourceRates(pair_rate=1e5, singles_background=0.0)
    v_narrow = fringe_visibility(quantum_rate_narrow, profile_m, geometry_m, rates)
    wide_geom = InterferometerGeometry(
        path_short_m=0.5, path_long_base_m=0.5 + 100.0 * COHERENCE_LENGTH
    )
    v_wide = fringe_visibility(wide_rate, profile_m, wide_geom, rates)
    v_classical = fringe_visibility(classical_rate, profile_m, geometry_m, rates)
    ok = (
        abs(v_narrow - 1.0) < 1e-9
        and abs(v_wide - 0.5) < 1e-6
        and abs(v_classical - 0.5) < 1e-12
    )
    line = report(
        1,
        ok,
        f"V_narrow={v_narrow!r} V_wide={v_wide!r} V_classical={v_classical!r}",
    )
    assert ok, line


def test_criterion_2_residual_decay(profile_m):
    lcoh = coherence_length(profile_m)
    at_zero = residual_integral(profile_m, 0.0)
    at_10 = abs(residual_integral(profile_m, 10.0 * lcoh))
    at_1000 = abs(residual_integral(profile_m, 1000.0 * lcoh))
    ok = abs(at_zero - 1.0) < 1e-9 and at_10 < 1e-6 and at_1000 < 1e-6
    line = report(
        2, ok, f"residual(0)={at_zero!r} |residual(10 lcoh)|={at_10:.3e} "
        f"|residual(1000 lcoh)|={at_1000:.3e}"
    )
    assert ok, line


def test_criterion_3_window_separates_regimes(desk_corpus, tac_m):
    corpus, elapsed = desk_corpus
    wide = fit_visibility(gate_scan(corpus, tac_m, 5e-9), known_period=PERIOD)
    narrow = fit_visibility(gate_scan(corpus, tac_m, 1e-9), known_period=PERIOD)
    v5, s5 = wide.visibility, wide.visibility_sigma
    v1, s1 = narrow.visibility, narrow.visibility_sigma
    ok = (
        elapsed < 60.0
        and v1 >= 0.95 - 3.0 * s1
        and 0.45 - 3.0 * s5 <= v5 <= 0.55 + 3.0 * s5
        and v1 - v5 > 0.25
    )
    line = report(
        3,
        ok,
        f"V(1ns)={v1:.3f}+/-{s1:.3f} V(5ns)={v5:.3f}+/-{s5:.3f} "
        f"corpus={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_experimental_envelope(experimental_corpus):
    cfg, corpus = experimental_corpus
    tac = cfg.tac()
    wide = fit_visibility(gate_scan(corpus, tac, 5e-9), known_period=PERIOD)
    narrow = fit_visibility(gate_scan(corpus, tac, 1e-9), known_period=PERIOD)
    ok = 0.70 <= narrow.visibility <= 0.90 and 0.31 <= wide.visibility <= 0.51
    line = report(
        4,
        ok,
        f"V(1ns)={narrow.visibility:.3f} in [0.70, 0.90]; "
        f"V(5ns)={wide.visibility:.3f} in [0.31, 0.51]",
    )
    assert ok, line


def _window_stats(centers, counts, center, width):
    mask = np.abs(centers - center) <= width / 2.0
    t = centers[mask]
    n = counts[mask].astype(float)
    total = n.sum()
    mean = float((n * t).sum() / total)
    var = float((n * (t - mean) ** 2).sum() / total)
    return total, mean, var


def test_criterion_5_tac_peak_structure(desk_corpus, geometry_m, tac_m):
    corpus, _ = desk_corpus
    # the corpus runs without dead time, so its rows simply add up
    centers, merged = tac_m.bin_centers, corpus.counts.sum(axis=0)
    dt = delta_L(geometry_m) / C
    delay = tac_m.electrical_delay
    # 1.2 ns windows: wide enough for stable centroids, narrow enough that
    # the 424 ps jitter tails of one peak stay out of its neighbours' windows
    width = 1.2e-9
    n_c, mu_c, var_c = _window_stats(centers, merged, delay, width)
    n_sl, mu_sl, var_sl = _window_stats(centers, merged, delay + dt, width)
    n_ls, mu_ls, var_ls = _window_stats(centers, merged, delay - dt, width)

    three_peaks = min(n_c, n_sl, n_ls) > 100
    sep_hi = mu_sl - mu_c
    sep_lo = mu_c - mu_ls
    sig_hi = np.sqrt(var_sl / n_sl + var_c / n_c)
    sig_lo = np.sqrt(var_ls / n_ls + var_c / n_c)
    seps_ok = abs(sep_hi - dt) < 3.0 * sig_hi and abs(sep_lo - dt) < 3.0 * sig_lo

    side_total = n_sl + n_ls
    balance_ok = abs(n_c - side_total) < 3.0 * np.sqrt(n_c + side_total)

    # one window over every row at once gives each point's side counts
    per_point_sides = gate_count(
        corpus.counts, tac_m, delay + dt, width
    ) + gate_count(corpus.counts, tac_m, delay - dt, width)
    flat_p = flatness_pvalue(per_point_sides)
    flat_ok = flat_p > 0.001

    ok = three_peaks and seps_ok and balance_ok and flat_ok
    line = report(
        5,
        ok,
        f"separations {sep_hi * 1e9:.4f}/{sep_lo * 1e9:.4f} ns vs {dt * 1e9:.4f} ns; "
        f"central={n_c:.0f} sides={side_total:.0f}; side flatness p={flat_p:.3f}",
    )
    assert ok, line


def test_criterion_6_flat_singles(experimental_corpus):
    _, corpus = experimental_corpus
    clicks_a, clicks_b = corpus.clicks.T
    p_a = flatness_pvalue(clicks_a)
    p_b = flatness_pvalue(clicks_b)
    ok = p_a > 0.001 and p_b > 0.001
    line = report(6, ok, f"singles flatness p_A={p_a:.4f} p_B={p_b:.4f}")
    assert ok, line


def test_criterion_7_oracle_equivalence(profile_m, geometry_m):
    start = time.perf_counter()
    rates = SourceRates(pair_rate=1e5, singles_background=0.0)
    geom = phase_geometry(geometry_m, profile_m.k_pump, np.pi / 3.0)
    expected = expected_class_probabilities(profile_m, geom, rates)
    n = 1_000_000
    rng = np.random.default_rng(123)
    outcomes = sample_pair_outcomes(
        profile_m, geom, sample_signal(profile_m, rng, n), rng
    )
    observed = np.bincount(outcomes, minlength=4)[:4]
    probs = np.array(
        [expected["central"], expected["side_sl"], expected["side_ls"], expected["none"]]
    )
    chi2_p = float(stats.chisquare(observed, n * probs).pvalue)

    mc_mean, mc_err = classical_monte_carlo(
        profile_m, geom, sample_signal(profile_m, rng, n)
    )
    analytic = classical_rate(profile_m, geom, rates)
    mc_rate = 0.5 * rates.pair_rate * mc_mean
    classical_ok = abs(mc_rate - analytic) < 4.0 * (0.5 * rates.pair_rate * mc_err)
    elapsed = time.perf_counter() - start

    ok = chi2_p > 0.001 and classical_ok and elapsed < 30.0
    line = report(
        7,
        ok,
        f"class chi2 p={chi2_p:.3f}; classical MC {mc_rate:.1f} vs "
        f"{analytic:.1f} (+/-{0.5 * rates.pair_rate * mc_err:.1f}); {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"run": {"duration_s": 0.02, "seed": 5},'
        ' "scan": {"n_points": 12, "duration_s": 0.005}}'
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["histogram", "--config", str(config), "--out", str(out)]) == 0
        assert main(["fringes", "--config", str(config), "--out", str(out)]) == 0
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
        outputs.append(
            b"".join(sorted(p.read_bytes() for p in out.iterdir()))
        )
    ok = outputs[0] == outputs[1]
    line = report(8, ok, "repeated CLI runs with one seed are byte-identical")
    assert ok, line
