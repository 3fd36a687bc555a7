import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton.analysis import (
    FringeScan,
    Regime,
    Verdict,
    _fixed_visibility_fit,
    acquire_scan_corpus,
    classify_regime,
    fit_visibility,
    gate_scan,
)
from biphoton.detection import (
    DetectorModel,
    TacConfig,
    acquire_histogram,
    gate_count,
    window_channels,
)
from biphoton.engines import SourceRates
from biphoton.errors import DomainError, FitError
from biphoton.interferometer import SPEED_OF_LIGHT, InterferometerGeometry, delta_L
from biphoton.spectral import SpectralProfile, wavelength_to_wavenumber
from conftest import COHERENCE_LENGTH, flatness_pvalue, named_config

PUMP = 427e-9
IDEAL = DetectorModel(timing_jitter_sigma=300e-12, dead_time=0.0, efficiency=1.0)
TAC = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=4096)


def synthetic_scan(
    visibility,
    baseline=2000.0,
    n_points=24,
    phase=0.4,
    period=PUMP,
    window=1e-9,
    rng=None,
    offset_shift=0.0,
):
    x = np.linspace(0.0, 2 * period, n_points, endpoint=False) + offset_shift
    mean = baseline * (1.0 - visibility * np.cos(2 * math.pi * (x - offset_shift) / period + phase))
    counts = mean if rng is None else rng.poisson(mean).astype(float)
    return FringeScan(
        offsets=x,
        singles_a=np.full(n_points, 1e4),
        singles_b=np.full(n_points, 1e4),
        coincidences=counts,
        duration=1.0,
        window_width=window,
    )


def poisson_loglik(scan, baseline, vis, phase, period=PUMP):
    """Poisson log-likelihood, up to -sum(log y!), of one fringe model."""
    theta = 2 * math.pi * scan.offsets / period
    mu = baseline * (1.0 - vis * np.cos(theta + phase))
    y = scan.coincidences
    hit = y > 0
    return float(np.sum(y[hit] * np.log(mu[hit])) - mu.sum())


def one_count_scan():
    scan = synthetic_scan(0.0, baseline=0.0)
    scan.coincidences[5] = 1.0
    return scan


class TestRegime:
    def test_five_ns_is_classical(self, geometry):
        assert classify_regime(5e-9, geometry) is Regime.CLASSICAL

    def test_one_ns_is_quantum(self, geometry):
        assert classify_regime(1e-9, geometry) is Regime.QUANTUM

    def test_boundary_is_quantum(self, geometry):
        # the gate is delay +/- W/2, so the edge is W = 2 delta_L/c
        edge = 2 * (0.55 / SPEED_OF_LIGHT)
        assert classify_regime(edge, geometry) is Regime.QUANTUM
        assert classify_regime(np.nextafter(edge, 1.0), geometry) is Regime.CLASSICAL

    @pytest.mark.parametrize("config", ["default", "experimental"])
    def test_label_matches_gate(self, config):
        # classical exactly when the channels nearest the side peaks' centres,
        # delay +/- delta_L/c, lie inside the window's channel range; widths
        # whose half lies within one channel of delta_L/c are not decided
        cfg = named_config(config)
        tac, geometry = cfg.tac(), cfg.geometry()
        split = delta_L(geometry) / SPEED_OF_LIGHT
        delay, channel = tac.electrical_delay, tac.range / tac.n_channels
        near_lo, near_hi = (
            int(np.argmin(np.abs(tac.bin_centers - (delay + side))))
            for side in (-split, split)
        )
        decided = 0
        for width in np.arange(20, 1901) * 1e-11:
            if abs(width / 2 - split) <= channel:
                continue
            gate = window_channels(tac, delay, width)
            holds_sides = gate.start <= near_lo and near_hi < gate.stop
            classical = classify_regime(width, geometry) is Regime.CLASSICAL
            assert classical == holds_sides, width
            decided += 1
        assert decided > 1800


class TestFitVisibility:
    def test_noiseless_full_visibility(self):
        scan = synthetic_scan(1.0)
        report = fit_visibility(scan, known_period=PUMP)
        assert report.visibility == pytest.approx(1.0, abs=1e-6)

    def test_poisson_closed_loop(self, rng):
        report = fit_visibility(
            synthetic_scan(0.8, rng=rng), known_period=PUMP
        )
        assert abs(report.visibility - 0.8) < 3 * report.visibility_sigma

    def test_half_visibility_verdict(self, rng):
        report = fit_visibility(
            synthetic_scan(0.5, rng=rng), known_period=PUMP
        )
        assert abs(report.visibility - 0.5) < 3 * report.visibility_sigma
        assert report.verdict is Verdict.CONSISTENT_WITH_CLASSICAL

    def test_high_visibility_verdict(self, rng):
        report = fit_visibility(
            synthetic_scan(0.95, baseline=5000.0, rng=rng), known_period=PUMP
        )
        assert report.verdict is Verdict.NONCLASSICAL

    def test_visibility_invariant_under_count_scaling(self):
        base = synthetic_scan(0.6, baseline=1000.0)
        scaled = synthetic_scan(0.6, baseline=10000.0)
        ra = fit_visibility(base, known_period=PUMP)
        rb = fit_visibility(scaled, known_period=PUMP)
        assert ra.visibility == pytest.approx(rb.visibility, abs=1e-9)
        assert rb.visibility_sigma < ra.visibility_sigma

    def test_too_few_points(self):
        scan = FringeScan(
            offsets=np.array([0.0, 1e-7, 2e-7]),
            singles_a=np.zeros(3),
            singles_b=np.zeros(3),
            coincidences=np.array([1.0, 2.0, 1.0]),
            duration=1.0,
            window_width=1e-9,
        )
        with pytest.raises(FitError):
            fit_visibility(scan, known_period=PUMP)

    def test_period_required(self):
        with pytest.raises(FitError, match="period"):
            fit_visibility(synthetic_scan(0.8))

    def test_empty_scan_rejected(self):
        with pytest.raises(FitError, match="no coincidences"):
            fit_visibility(synthetic_scan(0.5, baseline=0.0), known_period=PUMP)

    def test_aliased_offsets_rejected(self):
        # one offset per period: every point sits at the same fringe phase
        scan = synthetic_scan(0.5, n_points=8)
        scan.offsets = np.arange(8) * PUMP
        with pytest.raises(FitError, match="phase"):
            fit_visibility(scan, known_period=PUMP)

    def test_negative_counts_rejected(self):
        scan = synthetic_scan(0.5)
        with pytest.raises(DomainError, match="nonnegative"):
            replace(scan, coincidences=-scan.coincidences)

    @pytest.mark.parametrize("vis", [0.2, 0.5, 0.8, 1.0])
    def test_point_order_is_irrelevant(self, vis):
        # the likelihood, the design rank and chi2 are sums over the points;
        # at V = 1 the phase grid and the boundary stall see the summation
        # order, so the fit may move by its own grid resolution there
        tol = 1e-6 if vis == 1.0 else 1e-12
        for seed in range(5):
            rng = np.random.default_rng(seed)
            scan = synthetic_scan(vis, phase=0.4 + seed, rng=rng)
            order = rng.permutation(scan.offsets.size)
            shuffled = replace(
                scan,
                offsets=scan.offsets[order],
                singles_a=scan.singles_a[order],
                singles_b=scan.singles_b[order],
                coincidences=scan.coincidences[order],
            )
            a = fit_visibility(scan, known_period=PUMP)
            b = fit_visibility(shuffled, known_period=PUMP)
            assert b.verdict is a.verdict
            assert b.visibility == pytest.approx(a.visibility, rel=tol, abs=0)
            assert abs(math.remainder(b.phase_rad - a.phase_rad, 2 * math.pi)) <= tol
            if vis < 1.0:
                for field in ("visibility_sigma", "baseline", "chi2"):
                    assert getattr(b, field) == pytest.approx(
                        getattr(a, field), rel=tol, abs=0
                    )

    @pytest.mark.parametrize("baseline", [20.0, 2000.0])
    def test_full_visibility_with_point_on_null(self, baseline):
        # phase 0 puts the first offset exactly on a zero of the fringe
        for seed in range(20):
            scan = synthetic_scan(
                1.0, baseline=baseline, phase=0.0, rng=np.random.default_rng(seed)
            )
            assert scan.coincidences[0] == 0
            report = fit_visibility(scan, known_period=PUMP)
            assert report.visibility <= 1.0
            assert math.isfinite(report.visibility_sigma)
            assert report.verdict is Verdict.NONCLASSICAL

    def test_one_count_scan(self):
        report = fit_visibility(one_count_scan(), known_period=PUMP)
        assert report.visibility <= 1.0
        assert report.verdict is Verdict.CONSISTENT_WITH_CLASSICAL

    @pytest.mark.parametrize(
        "vis, baseline, phase",
        [(0.3, 20.0, 0.4), (0.8, 20.0, 2.0), (1.0, 20.0, 0.0), (1.0, 2000.0, -1.0)],
    )
    def test_fit_is_constrained_maximum(self, vis, baseline, phase):
        # no visibility in [0, 1] beats the reported fit
        for seed in range(5):
            scan = synthetic_scan(
                vis, baseline=baseline, phase=phase, rng=np.random.default_rng(seed)
            )
            report = fit_visibility(scan, known_period=PUMP)
            assert 0.0 <= report.visibility <= 1.0
            fitted = poisson_loglik(
                scan, report.baseline, report.visibility, report.phase_rad
            )
            theta = 2 * math.pi * scan.offsets / PUMP
            for v in np.linspace(0.0, 1.0, 21):
                assert _fixed_visibility_fit(theta, scan.coincidences, v)[0] <= (
                    fitted + 1e-9
                )


class TestVerdictSoundness:
    def test_false_positive_budget(self):
        # scans drawn from the classical model (true V = 0.5) should rarely
        # be flagged nonclassical
        n_false = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            report = fit_visibility(
                synthetic_scan(0.5, baseline=1000.0, rng=rng), known_period=PUMP
            )
            if report.verdict is Verdict.NONCLASSICAL:
                n_false += 1
        assert n_false <= 5

    @pytest.mark.parametrize("baseline", [20.0, 100.0])
    def test_false_positive_budget_low_counts(self, baseline):
        # at low counts the verdict must keep its nominal one-sided 2-sigma
        # rate (about 2.3 %) within a 3.5 % budget
        n_trials = 1000
        n_false = 0
        for trial in range(n_trials):
            rng = np.random.default_rng(1000 + trial)
            report = fit_visibility(
                synthetic_scan(0.5, baseline=baseline, rng=rng), known_period=PUMP
            )
            if report.verdict is Verdict.NONCLASSICAL:
                n_false += 1
        assert n_false <= 0.035 * n_trials


class TestFixedVisibilityFit:
    @pytest.mark.parametrize("vis", [0.5, 1.0])
    @pytest.mark.parametrize(
        "scan",
        [
            synthetic_scan(0.8, baseline=20.0, rng=np.random.default_rng(3)),
            synthetic_scan(
                1.0, baseline=2000.0, phase=0.0, rng=np.random.default_rng(4)
            ),
            synthetic_scan(0.2, baseline=5.0, phase=2.5, rng=np.random.default_rng(5)),
            one_count_scan(),
        ],
        ids=["v08_b20", "v1_b2000_null", "v02_b5", "one_count"],
    )
    def test_matches_dense_phase_grid(self, scan, vis):
        theta = 2 * math.pi * scan.offsets / PUMP
        y = scan.coincidences
        loglik, baseline, phase = _fixed_visibility_fit(theta, y, vis)
        # the reported maximum is the likelihood of the reported parameters ...
        assert loglik == pytest.approx(
            poisson_loglik(scan, baseline, vis, phase), abs=1e-9
        )
        g = 1.0 - vis * np.cos(theta + phase)
        assert baseline == pytest.approx(y.sum() / g.sum(), rel=1e-12)
        # ... and no phase of a 1e5-point grid does better
        grid = np.linspace(0.0, 2 * math.pi, 100_000, endpoint=False)
        hit = y > 0
        g = 1.0 - vis * np.cos(theta[None, :] + grid[:, None])
        n = y.sum()
        with np.errstate(divide="ignore"):
            profile = n * np.log(n / g.sum(axis=1)) - n + np.log(g[:, hit]) @ y[hit]
        assert loglik >= profile.max() - 1e-9


LOSSY_A = DetectorModel(timing_jitter_sigma=300e-12, dead_time=50e-9, efficiency=0.6)
LOSSY_B = DetectorModel(timing_jitter_sigma=200e-12, dead_time=0.0, efficiency=0.8)
LOSSY_OFFSETS = 0.3 * PUMP + np.linspace(0.0, 2 * PUMP, 8, endpoint=False)
LOSSY_SEED = 11
LOSSY_DURATION = 0.02


@pytest.fixture(scope="module")
def lossy_scan():
    """A corpus of lossy detectors with dead time, and each of its points
    acquired alone by acquire_histogram on the point's derived seed."""
    profile = SpectralProfile(
        k_pump=wavelength_to_wavenumber(PUMP), delta_k=1.0 / COHERENCE_LENGTH
    )
    geometry = InterferometerGeometry(path_short=0.5, path_long_base=1.05)
    rates = SourceRates(pair_rate=1.0e5, singles_background=2e4)
    corpus = acquire_scan_corpus(
        profile, geometry, rates, LOSSY_A, LOSSY_B, TAC,
        LOSSY_OFFSETS, LOSSY_DURATION, LOSSY_SEED,
    )
    hists = []
    for i, offset in enumerate(LOSSY_OFFSETS):
        seed = np.random.SeedSequence(LOSSY_SEED, spawn_key=(i,))
        hists.append(
            acquire_histogram(
                profile, geometry.with_offset(offset), rates, LOSSY_A, LOSSY_B,
                TAC, LOSSY_DURATION, np.random.default_rng(seed),
            )
        )
    return corpus, hists


class TestScanPipeline:
    def test_end_to_end_fringe(self, profile, geometry, rates):
        offsets = np.linspace(0.0, 2 * PUMP, 16, endpoint=False)
        corpus = acquire_scan_corpus(
            profile, geometry, rates, IDEAL, IDEAL, TAC, offsets, 0.02, 42
        )
        scan = gate_scan(corpus, TAC, 1e-9)
        report = fit_visibility(
            scan, known_period=PUMP, regime=classify_regime(1e-9, geometry)
        )
        assert report.regime is Regime.QUANTUM
        assert report.visibility > 0.9

    def test_delayed_choice_shares_corpus(self, profile, geometry, rates):
        offsets = np.linspace(0.0, 2 * PUMP, 16, endpoint=False)
        corpus = acquire_scan_corpus(
            profile, geometry, rates, IDEAL, IDEAL, TAC, offsets, 0.02, 42
        )
        wide = gate_scan(corpus, TAC, 5e-9)
        narrow = gate_scan(corpus, TAC, 1e-9)
        assert np.all(wide.coincidences >= narrow.coincidences)

    def test_scan_point_is_one_acquisition(self, lossy_scan):
        # every scan point and a lone acquisition share one chain: the same
        # seed gives the same counts and clicks, row by row
        corpus, hists = lossy_scan
        assert np.array_equal(corpus.offsets, LOSSY_OFFSETS)
        assert corpus.duration == LOSSY_DURATION
        for i, (counts, clicks) in enumerate(hists):
            assert counts.sum() > 0
            assert np.array_equal(corpus.counts[i], counts)
            assert list(corpus.clicks[i]) == list(clicks)
        # the rows are distinct acquisitions, not one repeated
        assert len({row.tobytes() for row in corpus.counts}) == len(hists)

    @given(width=st.floats(min_value=0.01e-9, max_value=2 * TAC.electrical_delay))
    @settings(max_examples=50, deadline=None)
    @example(width=1e-9)
    @example(width=2 * TAC.electrical_delay)
    def test_gate_scan_gates_each_point_alone(self, lossy_scan, width):
        # one mask over the matrix counts what gating each histogram would
        corpus, hists = lossy_scan
        scan = gate_scan(corpus, TAC, width)
        for i, (counts, (clicks_a, clicks_b)) in enumerate(hists):
            assert scan.coincidences[i] == gate_count(
                counts, TAC, TAC.electrical_delay, width
            )
            assert scan.singles_a[i] == clicks_a / LOSSY_DURATION
            assert scan.singles_b[i] == clicks_b / LOSSY_DURATION

    def test_peak_memory_is_the_count_matrix(self, profile, geometry, rates):
        # the rows are written into one preallocated matrix: stacking a list
        # of per-point histograms would hold every count twice
        tac = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=65536)
        offsets = np.linspace(0.0, 2 * PUMP, 64, endpoint=False)
        matrix_bytes = offsets.size * tac.n_channels * 8
        tracemalloc.start()
        try:
            corpus = acquire_scan_corpus(
                profile, geometry, rates, IDEAL, IDEAL, tac, offsets, 1e-4, 5
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.counts.nbytes == matrix_bytes
        assert peak < 1.5 * matrix_bytes, f"peak {peak / 2**20:.1f} MiB"

    def test_counts_are_one_int64_matrix(self, profile, geometry, rates):
        # the counts are one int64 matrix, a row per point, and the clicks one
        # int64 matrix, a row of A and B per point
        tac = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=4096)
        offsets = np.linspace(0.0, 2 * PUMP, 8, endpoint=False)
        corpus = acquire_scan_corpus(
            profile, geometry, rates, IDEAL, IDEAL, tac, offsets, 0.001, 3
        )
        assert corpus.counts.dtype == np.int64
        assert corpus.counts.shape == (8, tac.n_channels)
        assert corpus.clicks.dtype == np.int64
        assert corpus.clicks.shape == (8, 2)

    def test_zero_duration_points(self, profile, geometry, rates):
        offsets = np.linspace(0.0, 2 * PUMP, 8, endpoint=False)
        corpus = acquire_scan_corpus(
            profile, geometry, rates, IDEAL, IDEAL, TAC, offsets, 0.0, 1
        )
        scan = gate_scan(corpus, TAC, 5e-9)
        assert np.all(scan.coincidences == 0)
        assert np.all(scan.singles_a == 0) and np.all(scan.singles_b == 0)


class TestFlatness:
    def test_flat_counts_pass(self, rng):
        counts = rng.poisson(1000.0, 24)
        assert flatness_pvalue(counts) > 0.001

    def test_fringing_counts_fail(self):
        x = np.linspace(0, 2 * math.pi, 24)
        counts = 1000 * (1 + 0.5 * np.cos(x))
        assert flatness_pvalue(counts) < 1e-6

