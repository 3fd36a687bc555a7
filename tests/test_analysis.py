import math

import numpy as np
import pytest
from scipy.constants import c

from biphoton import (
    DetectorModel,
    FringeScan,
    PztCalibration,
    Regime,
    TacConfig,
    Verdict,
    classify_regime,
    fit_visibility,
    volts_to_offset,
)
from biphoton.analysis import (
    PztInterpretation,
    acquire_scan_corpus,
    flatness_pvalue,
    gate_scan,
)
from biphoton.errors import BoundaryError, DomainError, FitError

PUMP = 427e-9
IDEAL = DetectorModel(timing_jitter_sigma=300e-12, dead_time=0.0, efficiency=1.0)
TAC = TacConfig()


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


class TestRegime:
    def test_five_ns_is_classical(self, geometry):
        assert classify_regime(5e-9, geometry) is Regime.CLASSICAL

    def test_one_ns_is_quantum(self, geometry):
        assert classify_regime(1e-9, geometry) is Regime.QUANTUM

    def test_boundary_rejected(self, geometry):
        split = 0.55 / c
        with pytest.raises(BoundaryError):
            classify_regime(split, geometry)


class TestPzt:
    def test_one_volt_path_difference(self):
        cal = PztCalibration()
        assert volts_to_offset(1.0, cal) == pytest.approx(46e-9, rel=1e-12)

    def test_zero_volts(self):
        assert volts_to_offset(0.0, PztCalibration()) == 0.0

    def test_mirror_displacement_doubles(self):
        cal = PztCalibration(interpretation=PztInterpretation.MIRROR_DISPLACEMENT)
        assert volts_to_offset(1.0, cal) == pytest.approx(92e-9, rel=1e-12)

    def test_invalid_calibration(self):
        with pytest.raises(DomainError):
            PztCalibration(nm_per_volt=0.0)


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

    def test_period_recovered_when_free(self, rng):
        report = fit_visibility(synthetic_scan(0.8, rng=rng))
        assert report.period == pytest.approx(PUMP, rel=0.02)

    def test_period_invariant_under_offset_shift(self, rng):
        seed_rng = np.random.default_rng(11)
        a = fit_visibility(synthetic_scan(0.7, rng=seed_rng))
        seed_rng = np.random.default_rng(11)
        b = fit_visibility(synthetic_scan(0.7, rng=seed_rng, offset_shift=3.3e-7))
        assert a.period == pytest.approx(b.period, rel=1e-6)

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

    def test_zero_duration_points(self, profile, geometry, rates):
        offsets = np.linspace(0.0, 2 * PUMP, 8, endpoint=False)
        corpus = acquire_scan_corpus(
            profile, geometry, rates, IDEAL, IDEAL, TAC, offsets, 0.0, 1
        )
        scan = gate_scan(corpus, TAC, 5e-9)
        assert np.all(scan.coincidences == 0)


class TestFlatness:
    def test_flat_counts_pass(self, rng):
        counts = rng.poisson(1000.0, 24)
        assert flatness_pvalue(counts) > 0.001

    def test_fringing_counts_fail(self):
        x = np.linspace(0, 2 * math.pi, 24)
        counts = 1000 * (1 + 0.5 * np.cos(x))
        assert flatness_pvalue(counts) < 1e-6
