import math

import numpy as np
import pytest
from scipy.constants import c

from biphoton import (
    DetectorModel,
    SourceRates,
    TacConfig,
    acquire_histogram,
    gate_count,
    generate_events,
)
from biphoton.detection import (
    detect_clicks,
    merge_histograms,
    tac_differences,
)
from biphoton.engines import EventStream
from biphoton.errors import DomainError, PreconditionError
from conftest import phase_geometry

IDEAL = DetectorModel(timing_jitter_sigma=0.0, dead_time=0.0, efficiency=1.0)
TAC = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=4096)
DT_SPLIT = 0.55 / c  # 1.8346 ns


def make_stream(times_a, times_b, duration=1.0):
    t = np.concatenate([times_a, times_b])
    d = np.concatenate(
        [np.zeros(len(times_a), dtype=np.uint8), np.ones(len(times_b), dtype=np.uint8)]
    )
    order = np.argsort(t, kind="stable")
    truth = np.zeros(t.size, dtype=np.uint8)
    return EventStream(time=t[order], detector=d[order], truth=truth[order], duration=duration)


class TestDetectorModel:
    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            DetectorModel(efficiency=1.5)
        with pytest.raises(DomainError):
            DetectorModel(timing_jitter_sigma=-1.0)

    def test_dead_time_suppression(self, rng):
        model = DetectorModel(timing_jitter_sigma=0.0, dead_time=50e-9, efficiency=1.0)
        times = np.array([0.0, 10e-9, 60e-9, 200e-9])
        kept = detect_clicks(times, model, rng)
        assert np.allclose(kept, [0.0, 60e-9, 200e-9])

    def test_efficiency_thinning(self, rng):
        model = DetectorModel(timing_jitter_sigma=0.0, dead_time=0.0, efficiency=0.3)
        n = 10**5
        kept = detect_clicks(np.linspace(0, 1, n), model, rng)
        assert abs(kept.size - 0.3 * n) < 5 * math.sqrt(0.3 * 0.7 * n)


class TestTac:
    def test_three_peak_positions(self, profile, geometry, k_pump, rates, rng):
        g = phase_geometry(geometry, k_pump, math.pi / 2)
        events = generate_events(profile, g, rates, 0.05, rng)
        hist = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        centers = hist.bin_centers
        for expected in (
            TAC.electrical_delay - DT_SPLIT,
            TAC.electrical_delay,
            TAC.electrical_delay + DT_SPLIT,
        ):
            window = np.abs(centers - expected) < 0.3e-9
            assert hist.counts[window].sum() > 100
            centroid = np.average(centers[window], weights=hist.counts[window])
            assert abs(centroid - expected) < 5e-12

    def test_central_peak_absent_at_zero_phase(
        self, profile, geometry, k_pump, rng
    ):
        # low rate so TAC pileup cannot fake a central count
        rates = SourceRates(pair_rate=5e3, rc0=5e3)
        g = phase_geometry(geometry, k_pump, 0.0)
        events = generate_events(profile, g, rates, 0.5, rng)
        hist = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        n_central = gate_count(hist, TAC.electrical_delay, 1e-9)
        left = gate_count(hist, TAC.electrical_delay - DT_SPLIT, 1e-9)
        right = gate_count(hist, TAC.electrical_delay + DT_SPLIT, 1e-9)
        assert n_central == 0
        assert abs(left - right) < 3 * math.sqrt(left + right)

    def test_empty_stream(self, rng):
        events = make_stream(np.array([]), np.array([]))
        hist = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        assert hist.total == 0

    def test_unsorted_stream_rejected(self, rng):
        events = EventStream(
            time=np.array([1.0, 0.5]),
            detector=np.array([0, 1], dtype=np.uint8),
            truth=np.zeros(2, dtype=np.uint8),
            duration=1.0,
        )
        with pytest.raises(PreconditionError):
            acquire_histogram(events, IDEAL, IDEAL, TAC, rng)

    def test_single_start_single_stop(self):
        # two starts before one stop: the second start is dropped
        starts = np.array([0.0, 1e-9])
        stops = np.array([-8e-9])  # arrives at 2 ns after the 10 ns delay
        diffs = tac_differences(starts, stops, TAC)
        assert diffs.size == 1
        assert diffs[0] == pytest.approx(2e-9)

    def test_out_of_range_stop_times_out(self):
        starts = np.array([0.0, 30e-9])
        stops = np.array([25e-9])  # 35 ns after delay: out of range for start 0
        diffs = tac_differences(starts, stops, TAC)
        assert diffs.size == 1
        assert diffs[0] == pytest.approx(5e-9)

    def test_exact_central_count_without_jitter(
        self, profile, geometry, k_pump, rng
    ):
        rates = SourceRates(pair_rate=5e3, rc0=5e3)
        g = phase_geometry(geometry, k_pump, math.pi)
        events = generate_events(profile, g, rates, 0.2, rng)
        hist = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        n_truth = int(np.sum(events.truth == 0)) // 2
        assert gate_count(hist, TAC.electrical_delay, 1e-9) == n_truth


class TestGateCount:
    def make_hist(self, profile, geometry, k_pump, rates, rng):
        g = phase_geometry(geometry, k_pump, math.pi / 2)
        events = generate_events(profile, g, rates, 0.02, rng)
        return acquire_histogram(events, IDEAL, IDEAL, TAC, rng)

    def test_five_ns_window_includes_all_peaks(
        self, profile, geometry, k_pump, rates, rng
    ):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        wide = gate_count(hist, TAC.electrical_delay, 5e-9)
        assert wide == hist.total  # only three peaks exist without background

    def test_one_ns_window_central_only(self, profile, geometry, k_pump, rates, rng):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        narrow = gate_count(hist, TAC.electrical_delay, 1e-9)
        central_truth = gate_count(hist, TAC.electrical_delay, 0.5e-9)
        assert narrow < gate_count(hist, TAC.electrical_delay, 5e-9)
        assert narrow >= central_truth

    def test_full_range_equals_total(self, profile, geometry, k_pump, rates, rng):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        assert gate_count(hist, TAC.range / 2, TAC.range) == hist.total

    def test_monotone_in_width(self, profile, geometry, k_pump, rates, rng):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        widths = np.linspace(0.2e-9, 19e-9, 25)
        counts = [gate_count(hist, TAC.electrical_delay, w) for w in widths]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_window_outside_range_rejected(
        self, profile, geometry, k_pump, rates, rng
    ):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        with pytest.raises(DomainError):
            gate_count(hist, 19e-9, 5e-9)


class TestAccidentalFloor:
    def test_background_only_rate(self, profile, geometry, rng):
        rates = SourceRates(pair_rate=0.0, rc0=0.0, singles_background=2e4)
        duration = 2.0
        events = generate_events(profile, geometry, rates, duration, rng)
        hist = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        width = 5e-9
        got = gate_count(hist, TAC.electrical_delay, width)
        expected = 2e4 * 2e4 * width * duration
        assert abs(got - expected) < 4 * math.sqrt(expected)


class TestMergeAndSerialization:
    def test_merge_requires_no_dead_time(self, profile, geometry, rates, rng):
        events = generate_events(profile, geometry, rates, 0.01, rng)
        dead = DetectorModel(timing_jitter_sigma=0.0, dead_time=50e-9, efficiency=1.0)
        h1 = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        h2 = acquire_histogram(events, dead, IDEAL, TAC, rng)
        merged = merge_histograms(h1, h1)
        assert merged.total == 2 * h1.total
        with pytest.raises(PreconditionError):
            merge_histograms(h1, h2)

    def test_csv_round_trip(self, profile, geometry, rates, rng, tmp_path):
        events = generate_events(profile, geometry, rates, 0.01, rng)
        hist = acquire_histogram(events, IDEAL, IDEAL, TAC, rng)
        path = tmp_path / "hist.csv"
        hist.to_csv(path, config_hash="abc123")
        header = path.read_text().splitlines()[:3]
        assert header == [
            f"# duration_s={hist.duration!r}",
            "# config_hash=abc123",
            "bin_center_s,count",
        ]
        centers, counts = np.loadtxt(path, delimiter=",", skiprows=3, unpack=True)
        assert np.array_equal(counts, hist.counts)
        assert np.array_equal(centers, hist.bin_centers)
