import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import (
    DetectorModel,
    SourceRates,
    TacConfig,
    acquire_histogram,
    gate_count,
    generate_events,
)
from biphoton import detection
from biphoton.detection import (
    _accept_free,
    detect_clicks,
    detect_streams,
    histogram_from_clicks,
    tac_differences,
)
from biphoton.engines import expected_class_probabilities
from biphoton.errors import DomainError, PreconditionError
from biphoton.interferometer import SPEED_OF_LIGHT
from conftest import phase_geometry
from oracle import (
    TRUTH_SIDE_LS,
    generate_events_oracle,
    non_paralysable_oracle,
    tac_differences_oracle,
)

IDEAL = DetectorModel(timing_jitter_sigma=0.0, dead_time=0.0, efficiency=1.0)
TAC = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=4096)
DT_SPLIT = 0.55 / SPEED_OF_LIGHT  # 1.8346 ns

#: time unit of the oracle tests, 2**-30 s (about 0.93 ns).  Sums of a few
#: whole multiples are exact, so ties such as a stop exactly at start + range
#: really occur on the integer grid.
UNIT = 2.0**-30
TICKS = st.one_of(
    st.lists(st.integers(-15, 60).map(float), max_size=14),
    st.lists(st.floats(-15.0, 60.0), max_size=14),
)


def _accept_free_checked(starts, ends):
    """``_accept_free`` behind its precondition: both callers pass ends that
    never decrease, which lets it take the previous end as the latest."""
    assert np.all(ends[1:] >= ends[:-1])
    return _accept_free(starts, ends)


def ideal_histogram(times_a, times_b, duration, rng):
    """Detected photons through ideal detectors and the TAC: the chain of
    ``acquire_histogram`` after the photons are drawn."""
    t_a = detect_clicks(times_a, IDEAL, rng)
    t_b = detect_clicks(times_b, IDEAL, rng)
    return histogram_from_clicks(t_a, t_b, TAC, duration)


class TestDetectorModel:
    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            DetectorModel(timing_jitter_sigma=0.0, dead_time=0.0, efficiency=1.5)
        with pytest.raises(DomainError):
            DetectorModel(timing_jitter_sigma=-1.0, dead_time=0.0, efficiency=1.0)

    def test_dead_time_suppression(self, rng):
        model = DetectorModel(timing_jitter_sigma=0.0, dead_time=50e-9, efficiency=1.0)
        times = np.array([0.0, 10e-9, 60e-9, 200e-9])
        kept = detect_clicks(times, model, rng)
        assert np.allclose(kept, [0.0, 60e-9, 200e-9])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["timing_jitter_sigma", "dead_time", "efficiency"]
    )
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            replace(IDEAL, **{field: value})

    def test_efficiency_thinning(self, profile, geometry, rng):
        # efficiency is applied where photons are drawn.  A pair puts one
        # photon on each detector on average, a no-coincidence pair two on
        # one, so the detected count is compound Poisson: mean eta R T,
        # variance R T (eta + p_none eta^2), plus the thinned background
        rates = SourceRates(pair_rate=1e5, singles_background=2e4)
        duration, efficiency = 1.0, (0.3, 0.7)
        stream = generate_events(profile, geometry, rates, duration, rng, efficiency)
        n_pairs = rates.pair_rate * duration
        p_none = expected_class_probabilities(profile, geometry, rates)["none"]
        for clicks, eta in zip((stream.a, stream.b), efficiency):
            n_bg = eta * rates.singles_background * duration
            var = n_pairs * (eta + p_none * eta**2) + n_bg
            assert abs(clicks.size - (eta * n_pairs + n_bg)) < 5 * math.sqrt(var)
        # the pairs are counted as emitted, detected or not
        assert abs(stream.pairs_per_class.sum() - n_pairs) < 5 * math.sqrt(n_pairs)

    def test_detectors_set_their_own_efficiency(self, profile, geometry, rng):
        # an acquisition draws its photons at each detector's efficiency:
        # the same compound Poisson counts as above, now as clicks
        rates = SourceRates(pair_rate=1e5, singles_background=2e4)
        duration = 1.0
        detectors = [
            replace(IDEAL, timing_jitter_sigma=300e-12, efficiency=eta)
            for eta in (0.3, 0.7)
        ]
        clicks = detect_streams(profile, geometry, rates, *detectors, duration, rng)
        n_pairs = rates.pair_rate * duration
        p_none = expected_class_probabilities(profile, geometry, rates)["none"]
        for times, detector in zip(clicks, detectors):
            eta = detector.efficiency
            n_bg = eta * rates.singles_background * duration
            var = n_pairs * (eta + p_none * eta**2) + n_bg
            assert abs(times.size - (eta * n_pairs + n_bg)) < 5 * math.sqrt(var)
            assert np.all(np.diff(times) >= 0)


class TestTac:
    def test_three_peak_positions(self, profile, geometry, k_pump, rates, rng):
        g = phase_geometry(geometry, k_pump, math.pi / 2)
        hist = acquire_histogram(profile, g, rates, IDEAL, IDEAL, TAC, 0.05, rng)
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
        rates = SourceRates(pair_rate=5e3, singles_background=0.0)
        g = phase_geometry(geometry, k_pump, 0.0)
        hist = acquire_histogram(profile, g, rates, IDEAL, IDEAL, TAC, 0.5, rng)
        n_central = gate_count(hist, TAC.electrical_delay, 1e-9)
        left = gate_count(hist, TAC.electrical_delay - DT_SPLIT, 1e-9)
        right = gate_count(hist, TAC.electrical_delay + DT_SPLIT, 1e-9)
        assert n_central == 0
        assert abs(left - right) < 3 * math.sqrt(left + right)

    def test_empty_stream(self, rng):
        hist = ideal_histogram(np.array([]), np.array([]), 1.0, rng)
        assert hist.total == 0

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
        rates = SourceRates(pair_rate=5e3, singles_background=0.0)
        g = phase_geometry(geometry, k_pump, math.pi)
        events = generate_events(profile, g, rates, 0.2, rng)
        hist = ideal_histogram(events.a, events.b, 0.2, rng)
        n_truth = int(events.pairs_per_class[0])
        assert gate_count(hist, TAC.electrical_delay, 1e-9) == n_truth


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["electrical_delay", "range", "n_channels"])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            replace(TAC, **{field: value})

    @pytest.mark.parametrize(
        "starts, stops",
        [([2e-9, 1e-9], [-5e-9]), ([1e-9], [-5e-9, -7e-9])],
        ids=["starts", "stops"],
    )
    def test_unsorted_input_rejected(self, starts, stops):
        with pytest.raises(PreconditionError, match="sorted"):
            tac_differences(np.array(starts), np.array(stops), TAC)


class TestStateMachineOracles:
    """The array TAC and dead-time filters against the per-event loops."""

    @given(
        starts=TICKS,
        stops=TICKS,
        delay=st.integers(0, 12),
        range_ticks=st.integers(1, 30),
    )
    @settings(max_examples=400, deadline=None)
    # empty starts, empty stops, and stops that all come before the starts
    @example(starts=[], stops=[1.0, 2.0], delay=0, range_ticks=5)
    @example(starts=[1.0, 2.0], stops=[], delay=0, range_ticks=5)
    @example(starts=[20.0, 25.0], stops=[0.0, 1.0, 2.0], delay=3, range_ticks=5)
    # a stop at the start itself, and one exactly at start + range
    @example(starts=[5.0], stops=[5.0, 8.0], delay=0, range_ticks=5)
    @example(starts=[0.0], stops=[5.0], delay=0, range_ticks=5)
    # starts exactly at the end of a conversion and of a timeout
    @example(starts=[0.0, 5.0, 7.0], stops=[5.0, 9.0], delay=0, range_ticks=5)
    @example(starts=[0.0, 5.0], stops=[20.0], delay=0, range_ticks=5)
    # an out-of-range stop that a later start converts on
    @example(starts=[0.0, 12.0], stops=[14.0], delay=0, range_ticks=5)
    # clusters: a start dropped while busy cannot block the starts after it
    @example(starts=[0.0, 3.0, 5.0], stops=[8.0], delay=0, range_ticks=5)
    @example(starts=[0.0, 3.0, 6.0], stops=[9.0], delay=0, range_ticks=5)
    @example(
        starts=[0.0, 3.0, 6.0, 8.0, 11.0], stops=[14.0], delay=0, range_ticks=5
    )
    # stops at start + range once rounded: 2.2 - 1.2 exceeds one tick, so the
    # first start times out at fl(1.2 + 1) = 2.2, the stop the next start
    # converts on; 1.4000000000000001 - 0.4 rounds to one tick and converts,
    # though fl(0.4 + 1) = 1.4 lies before that stop
    @example(starts=[1.2, 1.5, 2.2], stops=[2.2, 3.0], delay=0, range_ticks=1)
    @example(starts=[0.4, 0.5], stops=[1.4000000000000001], delay=0, range_ticks=1)
    def test_tac_matches_loop(self, starts, stops, delay, range_ticks):
        tac = TacConfig(
            electrical_delay=delay * UNIT, range=range_ticks * UNIT, n_channels=4096
        )
        starts = np.sort(np.array(starts)) * UNIT
        stops = np.sort(np.array(stops)) * UNIT
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "_accept_free", _accept_free_checked)
            got = tac_differences(starts, stops, tac)
        want = tac_differences_oracle(starts, stops, tac)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(
        ticks=TICKS,
        dead=st.one_of(
            st.integers(1, 12).map(float),
            # just above a whole number of ticks, where t >= last + dead and
            # t - last >= dead round apart
            st.integers(1, 12).map(lambda k: math.nextafter(float(k), math.inf)),
            st.floats(0.1, 12.0),
        ),
    )
    @settings(max_examples=400, deadline=None)
    @example(ticks=[], dead=3.0)
    # 4 + dead rounds to 5, so the click at 5 is kept, though 5 - 4 < dead
    @example(ticks=[4.0, 5.0], dead=math.nextafter(1.0, math.inf))
    @example(ticks=[0.0, 0.0, 0.0, 3.0], dead=3.0)
    @example(ticks=[0.0, 2.0, 3.0], dead=3.0)
    # a cluster of five: each click within the dead time of its predecessor
    @example(ticks=[0.0, 2.0, 4.0, 6.0, 8.0], dead=3.0)
    def test_dead_time_matches_loop(self, ticks, dead):
        model = DetectorModel(
            timing_jitter_sigma=0.0, dead_time=dead * UNIT, efficiency=1.0
        )
        times = np.array(ticks) * UNIT
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "_accept_free", _accept_free_checked)
            got = detect_clicks(times, model, np.random.default_rng(0))
        assert np.array_equal(got, non_paralysable_oracle(np.sort(times), dead * UNIT))

    def test_dense_stream_matches_loops(self, profile, geometry, rng):
        # 1e6 pairs/s: about 5 % of clicks fall within 50 ns of the previous
        rates = SourceRates(pair_rate=1e6, singles_background=2e5)
        events = generate_events(profile, geometry, rates, 0.01, rng)
        jitter = replace(IDEAL, timing_jitter_sigma=300e-12)
        dead = replace(IDEAL, dead_time=50e-9)
        kept = []
        for photons in (events.a, events.b):
            clicks = detect_clicks(photons, jitter, rng)
            got = detect_clicks(clicks, dead, rng)
            assert np.array_equal(got, non_paralysable_oracle(clicks, 50e-9))
            kept.append(got)
        got = tac_differences(kept[0], kept[1], TAC)
        assert got.size > 1000
        assert np.array_equal(got, tac_differences_oracle(kept[0], kept[1], TAC))


class TestGateCount:
    def make_hist(self, profile, geometry, k_pump, rates, rng):
        g = phase_geometry(geometry, k_pump, math.pi / 2)
        return acquire_histogram(profile, g, rates, IDEAL, IDEAL, TAC, 0.02, rng)

    def test_five_ns_window_includes_all_peaks(
        self, profile, geometry, k_pump, rates, rng
    ):
        # the oracle's photons of the three coincidence classes only: without
        # the no-coincidence photons, whose starts meet stops of other pairs
        # anywhere in the TAC range, only the three peaks exist
        g = phase_geometry(geometry, k_pump, math.pi / 2)
        time, detector, truth = generate_events_oracle(profile, g, rates, 0.02, rng)
        pair = truth <= TRUTH_SIDE_LS
        hist = ideal_histogram(
            time[pair & (detector == 0)], time[pair & (detector == 1)], 0.02, rng
        )
        assert hist.total > 0
        assert gate_count(hist, TAC.electrical_delay, 5e-9) == hist.total

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

    @pytest.mark.parametrize(
        "center, width",
        [(19e-9, 5e-9), (10e-9, math.nan), (math.nan, 5e-9)],
        ids=["past_range", "nan_width", "nan_center"],
    )
    def test_window_outside_range_rejected(
        self, profile, geometry, k_pump, rates, rng, center, width
    ):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        with pytest.raises(DomainError):
            gate_count(hist, center, width)

    def test_window_holding_no_channel_rejected(
        self, profile, geometry, k_pump, rates, rng
    ):
        # channels are 20 ns / 4096 = 4.9 ps wide, and 10 ns is an edge: a
        # 1 ps window there holds no channel centre, one on a centre holds it
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        with pytest.raises(DomainError, match="no MCA channel"):
            gate_count(hist, TAC.electrical_delay, 1e-12)
        centre = hist.bin_centers[TAC.n_channels // 2]
        assert gate_count(hist, centre, 1e-12) == hist.counts[TAC.n_channels // 2]


class TestAccidentalFloor:
    def test_background_only_rate(self, profile, geometry, rng):
        rates = SourceRates(pair_rate=0.0, singles_background=2e4)
        duration = 2.0
        hist = acquire_histogram(
            profile, geometry, rates, IDEAL, IDEAL, TAC, duration, rng
        )
        width = 5e-9
        got = gate_count(hist, TAC.electrical_delay, width)
        expected = 2e4 * 2e4 * width * duration
        assert abs(got - expected) < 4 * math.sqrt(expected)


class TestSerialization:
    def test_csv_round_trip(self, profile, geometry, rates, rng, tmp_path):
        hist = acquire_histogram(profile, geometry, rates, IDEAL, IDEAL, TAC, 0.01, rng)
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
