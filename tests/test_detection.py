import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import detection
from biphoton.detection import (
    DetectorModel,
    TacConfig,
    _accept_free,
    acquire_histogram,
    detect_clicks,
    detect_streams,
    gate_count,
    histogram_from_clicks,
    tac_differences,
    window_channels,
)
from biphoton.engines import SourceRates, expected_class_probabilities, generate_events
from biphoton.errors import DomainError
from biphoton.interferometer import SPEED_OF_LIGHT
from conftest import phase_geometry
from oracle import (
    TRUTH_SIDE_LS,
    accept_free_oracle,
    generate_events_oracle,
    histogram_oracle,
    non_paralysable_oracle,
    tac_differences_oracle,
    window_mask_oracle,
)

IDEAL = DetectorModel(timing_jitter_sigma=0.0, dead_time=0.0, efficiency=1.0)
TAC = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=4096)
DT_SPLIT = 0.55 / SPEED_OF_LIGHT  # 1.8346 ns
CENTERS = TAC.bin_centers

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


def longest_busy_run(starts, ends) -> int:
    """Longest run of consecutive events that each start before the end of
    the busy period of the event before them."""
    longest = run = 0
    for busy in (np.asarray(starts[1:]) < np.asarray(ends[:-1])).tolist():
        run = run + 1 if busy else 0
        longest = max(longest, run)
    return longest


def cluster_gaps(draw, limit: int) -> list[int]:
    """Gaps in ticks between the 4 to 20 events of one cluster, each below
    ``limit``: 0 for the first event, then one gap per later event."""
    size = draw(st.integers(4, 20))
    gap = st.integers(0, limit - 1)
    return [0, *draw(st.lists(gap, min_size=size - 1, max_size=size - 1))]


@st.composite
def dead_time_runs(draw):
    """Clicks in ticks, in 1 to 10 clusters, and the dead time in ticks.

    Each click of a cluster comes less than the dead time after the one
    before it, so a cluster after its first click is a run of at least three
    busy clicks.  Clusters start at least a whole dead time apart.
    """
    dead = draw(st.integers(2, 12))
    ticks, t = [], 0
    for _ in range(draw(st.integers(1, 10))):
        t += draw(st.integers(dead, 3 * dead))
        for gap in cluster_gaps(draw, dead):
            t += gap
            ticks.append(float(t))
    # just above a whole number of ticks, where t >= last + dead rounds
    return ticks, draw(st.sampled_from([float(dead), math.nextafter(dead, math.inf)]))


@st.composite
def tac_runs(draw):
    """Starts and stops in ticks, in 1 to 10 clusters, with the delay and the
    range.

    A cluster is starts each less than the range after the one before it,
    then one stop after the last of them.  Each start of a cluster but the
    first so arrives while the one before it is still converting or timing
    out: a run of at least three busy starts.
    """
    range_ticks = draw(st.integers(2, 30))
    delay = draw(st.integers(0, 12))
    starts, stops, t = [], [], 0
    for _ in range(draw(st.integers(1, 10))):
        t += draw(st.integers(0, 2 * range_ticks))
        for gap in cluster_gaps(draw, range_ticks):
            t += gap
            starts.append(float(t))
        t += draw(st.integers(1, 2 * range_ticks))
        stops.append(float(t - delay))
    return starts, stops, delay, range_ticks


def drawn_tac(draw) -> tuple[TacConfig, np.ndarray, np.ndarray]:
    """A TAC of 2 to 5000 channels over a range of 1 ps to 1000 s, with its
    explicit channel edges and their midpoints."""
    n = draw(st.integers(2, 5000))
    span = draw(st.floats(1e-12, 1e3))
    edges = np.linspace(0.0, span, n + 1)
    tac = TacConfig(electrical_delay=0.0, range=span, n_channels=n)
    return tac, edges, 0.5 * (edges[:-1] + edges[1:])


@st.composite
def tac_windows(draw):
    """A TAC and a window on it: centred anywhere near the range, on a
    channel centre or on an edge; as wide as the range, a few channels, or
    exactly out to a channel centre; or refused (zero, negative, NaN)."""
    tac, edges, centers = drawn_tac(draw)
    span, n = tac.range, tac.n_channels
    center = draw(
        st.one_of(
            st.floats(-0.1 * span, 1.1 * span),
            st.integers(0, n - 1).map(lambda i: float(centers[i])),
            st.integers(0, n).map(lambda i: float(edges[i])),
            st.just(math.nan),
        )
    )
    width = draw(
        st.one_of(
            st.floats(-0.1 * span, 1.2 * span),
            st.floats(0.0, 4.0 * span / n),
            st.integers(0, n - 1).map(lambda i: 2.0 * abs(float(centers[i]) - center)),
            st.sampled_from([0.0, -0.0, math.nan, math.inf]),
        )
    )
    return tac, center, width


@st.composite
def tac_clicks(draw):
    """A TAC and clicks for it: a start at 0 whose stop lands on a channel
    edge or on a float either side of one, so its difference is exactly
    that, then up to 40 starts and stops at least twice the range later."""
    tac, edges, _ = drawn_tac(draw)
    edge = float(edges[draw(st.integers(1, tac.n_channels))])
    below, above = (math.nextafter(edge, s) for s in (-math.inf, math.inf))
    target = draw(st.sampled_from([edge, below, above]))
    later = st.lists(st.floats(2.0, 10.0), max_size=40)
    t_a = [0.0, *sorted(x * tac.range for x in draw(later))]
    t_b = [target, *sorted(x * tac.range for x in draw(later))]
    return tac, np.array(t_a), np.array(t_b)


def ideal_histogram(times_a, times_b, rng):
    """Detected photons through ideal detectors and the TAC: the chain of
    ``acquire_histogram`` after the photons are drawn."""
    t_a = detect_clicks(times_a, IDEAL, rng)
    t_b = detect_clicks(times_b, IDEAL, rng)
    return histogram_from_clicks(t_a, t_b, TAC)


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
        hist, _ = acquire_histogram(profile, g, rates, IDEAL, IDEAL, TAC, 0.05, rng)
        for expected in (
            TAC.electrical_delay - DT_SPLIT,
            TAC.electrical_delay,
            TAC.electrical_delay + DT_SPLIT,
        ):
            window = np.abs(CENTERS - expected) < 0.3e-9
            assert hist[window].sum() > 100
            centroid = np.average(CENTERS[window], weights=hist[window])
            assert abs(centroid - expected) < 5e-12

    def test_central_peak_absent_at_zero_phase(
        self, profile, geometry, k_pump, rng
    ):
        # low rate so TAC pileup cannot fake a central count
        rates = SourceRates(pair_rate=5e3, singles_background=0.0)
        g = phase_geometry(geometry, k_pump, 0.0)
        hist, _ = acquire_histogram(profile, g, rates, IDEAL, IDEAL, TAC, 0.5, rng)
        n_central = gate_count(hist, TAC, TAC.electrical_delay, 1e-9)
        left = gate_count(hist, TAC, TAC.electrical_delay - DT_SPLIT, 1e-9)
        right = gate_count(hist, TAC, TAC.electrical_delay + DT_SPLIT, 1e-9)
        assert n_central == 0
        assert abs(left - right) < 3 * math.sqrt(left + right)

    def test_empty_stream(self, rng):
        hist = ideal_histogram(np.array([]), np.array([]), rng)
        assert hist.sum() == 0

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
        hist = ideal_histogram(events.a, events.b, rng)
        n_truth = int(events.pairs_per_class[0])
        assert gate_count(hist, TAC, TAC.electrical_delay, 1e-9) == n_truth

    def test_bin_centers_read_only(self):
        tac = TacConfig(electrical_delay=10e-9, range=20e-9, n_channels=8)
        centers = tac.bin_centers
        assert tac.bin_centers is centers
        edges = np.linspace(0.0, 20e-9, 9)
        assert np.array_equal(centers, 0.5 * (edges[:-1] + edges[1:]))
        with pytest.raises(ValueError):
            centers[0] = 1.0

    # no stops, every start after the last stop, starts after a converting
    # one that find no later stop, no starts, and neither: each trailing start
    # pairs with a stop at infinity and times out, and the ends never decrease
    @pytest.mark.parametrize(
        "starts, stops, n",
        [
            ([0.0, 3.0, 9.0], [], 0),
            ([20.0, 21.0, 40.0], [0.0, 1.0, 2.0], 0),
            ([0.0, 3.0, 20.0, 21.0], [2.0], 1),
            ([], [1.0, 2.0], 0),
            ([], [], 0),
        ],
        ids=["no_stops", "starts_after_stops", "trailing_starts", "no_starts", "empty"],
    )
    def test_size_edge_cases_match_loop(self, starts, stops, n):
        tac = TacConfig(electrical_delay=0.0, range=5 * UNIT, n_channels=4096)
        starts = np.array(starts, dtype=float) * UNIT
        stops = np.array(stops, dtype=float) * UNIT
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "_accept_free", _accept_free_checked)
            got = tac_differences(starts, stops, tac)
        want = tac_differences_oracle(starts, stops, tac)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.size == n

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["electrical_delay", "range", "n_channels"])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            replace(TAC, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("range", 0.0, "TAC range must be positive"),
            ("range", -20e-9, "TAC range must be positive"),
            ("n_channels", 1, "TAC needs at least 2 channels"),
            ("electrical_delay", -1e-9, "electrical delay must be nonnegative"),
        ],
        ids=["zero_range", "negative_range", "one_channel", "negative_delay"],
    )
    def test_out_of_domain_config_rejected(self, field, value, message):
        with pytest.raises(DomainError, match=message):
            replace(TAC, **{field: value})

    @pytest.mark.parametrize(
        "starts, stops",
        [([2e-9, 1e-9], [-5e-9]), ([1e-9], [-5e-9, -7e-9])],
        ids=["starts", "stops"],
    )
    def test_unsorted_input_rejected(self, starts, stops):
        with pytest.raises(DomainError, match="sorted"):
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

    @given(
        events=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 20)), max_size=200
        )
    )
    @settings(max_examples=300, deadline=None)
    # (gap to the previous start, busy period): two runs of three busy events
    # separated by one free event at 9; the second run starts over from 9's
    # end, 12, so 11 is rejected though it lies past the first run's last end
    @example(events=[(0, 3), (2, 3), (2, 3), (2, 3), (3, 3), (1, 3), (1, 3), (2, 3)])
    # 3 is accepted inside the run that 2 opens, and its busy period blocks 5
    @example(events=[(0, 3), (2, 3), (1, 3), (2, 3), (1, 3)])
    def test_accept_free_matches_brute_force(self, events):
        gaps = [gap for gap, _ in events]
        busy = [length for _, length in events]
        starts = np.cumsum(gaps, dtype=float)
        ends = np.maximum.accumulate(starts + np.array(busy, dtype=float))
        want = accept_free_oracle(starts, ends)
        assert np.array_equal(_accept_free(starts, ends), want)

    @given(clicks=dead_time_runs())
    @settings(max_examples=200, deadline=None)
    # two runs of three busy clicks separated by one free click at 9
    @example(clicks=([0.0, 2.0, 4.0, 6.0, 9.0, 10.0, 11.0, 13.0], 3.0))
    # 3 is kept inside the run that 2 opens, and its dead time blocks 5
    @example(clicks=([0.0, 2.0, 3.0, 5.0, 6.0], 3.0))
    def test_dead_time_long_busy_runs(self, clicks):
        ticks, dead = clicks
        model = replace(IDEAL, dead_time=dead * UNIT)
        times = np.array(ticks) * UNIT
        assert longest_busy_run(times, times + dead * UNIT) >= 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "_accept_free", _accept_free_checked)
            got = detect_clicks(times, model, np.random.default_rng(0))
        assert np.array_equal(got, non_paralysable_oracle(times, dead * UNIT))

    @given(stream=tac_runs())
    @settings(max_examples=200, deadline=None)
    # the start at 0 times out at 5 and 3 is dropped; 6 arms the TAC inside
    # that run, converts on the stop at 10 and so blocks 9.  The free start
    # at 12 converts on the stop at 17 and blocks the run 13, 14, 16 after it
    @example(
        stream=([0.0, 3.0, 6.0, 9.0, 12.0, 13.0, 14.0, 16.0], [10.0, 17.0], 0, 5)
    )
    def test_tac_long_busy_runs(self, stream):
        starts, stops, delay, range_ticks = stream
        tac = TacConfig(
            electrical_delay=delay * UNIT, range=range_ticks * UNIT, n_channels=4096
        )
        starts = np.array(starts) * UNIT
        stops = np.array(stops) * UNIT
        runs = []

        def recorded(*args):
            runs.append(longest_busy_run(*args))
            return _accept_free_checked(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "_accept_free", recorded)
            got = tac_differences(starts, stops, tac)
        assert runs[0] >= 3
        assert np.array_equal(got, tac_differences_oracle(starts, stops, tac))

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
        return acquire_histogram(profile, g, rates, IDEAL, IDEAL, TAC, 0.02, rng)[0]

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
            time[pair & (detector == 0)], time[pair & (detector == 1)], rng
        )
        assert hist.sum() > 0
        assert gate_count(hist, TAC, TAC.electrical_delay, 5e-9) == hist.sum()

    def test_one_ns_window_central_only(self, profile, geometry, k_pump, rates, rng):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        narrow = gate_count(hist, TAC, TAC.electrical_delay, 1e-9)
        central_truth = gate_count(hist, TAC, TAC.electrical_delay, 0.5e-9)
        assert narrow < gate_count(hist, TAC, TAC.electrical_delay, 5e-9)
        assert narrow >= central_truth

    def test_full_range_equals_total(self, profile, geometry, k_pump, rates, rng):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        assert gate_count(hist, TAC, TAC.range / 2, TAC.range) == hist.sum()

    def test_monotone_in_width(self, profile, geometry, k_pump, rates, rng):
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        widths = np.linspace(0.2e-9, 19e-9, 25)
        counts = [gate_count(hist, TAC, TAC.electrical_delay, w) for w in widths]
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
            gate_count(hist, TAC, center, width)

    def test_window_holding_no_channel_rejected(
        self, profile, geometry, k_pump, rates, rng
    ):
        # channels are 20 ns / 4096 = 4.9 ps wide, and 10 ns is an edge: a
        # 1 ps window there holds no channel centre, one on a centre holds it
        hist = self.make_hist(profile, geometry, k_pump, rates, rng)
        with pytest.raises(DomainError, match="no MCA channel"):
            gate_count(hist, TAC, TAC.electrical_delay, 1e-12)
        centre = CENTERS[TAC.n_channels // 2]
        assert gate_count(hist, TAC, centre, 1e-12) == hist[TAC.n_channels // 2]


class TestChannelRange:
    """A window is one range of channels, and the histogram bins on the
    even-bin rule: each against the explicit-edge reference it replaced."""

    @given(case=tac_windows())
    @settings(max_examples=500, deadline=None)
    # 10 ns is a channel edge, so a 1 ps window there holds no centre
    @example(case=(TAC, TAC.electrical_delay, 1e-12))
    @example(case=(TAC, float(CENTERS[2048]), 1e-12))
    # 8 channels of 1: both bounds on a centre, the whole range, just past it
    @example(case=(TacConfig(0.0, 8.0, 8), 4.0, 3.0))
    @example(case=(TacConfig(0.0, 8.0, 8), 4.0, 8.0))
    @example(case=(TacConfig(0.0, 8.0, 8), 4.0, math.nextafter(8.0, 9.0)))
    def test_window_channels_match_mask(self, case):
        tac, center, width = case
        try:
            mask = window_mask_oracle(tac, center, width)
        except DomainError as refusal:
            with pytest.raises(DomainError) as exc:
                window_channels(tac, center, width)
            assert str(exc.value) == str(refusal)
            return
        channels = window_channels(tac, center, width)
        assert isinstance(channels, slice)
        index = np.arange(tac.n_channels)
        assert np.array_equal(index[channels], np.flatnonzero(mask))
        counts = np.stack([index, 2 * index])
        assert np.array_equal(
            gate_count(counts, tac, center, width), counts[:, mask].sum(axis=1)
        )

    @given(case=tac_clicks())
    @settings(max_examples=300, deadline=None)
    # after the 10 ns delay: a difference on the middle edge, and on the last
    @example(case=(TAC, np.array([0.0]), np.array([0.0])))
    @example(case=(TAC, np.array([0.0]), np.array([TAC.electrical_delay])))
    def test_histogram_matches_edge_array(self, case):
        tac, t_a, t_b = case
        counts = histogram_from_clicks(t_a, t_b, tac)
        diffs = tac_differences(t_a, t_b, tac)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, histogram_oracle(diffs, tac))


class TestAccidentalFloor:
    def test_background_only_rate(self, profile, geometry, rng):
        rates = SourceRates(pair_rate=0.0, singles_background=2e4)
        duration = 2.0
        hist, _ = acquire_histogram(
            profile, geometry, rates, IDEAL, IDEAL, TAC, duration, rng
        )
        width = 5e-9
        got = gate_count(hist, TAC, TAC.electrical_delay, width)
        expected = 2e4 * 2e4 * width * duration
        assert abs(got - expected) < 4 * math.sqrt(expected)
