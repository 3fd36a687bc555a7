import math

import numpy as np
import pytest
from scipy import stats

from biphoton import (
    EventStream,
    InterferometerGeometry,
    SourceRates,
    SpectralProfile,
    classical_monte_carlo,
    classical_rate,
    generate_events,
    quantum_rate_narrow,
    quantum_rate_wide,
)
from biphoton import engines
from biphoton.engines import (
    TRUTH_BACKGROUND,
    TRUTH_BUNDLE,
    classical_bracket,
    expected_class_probabilities,
    generate_events_chunked,
    residual_integral,
    sample_pair_outcomes,
    side_class_rate,
)
from biphoton.errors import ConfigError, DomainError
from biphoton.spectral import sample_signal
from conftest import phase_geometry
from oracle import class_probabilities_pair_oracle

LCOH = 100e-6


class TestQuantumRates:
    def test_wide_extrema_beyond_coherence(self, profile, geometry, k_pump, rates):
        g = phase_geometry(geometry, k_pump, math.pi)
        assert quantum_rate_wide(profile, g, rates) == pytest.approx(
            0.75 * rates.rc0, rel=1e-6
        )
        g = phase_geometry(geometry, k_pump, 0.0)
        assert quantum_rate_wide(profile, g, rates) == pytest.approx(
            0.25 * rates.rc0, rel=1e-6
        )

    def test_wide_white_light_null(self, profile, k_pump, rates):
        # delta_L -> 0: side-class residual cancels the whole rate
        geom = InterferometerGeometry(path_short=0.5, path_long_base=0.5 + 1e-12)
        assert quantum_rate_wide(profile, geom, rates) == pytest.approx(
            0.0, abs=1e-6 * rates.rc0
        )

    def test_narrow_extrema(self, profile, geometry, k_pump, rates):
        g = phase_geometry(geometry, k_pump, math.pi)
        assert quantum_rate_narrow(profile, g, rates) == pytest.approx(
            0.5 * rates.rc0, rel=1e-9
        )
        g = phase_geometry(geometry, k_pump, 0.0)
        assert quantum_rate_narrow(profile, g, rates) == pytest.approx(
            0.0, abs=1e-9 * rates.rc0
        )

    def test_narrow_visibility_equals_mode_overlap(self, profile, k_pump, rates):
        geom = InterferometerGeometry(
            path_short=0.5, path_long_base=1.05, mode_overlap=0.8
        )
        lo = quantum_rate_narrow(profile, phase_geometry(geom, k_pump, 0.0), rates)
        hi = quantum_rate_narrow(profile, phase_geometry(geom, k_pump, math.pi), rates)
        assert (hi - lo) / (hi + lo) == pytest.approx(0.8, rel=1e-9)

    def test_wide_visibility_half_mode_overlap(self, profile, k_pump, rates):
        geom = InterferometerGeometry(
            path_short=0.5, path_long_base=1.05, mode_overlap=0.6
        )
        lo = quantum_rate_wide(profile, phase_geometry(geom, k_pump, 0.0), rates)
        hi = quantum_rate_wide(profile, phase_geometry(geom, k_pump, math.pi), rates)
        assert (hi - lo) / (hi + lo) == pytest.approx(0.3, rel=1e-6)

    def test_wide_decomposes_into_narrow_plus_sides(
        self, profile, geometry, k_pump, rates
    ):
        for phase in np.linspace(0.0, 2 * math.pi, 9):
            g = phase_geometry(geometry, k_pump, phase)
            wide = quantum_rate_wide(profile, g, rates)
            narrow = quantum_rate_narrow(profile, g, rates)
            sides = side_class_rate(profile, g, rates)
            assert wide == pytest.approx(narrow + sides, rel=1e-9)

    def test_nonnegative_over_parameters(self, profile, k_pump, rates):
        for t in (0.1, 0.5, 0.9):
            for mu in (0.0, 0.5, 1.0):
                geom = InterferometerGeometry(
                    path_short=0.5,
                    path_long_base=1.05,
                    splitter_transmittance=t,
                    mode_overlap=mu,
                )
                for phase in np.linspace(0.0, 2 * math.pi, 5):
                    g = phase_geometry(geom, k_pump, phase)
                    assert quantum_rate_narrow(profile, g, rates) >= 0.0
                    assert quantum_rate_wide(profile, g, rates) >= 0.0
                    assert classical_rate(profile, g, rates) >= 0.0


class TestNormalizationCheck:
    # a delta_k no other test uses, so no earlier call has cached its check
    def test_runs_once_per_profile(self, k_pump, geometry, rates, monkeypatch):
        calls = []
        original = engines.normalization_check

        def counting(profile):
            calls.append(profile)
            return original(profile)

        monkeypatch.setattr(engines, "normalization_check", counting)
        for _ in range(3):
            # equal but distinct instances share one cache entry
            profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / 123e-6)
            quantum_rate_wide(profile, geometry, rates)
        assert len(calls) == 1

    def test_unnormalized_pdf_still_raises(self, k_pump, geometry, rates, monkeypatch):
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / 321e-6)
        pdf = SpectralProfile.pdf
        monkeypatch.setattr(SpectralProfile, "pdf", lambda self, k: 1.5 * pdf(self, k))
        # a failed check is not cached: every call raises
        for rate in (quantum_rate_narrow, side_class_rate, quantum_rate_wide):
            with pytest.raises(DomainError, match="not normalized"):
                rate(profile, geometry, rates)


class TestResidualIntegral:
    def test_unity_at_zero_imbalance(self, profile):
        assert residual_integral(profile, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_vanishes_beyond_coherence(self, profile):
        assert abs(residual_integral(profile, 10 * LCOH)) < 1e-6

    def test_gaussian_closed_form(self, profile):
        # independent oracle: mean of cos(2 x dL), x ~ N(0, (dk/2)^2)
        for dl in (0.2 * LCOH, LCOH, 3 * LCOH):
            expected = math.exp(-0.5 * (profile.delta_k * dl) ** 2)
            assert residual_integral(profile, dl) == pytest.approx(expected, abs=1e-9)


class TestClassicalModel:
    def test_bracket_extrema(self, profile, geometry, k_pump):
        assert classical_bracket(
            profile, phase_geometry(geometry, k_pump, math.pi)
        ) == pytest.approx(1.5, rel=1e-9)
        assert classical_bracket(
            profile, phase_geometry(geometry, k_pump, 0.0)
        ) == pytest.approx(0.5, rel=1e-9)

    def test_visibility_is_half(self, profile, geometry, k_pump):
        lo = classical_bracket(profile, phase_geometry(geometry, k_pump, 0.0))
        hi = classical_bracket(profile, phase_geometry(geometry, k_pump, math.pi))
        assert (hi - lo) / (hi + lo) == pytest.approx(0.5, abs=1e-12)

    def test_monte_carlo_matches_closed_form(self, profile, geometry, k_pump, rng):
        g = phase_geometry(geometry, k_pump, 1.1)
        mean, stderr = classical_monte_carlo(profile, g, 10**6, rng)
        assert abs(mean - classical_bracket(profile, g)) < 4 * stderr

    def test_sample_count_validated(self, profile, geometry, rng):
        with pytest.raises(DomainError):
            classical_monte_carlo(profile, geometry, 0, rng)


class TestSourceRates:
    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            SourceRates(pair_rate=-1.0)

    def test_scale_over_unity_rejected(self):
        with pytest.raises(ConfigError):
            SourceRates(pair_rate=1e4, rc0=2e4).pair_scale


class TestEventGeneration:
    def test_zero_duration_empty(self, profile, geometry, rates, rng):
        stream = generate_events(profile, geometry, rates, 0.0, rng)
        assert len(stream) == 0

    def test_stream_sorted_and_labeled(self, profile, geometry, rates, rng):
        stream = generate_events(profile, geometry, rates, 0.01, rng)
        assert np.all(np.diff(stream.time) >= 0)
        assert set(np.unique(stream.detector)) <= {0, 1}

    def test_no_central_class_at_zero_phase(self, profile, geometry, k_pump, rates, rng):
        g = phase_geometry(geometry, k_pump, 0.0)
        stream = generate_events(profile, g, rates, 0.05, rng)
        assert np.sum(stream.truth == 0) == 0
        assert np.sum((stream.truth == 1) | (stream.truth == 2)) > 0

    def test_class_balance_phase_averaged(self, profile, geometry, k_pump, rates, rng):
        n_central = n_side = 0
        for phase in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            g = phase_geometry(geometry, k_pump, phase)
            outcomes = sample_pair_outcomes(profile, g, rates, 20000, rng)
            n_central += int(np.sum(outcomes == 0))
            n_side += int(np.sum((outcomes == 1) | (outcomes == 2)))
        sigma = math.sqrt(n_central + n_side)
        assert abs(n_central - n_side) < 3 * sigma

    def test_class_frequencies_match_analytic(
        self, profile, geometry, k_pump, rates, rng
    ):
        g = phase_geometry(geometry, k_pump, 2.0)
        n = 10**6
        outcomes = sample_pair_outcomes(profile, g, rates, n, rng)
        counts = np.array([np.sum(outcomes == i) for i in range(4)])
        probs = expected_class_probabilities(profile, g, rates)
        expected = n * np.array(
            [probs["central"], probs["side_sl"], probs["side_ls"], probs["none"]]
        )
        _, p = stats.chisquare(counts, expected)
        assert p > 0.001

    def test_singles_flat_in_expectation(self, profile, geometry, k_pump, rates, rng):
        # one click per detector per pair on average, at every fringe phase
        for phase in (0.0, math.pi / 2, math.pi):
            g = phase_geometry(geometry, k_pump, phase)
            stream = generate_events(profile, g, rates, 0.05, rng)
            signal = stream.truth != TRUTH_BACKGROUND
            n_a = int(np.sum((stream.detector == 0) & signal))
            expected = rates.pair_rate * 0.05
            assert abs(n_a - expected) < 5 * math.sqrt(expected)

    def test_outcomes_match_oracle_on_same_stream(self, profile, k_pump):
        # the codes the eight-term oracle's probabilities give on the same
        # RNG stream: signal wavenumbers first, then one uniform per pair
        geom = InterferometerGeometry(
            path_short=0.5,
            path_long_base=1.05,
            splitter_transmittance=0.4,
            mode_overlap=0.8,
        )
        geom = phase_geometry(geom, k_pump, 2.0)
        rates = SourceRates(pair_rate=1.0e5, rc0=6.0e4)
        n = 2000
        codes = sample_pair_outcomes(
            profile, geom, rates, n, np.random.default_rng(77)
        )

        rng = np.random.default_rng(77)
        k1 = sample_signal(profile, rng, n)
        u = rng.random(n)
        expected = []
        for k, x in zip(k1, u):
            p_c, p_sl, p_ls = class_probabilities_pair_oracle(
                k, profile.k_pump - k, geom
            )
            edges = np.cumsum(np.array([p_c, p_sl, p_ls]) * rates.pair_scale)
            expected.append(int(np.searchsorted(edges, x, side="right")))
        assert codes.tolist() == expected
        assert set(expected) == {0, 1, 2, 3}

    def test_background_only(self, geometry, profile, rng):
        rates = SourceRates(pair_rate=0.0, rc0=0.0, singles_background=5e4)
        stream = generate_events(profile, geometry, rates, 0.1, rng)
        assert np.all(stream.truth == TRUTH_BACKGROUND)
        n_a = np.sum(stream.detector == 0)
        assert abs(n_a - 5e3) < 5 * math.sqrt(5e3)

    def test_chunked_deterministic(self, profile, geometry, rates):
        a = generate_events_chunked(profile, geometry, rates, 0.02, seed=5, n_chunks=4)
        b = generate_events_chunked(profile, geometry, rates, 0.02, seed=5, n_chunks=4)
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.detector, b.detector)
        assert np.array_equal(a.truth, b.truth)

    def test_csv_round_trip(self, profile, geometry, rates, rng, tmp_path):
        stream = generate_events(profile, geometry, rates, 0.002, rng)
        path = tmp_path / "events.csv"
        stream.to_csv(path)
        back = EventStream.from_csv(path, duration=stream.duration)
        assert np.array_equal(back.time, stream.time)
        assert np.array_equal(back.detector, stream.detector)
        assert np.array_equal(back.truth, stream.truth)
