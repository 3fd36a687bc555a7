import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from biphoton import engines
from biphoton.config import ExperimentConfig
from biphoton.detection import (
    detect_clicks,
    gate_count,
    histogram_from_clicks,
    tac_differences,
)
from biphoton.engines import (
    EventStream,
    SourceRates,
    _sin_in_place,
    classical_monte_carlo,
    classical_rate,
    expected_class_probabilities,
    generate_events,
    normalization_check,
    pair_monte_carlo,
    quantum_rate_narrow,
    residual_integral,
    sample_pair_outcomes,
)
from biphoton.errors import DomainError
from biphoton.interferometer import (
    InterferometerGeometry,
    class_probabilities_pair,
    transit_times,
)
from biphoton.spectral import (
    SpectralProfile,
    SpectralShape,
    sample_signal,
    wavelength_to_wavenumber,
)
from conftest import (
    CONFIGS,
    PUMP_WAVELENGTH,
    assert_refused,
    named_config,
    phase_geometry,
    wide_rate,
)
from oracle import (
    TRUTH_BACKGROUND,
    class_probabilities_pair_oracle,
    classical_monte_carlo_oracle,
    detect_oracle,
    expected_class_probabilities_oracle,
    fringe_phase_oracle,
    generate_events_nine_cells,
    generate_events_oracle,
    pair_monte_carlo_oracle,
    quadrature_mean,
)

LCOH = 100e-6
#: pair counts of pair_monte_carlo around its block: a partial block alone,
#: exactly one, one block and one pair more, and two blocks and a partial tail
BLOCK_SIZES = [engines._BLOCK - 1, engines._BLOCK, engines._BLOCK + 1, 50_001]
#: R/2 = 1, so classical_rate is the classical bracket itself
UNIT = SourceRates(pair_rate=2.0, singles_background=0.0)


class TestQuantumRates:
    def test_wide_extrema_beyond_coherence(self, profile, geometry, k_pump, rates):
        g = phase_geometry(geometry, k_pump, math.pi)
        assert wide_rate(profile, g, rates) == pytest.approx(
            0.75 * rates.pair_rate, rel=1e-6
        )
        g = phase_geometry(geometry, k_pump, 0.0)
        assert wide_rate(profile, g, rates) == pytest.approx(
            0.25 * rates.pair_rate, rel=1e-6
        )

    def test_wide_white_light_null(self, profile, k_pump, rates):
        # delta_L -> 0: side-class residual cancels the whole rate
        geom = InterferometerGeometry(path_short_m=0.5, path_long_base_m=0.5 + 1e-12)
        assert wide_rate(profile, geom, rates) == pytest.approx(
            0.0, abs=1e-6 * rates.pair_rate
        )

    def test_narrow_extrema(self, profile, geometry, k_pump, rates):
        g = phase_geometry(geometry, k_pump, math.pi)
        assert quantum_rate_narrow(profile, g, rates) == pytest.approx(
            0.5 * rates.pair_rate, rel=1e-9
        )
        g = phase_geometry(geometry, k_pump, 0.0)
        assert quantum_rate_narrow(profile, g, rates) == pytest.approx(
            0.0, abs=1e-9 * rates.pair_rate
        )

    def test_narrow_visibility_equals_mode_overlap(self, profile, k_pump, rates):
        geom = InterferometerGeometry(
            path_short_m=0.5, path_long_base_m=1.05, mode_overlap=0.8
        )
        lo = quantum_rate_narrow(profile, phase_geometry(geom, k_pump, 0.0), rates)
        hi = quantum_rate_narrow(profile, phase_geometry(geom, k_pump, math.pi), rates)
        assert (hi - lo) / (hi + lo) == pytest.approx(0.8, rel=1e-9)

    def test_wide_visibility_half_mode_overlap(self, profile, k_pump, rates):
        geom = InterferometerGeometry(
            path_short_m=0.5, path_long_base_m=1.05, mode_overlap=0.6
        )
        lo = wide_rate(profile, phase_geometry(geom, k_pump, 0.0), rates)
        hi = wide_rate(profile, phase_geometry(geom, k_pump, math.pi), rates)
        assert (hi - lo) / (hi + lo) == pytest.approx(0.3, rel=1e-6)

    def test_nonnegative_over_parameters(self, profile, k_pump, rates):
        for t in (0.1, 0.5, 0.9):
            for mu in (0.0, 0.5, 1.0):
                geom = InterferometerGeometry(
                    path_short_m=0.5,
                    path_long_base_m=1.05,
                    splitter_transmittance=t,
                    mode_overlap=mu,
                )
                for phase in np.linspace(0.0, 2 * math.pi, 5):
                    g = phase_geometry(geom, k_pump, phase)
                    assert quantum_rate_narrow(profile, g, rates) >= 0.0
                    assert wide_rate(profile, g, rates) >= 0.0
                    assert classical_rate(profile, g, rates) >= 0.0


class TestResidualIntegral:
    def test_unity_at_zero_imbalance(self, profile):
        assert residual_integral(profile, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_vanishes_beyond_coherence(self, profile):
        assert abs(residual_integral(profile, 10 * LCOH)) < 1e-6
        # far enough out that the exponent's square overflows a float
        assert residual_integral(profile, 1e300) == 0.0

    def test_gaussian_closed_form(self, profile):
        # independent oracle: mean of cos(2 x dL), x ~ N(0, (dk/2)^2)
        for dl in (0.2 * LCOH, LCOH, 3 * LCOH):
            expected = math.exp(-0.5 * (profile.delta_k * dl) ** 2)
            assert residual_integral(profile, dl) == pytest.approx(expected, abs=1e-9)


class TestNormalizationCheck:
    @pytest.mark.parametrize("shape", list(SpectralShape))
    def test_matches_scipy_simpson(self, k_pump, shape):
        # the oracle doubles the same grid with scipy's Simpson rule
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        expected = quadrature_mean(profile, np.ones_like)
        assert normalization_check(profile) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape", list(SpectralShape))
    def test_mis_normalized_rejected(self, k_pump, shape):
        class Doubled(SpectralProfile):
            def pdf(self, k):
                return 2.0 * super().pdf(k)

        profile = Doubled(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        with pytest.raises(DomainError, match="not normalized"):
            normalization_check(profile)


class TestClosedFormAverages:
    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(0.05, 0.95),
        mu=st.floats(0.0, 1.0),
        dl=st.floats(1e-7, 3e-4),
        shape=st.sampled_from(list(SpectralShape)),
    )
    def test_class_probabilities_match_quadrature(self, t, mu, dl, shape):
        # delta_L from far below the 100 um coherence length to 3 times it
        k_pump = wavelength_to_wavenumber(PUMP_WAVELENGTH)
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        geom = InterferometerGeometry(
            path_short_m=0.5,
            path_long_base_m=0.5 + dl,
            splitter_transmittance=t,
            mode_overlap=mu,
        )
        rates = SourceRates(pair_rate=1.0e5, singles_background=0.0)
        closed = expected_class_probabilities(profile, geom, rates)
        quad = expected_class_probabilities_oracle(profile, geom)
        for name in ("central", "side_sl", "side_ls", "none"):
            assert closed[name] == pytest.approx(quad[name], abs=1e-12)
        classes = [closed[name] for name in ("central", "side_sl", "side_ls")]
        assert min(classes) >= 0.0
        assert sum(classes) <= 1.0
        assert closed["none"] >= 0.0

    @pytest.mark.parametrize("shape", list(SpectralShape))
    def test_bracket_matches_quadrature(self, k_pump, shape):
        # below the coherence length the single-photon fringe means C1 and C2
        # are about 0.52, so the quadrature checks that they cancel
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        geom = InterferometerGeometry(
            path_short_m=0.5, path_long_base_m=0.5 + 0.4 * LCOH
        )

        def bracket(k):
            return (1.0 + np.cos(fringe_phase_oracle(k, geom))) * (
                1.0 - np.cos(fringe_phase_oracle(k_pump - k, geom))
            )

        assert classical_rate(profile, geom, UNIT) == pytest.approx(
            quadrature_mean(profile, bracket), abs=1e-12
        )


class TestClassicalModel:
    def test_bracket_extrema(self, profile, geometry, k_pump):
        assert classical_rate(
            profile, phase_geometry(geometry, k_pump, math.pi), UNIT
        ) == pytest.approx(1.5, rel=1e-9)
        assert classical_rate(
            profile, phase_geometry(geometry, k_pump, 0.0), UNIT
        ) == pytest.approx(0.5, rel=1e-9)

    def test_visibility_is_half(self, profile, geometry, k_pump):
        lo = classical_rate(profile, phase_geometry(geometry, k_pump, 0.0), UNIT)
        hi = classical_rate(profile, phase_geometry(geometry, k_pump, math.pi), UNIT)
        assert (hi - lo) / (hi + lo) == pytest.approx(0.5, abs=1e-12)

    def test_monte_carlo_matches_closed_form(self, profile, geometry, k_pump, rng):
        g = phase_geometry(geometry, k_pump, 1.1)
        delta = sample_signal(profile, rng, 10**6)
        mean, stderr = classical_monte_carlo(profile, g, delta)
        assert abs(mean - classical_rate(profile, g, UNIT)) < 4 * stderr

    @pytest.mark.parametrize("shape", list(SpectralShape))
    def test_monte_carlo_matches_literal_integrand(self, k_pump, geometry, shape):
        # (sin phi_c - sin x)^2 against (1 + cos phi_1)(1 - cos phi_2) on the
        # same deviations
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        delta = sample_signal(profile, np.random.default_rng(41), 50_001)
        for i in range(9):
            g = phase_geometry(geometry, k_pump, i * 2.0 * math.pi / 8.0)
            g = g.with_offset(g.path_long_offset_m + 3.0 * PUMP_WAVELENGTH)
            mean, stderr = classical_monte_carlo(profile, g, delta)
            mean_o, stderr_o = classical_monte_carlo_oracle(profile, g, delta)
            assert mean == pytest.approx(mean_o, rel=1e-9, abs=0)
            assert stderr == pytest.approx(stderr_o, rel=1e-9, abs=0)

    def test_sample_count_validated(self, profile, geometry):
        with pytest.raises(DomainError):
            classical_monte_carlo(profile, geometry, np.empty(0))


class TestPairMonteCarlo:
    @pytest.mark.parametrize("n", BLOCK_SIZES + [2, 1])
    @pytest.mark.parametrize("mu", [1.0, 0.7])
    @pytest.mark.parametrize("t", [0.5, 0.3, 0.7])
    @pytest.mark.parametrize("shape", list(SpectralShape))
    def test_matches_reference_engines(self, k_pump, geometry, shape, t, mu, n):
        # one sine per pair for both columns, against the classical engine
        # and the per-pair outcomes, row by row, at the nine phases of
        # compare in one call: every row reads the deviations drawn from a
        # copy of the RNG, and draws its own uniforms after the earlier
        # rows'; _BLOCK - 1, _BLOCK + 1 and 50 001 leave a partial last
        # block, _BLOCK fills exactly one
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        base = replace(geometry, splitter_transmittance=t, mode_overlap=mu)
        geoms = [phase_geometry(base, k_pump, i * 2.0 * math.pi / 8.0) for i in range(9)]
        rng = np.random.default_rng(100)
        rng_ref = copy.deepcopy(rng)
        rows = pair_monte_carlo(profile, geoms, n, rng)
        delta = sample_signal(profile, rng_ref, n)
        assert len(rows) == len(geoms)
        for g, (mean, stderr, coincidences) in zip(geoms, rows):
            assert (mean, stderr) == classical_monte_carlo(profile, g, delta)
            codes = sample_pair_outcomes(profile, g, delta, rng_ref)
            assert coincidences == np.count_nonzero(codes != 3)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_sample_count_validated(self, profile, geometry, rng):
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            pair_monte_carlo(profile, [geometry], 0, rng)
        assert rng.bit_generator.state == state

    def test_one_full_length_array(self, profile, geometry, rng):
        # the shared deviations and one row's sines, which every row reuses,
        # are the only arrays as long as the draws: the peak, measured at
        # 2.22 times 8 bytes per pair, stays within a quarter of one array
        # above 16 bytes per pair
        n = 200_000
        geoms = [geometry] * 9
        pair_monte_carlo(profile, geoms, n, rng)  # memoize the phases
        tracemalloc.start()
        try:
            pair_monte_carlo(profile, geoms, n, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 8 * n


class TestReducedSine:
    @pytest.mark.parametrize(
        "law, scale",
        [
            ("normal", 2750.0),
            ("uniform", 1e6),
            ("uniform", 1e12),
            ("uniform", math.pi),
            ("octave", 1.0),
            ("half_pi_band", 1e-3),
            ("uniform", 1e15),
            ("pi_multiples", 1e-6),
            ("negative_pi_multiples", 1e-6),
        ],
    )
    def test_matches_long_double_sine(self, law, scale):
        # N(0, 2750) is x = delta * delta_L in compare; past |k| = 2^27 the
        # product k * hi rounds, within half an ulp of x.  The polynomial is
        # weakest where sin r nears 1: on [-pi, pi], on [1, 2) and about
        # pi/2.  r^3 fl(1/6) in place of r^3 / 6, or -1/6 inside Q, exceeds
        # the bound at about 5 in 10^6 points of [1, 2), so 10^6 are drawn.
        # k pi +- 1e-6, k = +-1 ... +-10^4, checks the sign (-1)^k from k's
        # lowest bit, odd negative k in two's complement too; +-1e15 puts k
        # near 2^48, far past the 2^27 of k * hi, in the int64 cast
        rng = np.random.default_rng(23)
        n = 1_000_000
        if law == "normal":
            x = rng.normal(0.0, scale, n)
        elif law == "uniform":
            x = rng.uniform(-scale, scale, n)
        elif law == "octave":
            x = rng.uniform(scale, 2.0 * scale, n)
        elif law == "half_pi_band":
            x = 0.5 * math.pi + rng.uniform(-scale, scale, n)
        else:
            k = np.arange(1, 10_001)[:, None]
            if law == "negative_pi_multiples":
                k = -k
            offsets = rng.uniform(-scale, scale, (k.size, n // k.size))
            x = (k * math.pi + offsets).ravel()
        got = x.copy()
        _sin_in_place(got, np.empty_like(x), np.empty_like(x))
        error = np.abs(got - np.sin(x.astype(np.longdouble)))
        assert np.all(error <= np.maximum(2.3e-16, np.spacing(np.abs(x))))

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("mu", [1.0, 0.7])
    @pytest.mark.parametrize("t", [0.5, 0.3, 0.7])
    @pytest.mark.parametrize("shape", list(SpectralShape))
    def test_matches_unreduced_sine_kernel(self, k_pump, geometry, shape, t, mu, n):
        # the polynomial sine moves the classical columns by rounding alone
        # and leaves every coincidence count as np.sin's, row by row at the
        # nine phases of compare in one call, with imperfect splitters as well
        profile = SpectralProfile(k_pump=k_pump, delta_k=1.0 / LCOH, shape=shape)
        base = replace(geometry, splitter_transmittance=t, mode_overlap=mu)
        geoms = [phase_geometry(base, k_pump, i * 2.0 * math.pi / 8.0) for i in range(9)]
        rng = np.random.default_rng(100)
        ref_rng = copy.deepcopy(rng)
        rows = pair_monte_carlo(profile, geoms, n, rng)
        ref_rows = pair_monte_carlo_oracle(profile, geoms, n, ref_rng)
        assert len(rows) == len(ref_rows) == len(geoms)
        for (mean, stderr, coincidences), (ref_mean, ref_stderr, ref_coincidences) in zip(
            rows, ref_rows
        ):
            assert coincidences == ref_coincidences
            assert mean == pytest.approx(ref_mean, rel=1e-14, abs=0.0)
            assert stderr == pytest.approx(ref_stderr, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [1] + BLOCK_SIZES)
    def test_one_draw_per_pair(self, profile, geometry, rng, monkeypatch, n):
        # one draw of n deviations serves every row: the traced
        # spectral.sample_signal.draws of compare counts one row's pairs
        sizes = []

        def counted(profile, rng, size):
            sizes.append(size)
            return sample_signal(profile, rng, size)

        monkeypatch.setattr(engines, "sample_signal", counted)
        pair_monte_carlo(profile, [geometry] * 9, n, rng)
        assert sizes == [n]


class TestSourceRates:
    def test_negative_rejected(self):
        assert_refused("rates", "pair_rate", -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["pair_rate", "singles_background"])
    def test_non_finite_rejected(self, field, value):
        assert_refused("rates", field, value)


class TestEventGeneration:
    def test_zero_duration_empty(self, profile, geometry, rates, rng):
        stream = generate_events(profile, geometry, rates, 0.0, rng)
        assert len(stream) == 0

    # generate_events trusts its duration and efficiencies: the config keys
    # that set them are refused outside their domain
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "duration_s", -1e-3),
            ("detector", "efficiency", 1.5),
            ("detector", "efficiency", -0.1),
        ],
        ids=["negative_duration", "efficiency_above_one", "negative_efficiency"],
    )
    def test_out_of_domain_rejected(self, section, key, value):
        assert_refused(section, key, value)

    def test_stream_sorted_and_labeled(self, profile, geometry, rates, rng):
        stream = generate_events(profile, geometry, rates, 0.01, rng)
        assert stream.pairs_per_class.shape == (4,)
        # without background every pair puts two photons on the detectors
        assert rates.singles_background == 0
        assert len(stream) == 2 * stream.pairs_per_class.sum() > 0

    @pytest.mark.parametrize(
        "config, duration, pair_rate",
        [("experimental", 0.0, None), ("experimental", 0.05, 0.0)],
        ids=["zero_duration", "no_pairs"],
    )
    def test_matches_merged_oracle(self, config, duration, pair_rate):
        # with no pairs to draw, the two draw the same background clicks from
        # the same seed and consume the same draws
        cfg = ExperimentConfig.from_file(CONFIGS / f"{config}.json")
        profile, geometry, rates = cfg.profile(), cfg.geometry(), cfg.rates()
        if pair_rate is not None:
            rates = SourceRates(pair_rate, rates.singles_background)
        rng = np.random.default_rng(cfg.data["run"]["seed"])
        stream = generate_events(profile, geometry, rates, duration, rng)
        rng_oracle = np.random.default_rng(cfg.data["run"]["seed"])
        time, detector, truth = generate_events_oracle(
            profile, geometry, rates, duration, rng_oracle
        )
        # the oracle merges and sorts; the generator leaves ordering to detection
        assert np.array_equal(np.sort(stream.a), time[detector == 0])
        assert np.array_equal(np.sort(stream.b), time[detector == 1])
        assert stream.a.dtype == stream.b.dtype == np.float64
        photons = np.bincount(truth, minlength=5)[:4]
        assert np.array_equal(2 * stream.pairs_per_class, photons)
        assert rng.random() == rng_oracle.random()

    @pytest.mark.parametrize("config", ["default", "experimental"])
    def test_statistically_matches_oracle(self, config):
        # the per-class Poisson counts against the per-pair oracle, each run
        # through the same detectors and TAC, over independent seeds
        cfg = named_config(config)
        profile, geometry, rates = cfg.profile(), cfg.geometry(), cfg.rates()
        detector, tac = cfg.detector(), cfg.tac()
        n_runs, duration = 40, 0.02
        seeds = np.random.SeedSequence(cfg.data["run"]["seed"]).spawn(2 * n_runs)

        efficiency = (detector.efficiency, detector.efficiency)

        def oracle_stream(rng):
            time, det, truth = generate_events_oracle(
                profile, geometry, rates, duration, rng
            )
            pairs = np.bincount(truth, minlength=5)[:4] // 2
            clicks, lost = [], []
            for d, eta in enumerate(efficiency):
                # detect_oracle's draw, with its mask kept to count the
                # undetected pair photons
                mine = det == d
                kept = rng.random(np.count_nonzero(mine)) < eta
                clicks.append(time[mine][kept])
                lost.append(np.count_nonzero(~kept & (truth[mine] != TRUTH_BACKGROUND)))
            return EventStream(*clicks, pairs, np.array(lost))

        def generator(rng):
            return generate_events(profile, geometry, rates, duration, rng, efficiency)

        t_short, t_long = transit_times(geometry)
        results = []
        for make, runs in ((generator, seeds[:n_runs]), (oracle_stream, seeds[n_runs:])):
            pairs, diffs, gated, twins = np.zeros(4), [], [], np.zeros(2)
            lost = np.zeros(2)
            for seed in runs:
                rng = np.random.default_rng(seed)
                stream = make(rng)
                pairs += stream.pairs_per_class
                lost += stream.lost
                # both photons of a no-coincidence pair at one detector: same
                # arm (no gap) or different arms (a gap of delta_L / c)
                for clicks in (stream.a, stream.b):
                    gaps = np.diff(np.sort(clicks))
                    twins[0] += np.sum(gaps < 1e-15)
                    twins[1] += np.sum(np.abs(gaps - (t_long - t_short)) < 1e-15)
                t_a = detect_clicks(stream.a, detector, rng)
                t_b = detect_clicks(stream.b, detector, rng)
                diffs.append(tac_differences(t_a, t_b, tac))
                counts = histogram_from_clicks(t_a, t_b, tac)
                gated.append(
                    [
                        gate_count(counts, tac, tac.electrical_delay, w)
                        for w in (1e-9, 5e-9)
                    ]
                )
            results.append(
                (pairs, np.concatenate(diffs), np.array(gated), twins, lost)
            )
        generated, oracle = results
        pairs, diffs, gated, twins, lost = generated
        pairs_o, diffs_o, gated_o, twins_o, lost_o = oracle

        probs = expected_class_probabilities(profile, geometry, rates)
        expected = n_runs * rates.pair_rate * duration * np.array(
            [probs["central"], probs["side_sl"], probs["side_ls"], probs["none"]]
        )
        # independent Poisson counts: sum of squared Pearson residuals is chi2(4)
        for counts in (pairs, pairs_o):
            stat = float(np.sum((counts - expected) ** 2 / expected))
            assert stats.chi2.sf(stat, df=4) > 0.001
        assert stats.chi2_contingency([pairs, pairs_o]).pvalue > 0.001
        assert stats.chi2_contingency([twins, twins_o]).pvalue > 0.001
        assert stats.ks_2samp(diffs, diffs_o).pvalue > 0.001
        # a no-coincidence pair can lose both its photons at one detector,
        # so a lost count varies up to twice as much as a Poisson count
        assert np.all(np.abs(lost - lost_o) <= 5.0 * np.sqrt(2.0 * (lost + lost_o)))
        for col in range(gated.shape[1]):
            welch = stats.ttest_ind(gated[:, col], gated_o[:, col], equal_var=False)
            assert welch.pvalue > 0.001

    @pytest.mark.parametrize("config", ["default", "experimental"])
    def test_unit_efficiency_matches_nine_cells(self, config):
        # at eta = 1 the sub-cells beside "both detected" have mean 0 and draw
        # nothing: the same arrays, in the same order, from the same stream
        cfg = named_config(config)
        args = (cfg.profile(), cfg.geometry(), cfg.rates(), 0.05)
        rng = np.random.default_rng(cfg.data["run"]["seed"])
        stream = generate_events(*args, rng, (1.0, 1.0))
        rng_cells = np.random.default_rng(cfg.data["run"]["seed"])
        a, b, pairs = generate_events_nine_cells(*args, rng_cells)
        assert a.size > 0 and b.size > 0
        assert np.array_equal(stream.a, a)
        assert np.array_equal(stream.b, b)
        assert np.array_equal(stream.pairs_per_class, pairs)
        assert rng.random() == rng_cells.random()

    @pytest.mark.parametrize("efficiency", [(0.25, 0.25), (0.3, 0.7)])
    def test_detection_marking_matches_thinned_oracle(
        self, profile, geometry, k_pump, efficiency
    ):
        # detected coincidences per class and singles per detector: folded
        # into the generator's cells, against every oracle photon thinned
        rates = SourceRates(pair_rate=1e5, singles_background=2e4)
        g = phase_geometry(geometry, k_pump, 2.0)
        duration = 0.5
        t_short, t_long = transit_times(g)
        split = t_long - t_short

        def observed(a, b):
            # a pair's two photons sit exactly b - a = 0 or +-split apart;
            # photons of different pairs almost never come within 1e-13 s
            a = np.sort(a)
            per_class = [
                int(
                    np.sum(
                        np.searchsorted(a, b - offset + 1e-13, side="right")
                        - np.searchsorted(a, b - offset - 1e-13, side="left")
                    )
                )
                for offset in (0.0, split, -split)
            ]
            return np.array(per_class + [a.size, b.size])

        rng = np.random.default_rng(31)
        stream = generate_events(profile, g, rates, duration, rng, efficiency)
        got = observed(stream.a, stream.b)
        time, det, _ = generate_events_oracle(profile, g, rates, duration, rng)
        want = observed(
            *(detect_oracle(time[det == d], eta, rng) for d, eta in enumerate(efficiency))
        )

        probs = expected_class_probabilities(profile, g, rates)
        n_pairs = rates.pair_rate * duration
        eta_ab = efficiency[0] * efficiency[1]
        var = [
            n_pairs * probs[name] * eta_ab for name in ("central", "side_sl", "side_ls")
        ]
        for eta in efficiency:
            n_bg = eta * rates.singles_background * duration
            var.append(n_pairs * (eta + probs["none"] * eta**2) + n_bg)
        assert np.all(got[:3] > 100)
        assert np.all(np.abs(got - want) < 5 * np.sqrt(2 * np.array(var)))

    def test_lost_photons_balance_emitted(self, profile, geometry, k_pump):
        # every photon the pairs send a detector is detected or lost; what
        # they sent is read from the generator's first draw, its cell counts
        class Recorder:
            def __init__(self, rng):
                self.rng, self.poisson_draws = rng, []

            def poisson(self, lam):
                self.poisson_draws.append(self.rng.poisson(lam))
                return self.poisson_draws[-1]

            def random(self, size):
                return self.rng.random(size)

        rates = SourceRates(pair_rate=1e5, singles_background=0.0)
        g = phase_geometry(geometry, k_pump, 2.0)
        rng = Recorder(np.random.default_rng(17))
        stream = generate_events(profile, g, rates, 0.1, rng, (0.3, 0.7))
        cells = rng.poisson_draws[0].sum(axis=1)
        # a coincidence cell sends one photon to each detector; the other six
        # send both photons to A (the first three) or to B
        sent = cells[:3].sum() + 2 * np.array([cells[3:6].sum(), cells[6:].sum()])
        assert sent.sum() == 2 * stream.pairs_per_class.sum()
        assert np.all(stream.lost > 0)
        assert np.array_equal(stream.lost + [stream.a.size, stream.b.size], sent)

    def test_no_central_class_at_zero_phase(self, profile, geometry, k_pump, rates, rng):
        g = phase_geometry(geometry, k_pump, 0.0)
        stream = generate_events(profile, g, rates, 0.05, rng)
        assert stream.pairs_per_class[0] == 0
        assert stream.pairs_per_class[1] + stream.pairs_per_class[2] > 0

    def test_class_balance_phase_averaged(self, profile, geometry, k_pump, rng):
        n_central = n_side = 0
        for phase in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            g = phase_geometry(geometry, k_pump, phase)
            delta = sample_signal(profile, rng, 20000)
            outcomes = sample_pair_outcomes(profile, g, delta, rng)
            n_central += int(np.sum(outcomes == 0))
            n_side += int(np.sum((outcomes == 1) | (outcomes == 2)))
        sigma = math.sqrt(n_central + n_side)
        assert abs(n_central - n_side) < 3 * sigma

    def test_class_frequencies_match_analytic(
        self, profile, geometry, k_pump, rates, rng
    ):
        g = phase_geometry(geometry, k_pump, 2.0)
        n = 10**6
        delta = sample_signal(profile, rng, n)
        outcomes = sample_pair_outcomes(profile, g, delta, rng)
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
            assert rates.singles_background == 0  # every click at A is signal
            n_a = stream.a.size
            expected = rates.pair_rate * 0.05
            assert abs(n_a - expected) < 5 * math.sqrt(expected)

    def test_outcomes_match_oracle_on_same_stream(self, profile, k_pump):
        # the codes the eight-term oracle's probabilities give on the same
        # RNG stream: signal deviations first, then one uniform per pair
        geom = InterferometerGeometry(
            path_short_m=0.5,
            path_long_base_m=1.05,
            splitter_transmittance=0.4,
            mode_overlap=0.8,
        )
        geom = phase_geometry(geom, k_pump, 2.0)
        n = 2000
        rng = np.random.default_rng(77)
        delta = sample_signal(profile, rng, n)
        codes = sample_pair_outcomes(profile, geom, delta, rng)

        rng = np.random.default_rng(77)
        k1 = profile.k_center + sample_signal(profile, rng, n)
        u = rng.random(n)
        expected = []
        for k, x in zip(k1, u):
            p_c, p_sl, p_ls = class_probabilities_pair_oracle(
                k, profile.k_pump - k, geom
            )
            edges = np.cumsum(np.array([p_c, p_sl, p_ls]))
            expected.append(int(np.searchsorted(edges, x, side="right")))
        assert codes.tolist() == expected
        assert set(expected) == {0, 1, 2, 3}

    def test_outcomes_blocked_like_whole_array(self, profile, geometry, k_pump):
        # 20 001 pairs, against the cumulative thresholds of the kernel and
        # one draw of uniforms after the deviations
        g = phase_geometry(geometry, k_pump, 2.0)
        n = 20_001
        rng = np.random.default_rng(5)
        delta = sample_signal(profile, rng, n)
        codes = sample_pair_outcomes(profile, g, delta, rng)

        rng = np.random.default_rng(5)
        delta = sample_signal(profile, rng, n)
        u = rng.random(n)
        p_c, p_sl, p_ls = class_probabilities_pair(delta, profile, g)
        edges = np.cumsum(np.stack([p_c, p_sl, p_ls]), axis=0)
        assert codes.tolist() == (u >= edges).sum(axis=0).tolist()
        state = rng.bit_generator.state
        assert sample_pair_outcomes(profile, g, delta[:0], rng).size == 0
        assert rng.bit_generator.state == state  # no pair, no draw

    def test_background_only(self, geometry, profile, rng):
        rates = SourceRates(pair_rate=0.0, singles_background=5e4)
        stream = generate_events(profile, geometry, rates, 0.1, rng)
        assert stream.pairs_per_class.sum() == 0  # every click is background
        n_a = stream.a.size
        assert abs(n_a - 5e3) < 5 * math.sqrt(5e3)
