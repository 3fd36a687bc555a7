import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import constants

from biphoton.errors import DomainError
from biphoton.interferometer import (
    SPEED_OF_LIGHT,
    InterferometerGeometry,
    class_probabilities_pair,
    delta_L,
    fringe_phase,
    offset_for_phase,
)
from biphoton.spectral import TWO_PI, SpectralProfile, SpectralShape, sample_signal
from conftest import assert_refused, phase_geometry
from oracle import (
    class_probabilities_pair_oracle,
    coincidence_terms,
    detector_amplitudes,
    fringe_phase_oracle,
    state_norm,
)

K_427NM = 14714719.688945167
PROFILE_427NM = SpectralProfile(k_pump=K_427NM, delta_k=1e4)


def test_speed_of_light_is_codata():
    # exact by the SI definition of the metre; scipy's CODATA value is the oracle
    assert SPEED_OF_LIGHT == constants.c


class TestDeltaL:
    def test_bench_arrangement(self, geometry):
        assert delta_L(geometry) == pytest.approx(0.55, rel=1e-12)

    def test_fine_offset_additivity(self, geometry):
        g = geometry.with_offset(100e-9)
        assert delta_L(g) - delta_L(geometry) == pytest.approx(1e-7, rel=1e-9)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("path_long_base_m", 0.5),
            ("splitter_transmittance", 0.0),
            ("splitter_transmittance", 1.0),
            ("mode_overlap", -0.1),
            ("mode_overlap", 1.1),
        ],
        ids=["equal_arms", "t_zero", "t_one", "mu_negative", "mu_above_one"],
    )
    def test_out_of_domain_rejected(self, key, value):
        # path_short_m is 0.5 by default, so the first case gives equal arms
        assert_refused("geometry", key, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("geometry", "path_short_m"),
            ("geometry", "path_long_base_m"),
            # the long-arm offsets are the scan's, span_periods pump wavelengths
            ("scan", "span_periods"),
        ],
    )
    def test_non_finite_rejected(self, section, key, value):
        assert_refused(section, key, value)

    def test_offset_phase_precision(self, geometry, k_pump):
        # a 1 nm offset must move the pump fringe phase by exactly k_p * 1 nm
        g = geometry.with_offset(1e-9)
        dphi = fringe_phase(k_pump, g) - fringe_phase(k_pump, geometry)
        assert dphi == pytest.approx(k_pump * 1e-9, rel=1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPhaseReduction:
    @given(
        k=st.floats(1e6, 3e7) | st.floats(-3e7, -1e6) | st.just(0.0),
        short=st.floats(0.05, 2.5),
        long=st.floats(0.05, 2.5),
        offset=st.floats(-1e-6, 1e-6),
    )
    @example(k=-K_427NM, short=0.5, long=1.05, offset=0.0)
    @settings(max_examples=400, deadline=None)
    def test_scalar_reduction_matches_oracle(self, k, short, long, offset):
        # the exact rational reduction against Dekker's product and np.fmod,
        # bit for bit, sign of k included
        assume(long + offset > short)
        g = InterferometerGeometry(
            path_short_m=short, path_long_base_m=long, path_long_offset_m=offset
        )
        assert _same_bits(fringe_phase(k, g), fringe_phase_oracle(k, g))

    def test_near_multiples_of_two_pi(self, geometry):
        # where k * delta_L lies within an ulp of a multiple of 2*pi, the
        # oracle's rounded product can land on the far side of it and its
        # remainder falls a period off; the exact one stays in [0, 2*pi]
        dl = geometry.path_long_base_m - geometry.path_short_m
        for turns in (1, 1000, 2_000_000):
            k = turns * TWO_PI / dl
            for _ in range(4):
                phase = fringe_phase(k, geometry)
                assert 0.0 <= phase <= TWO_PI
                oracle = fringe_phase_oracle(k, geometry)
                assert abs(math.remainder(phase - oracle, TWO_PI)) <= 1e-15
                k = math.nextafter(k, math.inf)


class TestDetectorAmplitudes:
    def test_balanced_magnitudes_and_sign(self, geometry):
        amps = detector_amplitudes(7.3e6, geometry)
        for a in amps.as_tuple():
            assert abs(a) == pytest.approx(0.5, rel=1e-12)
        # the long-arm amplitude at port B carries the minus sign
        ratio = amps.b_long / amps.a_long
        assert ratio.real == pytest.approx(-1.0, rel=1e-12)

    @given(
        t=st.floats(0.01, 0.99),
        k=st.floats(1e6, 2e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_unitarity(self, t, k):
        geom = InterferometerGeometry(
            path_short_m=0.5, path_long_base_m=1.05, splitter_transmittance=t
        )
        total = sum(abs(a) ** 2 for a in detector_amplitudes(k, geom).as_tuple())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_integer_fringe_phase_aligns_arms(self, geometry, k_pump):
        # with k * delta_L at a multiple of 2*pi the two arms agree in phase
        g = phase_geometry(geometry, k_pump, 0.0)
        amps = detector_amplitudes(k_pump, g)
        ratio = amps.a_long / amps.a_short
        assert ratio.real == pytest.approx(1.0, abs=1e-9)
        assert ratio.imag == pytest.approx(0.0, abs=1e-9)

    def test_nonpositive_k_rejected(self, geometry):
        with pytest.raises(DomainError):
            detector_amplitudes(0.0, geometry)


def _draw_signal(profile, rng):
    """One signal deviation delta from the spectrum and the wavenumber
    k1 = k_center + delta it stands for; the idler is k_pump - k1."""
    delta = float(sample_signal(profile, rng, 1)[0])
    return delta, profile.k_center + delta


class TestCoincidenceTerms:
    def test_eight_terms_magnitude_quarter(self, profile, geometry, rng):
        _, k1 = _draw_signal(profile, rng)
        terms = coincidence_terms(k1, profile.k_pump - k1, geometry)
        assert len(terms) == 8
        for term in terms:
            assert abs(term.amplitude) == pytest.approx(0.25, rel=1e-12)


class TestCoincidenceClasses:
    def test_central_null_at_zero_phase(self, profile, geometry, k_pump, rng):
        g = phase_geometry(geometry, k_pump, 0.0)
        delta, _ = _draw_signal(profile, rng)
        p_c, p_sl, p_ls = class_probabilities_pair(delta, profile, g)
        assert p_c == pytest.approx(0.0, abs=1e-12)
        assert p_sl > 0 or p_ls > 0

    def test_mu_zero_is_phase_independent(self, profile, k_pump, rng):
        geom = InterferometerGeometry(
            path_short_m=0.5, path_long_base_m=1.05, mode_overlap=0.0
        )
        delta, _ = _draw_signal(profile, rng)
        values = []
        for phase in np.linspace(0, 2 * math.pi, 7):
            g = phase_geometry(geom, k_pump, phase)
            values.append(float(class_probabilities_pair(delta, profile, g)[0]))
        assert np.ptp(values) < 1e-12
        # incoherent sum of the two same-path groups: 2 * (1/16 + 1/16)
        assert values[0] == pytest.approx(0.25, rel=1e-9)

    def test_exchange_symmetry(self, profile, geometry, rng):
        delta, _ = _draw_signal(profile, rng)
        # the idler's deviation: k_pump - k1 - k_center
        swapped = profile.k_pump - 2.0 * profile.k_center - delta
        a = class_probabilities_pair(delta, profile, geometry)
        b = class_probabilities_pair(swapped, profile, geometry)
        for p, q in zip(a, b):
            assert float(p) == pytest.approx(float(q), rel=1e-12, abs=1e-15)

    def test_side_classes_flat_over_pair_average(self, profile, geometry, k_pump, rng):
        # after averaging over sampled pairs the side-class probability is
        # insensitive to a wavelength-scale scan of the long arm
        n = 10**5
        delta = sample_signal(profile, rng, n)
        means = []
        for phase in (0.0, math.pi / 2, math.pi):
            g = phase_geometry(geometry, k_pump, phase)
            _, p_sl, _ = class_probabilities_pair(delta, profile, g)
            means.append(p_sl.mean())
        stderr = 0.125 / math.sqrt(n)
        assert np.ptp(means) < 5 * stderr

    def test_norm_reproduces_wide_window_bracket(self, profile, geometry, k_pump, rng):
        for phase in np.linspace(0.0, 2 * math.pi, 9):
            g = phase_geometry(geometry, k_pump, phase)
            dl = delta_L(g)
            _, k1 = _draw_signal(profile, rng)
            bracket = (
                1.0
                - 0.5 * math.cos(fringe_phase(k_pump, g))
                - 0.5 * math.cos((k_pump - 2.0 * k1) * dl)
            )
            norm = state_norm(k1, k_pump - k1, g)
            assert 2.0 * norm == pytest.approx(bracket, abs=1e-12)

    def test_class_ratio_phase_averaged(self, profile, geometry, k_pump, rng):
        # central : (side_sl + side_ls) averages to 1 : 1 over one period once
        # the side residual has washed out (delta_L >> coherence length); the
        # spectral average over sampled pairs supplies the washing-out
        n = 200_000
        delta = sample_signal(profile, rng, n)
        phases = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
        central = []
        side = np.zeros(n)
        for phase in phases:
            g = phase_geometry(geometry, k_pump, phase)
            p_c, p_sl, p_ls = class_probabilities_pair(delta, profile, g)
            central.append(float(np.mean(p_c)))
            side += p_sl + p_ls
        side /= phases.size
        stderr = float(np.std(side) / math.sqrt(n))
        assert np.mean(central) == pytest.approx(
            float(np.mean(side)), abs=max(5 * stderr, 1e-9)
        )

    @given(
        t=st.floats(0.05, 0.95),
        mu=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2 * math.pi),
        dk=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_probabilities_nonnegative(self, t, mu, phase, dk):
        geom = _geometry_at(t, mu, phase)
        p_c, p_sl, p_ls = class_probabilities_pair(dk * 1e4, PROFILE_427NM, geom)
        assert p_c >= 0.0
        assert p_sl >= 0.0
        assert p_ls >= 0.0
        assert p_c + p_sl + p_ls <= 1.0 + 1e-12

    @given(
        t=st.floats(0.05, 0.95),
        mu=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2 * math.pi, exclude_max=True),
        dk=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_eight_term_oracle(self, t, mu, phase, dk):
        # the closed form against the amplitude sum it replaces
        geom = _geometry_at(t, mu, phase)
        k1 = K_427NM / 2 + dk * 1e4
        k2 = K_427NM - k1
        # the pair the oracle sees sums to the kernel's pump exactly, and
        # its k1 is k_center + delta exactly (Sterbenz)
        delta = k1 - PROFILE_427NM.k_center
        assert k1 + k2 == K_427NM
        assert PROFILE_427NM.k_center + delta == k1
        kernel = class_probabilities_pair(delta, PROFILE_427NM, geom)
        oracle = class_probabilities_pair_oracle(k1, k2, geom)
        for p, q in zip(kernel, oracle):
            assert abs(float(p) - q) <= 1e-12
            assert p >= 0.0
        assert sum(kernel) <= 1.0 + 1e-12

    def test_central_class_independent_of_k1(self, profile, geometry, k_pump, rng):
        # p_central rests on the pump phase alone: one value, bit for bit, for
        # every pair of a batch, and the oracle's value at each sampled k1
        g = phase_geometry(geometry, k_pump, 1.3)
        delta = sample_signal(profile, rng, 20)
        p_c, _, _ = class_probabilities_pair(delta, profile, g)
        assert p_c.shape == delta.shape
        assert _same_bits(p_c, np.full(delta.shape, p_c[0]))
        for k in profile.k_center + delta:
            assert k + (k_pump - k) == k_pump
            oracle = class_probabilities_pair_oracle(k, k_pump - k, g)
            assert abs(float(p_c[0]) - oracle[0]) <= 1e-12

    @pytest.mark.parametrize(
        "profile",
        [
            SpectralProfile(k_pump=K_427NM, delta_k=1e4),
            SpectralProfile(
                k_pump=K_427NM, delta_k=1e4, shape=SpectralShape.RECTANGULAR
            ),
        ],
        ids=["gaussian", "rectangular"],
    )
    @given(
        t=st.floats(0.05, 0.95),
        mu=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2 * math.pi, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_sampled_pairs_match_oracle(self, profile, t, mu, phase, seed):
        geom = _geometry_at(t, mu, phase)
        # the wavenumbers the drawn deviations round to, and their exact
        # deviations (Sterbenz), so kernel and oracle see the same pairs
        k1 = profile.k_center + sample_signal(profile, np.random.default_rng(seed), 8)
        kernel = class_probabilities_pair(k1 - profile.k_center, profile, geom)
        for i, k in enumerate(k1):
            assert k + (K_427NM - k) == K_427NM
            oracle = class_probabilities_pair_oracle(k, K_427NM - k, geom)
            for p, q in zip(kernel, oracle):
                assert abs(float(p[i]) - q) <= 1e-12


def _geometry_at(t, mu, phase):
    """Geometry with transmittance t, mode overlap mu and pump phase ``phase``."""
    geom = InterferometerGeometry(
        path_short_m=0.5,
        path_long_base_m=1.05,
        splitter_transmittance=t,
        mode_overlap=mu,
    )
    return geom.with_offset(offset_for_phase(K_427NM, geom, phase))
