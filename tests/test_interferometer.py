import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    InterferometerGeometry,
    WavenumberPair,
    coincidence_classes,
    delta_L,
    detector_amplitudes,
)
from biphoton.errors import DomainError
from biphoton.interferometer import (
    _fmod_2pi,
    class_probabilities_pair,
    fringe_phase,
    offset_for_phase,
)
from biphoton.spectral import TWO_PI
from conftest import phase_geometry
from oracle import class_probabilities_pair_oracle, coincidence_terms, state_norm

K_427NM = 14714719.688945167


class TestDeltaL:
    def test_bench_arrangement(self, geometry):
        assert delta_L(geometry) == pytest.approx(0.55, rel=1e-12)

    def test_fine_offset_additivity(self, geometry):
        g = geometry.with_offset(100e-9)
        assert delta_L(g) - delta_L(geometry) == pytest.approx(1e-7, rel=1e-9)

    def test_degenerate_zero_rejected(self):
        with pytest.raises(DomainError):
            InterferometerGeometry(path_short=0.5, path_long_base=0.5)

    def test_offset_phase_precision(self, geometry, k_pump):
        # a 1 nm offset must move the pump fringe phase by exactly k_p * 1 nm
        g = geometry.with_offset(1e-9)
        dphi = float(fringe_phase(k_pump, g)) - float(fringe_phase(k_pump, geometry))
        assert dphi == pytest.approx(k_pump * 1e-9, rel=1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPhaseReduction:
    def test_fmod_2pi_bitwise_on_arrays(self):
        rng = np.random.default_rng(5)
        n = 10**5
        phases = (K_427NM / 2 + rng.uniform(-3e4, 3e4, n)) * 0.55
        # exact multiples and their neighbours, where the rounded quotient
        # can cross an integer
        multiples = rng.integers(0, 3 * 10**6, n) * TWO_PI
        near = [multiples]
        for direction in (np.inf, -np.inf):
            x = multiples
            for _ in range(3):
                x = np.nextafter(x, direction)
                near.append(x)
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 25, n)
        special = np.array([0.0, -0.0, TWO_PI, -TWO_PI, 5e-324])
        x = np.concatenate([phases, *near, wide, special])
        assert _same_bits(_fmod_2pi(x), np.fmod(x, TWO_PI))

    def test_blocked_reduction_matches_unblocked(self, geometry):
        # 50000 phases take the blocked path, each 10000-phase row does not
        rng = np.random.default_rng(9)
        k = K_427NM / 2 + rng.uniform(-3e4, 3e4, (5, 10000))
        blocked = fringe_phase(k, geometry)
        assert blocked.shape == k.shape
        rows = np.array([fringe_phase(row, geometry) for row in k])
        assert _same_bits(blocked, rows)

    @given(x=st.floats(-1e30, 1e30))
    @settings(max_examples=300, deadline=None)
    def test_fmod_2pi_bitwise_on_scalars(self, x):
        x = np.float64(x)
        assert _same_bits(_fmod_2pi(x), np.fmod(x, TWO_PI))


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
            path_short=0.5, path_long_base=1.05, splitter_transmittance=t
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


class TestCoincidenceTerms:
    def test_eight_terms_magnitude_quarter(self, profile, geometry, rng):
        from biphoton import sample_pair

        pair = sample_pair(profile, rng)
        terms = coincidence_terms(pair, geometry)
        assert len(terms) == 8
        for term in terms:
            assert abs(term.amplitude) == pytest.approx(0.25, rel=1e-12)


class TestCoincidenceClasses:
    def test_central_null_at_zero_phase(self, profile, geometry, k_pump, rng):
        from biphoton import sample_pair

        g = phase_geometry(geometry, k_pump, 0.0)
        pair = sample_pair(profile, rng)
        classes = coincidence_classes(pair, g)
        assert classes.p_central == pytest.approx(0.0, abs=1e-12)
        assert classes.p_short_long > 0 or classes.p_long_short > 0

    def test_time_signatures(self, profile, geometry, rng):
        from biphoton import sample_pair
        from scipy.constants import c

        classes = coincidence_classes(sample_pair(profile, rng), geometry)
        dt = delta_L(geometry) / c
        assert classes.dt_central == 0.0
        assert classes.dt_short_long == pytest.approx(+dt, rel=1e-12)
        assert classes.dt_long_short == pytest.approx(-dt, rel=1e-12)

    def test_mu_zero_is_phase_independent(self, profile, k_pump, rng):
        from biphoton import sample_pair

        geom = InterferometerGeometry(
            path_short=0.5, path_long_base=1.05, mode_overlap=0.0
        )
        pair = sample_pair(profile, rng)
        values = []
        for phase in np.linspace(0, 2 * math.pi, 7):
            g = phase_geometry(geom, k_pump, phase)
            values.append(coincidence_classes(pair, g).p_central)
        assert np.ptp(values) < 1e-12
        # incoherent sum of the two same-path groups: 2 * (1/16 + 1/16)
        assert values[0] == pytest.approx(0.25, rel=1e-9)

    def test_exchange_symmetry(self, profile, geometry, rng):
        from biphoton import sample_pair

        pair = sample_pair(profile, rng)
        swapped = WavenumberPair(k1=pair.k2, k2=pair.k1)
        a = coincidence_classes(pair, geometry)
        b = coincidence_classes(swapped, geometry)
        assert a.p_central == pytest.approx(b.p_central, rel=1e-12, abs=1e-15)
        assert a.p_short_long == pytest.approx(b.p_short_long, rel=1e-12, abs=1e-15)
        assert a.p_long_short == pytest.approx(b.p_long_short, rel=1e-12, abs=1e-15)

    def test_side_classes_flat_over_pair_average(self, profile, geometry, k_pump, rng):
        # after averaging over sampled pairs the side-class probability is
        # insensitive to a wavelength-scale scan of the long arm
        n = 10**5
        from biphoton.spectral import sample_signal

        k1 = sample_signal(profile, rng, n)
        k2 = profile.k_pump - k1
        means = []
        for phase in (0.0, math.pi / 2, math.pi):
            g = phase_geometry(geometry, k_pump, phase)
            _, p_sl, _ = class_probabilities_pair(k1, k2, g)
            means.append(p_sl.mean())
        stderr = 0.125 / math.sqrt(n)
        assert np.ptp(means) < 5 * stderr

    def test_norm_reproduces_wide_window_bracket(self, profile, geometry, k_pump, rng):
        from biphoton import sample_pair

        for phase in np.linspace(0.0, 2 * math.pi, 9):
            g = phase_geometry(geometry, k_pump, phase)
            dl = delta_L(g)
            pair = sample_pair(profile, rng)
            bracket = (
                1.0
                - 0.5 * math.cos(float(fringe_phase(k_pump, g)))
                - 0.5 * math.cos((k_pump - 2.0 * pair.k1) * dl)
            )
            assert 2.0 * state_norm(pair, g) == pytest.approx(bracket, abs=1e-12)

    def test_class_ratio_phase_averaged(self, profile, geometry, k_pump, rng):
        # central : (side_sl + side_ls) averages to 1 : 1 over one period once
        # the side residual has washed out (delta_L >> coherence length); the
        # spectral average over sampled pairs supplies the washing-out
        n = 200_000
        from biphoton.spectral import sample_signal

        k1 = sample_signal(profile, rng, n)
        k2 = profile.k_pump - k1
        phases = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
        central = []
        side = np.zeros(n)
        for phase in phases:
            g = phase_geometry(geometry, k_pump, phase)
            p_c, p_sl, p_ls = class_probabilities_pair(k1, k2, g)
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
        geom, k1, k2 = _pair_setup(t, mu, phase, dk)
        p_c, p_sl, p_ls = class_probabilities_pair(k1, k2, geom)
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
        geom, k1, k2 = _pair_setup(t, mu, phase, dk)
        kernel = class_probabilities_pair(k1, k2, geom)
        oracle = class_probabilities_pair_oracle(k1, k2, geom)
        for p, q in zip(kernel, oracle):
            assert abs(float(p) - q) <= 1e-12
            assert p >= 0.0
        assert sum(kernel) <= 1.0 + 1e-12


def _pair_setup(t, mu, phase, dk):
    """Geometry at pump fringe phase ``phase`` and a pair dk * 1e4 off degeneracy."""
    geom = InterferometerGeometry(
        path_short=0.5,
        path_long_base=1.05,
        splitter_transmittance=t,
        mode_overlap=mu,
    )
    geom = geom.with_offset(offset_for_phase(K_427NM, geom, phase))
    k1 = K_427NM / 2 + dk * 1e4
    return geom, k1, K_427NM - k1
