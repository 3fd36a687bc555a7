import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import simpson

from conftest import assert_refused
from oracle import coherence_length

from biphoton.spectral import (
    SpectralProfile,
    SpectralShape,
    sample_signal,
    wavelength_to_wavenumber,
)

# independently computed: delta_k = 2*pi*delta_lambda/lambda^2 for
# delta_lambda = 1 nm at 854 nm, and the matching coherence length
DELTA_K_1NM_854 = 8615.175461911691
LCOH_1NM_854 = 1.1607424647600874e-4
K_427NM = 14714719.688945167
K_854NM = 7357359.844472583
# the config key each SpectralProfile wavenumber is derived from
SOURCE_KEYS = {"k_pump": "pump_wavelength_m", "delta_k": "coherence_length_m"}


class TestCoherenceLength:
    def test_reciprocal_identity(self):
        prof = SpectralProfile(k_pump=1.0e7, delta_k=1.0)
        assert coherence_length(prof) == 1.0

    def test_reciprocal_half(self):
        prof = SpectralProfile(k_pump=1.0e7, delta_k=2.0)
        assert coherence_length(prof) == 0.5

    def test_nanometre_bandwidth_golden(self):
        prof = SpectralProfile(k_pump=2 * K_854NM, delta_k=DELTA_K_1NM_854)
        assert coherence_length(prof) == pytest.approx(LCOH_1NM_854, rel=1e-12)

    def test_product_with_delta_k(self):
        for dk in (0.3, 17.0, 8.6e3, 1e7):
            prof = SpectralProfile(k_pump=1.0e8, delta_k=dk)
            assert coherence_length(prof) * prof.delta_k == pytest.approx(
                1.0, rel=1e-12
            )

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["k_pump", "delta_k"])
    def test_nonpositive_rejected(self, field, value):
        assert_refused("source", SOURCE_KEYS[field], value)


class TestWavenumberConversion:
    def test_pump_427nm(self):
        assert wavelength_to_wavenumber(427e-9) == pytest.approx(K_427NM, rel=1e-12)

    def test_signal_854nm(self):
        assert wavelength_to_wavenumber(854e-9) == pytest.approx(K_854NM, rel=1e-12)

    def test_nonpositive_rejected(self):
        assert_refused("source", "pump_wavelength_m", 0.0)
        assert_refused("source", "pump_wavelength_m", -2.0)


class TestProfile:
    def test_center_defaults_to_half_pump(self):
        prof = SpectralProfile(k_pump=K_427NM, delta_k=1e4)
        assert prof.k_center == K_427NM / 2

    def test_pdf_normalized(self):
        for shape in SpectralShape:
            prof = SpectralProfile(k_pump=K_427NM, delta_k=1e4, shape=shape)
            lo, hi = prof.support()
            k = np.linspace(lo, hi, 20001)
            total = simpson(prof.pdf(k), x=k)
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["k_pump", "delta_k"])
    def test_non_finite_rejected(self, field, value):
        assert_refused("source", SOURCE_KEYS[field], value)


class TestSampling:
    def test_rectangular_degenerate_width(self, rng):
        prof = SpectralProfile(
            k_pump=K_427NM, delta_k=1e-30, shape=SpectralShape.RECTANGULAR
        )
        for _ in range(100):
            delta = sample_signal(prof, rng, 1)[0]
            # the deviation stays within the width, and the wavenumber it
            # stands for is k_center itself
            assert abs(delta) <= prof.delta_k
            assert prof.k_center + delta == prof.k_center

    def test_gaussian_sample_mean(self, profile, rng):
        n = 10**6
        delta = sample_signal(profile, rng, n)
        stderr = profile.sigma / math.sqrt(n)
        assert abs(delta.mean()) < 5 * stderr

    def test_histogram_matches_pdf(self, profile, rng):
        # deviations follow |phi|^2 shifted to k_center
        n = 10**5
        delta = sample_signal(profile, rng, n)
        lo, hi = -4 * profile.delta_k, 4 * profile.delta_k
        counts, edges = np.histogram(delta, bins=50, range=(lo, hi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        expected = profile.pdf(profile.k_center + centers) * (edges[1] - edges[0]) * n
        scale = counts.sum() / expected.sum()
        _, p = stats.chisquare(counts, expected * scale)
        assert p > 0.001
