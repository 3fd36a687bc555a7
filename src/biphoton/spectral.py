"""Spectral model of the down-converted photon pairs.

The pair source emits degenerate signal/idler wavenumbers, k1 + k2 = k_pump,
centred on k_pump/2.  The signal spectrum |phi(k)|^2 is either Gaussian or
rectangular, parameterized by a 1/e half-width ``delta_k`` of the amplitude
phi(k).  The coherence length of the down-converted field is 1/delta_k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, require_finite

TWO_PI = 2.0 * math.pi


class SpectralShape(Enum):
    GAUSSIAN = "gaussian"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class SpectralProfile:
    """Signal-photon spectrum of a degenerate pair, centred on k_pump/2.

    ``delta_k`` is the 1/e half-width of the amplitude phi(k); for the
    Gaussian shape this makes |phi|^2 a normal density with sigma = delta_k/2.
    The rectangular shape has support [k_center - delta_k, k_center + delta_k].
    The idler's spectrum is the same.  Normalization of |phi|^2 is analytic.
    """

    k_pump: float
    delta_k: float
    shape: SpectralShape = SpectralShape.GAUSSIAN

    def __post_init__(self) -> None:
        require_finite(k_pump=self.k_pump, delta_k=self.delta_k)
        if self.k_pump <= 0:
            raise DomainError(f"k_pump must be positive, got {self.k_pump}")
        if self.delta_k <= 0:
            raise DomainError(f"delta_k must be positive, got {self.delta_k}")

    @property
    def k_center(self) -> float:
        """Centre k_pump/2 of the signal spectrum."""
        return self.k_pump / 2.0

    @property
    def sigma(self) -> float:
        """Standard deviation of the |phi|^2 density (Gaussian shape)."""
        return self.delta_k / 2.0

    def pdf(self, k):
        """|phi(k)|^2, normalized to unit integral over k."""
        k = np.asarray(k, dtype=float)
        if self.shape is SpectralShape.GAUSSIAN:
            s = self.sigma
            z = (k - self.k_center) / s
            return np.exp(-0.5 * z * z) / (s * math.sqrt(TWO_PI))
        half = self.delta_k
        inside = np.abs(k - self.k_center) <= half
        return np.where(inside, 1.0 / (2.0 * half), 0.0)

    def support(self) -> tuple[float, float]:
        """Integration bounds that capture the density to well below 1e-12."""
        half = (6.0 if self.shape is SpectralShape.GAUSSIAN else 1.0) * self.delta_k
        return (self.k_center - half, self.k_center + half)


def coherence_length(profile: SpectralProfile) -> float:
    """Coherence length 1/delta_k of the down-converted field (m)."""
    return 1.0 / profile.delta_k


def wavelength_to_wavenumber(wavelength: float) -> float:
    """Angular wavenumber k = 2*pi/lambda (rad/m)."""
    if wavelength <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    return TWO_PI / wavelength


def sample_signal(
    profile: SpectralProfile, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` signal deviations delta = k1 - k_center from the
    untruncated |phi|^2.

    This is the law the closed-form spectral averages integrate over.  A
    spectrum reaching 0 or k_pump is refused when the configuration is
    validated, so no draw needs rejecting here.
    """
    if profile.shape is SpectralShape.GAUSSIAN:
        return rng.normal(0.0, profile.sigma, size)
    return rng.uniform(-profile.delta_k, profile.delta_k, size)
