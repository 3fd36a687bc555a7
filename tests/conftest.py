from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc

import biphoton
from biphoton.config import ExperimentConfig
from biphoton.engines import SourceRates
from biphoton.interferometer import InterferometerGeometry
from biphoton.spectral import SpectralProfile, wavelength_to_wavenumber

PUMP_WAVELENGTH = 427e-9
COHERENCE_LENGTH = 100e-6
#: the configs shipped with the package, read by path as the CLI reads them
CONFIGS = Path(biphoton.__file__).parent / "configs"


def named_config(name: str) -> ExperimentConfig:
    """The defaults for ``"default"``, otherwise the shipped config ``name``."""
    if name == "default":
        return ExperimentConfig.from_dict({})
    return ExperimentConfig.from_file(CONFIGS / f"{name}.json")


@pytest.fixture
def k_pump():
    return wavelength_to_wavenumber(PUMP_WAVELENGTH)


@pytest.fixture
def profile(k_pump):
    return SpectralProfile(k_pump=k_pump, delta_k=1.0 / COHERENCE_LENGTH)


@pytest.fixture
def geometry():
    # delta_L = 0.55 m, the bench arrangement scale
    return InterferometerGeometry(path_short=0.5, path_long_base=1.05)


@pytest.fixture
def rates():
    return SourceRates(pair_rate=1.0e5, singles_background=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240854)


def flatness_pvalue(counts) -> float:
    """Chi-square p-value for 'these Poisson counts share one mean'."""
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean()
    if mean <= 0:
        return 1.0
    chi2 = float(np.sum((counts - mean) ** 2 / mean))
    return float(chdtrc(counts.size - 1, chi2))


def wide_rate(profile, geometry, rates):
    """Wide-window coincidence rate, all three classes, as ``compare``
    tabulates it: the central rate plus the side-class rate."""
    from biphoton.engines import quantum_rate_narrow, side_class_rate

    return quantum_rate_narrow(profile, geometry, rates) + side_class_rate(
        profile, geometry, rates
    )


def phase_geometry(geometry, k_pump, phase):
    """Geometry whose pump fringe phase is ``phase`` (mod 2*pi)."""
    from biphoton.interferometer import offset_for_phase

    return geometry.with_offset(offset_for_phase(k_pump, geometry, phase))
