"""Coincidence-rate engines.

Three mutually checkable routes to the same observables:

* analytic quantum rates as closed-form averages over the signal spectrum
  (wide-window rate, narrow-window/central rate, and the side-class
  remainder),
* the classical random-wavenumber model, closed form and Monte Carlo,
* Monte Carlo event generation producing each detector's photon arrival times.

The pairs are degenerate, k1 = k_pump/2 + delta, so every spectral average
here is the mean of cos(2 delta * delta_L) over the symmetric |phi|^2: its
characteristic function at t = 2 delta_L, exp(-sigma^2 t^2 / 2) for the
Gaussian shape and sinc(delta_k t) for the rectangular one.

Event generation needs no wavenumber per pair.  Pairs are emitted as a
Poisson process of rate R, and a pair's signal wavenumber serves only to
pick its outcome, so each pair is independently marked with outcome j with
probability P_j, the spectral mean of its class probability.  By the marking
(colouring) theorem of Poisson processes (Kingman, *Poisson Processes*,
1993; Lewis & Shedler, Nav. Res. Logist. Q. 26, 403, 1979) the pairs of each
outcome then form independent Poisson processes of rates R * P_j.  An
acquisition of length T is drawn as one Poisson count per outcome, mean
R * T * P_j, and that many uniform emission times.  The no-coincidence
outcome splits further by port and arms, each split again a marking.
Per-pair sampling, :func:`sample_pair_outcomes`, stays as the independent
check of these rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_finite
from .interferometer import (
    InterferometerGeometry,
    class_probabilities,
    class_probabilities_pair,
    delta_L,
    fringe_phase,
    transit_times,
)
from .spectral import SpectralProfile, SpectralShape, sample_signal


@dataclass(frozen=True)
class SourceRates:
    """Source and calibration rates.

    ``rc0`` is the overall coincidence normalization; the per-pair coincidence
    probability is scaled by rc0/pair_rate, so rc0 <= pair_rate is required
    for probabilities to stay below one, unless no pair is drawn at all.
    """

    pair_rate: float = 1.0e5
    rc0: float = 1.0e5
    singles_background: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            pair_rate=self.pair_rate,
            rc0=self.rc0,
            singles_background=self.singles_background,
        )
        if self.pair_rate < 0 or self.rc0 < 0 or self.singles_background < 0:
            raise DomainError("rates must be nonnegative")
        if self.pair_rate and self.rc0 > self.pair_rate:
            raise DomainError(
                f"rc0 ({self.rc0}) must not exceed pair_rate ({self.pair_rate}); "
                "per-pair probabilities would exceed 1"
            )

    @property
    def pair_scale(self) -> float:
        """Per-pair probability scale eta = rc0 / pair_rate."""
        return self.rc0 / self.pair_rate if self.pair_rate else 0.0


def normalization_check(profile: SpectralProfile, tol: float = 1e-9) -> float:
    """Integral of |phi|^2 by Simpson's rule; raises if it strays from 1.

    The grid starts at 2000 intervals over the profile's support and doubles
    until two successive refinements agree to ``tol``.  No engine calls it:
    the closed forms never read ``pdf``, whose normalization is analytic.
    """
    from scipy.integrate import simpson

    lo, hi = profile.support()
    n = 2000
    prev = None
    while n <= 2_048_000:
        k = np.linspace(lo, hi, n + 1)
        total = float(simpson(profile.pdf(k), x=k))
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            break
        prev = total
        n *= 2
    else:
        raise RuntimeError("quadrature failed to converge")
    if abs(total - 1.0) > tol:
        raise DomainError(f"spectral profile not normalized: integral = {total}")
    return total


def residual_integral(profile: SpectralProfile, dl: float) -> float:
    """Mean of cos((k_pump - 2 k1) * delta_L) = cos(2 delta * delta_L) over
    the signal spectrum: its characteristic function at t = 2 delta_L.

    This is the term that washes out once the path imbalance exceeds the
    coherence length; it equals 1 at delta_L = 0.
    """
    t = 2.0 * dl
    if profile.shape is SpectralShape.GAUSSIAN:
        x = profile.sigma * t
        return math.exp(-0.5 * x * x)  # x ** 2 raises OverflowError, x * x is inf
    x = profile.delta_k * t
    return math.sin(x) / x if x else 1.0


def _mean_class_probabilities(
    profile: SpectralProfile, geometry: InterferometerGeometry
) -> tuple[float, float, float]:
    """Per-pair (p_central, p_short_long, p_long_short) averaged over |phi|^2.

    The kernel is linear in cos((2 k1 - k_pump) * delta_L), so its mean is
    the kernel at :func:`residual_integral`; p_central does not depend on k1.
    """
    probs = class_probabilities(
        np.cos(fringe_phase(profile.k_pump, geometry)),
        residual_integral(profile, delta_L(geometry)),
        geometry,
    )
    return tuple(float(p) for p in probs)


def quantum_rate_narrow(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Central-class (narrow-window) coincidence rate, s^-1.

    The central-class probability depends only on the pump phase
    k_p * delta_L, not on k1, so the spectral integral collapses:
    rate = rc0 * p_central; for T = 0.5 this is (rc0/4)(1 - mu cos(k_p delta_L)).
    """
    p_c, _, _ = _mean_class_probabilities(profile, geometry)
    return rates.rc0 * p_c


def side_class_rate(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Summed rate of the two side classes, s^-1, averaged over k1."""
    _, p_sl, p_ls = _mean_class_probabilities(profile, geometry)
    return rates.rc0 * (p_sl + p_ls)


def quantum_rate_wide(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Wide-window coincidence rate (all three classes), s^-1.

    For T = 0.5, mu = 1 this reproduces
    (rc0/2) * mean[1 - cos(k_p dL)/2 - cos((k_p - 2 k1) dL)/2].
    """
    return quantum_rate_narrow(profile, geometry, rates) + side_class_rate(
        profile, geometry, rates
    )


def classical_bracket(
    profile: SpectralProfile, geometry: InterferometerGeometry
) -> float:
    """Closed-form classical coincidence factor, phase-averaged value 1.

    mean[(1 + cos k1 dL)(1 - cos k2 dL)] = 1 - cos(k_p dL)/2 - R/2,
    where R is :func:`residual_integral`.  The single-photon fringe means of
    cos k1 dL and cos k2 dL cancel, since the idler's spectrum is the signal's.
    """
    phase_p = fringe_phase(profile.k_pump, geometry)
    resid = residual_integral(profile, delta_L(geometry))
    return 1.0 - 0.5 * math.cos(phase_p) - 0.5 * resid


def classical_rate(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Classical-model coincidence rate, s^-1, normalized like the quantum wide rate."""
    return 0.5 * rates.rc0 * classical_bracket(profile, geometry)


def classical_monte_carlo(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the classical factor, over
    signal deviations delta: phi_1 = fringe_phase(k_center) + delta * delta_L."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    delta = sample_signal(profile, rng, n_samples)
    # k2 = k_pump - k1, so the idler's phase is the pump phase minus the signal's
    phase_1 = fringe_phase(profile.k_center, geometry) + delta_L(geometry) * delta
    phase_2 = fringe_phase(profile.k_pump, geometry) - phase_1
    vals = (1.0 + np.cos(phase_1)) * (1.0 - np.cos(phase_2))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def expected_class_probabilities(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> dict[str, float]:
    """Per-pair outcome probabilities, the class probabilities averaged over k1.

    The outcome rates of :func:`generate_events`; ``tests/oracle.py`` holds
    the quadrature they are checked against.
    """
    scale = rates.pair_scale
    p_c, p_sl, p_ls = (scale * p for p in _mean_class_probabilities(profile, geometry))
    return {
        "central": p_c,
        "side_sl": p_sl,
        "side_ls": p_ls,
        "none": 1.0 - (p_c + p_sl + p_ls),
    }


def sample_pair_outcomes(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    n_pairs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome codes per pair: 0 central, 1 side_sl, 2 side_ls, 3 no coincidence."""
    scale = rates.pair_scale
    delta = sample_signal(profile, rng, n_pairs)
    p_c, p_sl, p_ls = class_probabilities_pair(delta, profile, geometry)
    # cumulative class thresholds; p_central is one value for every pair
    central = scale * float(p_c[0]) if n_pairs else 0.0
    side_sl = central + scale * p_sl
    side_ls = side_sl + scale * p_ls
    u = rng.random(n_pairs)
    # the thresholds never decrease, so the code is the number u clears
    return (u >= central).astype(np.uint8) + (u >= side_sl) + (u >= side_ls)


@dataclass
class EventStream:
    """Photon arrival times at detectors A (``a``) and B (``b``), unsorted.

    :func:`biphoton.detection.detect_clicks` orders the clicks after its
    jitter, so nothing sorts the photon times before it.

    ``pairs_per_class`` counts the emitted pairs by outcome code of
    :func:`sample_pair_outcomes`: central, side_sl, side_ls, no coincidence.
    """

    a: np.ndarray
    b: np.ndarray
    duration: float
    pairs_per_class: np.ndarray

    def __len__(self) -> int:
        return self.a.size + self.b.size


def generate_events(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    duration: float,
    rng: np.random.Generator,
) -> EventStream:
    """Simulate one acquisition: the photon arrival times at each detector.

    Pairs are emitted as a Poisson process of rate R = ``pair_rate``.  Each
    pair lands in one of the three coincidence classes, with the spectral
    mean P_j of its class probability, or else in the no-coincidence
    remainder, which sends both photons to one port so that singles rates
    stay flat across the fringe.  The port is a fair coin and each photon
    takes either arm with even odds: both short, both long, or one of each,
    with odds 1/4, 1/4 and 1/2.  By the marking theorem each of these nine
    cells is an independent Poisson process, of rate R times the cell's
    probability, so the acquisition draws one Poisson count per cell and
    that many uniform emission times; the photons arrive after the transit
    times of their arms.  Independent Poisson background clicks are added
    on each detector.  Each detector's times come grouped by cell, unsorted.
    """
    if duration < 0:
        raise DomainError(f"duration must be nonnegative, got {duration}")
    t_short, t_long = transit_times(geometry)
    probs = expected_class_probabilities(profile, geometry, rates)
    p_none = max(probs["none"], 0.0)
    # (probability, photon delays at A, photon delays at B)
    cells = (
        (probs["central"], (t_short,), (t_short,)),
        (probs["side_sl"], (t_short,), (t_long,)),
        (probs["side_ls"], (t_long,), (t_short,)),
        (p_none / 8.0, (t_short, t_short), ()),
        (p_none / 8.0, (t_long, t_long), ()),
        (p_none / 4.0, (t_short, t_long), ()),
        (p_none / 8.0, (), (t_short, t_short)),
        (p_none / 8.0, (), (t_long, t_long)),
        (p_none / 4.0, (), (t_short, t_long)),
    )
    mean = rates.pair_rate * duration * np.array([cell[0] for cell in cells])
    counts = rng.poisson(mean)
    emit = np.split(rng.random(int(counts.sum())) * duration, np.cumsum(counts)[:-1])

    a, b = [], []
    for times, (_, at_a, at_b) in zip(emit, cells):
        a.extend(times + delay for delay in at_a)
        b.extend(times + delay for delay in at_b)
    for clicks in (a, b):
        n_bg = int(rng.poisson(rates.singles_background * duration))
        clicks.append(rng.random(n_bg) * duration)

    return EventStream(
        a=np.concatenate(a),
        b=np.concatenate(b),
        duration=duration,
        pairs_per_class=np.append(counts[:3], counts[3:].sum()),
    )
