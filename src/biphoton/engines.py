"""Coincidence-rate engines.

Three mutually checkable routes to the same observables:

* analytic quantum rates by quadrature over the signal spectrum (wide-window
  rate, narrow-window/central rate, and the side-class remainder),
* the classical random-wavenumber model, closed form and Monte Carlo,
* Monte Carlo event generation producing timestamped detector clicks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .errors import ConfigError, DomainError
from .interferometer import (
    InterferometerGeometry,
    class_probabilities_pair,
    delta_L,
    fringe_phase,
    transit_times,
)
from .spectral import SpectralProfile, sample_signal

TRUTH_CENTRAL = 0
TRUTH_SIDE_SL = 1
TRUTH_SIDE_LS = 2
TRUTH_BUNDLE = 3
TRUTH_BACKGROUND = 4

TRUTH_NAMES = ("central", "side_sl", "side_ls", "bundle", "background")

DETECTOR_NAMES = ("A", "B")


@dataclass(frozen=True)
class SourceRates:
    """Source and calibration rates.

    ``rc0`` is the overall coincidence normalization; the per-pair coincidence
    probability is scaled by rc0/pair_rate, so rc0 <= pair_rate is required
    for probabilities to stay below one.
    """

    pair_rate: float = 1.0e5
    rc0: float = 1.0e5
    singles_background: float = 0.0

    def __post_init__(self) -> None:
        if self.pair_rate < 0 or self.rc0 < 0 or self.singles_background < 0:
            raise DomainError("rates must be nonnegative")

    @property
    def pair_scale(self) -> float:
        """Per-pair probability scale eta = rc0 / pair_rate."""
        if self.pair_rate == 0:
            return 0.0
        scale = self.rc0 / self.pair_rate
        if scale > 1.0:
            raise ConfigError(
                f"rc0 ({self.rc0}) must not exceed pair_rate ({self.pair_rate}); "
                "per-pair probabilities would exceed 1"
            )
        return scale


def _quadrature_mean(profile: SpectralProfile, func, tol: float = 1e-9) -> float:
    """Integral of pdf(k) * func(k) dk by Simpson's rule with grid doubling.

    Starts at 2000 intervals and doubles until two successive refinements
    agree to ``tol`` (relative, with an absolute floor of ``tol`` since the
    integrands here are bounded by 1).
    """
    from scipy.integrate import simpson

    lo, hi = profile.support()
    n = 2000
    prev = None
    while n <= 2_048_000:
        k = np.linspace(lo, hi, n + 1)
        val = float(simpson(profile.pdf(k) * func(k), x=k))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise RuntimeError("quadrature failed to converge")


def normalization_check(profile: SpectralProfile, tol: float = 1e-9) -> float:
    """Numerical integral of |phi|^2; raises if it strays from 1."""
    total = _quadrature_mean(profile, lambda k: np.ones_like(k))
    if abs(total - 1.0) > tol:
        raise DomainError(f"spectral profile not normalized: integral = {total}")
    return total


@functools.lru_cache(maxsize=64)
def _check_normalized(profile: SpectralProfile) -> None:
    """:func:`normalization_check` once per distinct (frozen, hashable) profile.

    A failing check raises, and lru_cache does not store exceptions, so a
    profile that is not normalized is rejected on every call.
    """
    normalization_check(profile)


def residual_integral(profile: SpectralProfile, dl: float) -> float:
    """Mean of cos((k_pump - 2 k1) * delta_L) over the signal spectrum.

    This is the term that washes out once the path imbalance exceeds the
    coherence length; it equals 1 at delta_L = 0.
    """
    kp = profile.k_pump
    return _quadrature_mean(profile, lambda k: np.cos((kp - 2.0 * k) * dl))


def quantum_rate_narrow(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Central-class (narrow-window) coincidence rate, s^-1.

    The central-class probability is independent of k1, so the spectral
    integral collapses: rate = rc0 * p_central evaluated at the spectrum
    center; for T = 0.5 this is (rc0/4)(1 - mu cos(k_p delta_L)).
    """
    _check_normalized(profile)
    k1 = profile.k_center
    k2 = profile.k_pump - k1
    p_c, _, _ = class_probabilities_pair(k1, k2, geometry)
    return rates.rc0 * float(p_c)


def side_class_rate(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Summed rate of the two side classes, s^-1, by quadrature over k1."""
    _check_normalized(profile)
    kp = profile.k_pump

    def sides(k):
        p_c, p_sl, p_ls = class_probabilities_pair(k, kp - k, geometry)
        return p_sl + p_ls

    return rates.rc0 * _quadrature_mean(profile, sides)


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

    mean[(1 + cos k1 dL)(1 - cos k2 dL)]
      = 1 + C1 - C2 - cos(k_p dL)/2 - R/2,
    where C1, C2 are the single-photon fringe means (negligible beyond the
    coherence length) and R is :func:`residual_integral`.
    """
    kp = profile.k_pump
    dl = delta_L(geometry)
    phase_p = float(fringe_phase(kp, geometry))
    if profile.k_center == kp / 2.0:
        # signal and idler share the same spectrum: the single-photon fringe
        # means cancel identically
        c1 = c2 = 0.0
    else:
        c1 = _quadrature_mean(
            profile, lambda k: np.cos(fringe_phase(k, geometry))
        )
        c2 = _quadrature_mean(
            profile, lambda k: np.cos(fringe_phase(kp - k, geometry))
        )
    resid = residual_integral(profile, dl)
    return 1.0 + c1 - c2 - 0.5 * math.cos(phase_p) - 0.5 * resid


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
    """Monte Carlo mean and standard error of the classical factor."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    k1 = sample_signal(profile, rng, n_samples)
    k2 = profile.k_pump - k1
    vals = (1.0 + np.cos(fringe_phase(k1, geometry))) * (
        1.0 - np.cos(fringe_phase(k2, geometry))
    )
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def expected_class_probabilities(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> dict[str, float]:
    """Per-pair outcome probabilities (quadrature route, for oracle checks)."""
    scale = rates.pair_scale
    kp = profile.k_pump

    def comp(idx):
        def f(k):
            return class_probabilities_pair(k, kp - k, geometry)[idx]

        return scale * _quadrature_mean(profile, f)

    p_c, p_sl, p_ls = comp(0), comp(1), comp(2)
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
    k1 = sample_signal(profile, rng, n_pairs)
    k2 = profile.k_pump - k1
    p_c, p_sl, p_ls = class_probabilities_pair(k1, k2, geometry)
    p_c = scale * p_c
    p_sl = scale * p_sl
    p_ls = scale * p_ls
    u = rng.random(n_pairs)
    out = np.full(n_pairs, 3, dtype=np.uint8)
    out[u < p_c + p_sl + p_ls] = 2
    out[u < p_c + p_sl] = 1
    out[u < p_c] = 0
    return out


@dataclass
class EventStream:
    """Time-sorted detector clicks with ground-truth labels.

    ``detector`` holds 0 for A and 1 for B; ``truth`` uses the TRUTH_* codes.
    The truth labels exist for test introspection only — analysis code must
    not read them.
    """

    time: np.ndarray
    detector: np.ndarray
    truth: np.ndarray
    duration: float

    def __len__(self) -> int:
        return self.time.size

    def times_for(self, detector: int) -> np.ndarray:
        return self.time[self.detector == detector]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("time_s,detector,truth_class\n")
            for t, d, tr in zip(self.time, self.detector, self.truth):
                fh.write(f"{float(t)!r},{DETECTOR_NAMES[d]},{TRUTH_NAMES[tr]}\n")

    @classmethod
    def from_csv(cls, path, duration: float) -> "EventStream":
        times, dets, truths = [], [], []
        with open(path) as fh:
            next(fh)
            for line in fh:
                t, d, tr = line.strip().split(",")
                times.append(float(t))
                dets.append(DETECTOR_NAMES.index(d))
                truths.append(TRUTH_NAMES.index(tr))
        return cls(
            time=np.array(times, dtype=float),
            detector=np.array(dets, dtype=np.uint8),
            truth=np.array(truths, dtype=np.uint8),
            duration=duration,
        )


def generate_events(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    duration: float,
    rng: np.random.Generator,
) -> EventStream:
    """Simulate one acquisition of detector clicks.

    Pair emissions follow a Poisson process; each pair draws a signal
    wavenumber and then one of the three coincidence classes (or the
    no-coincidence remainder, which sends both photons to one port so that
    singles rates stay flat across the fringe).  Independent Poisson
    background clicks are added on each detector.
    """
    if duration < 0:
        raise DomainError(f"duration must be nonnegative, got {duration}")
    t_short, t_long = transit_times(geometry)

    n_pairs = int(rng.poisson(rates.pair_rate * duration))
    emit = np.sort(rng.random(n_pairs) * duration)
    outcome = sample_pair_outcomes(profile, geometry, rates, n_pairs, rng)

    times: list[np.ndarray] = []
    dets: list[np.ndarray] = []
    truths: list[np.ndarray] = []

    def add(t, d, code):
        times.append(t)
        dets.append(np.full(t.size, d, dtype=np.uint8))
        truths.append(np.full(t.size, code, dtype=np.uint8))

    central = emit[outcome == 0]
    add(central + t_short, 0, TRUTH_CENTRAL)
    add(central + t_short, 1, TRUTH_CENTRAL)

    sl = emit[outcome == 1]
    add(sl + t_short, 0, TRUTH_SIDE_SL)
    add(sl + t_long, 1, TRUTH_SIDE_SL)

    ls = emit[outcome == 2]
    add(ls + t_long, 0, TRUTH_SIDE_LS)
    add(ls + t_short, 1, TRUTH_SIDE_LS)

    # no-coincidence remainder: both photons exit the same port, the port
    # chosen by a fair coin so each detector still sees one click per pair
    # on average; each photon takes a random arm.
    rest = emit[outcome == 3]
    port = rng.integers(0, 2, rest.size).astype(np.uint8)
    for _ in range(2):
        arm = rng.integers(0, 2, rest.size)
        t = rest + np.where(arm == 0, t_short, t_long)
        times.append(t)
        dets.append(port)
        truths.append(np.full(rest.size, TRUTH_BUNDLE, dtype=np.uint8))

    for det in (0, 1):
        n_bg = int(rng.poisson(rates.singles_background * duration))
        add(rng.random(n_bg) * duration, det, TRUTH_BACKGROUND)

    time = np.concatenate(times) if times else np.empty(0)
    det = np.concatenate(dets) if dets else np.empty(0, dtype=np.uint8)
    truth = np.concatenate(truths) if truths else np.empty(0, dtype=np.uint8)
    order = np.argsort(time, kind="stable")
    return EventStream(
        time=time[order], detector=det[order], truth=truth[order], duration=duration
    )


def generate_events_chunked(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    duration: float,
    seed: int,
    n_chunks: int = 1,
) -> EventStream:
    """Chunked generation with per-chunk derived seeds; deterministic for a
    fixed (seed, n_chunks)."""
    if n_chunks < 1:
        raise DomainError("n_chunks must be >= 1")
    chunk = duration / n_chunks
    streams = []
    for i in range(n_chunks):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        s = generate_events(profile, geometry, rates, chunk, rng)
        streams.append((s, i * chunk))
    time = np.concatenate([s.time + t0 for s, t0 in streams])
    det = np.concatenate([s.detector for s, _ in streams])
    truth = np.concatenate([s.truth for s, _ in streams])
    order = np.argsort(time, kind="stable")
    return EventStream(
        time=time[order], detector=det[order], truth=truth[order], duration=duration
    )
