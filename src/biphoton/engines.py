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

Every rate is R = ``pair_rate`` times a per-pair probability, since
efficiency, background and mode overlap each have their own parameter: the
narrow-window rate is R * p_central, (R/4)(1 - mu cos(k_p delta_L)) at
T = 0.5, so R is the coincidence normalization R_c0 of the two-photon fringe.

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
Detection is the last marking: each photon is detected independently with
its detector's efficiency eta, so every cell splits by which of its photons
are detected, and only detected photons are drawn.  Background clicks are
drawn at eta times their rate, the same Poisson law as thinning them.
Per-pair sampling, :func:`sample_pair_outcomes`, stays as the independent
check of these rates.

The Monte Carlo engines take the signal deviations as an argument, so one
draw from :func:`sample_signal` serves both columns of ``compare``.  With
x = delta * delta_L both columns are functions of one sine per pair,
s = sin x.  The classical integrand (1 + cos phi_1)(1 - cos phi_2) is exactly
(sin phi_c - s)^2, where phi_c is the fringe phase of k_pump/2, and the
quantum kernel reads cos(phi_1 - phi_2) = cos 2x = 1 - 2 s^2.
:func:`pair_monte_carlo` computes s once for both; the single-column engines
:func:`classical_monte_carlo` and :func:`sample_pair_outcomes` remain as its
reference.  Every engine works through the deviations in blocks of
``_BLOCK`` pairs, so the temporaries of a block stay in cache and only the
deviations and the classical integrand are full length: uniforms are drawn
block by block, the same stream as one draw of all of them, and the
classical standard error is taken in place, so repeated calls reuse the
same memory with a steady number of page faults.
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
# re-exported: the Monte Carlo engines take its draws, and bench/selftest.py
# calls it as biphoton.engines.sample_signal
from .spectral import SpectralProfile, SpectralShape, sample_signal  # noqa: F401

#: pairs per block of the Monte Carlo engines: the block's temporaries stay
#: in cache, and only the result array is as long as the draws
_BLOCK = 8192


@dataclass(frozen=True)
class SourceRates:
    """Source rates, s^-1: ``pair_rate`` R of emitted pairs, which is also
    the coincidence normalization (see above), and ``singles_background``
    per detector."""

    pair_rate: float
    singles_background: float

    def __post_init__(self) -> None:
        require_finite(
            pair_rate=self.pair_rate, singles_background=self.singles_background
        )
        if self.pair_rate < 0 or self.singles_background < 0:
            raise DomainError("rates must be nonnegative")


def normalization_check(profile: SpectralProfile, tol: float = 1e-9) -> float:
    """Integral of |phi|^2 by Simpson's rule; raises if it strays from 1.

    The composite rule h/3 (f_0 + 4 sum f_odd + 2 sum f_even + f_n) runs on
    n + 1 evenly spaced points over the profile's support, starting at
    n = 2000 and doubling until two successive refinements agree to ``tol``.
    No engine calls it: the closed forms never read ``pdf``, whose
    normalization is analytic.
    """
    lo, hi = profile.support()
    n = 2000
    prev = None
    while n <= 2_048_000:
        f = profile.pdf(np.linspace(lo, hi, n + 1))
        weighted = f[0] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum() + f[-1]
        total = float(weighted * (hi - lo) / (3 * n))
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


def expected_class_probabilities(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> dict[str, float]:
    """Per-pair outcome probabilities, the class probabilities averaged over k1.

    The kernel is linear in cos((2 k1 - k_pump) * delta_L), so its mean is
    the kernel at :func:`residual_integral`; p_central does not depend on k1.
    These are the outcome rates of :func:`generate_events` divided by R;
    ``tests/oracle.py`` holds the quadrature they are checked against.
    ``rates`` is not read.
    """
    p_c, p_sl, p_ls = (
        float(p)
        for p in class_probabilities(
            np.cos(fringe_phase(profile.k_pump, geometry)),
            residual_integral(profile, delta_L(geometry)),
            geometry,
        )
    )
    return {
        "central": p_c,
        "side_sl": p_sl,
        "side_ls": p_ls,
        "none": 1.0 - (p_c + p_sl + p_ls),
    }


def quantum_rate_narrow(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Central-class (narrow-window) coincidence rate, s^-1.

    The central-class probability depends only on the pump phase
    k_p * delta_L, not on k1, so the spectral integral collapses:
    rate = R * p_central with R = ``pair_rate``; for T = 0.5 this is
    (R/4)(1 - mu cos(k_p delta_L)).
    """
    probs = expected_class_probabilities(profile, geometry, rates)
    return rates.pair_rate * probs["central"]


def side_class_rate(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Summed rate of the two side classes, s^-1, averaged over k1:
    R * (p_short_long + p_long_short) with R = ``pair_rate``."""
    probs = expected_class_probabilities(profile, geometry, rates)
    return rates.pair_rate * (probs["side_sl"] + probs["side_ls"])


def quantum_rate_wide(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Wide-window coincidence rate (all three classes), s^-1.

    For T = 0.5, mu = 1 this reproduces
    (R/2) * mean[1 - cos(k_p dL)/2 - cos((k_p - 2 k1) dL)/2], R = ``pair_rate``.
    """
    return quantum_rate_narrow(profile, geometry, rates) + side_class_rate(
        profile, geometry, rates
    )


def classical_bracket(
    profile: SpectralProfile, geometry: InterferometerGeometry
) -> float:
    """Closed-form classical coincidence factor, phase-averaged value 1.

    mean[(1 + cos k1 dL)(1 - cos k2 dL)] = 1 - cos(k_p dL)/2 - r/2,
    where r is :func:`residual_integral`.  The single-photon fringe means of
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
    """Classical-model coincidence rate, s^-1, normalized like the quantum wide
    rate: (R/2) * :func:`classical_bracket`, R = ``pair_rate``."""
    return 0.5 * rates.pair_rate * classical_bracket(profile, geometry)


def classical_monte_carlo(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    delta: np.ndarray,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the classical factor over the
    signal deviations ``delta`` (from :func:`sample_signal`).

    phi_1 = phi_c + x with phi_c = fringe_phase(k_center) and x = delta_L * delta,
    and k2 = k_pump - k1 makes phi_2 = phi_p - phi_1 = phi_c - x (mod 2 pi),
    since the pump phase phi_p is 2 phi_c.  The integrand
    (1 + cos phi_1)(1 - cos phi_2) is then exactly (sin phi_c - sin x)^2: one
    sine per deviation, evaluated in blocks of ``_BLOCK`` into one array.
    """
    n = np.size(delta)
    if n < 1:
        raise DomainError("delta must hold at least one signal deviation")
    dl = delta_L(geometry)
    sin_c = math.sin(fringe_phase(profile.k_center, geometry))
    vals = np.empty(n)
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        block = vals[start:stop]
        np.multiply(delta[start:stop], dl, out=block)
        np.sin(block, out=block)
        np.subtract(sin_c, block, out=block)
        np.square(block, out=block)
    mean = float(np.mean(vals))
    if n == 1:
        return mean, 0.0
    # np.std(vals, ddof=1) in place: the same sums, without a second array
    vals -= mean
    np.square(vals, out=vals)
    return mean, math.sqrt(float(np.sum(vals)) / (n - 1)) / math.sqrt(n)


def sample_pair_outcomes(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    delta: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome codes per pair: 0 central, 1 side_sl, 2 side_ls, 3 no coincidence.

    Pair i has signal deviation ``delta[i]`` (from :func:`sample_signal`) and
    draws one uniform from ``rng``; its code is the number of cumulative
    class thresholds the uniform clears.  The thresholds come from
    :func:`class_probabilities_pair`, in blocks of ``_BLOCK`` pairs, and each
    block draws its uniforms in turn, the same stream as one draw of ``n``.
    """
    n = np.size(delta)
    codes = np.empty(n, dtype=np.uint8)
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        p_c, p_sl, p_ls = class_probabilities_pair(delta[start:stop], profile, geometry)
        # p_central is one value for every pair
        central = float(p_c[0])
        side_sl = central + p_sl
        side_ls = side_sl + p_ls
        u = rng.random(np.size(p_sl))
        # the thresholds never decrease, so the code is the number u clears
        codes[start:stop] = (
            (u >= central).astype(np.uint8) + (u >= side_sl) + (u >= side_ls)
        )
    return codes


def pair_monte_carlo(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    delta: np.ndarray,
    rng: np.random.Generator,
) -> tuple[float, float, int]:
    """Both Monte Carlo columns of ``compare`` from one sine per pair:
    ``(classical_mean, classical_stderr, coincidences)``.

    The classical mean and standard error are those of
    :func:`classical_monte_carlo`, by the same float operations.
    ``coincidences`` counts the pairs that :func:`sample_pair_outcomes`
    would mark with a coincidence class (code 0, 1 or 2) on the same ``rng``
    stream: one uniform per pair, drawn block by block, below the pair's
    cumulative threshold.  The kernel reads cos 2x as 1 - 2 sin^2 x, which
    differs from cos 2x by rounding alone, so a count can differ only where a
    uniform lies within about 1e-16 of its threshold.
    """
    n = np.size(delta)
    if n < 1:
        raise DomainError("delta must hold at least one signal deviation")
    dl = delta_L(geometry)
    sin_c = math.sin(fringe_phase(profile.k_center, geometry))
    cos_pump = np.cos(fringe_phase(profile.k_pump, geometry))
    vals = np.empty(n)
    cos_diff = np.empty(min(n, _BLOCK))
    coincidences = 0
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        block = vals[start:stop]
        diff = cos_diff[: block.size]
        np.multiply(delta[start:stop], dl, out=block)
        np.sin(block, out=block)
        # cos 2x = 1 - 2 s^2, before the classical integrand overwrites s
        np.square(block, out=diff)
        diff *= -2.0
        diff += 1.0
        p_c, p_sl, p_ls = class_probabilities(cos_pump, diff, geometry)
        # the threshold of the last coincidence class, summed in place in the
        # order sample_pair_outcomes sums it; a pair whose uniform lies below
        # it is a coincidence
        side_ls = p_sl
        side_ls += float(p_c)
        side_ls += p_ls
        u = rng.random(out=diff)
        coincidences += int(np.count_nonzero(u < side_ls))
        np.subtract(sin_c, block, out=block)
        np.square(block, out=block)
    mean = float(np.mean(vals))
    if n == 1:
        return mean, 0.0, coincidences
    vals -= mean
    np.square(vals, out=vals)
    return mean, math.sqrt(float(np.sum(vals)) / (n - 1)) / math.sqrt(n), coincidences


@dataclass
class EventStream:
    """Detected photon arrival times at detectors A (``a``) and B (``b``),
    unsorted.

    :func:`generate_events` has already applied each detector's efficiency,
    so every photon here is one the detector sees.  Detection sorts the
    clicks after its jitter, so nothing sorts the photon times before it.

    ``pairs_per_class`` counts the emitted pairs, detected or not, by outcome
    code of :func:`sample_pair_outcomes`: central, side_sl, side_ls, no
    coincidence.  ``lost`` counts, for A and B, the photons of those pairs
    that reached the detector and went undetected, lost to its efficiency.
    """

    a: np.ndarray
    b: np.ndarray
    duration: float
    pairs_per_class: np.ndarray
    lost: np.ndarray

    def __len__(self) -> int:
        return self.a.size + self.b.size


def generate_events(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    duration: float,
    rng: np.random.Generator,
    efficiency: tuple[float, float] = (1.0, 1.0),
) -> EventStream:
    """Simulate one acquisition: the detected photon arrival times at each
    detector, whose efficiencies are ``efficiency`` = (eta_A, eta_B).

    Pairs are emitted as a Poisson process of rate R = ``pair_rate``.  Each
    pair lands in one of the three coincidence classes, with the spectral
    mean P_j of its class probability, or else in the no-coincidence
    remainder, which sends both photons to one port so that singles rates
    stay flat across the fringe.  The port is a fair coin and each photon
    takes either arm with even odds: both short, both long, or one of each,
    with odds 1/4, 1/4 and 1/2.  By the marking theorem each of these nine
    cells is an independent Poisson process, of rate R times the cell's
    probability.  Detection is one more marking: each photon of a cell is
    detected independently with the efficiency eta of its detector, so a
    cell splits into four sub-cells, both photons detected, only the first,
    only the second, or neither.  The acquisition draws one Poisson count
    per sub-cell, and one uniform emission time per pair of the sub-cells
    with a detected photon; the photons arrive after the transit times of
    their arms.  The same counts give each detector's undetected photons,
    ``lost``, at no further draw.  Independent Poisson background clicks,
    at rate eta * ``singles_background``, are added on each detector.  Each
    detector's times come grouped by sub-cell, unsorted.

    At eta = 1 only the both-detected sub-cells have a nonzero mean, and a
    Poisson draw of mean zero takes nothing from ``rng``, so the stream is
    draw for draw the one of the nine cells alone.
    """
    if duration < 0:
        raise DomainError(f"duration must be nonnegative, got {duration}")
    if not all(0.0 <= eta <= 1.0 for eta in efficiency):
        raise DomainError(f"efficiencies must lie in [0, 1], got {efficiency}")
    t_short, t_long = transit_times(geometry)
    probs = expected_class_probabilities(profile, geometry, rates)
    p_none = max(probs["none"], 0.0)
    # (probability, first photon, second photon), a photon as (detector, delay)
    cells = (
        (probs["central"], (0, t_short), (1, t_short)),
        (probs["side_sl"], (0, t_short), (1, t_long)),
        (probs["side_ls"], (0, t_long), (1, t_short)),
        (p_none / 8.0, (0, t_short), (0, t_short)),
        (p_none / 8.0, (0, t_long), (0, t_long)),
        (p_none / 4.0, (0, t_short), (0, t_long)),
        (p_none / 8.0, (1, t_short), (1, t_short)),
        (p_none / 8.0, (1, t_long), (1, t_long)),
        (p_none / 4.0, (1, t_short), (1, t_long)),
    )
    # each cell splits into sub-cells: both photons detected, only the first,
    # only the second, neither; ``seen`` lists the photons of the first three
    # and ``missed`` the detectors of the undetected photons of the last three
    means, seen, missed = [], [], []
    for p, first, second in cells:
        e1, e2 = efficiency[first[0]], efficiency[second[0]]
        q1, q2 = 1.0 - e1, 1.0 - e2
        means.append([p * e1 * e2, p * e1 * q2, p * q1 * e2, p * q1 * q2])
        seen.extend(((first, second), (first,), (second,)))
        missed.extend(((second[0],), (first[0],), (first[0], second[0])))
    counts = rng.poisson(rates.pair_rate * duration * np.array(means))
    lost = [0, 0]
    for n, dets in zip(counts[:, 1:].ravel().tolist(), missed):
        for det in dets:
            lost[det] += n
    detected = counts[:, :3].ravel()
    emit = np.split(
        rng.random(int(detected.sum())) * duration, np.cumsum(detected)[:-1]
    )

    clicks = ([], [])
    for times, photons in zip(emit, seen):
        for det, delay in photons:
            clicks[det].append(times + delay)
    for det in (0, 1):
        n_bg = int(rng.poisson(efficiency[det] * rates.singles_background * duration))
        clicks[det].append(rng.random(n_bg) * duration)

    per_cell = counts.sum(axis=1)
    return EventStream(
        a=np.concatenate(clicks[0]),
        b=np.concatenate(clicks[1]),
        duration=duration,
        pairs_per_class=np.append(per_cell[:3], per_cell[3:].sum()),
        lost=np.array(lost),
    )
