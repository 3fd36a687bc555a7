"""Coincidence-rate engines.

Three mutually checkable routes to the same observables:

* analytic quantum rates as closed-form averages over the signal spectrum
  (the narrow-window/central rate and the side-class rate, whose sum is the
  wide-window rate),
* the classical random-wavenumber model, closed form and Monte Carlo, of an
  ideal interferometer: it reads neither T nor mu, the quantum rates both,
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

:func:`pair_monte_carlo` draws the signal deviations delta and fills both
Monte Carlo columns of every row of ``compare`` from one sine per pair,
s = sin x with x = delta * delta_L.  The classical integrand
(1 + cos phi_1)(1 - cos phi_2) is exactly (sin phi_c - s)^2, phi_c the
fringe phase of k_pump/2, and the quantum kernel reads
cos(phi_1 - phi_2) = cos 2x = 1 - 2 s^2, so the coincidence threshold is
a + b s^2.  It draws delta once, in one call, for all the rows, which then
share it as common random numbers; each row makes one pass over it in
blocks of ``_BLOCK`` pairs, scaling each block by its delta_L into one
reusable array that becomes the row's sines, so a block's temporaries stay
in cache.  The single-column engines :func:`classical_monte_carlo` and
:func:`sample_pair_outcomes`, which take delta as an argument, remain as its
reference; each is one whole-array pass.  s calls no libm: x, which reaches
thousands of radians, is reduced by pi, the sign (-1)^k goes on as one XOR
of bits, and a least-squares polynomial of degree 17 on [-pi/2, pi/2] gives
s within max(2.3e-16, ulp(x)) of sin x: at most 0.849 of that bound in 10^6
draws on [1, 2), 0.848 on [-pi, pi] and 0.807 about pi/2, where it is
weakest.  Built from IEEE arithmetic alone, s is the same on every platform
for |x| < 2.9e19.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .interferometer import (
    InterferometerGeometry,
    class_probabilities,
    class_probabilities_pair,
    delta_L,
    fringe_phase,
    transit_times,
)
from .spectral import SpectralProfile, SpectralShape, sample_signal

#: pairs per block of :func:`pair_monte_carlo`'s pass over a row, whose
#: temporaries stay in cache; only the draws and one row's sines are full length
_BLOCK = 20_480

#: pi in two parts (Cody & Waite, *Software Manual for the Elementary
#: Functions*, 1980), the exact halves of a split of 2 pi: hi keeps 26 bits,
#: so k * hi is exact for |k| < 2^27
_PI_HI = 3.1415926218032837
_PI_LO = 3.178650954705639e-08  # the double nearest pi - hi

#: Q's coefficients in z = r^2, highest first: g(z) = (sin r - r + r^3/6) / r^5
#: fitted on z in [0, (pi/2)^2] by least squares weighted by r^5 (the error
#: on sin r), at Chebyshev nodes in 60-digit arithmetic, then rounded to
#: doubles; r + r^5 Q - r^3/6 is then within 3.7e-18 of sin r on
#: [-pi/2, pi/2] (3.3e-19 before the rounding), where 7 Taylor terms leave
#: (pi/2)^19 / 19! = 4.4e-14
_SIN_Q = (
    2.7221331286657042e-15,
    -7.643100936887538e-13,
    1.6058944891930222e-10,
    -2.5052107004146384e-08,
    2.755731921304226e-06,
    -0.0001984126984122487,
    0.00833333333333326,
)


def _sin_in_place(x: np.ndarray, k: np.ndarray, prod: np.ndarray) -> None:
    """x <- sin x from IEEE arithmetic, rint and integer bit operations
    alone, within max(2.3e-16, ulp(x)); ``k`` and ``prod`` are contiguous
    float64 scratch like x.

    With k = rint(x / pi), r = (x - k hi) - k lo lies in [-pi/2, pi/2] and
    sin x = (-1)^k sin r.  The sign goes onto r as one XOR of bits: k, cast
    to int64, has its lowest bit shifted into the sign bit.  The cast is
    exact for |k| < 2^63; past that, |x| > 2.9e19, ulp(x) >= 4096, so either
    sign meets the bound, and the sign is the one the platform's
    out-of-range cast leaves.  sin r is r + (r^5 Q(r^2) - r^3/6), Q by
    Horner over ``_SIN_Q``; r^3/6 is a true division, as r^3 fl(1/6), or
    -1/6 inside Q, exceeds the bound on [1, 2).  No libm call is made, so
    below 2.9e19 the result is the same on every platform.
    """
    np.rint(np.multiply(x, 1.0 / math.pi, out=k), out=k)
    x -= np.multiply(k, _PI_HI, out=prod)
    x -= np.multiply(k, _PI_LO, out=prod)
    sign = prod.view(np.uint64)
    with np.errstate(invalid="ignore"):  # |k| >= 2^63 is out of range
        np.copyto(prod.view(np.int64), k, casting="unsafe")
    np.left_shift(sign, 63, out=sign)
    bits = x.view(np.uint64)
    np.bitwise_xor(bits, sign, out=bits)
    z = np.square(x, out=k)
    np.multiply(z, _SIN_Q[0], out=prod)
    for c in _SIN_Q[1:]:
        prod += c
        prod *= z
    # prod = z Q(z); z becomes r^3, then r^3 / 6
    z *= x
    prod *= z
    z /= 6.0
    prod -= z
    x += prod


@dataclass(frozen=True)
class SourceRates:
    """Source rates, s^-1: ``pair_rate`` R of emitted pairs, which is also
    the coincidence normalization (see above), and ``singles_background``
    per detector."""

    pair_rate: float
    singles_background: float


def normalization_check(profile: SpectralProfile) -> float:
    """Integral of |phi|^2 by Simpson's rule; raises if it strays from 1.

    The composite rule h/3 (f_0 + 4 sum f_odd + 2 sum f_even + f_n) runs on
    n + 1 evenly spaced points over the profile's support, starting at
    n = 2000 and doubling until two successive refinements agree to 1e-9,
    relative; 1e-9 is also how far from 1 it may stray.  No engine calls it:
    the closed forms never read ``pdf``, whose normalization is analytic.
    """
    tol = 1e-9
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


def classical_rate(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
) -> float:
    """Classical-model coincidence rate, s^-1, normalized like the quantum
    wide rate: (R/2) mean[(1 + cos k1 dL)(1 - cos k2 dL)], R = ``pair_rate``.

    The bracket's mean is 1 - cos(k_p dL)/2 - r/2, phase-averaged value 1,
    where r is :func:`residual_integral`.  The single-photon fringe means of
    cos k1 dL and cos k2 dL cancel, since the idler's spectrum is the signal's.
    It models an ideal interferometer, T = 1/2 and mu = 1: no classical engine
    reads the splitter transmittance or mode overlap that the quantum rates read.
    """
    phase_p = fringe_phase(profile.k_pump, geometry)
    resid = residual_integral(profile, delta_L(geometry))
    return 0.5 * rates.pair_rate * (1.0 - 0.5 * math.cos(phase_p) - 0.5 * resid)


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
    sine per deviation, by :func:`_sin_in_place` (x reduced by pi and a
    polynomial, within max(2.3e-16, ulp(x)) of sin x), all in one
    whole-array pass.  T = 1/2 and mu = 1, as in
    :func:`classical_rate`.
    """
    n = np.size(delta)
    if n < 1:
        raise DomainError("delta must hold at least one signal deviation")
    s = np.multiply(delta, delta_L(geometry))
    _sin_in_place(s, np.empty(n), np.empty(n))
    vals = np.square(math.sin(fringe_phase(profile.k_center, geometry)) - s)
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return float(np.mean(vals)), stderr


def sample_pair_outcomes(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    delta: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome codes per pair: 0 central, 1 side_sl, 2 side_ls, 3 no coincidence.

    Pair i has signal deviation ``delta[i]`` (from :func:`sample_signal`) and
    draws one uniform from ``rng``, all in one draw of ``n``; its code is the
    number of cumulative class thresholds of :func:`class_probabilities_pair`
    the uniform clears, which never decrease.
    """
    p_c, p_sl, p_ls = class_probabilities_pair(delta, profile, geometry)
    u = rng.random(np.size(delta))
    side_sl = p_c + p_sl
    return (u >= p_c).astype(np.uint8) + (u >= side_sl) + (u >= side_sl + p_ls)


def pair_monte_carlo(
    profile: SpectralProfile,
    geometries: list[InterferometerGeometry],
    n: int,
    rng: np.random.Generator,
) -> list[tuple[float, float, int]]:
    """Both Monte Carlo columns of ``compare`` from ``n`` pairs and one sine
    per pair: ``(classical_mean, classical_stderr, coincidences)`` for each
    of ``geometries``, in order.

    The deviations are drawn here, in one :func:`sample_signal` call of
    ``n``, and every row reads the same ones: common random numbers (Law &
    Kelton, *Simulation Modeling and Analysis*).  The rows are then
    correlated, but each keeps its n, its law and its standard error.  A
    row makes one pass over them in blocks, into one reusable buffer.  Each
    block scales its deviations by the row's delta_L, x = delta * delta_L,
    and takes their sines s = sin x in place, by the polynomial kernel of
    :func:`classical_monte_carlo`, within max(2.3e-16, ulp(x)) of sin x.  It
    draws the block's uniforms, fresh for every row, after the deviations
    and the earlier rows' uniforms, as :func:`sample_pair_outcomes` draws
    them, and counts those below the threshold of the last coincidence
    class.  That threshold p_c + p_sl + p_ls is linear in cos 2x = 1 - 2 s^2
    (no clamp acts for mu <= 1), so it is a + b s^2 with a and b from the
    kernel at cos 2x = +1 and -1.  It differs from the reference's by
    rounding alone, so a count can differ only where a uniform lies within
    about 1e-16 of it.  Last, it turns the sines into the classical
    integrand (sin phi_c - s)^2, whose mean and standard error are those of
    :func:`classical_monte_carlo`, by the same float operations: at T = 1/2
    and mu = 1 whatever a geometry holds, while the coincidences read both.
    """
    if n < 1:
        raise DomainError(f"need at least one pair, got n = {n}")
    delta = sample_signal(profile, rng, n)
    vals = np.empty(n)
    threshold = np.empty(min(n, _BLOCK))
    uniforms = np.empty_like(threshold)
    below = np.empty_like(threshold, dtype=bool)
    rows = []
    for geometry in geometries:
        sin_c = math.sin(fringe_phase(profile.k_center, geometry))
        cos_pump = np.cos(fringe_phase(profile.k_pump, geometry))
        # the coincidence threshold is a at s = 0 (cos 2x = 1) and a + b at
        # s^2 = 1 (cos 2x = -1)
        a, a_plus_b = (
            float(sum(class_probabilities(cos_pump, cos_diff, geometry)))
            for cos_diff in (1.0, -1.0)
        )
        b = a_plus_b - a
        dl = delta_L(geometry)
        coincidences = 0
        for start in range(0, n, _BLOCK):
            block = vals[start : start + _BLOCK]
            np.multiply(delta[start : start + _BLOCK], dl, out=block)
            m = block.size
            thr, u, hit = threshold[:m], uniforms[:m], below[:m]
            _sin_in_place(block, thr, u)
            np.square(block, out=thr)
            thr *= b
            thr += a
            rng.random(out=u)
            coincidences += int(np.count_nonzero(np.less(u, thr, out=hit)))
            np.subtract(sin_c, block, out=block)
            np.square(block, out=block)
        mean = float(np.mean(vals))
        stderr = 0.0
        if n > 1:
            vals -= mean
            np.square(vals, out=vals)
            stderr = math.sqrt(float(np.sum(vals)) / (n - 1)) / math.sqrt(n)
        rows.append((mean, stderr, coincidences))
    return rows


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
    means, seen = [], []
    for p, first, second in cells:
        e1, e2 = efficiency[first[0]], efficiency[second[0]]
        q1, q2 = 1.0 - e1, 1.0 - e2
        means.append([p * e1 * e2, p * e1 * q2, p * q1 * e2, p * q1 * q2])
        seen.extend(((first, second), (first,), (second,)))
    counts = rng.poisson(rates.pair_rate * duration * np.array(means))
    lost = [0, 0]
    for (_, first, second), (_, n1, n2, n3) in zip(cells, counts.tolist()):
        lost[first[0]] += n2 + n3  # only the second detected, or neither
        lost[second[0]] += n1 + n3  # only the first detected, or neither
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
        pairs_per_class=np.append(per_cell[:3], per_cell[3:].sum()),
        lost=np.array(lost),
    )
