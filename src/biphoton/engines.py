"""Coincidence-rate engines.

Three mutually checkable routes to the same observables:

* analytic quantum rates as closed-form averages over the signal spectrum
  (the narrow-window/central rate and the side-class rate, whose sum is the
  wide-window rate),
* the classical random-wavenumber model, closed form and Monte Carlo, of an
  ideal interferometer: it reads neither T nor mu, the quantum rates both,
  so at T != 0.5 or mu < 1 (``experimental.json`` has mu = 0.8) ``compare``
  sets an imperfect quantum interferometer beside an ideal classical one,
* Monte Carlo event generation producing each detector's photon arrival
  times, one Poisson count per outcome (:func:`generate_events`), checked
  against the per-pair draw of :func:`sample_pair_outcomes`.

The pairs are degenerate, k1 = k_pump/2 + delta, so every spectral average
here is the mean of cos(2 delta * delta_L) over the symmetric |phi|^2: its
characteristic function at t = 2 delta_L, exp(-sigma^2 t^2 / 2) for the
Gaussian shape and sinc(delta_k t) for the rectangular one.

Every rate is R = ``pair_rate`` times a per-pair probability, since
efficiency, background and mode overlap each have their own parameter: the
narrow-window rate is R * p_central, (R/4)(1 - mu cos(k_p delta_L)) at
T = 0.5, so R is the coincidence normalization R_c0 of the two-photon fringe.

Both Monte Carlo columns of ``compare`` come from :func:`pair_monte_carlo`,
one sine per pair by :func:`_sin_in_place`, which calls no libm, in blocks
that run on a thread pool and each reduce to a count and
:func:`_block_moments`; the single-column :func:`classical_monte_carlo` and
:func:`sample_pair_outcomes` are its references.
"""
from __future__ import annotations

import copy
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
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

#: pairs per block, the task of :func:`pair_monte_carlo`'s pool and the unit
#: of :func:`_block_moments`: large enough that a thread's hand-offs of the
#: interpreter lock are rare, and 25 bytes a pair under one row's 8 bytes a
#: pair for 2 threads at ``compare``'s 200 000 pairs
_BLOCK = 32_000

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
    float64 scratch like x.  x may reach thousands of radians.  In 10^6
    draws the error is at most 0.849 of that bound on [1, 2), 0.848 on
    [-pi, pi] and 0.807 about pi/2, where the polynomial is weakest.

    With k = rint(x / pi), r = (x - k hi) - k lo lies in [-pi/2, pi/2] and
    sin x = (-1)^k sin r.  The sign goes onto r as one XOR of bits: k, cast
    to int64, has its lowest bit shifted into the sign bit.  The cast is
    exact for |k| < 2^63; past that, |x| > 2.9e19, ulp(x) >= 4096, so either
    sign meets the bound, and the sign is the one the platform's
    out-of-range cast leaves.  sin r is r + (r^5 Q(r^2) - r^3/6), a
    polynomial of degree 17, Q by Horner over ``_SIN_Q``; r^3/6 is a true
    division, as r^3 fl(1/6), or -1/6 inside Q, exceeds the bound on [1, 2).
    No libm call is made, so below 2.9e19 the result is the same on every
    platform.
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


def _usable_cpus() -> int:
    """The CPUs this process may run on (``nproc``), or the machine's count
    where the platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_moments(v: np.ndarray) -> tuple[int, float, float]:
    """``(m, S, M2)`` of a block ``v`` of m values: its sum S and its centred
    sum of squares M2 = sum (v - S/m)^2.  ``v`` is overwritten."""
    s = float(np.sum(v))
    v -= s / v.size
    np.square(v, out=v)
    return v.size, s, float(np.sum(v))


def _mean_stderr(moments: Sequence[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean and standard error of the values whose blocks have
    :func:`_block_moments` ``moments``, combined in order by the pairwise rule
    of Chan, Golub & LeVeque (*Am. Stat.* 37, 242, 1983): with n = sum m_b,
    mean = sum S_b / n and M2 = sum M2_b + sum m_b (S_b/m_b - mean)^2."""
    n = sum(m for m, _, _ in moments)
    mean = sum(s for _, s, _ in moments) / n
    m2 = sum(m2_b for *_, m2_b in moments) + sum(
        m * (s / m - mean) ** 2 for m, s, _ in moments
    )
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0


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
    sine per deviation, by :func:`_sin_in_place`, all in one whole-array
    pass.  Its mean and standard error combine the :func:`_block_moments` of
    its ``_BLOCK`` slices by :func:`_mean_stderr`, as each row of
    :func:`pair_monte_carlo` does.  T = 1/2 and mu = 1, as in
    :func:`classical_rate`.
    """
    n = np.size(delta)
    if n < 1:
        raise DomainError("delta must hold at least one signal deviation")
    s = np.multiply(delta, delta_L(geometry))
    _sin_in_place(s, np.empty(n), np.empty(n))
    vals = np.square(math.sin(fringe_phase(profile.k_center, geometry)) - s)
    return _mean_stderr(
        [_block_moments(vals[i : i + _BLOCK]) for i in range(0, n, _BLOCK)]
    )


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
    of ``geometries``, in order.  ``rng`` must be a PCG64 generator, as
    ``np.random.default_rng`` gives; any other bit generator raises
    :class:`DomainError` before anything is drawn.

    The deviations are drawn here, in one :func:`sample_signal` call of
    ``n``, and every row reads the same ones: common random numbers (Law &
    Kelton, *Simulation Modeling and Analysis*).  The rows are then
    correlated, but each keeps its n, its law and its standard error.  Each
    row is cut into blocks of ``_BLOCK`` pairs, and each (row, block) is a
    task that reduces its block to three numbers.  It scales the block's
    deviations by the row's delta_L, x = delta * delta_L, and takes their
    sines s = sin x in place, by :func:`_sin_in_place`.  It draws the
    block's uniforms, fresh for every row, at the place in the stream where
    :func:`sample_pair_outcomes` would draw them, after the deviations and
    the earlier rows' and blocks' uniforms, and counts those below the
    threshold of the last coincidence class.  That threshold p_c + p_sl +
    p_ls is linear in cos 2x = 1 - 2 s^2 (no clamp acts for mu <= 1), so it
    is a + b s^2 with a and b from the kernel at cos 2x = +1 and -1.  It
    differs from the reference's by rounding alone, so a count can differ
    only where a uniform lies within about 1e-16 of it.  Last, it turns the
    sines into the classical integrand (sin phi_c - s)^2 and keeps its
    :func:`_block_moments`; each row combines its blocks' in block order by
    :func:`_mean_stderr`, as :func:`classical_monte_carlo` does, so the
    columns are that engine's to the bit: at T = 1/2 and mu = 1 whatever a
    geometry holds, while the coincidences read both.

    The tasks run on a pool of threads made for this call, one contiguous
    range of tasks per thread: min(usable CPUs, tasks, 8n / (25 bytes *
    block)) threads and at least one, so the threads' scratch blocks, three
    float64 and one bool each, stay within one row's length.  A thread draws
    from its own copy of the generator, advanced to its first block's offset
    row * n + start, and afterwards ``rng`` is advanced past every row's
    uniforms.  So the rows and ``rng``'s final state are the serial pass's
    whatever the pool's size.  The row constants are computed here, before
    the pool starts, and a task's exception is raised here, after the
    running tasks have finished.
    """
    if n < 1:
        raise DomainError(f"need at least one pair, got n = {n}")
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise DomainError(f"need a PCG64 generator, got {type(rng.bit_generator).__name__}")
    delta = sample_signal(profile, rng, n)
    constants = []
    for geometry in geometries:
        sin_c = math.sin(fringe_phase(profile.k_center, geometry))
        cos_pump = np.cos(fringe_phase(profile.k_pump, geometry))
        # the coincidence threshold is a at s = 0 (cos 2x = 1) and a + b at
        # s^2 = 1 (cos 2x = -1)
        a, a_plus_b = (
            float(sum(class_probabilities(cos_pump, cos_diff, geometry)))
            for cos_diff in (1.0, -1.0)
        )
        constants.append((sin_c, a, a_plus_b - a, delta_L(geometry)))
    blocks = -(-n // _BLOCK)
    tasks = len(constants) * blocks
    size = min(n, _BLOCK)
    workers = max(1, min(_usable_cpus(), tasks, 8 * n // (25 * size)))
    state = rng.bit_generator.state
    results = [None] * tasks

    def run(first: int, stop: int) -> None:
        vals, threshold, uniforms = np.empty(size), np.empty(size), np.empty(size)
        below = np.empty(size, dtype=bool)
        row, block = divmod(first, blocks)
        bit_generator = copy.deepcopy(rng.bit_generator)
        draws = np.random.Generator(bit_generator.advance(row * n + block * _BLOCK))
        for task in range(first, stop):
            row, block = divmod(task, blocks)
            sin_c, a, b, dl = constants[row]
            start = block * _BLOCK
            m = min(n - start, _BLOCK)
            x, thr, u, hit = vals[:m], threshold[:m], uniforms[:m], below[:m]
            np.multiply(delta[start : start + m], dl, out=x)
            _sin_in_place(x, thr, u)
            np.square(x, out=thr)
            thr *= b
            thr += a
            draws.random(out=u)
            coincidences = int(np.count_nonzero(np.less(u, thr, out=hit)))
            np.subtract(sin_c, x, out=x)
            np.square(x, out=x)
            results[task] = (coincidences, _block_moments(x))

    bounds = [tasks * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, bounds[:-1], bounds[1:]))  # raises a task's error
    rng.bit_generator.advance(len(constants) * n)
    # advance drops the buffered 32-bit half, which drawing doubles keeps
    rng.bit_generator.state = rng.bit_generator.state | {
        key: state[key] for key in ("has_uint32", "uinteger")
    }
    rows = []
    for first in range(0, tasks, blocks):
        counts, moments = zip(*results[first : first + blocks])
        rows.append((*_mean_stderr(moments), sum(counts)))
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

    Pairs are emitted as a Poisson process of rate R = ``pair_rate``.  A
    pair's signal wavenumber serves only to pick its outcome, so none is
    drawn: each pair lands in one of the three coincidence classes, with the
    spectral mean P_j of its class probability, or else in the no-coincidence
    remainder, which sends both photons to one port so that singles rates
    stay flat across the fringe.  The port is a fair coin and each photon
    takes either arm with even odds: both short, both long, or one of each,
    with odds 1/4, 1/4 and 1/2.  By the marking (colouring) theorem of
    Poisson processes (Kingman, *Poisson Processes*, 1993; Lewis & Shedler,
    Nav. Res. Logist. Q. 26, 403, 1979) each of these nine cells is an
    independent Poisson process, of rate R times the cell's probability.
    Detection is one more marking: each photon of a cell is detected
    independently with the efficiency eta of its detector, so a cell splits
    into four sub-cells, both photons detected, only the first, only the
    second, or neither.  The acquisition draws one Poisson count
    per sub-cell, and one uniform emission time per pair of the sub-cells
    with a detected photon; the photons arrive after the transit times of
    their arms.  The same counts give each detector's undetected photons,
    ``lost``, at no further draw.  Independent Poisson background clicks,
    at rate eta * ``singles_background``, the law of thinning them, are
    added on each detector.  Each detector's times come grouped by sub-cell,
    unsorted.

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
