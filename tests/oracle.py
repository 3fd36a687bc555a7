"""Scalar references the vectorised code in ``src`` is checked against.

The eight-term amplitude sum is the oracle of the closed-form kernel.  Every
term is built from :func:`detector_amplitudes`, one pair at a time, exactly
as the post-selected output state is written down: for each photon-to-port
assignment, the four path terms SS, LL, SL and LS.

The TAC pairing and the non-paralysable dead-time filter are the oracles of
``biphoton.detection``, where one array kernel serves both: per-event state
machines that walk the sorted times one at a time.  The dead-time loop keeps
a click when ``t >= last + dead_time``, the sum form the kernel and the TAC
timeout compare in; the difference form ``t - last >= dead_time`` can round
the other way when ``t - last`` lies within an ulp of the dead time.
:func:`accept_free_oracle` is the busy-period rule they share, one event at
a time, the oracle of the kernel itself.  The MCA's channels are the
explicit ``np.linspace`` edges: :func:`histogram_oracle` bins on them, and
:func:`window_mask_oracle` takes a window's channels as a mask over their
midpoints, the references of the channel range and the even-bin histogram.

The merged event stream is the oracle of ``biphoton.engines.generate_events``:
a signal wavenumber and an outcome drawn for every pair, and every photon of
both detectors in one stable-sorted array, each labelled with its detector
and its ground-truth class.  ``generate_events`` draws only the photons its
detectors detect; the oracle emits them all, and :func:`detect_oracle`
thins them one photon at a time, one uniform each, as the detector model
once did.  The two draw different random streams, so they agree in
distribution, not bit for bit.  :func:`generate_events_nine_cells` is the
generator before detection was folded in, one Poisson count per cell and
every photon emitted; at unit efficiency ``generate_events`` must return
exactly its arrays from the same stream.

Simpson quadrature over the signal spectrum is the oracle of the closed-form
spectral averages in ``biphoton.engines``, and :func:`coherence_length`,
1/delta_k, the scale the tests set path imbalances against.

The literal classical integrand (1 + cos phi_1)(1 - cos phi_2), with the
idler's phase phi_2 = phi_p - phi_1, is the oracle of
``biphoton.engines.classical_monte_carlo``, which evaluates the same product
as (sin phi_c - sin x)^2 on the same signal deviations.
:func:`pair_monte_carlo_oracle` is ``biphoton.engines.pair_monte_carlo``
with ``np.sin`` on the unreduced x = delta * delta_L, one draw of uniforms
for all of a row's pairs instead of one per block, and the standard error
from ``np.std``; it draws the same stream, the deviations once for all rows.

Dekker's exact two-product (Numer. Math. 18, 224, 1971) with ``np.fmod`` is
the oracle of the exact rational reduction in
``biphoton.interferometer.fringe_phase``.  It works on arrays, so it also
gives the per-arm phases of the amplitude oracle and the integrands of the
quadrature.

:func:`fixed_visibility_oracle` is the oracle of
``biphoton.analysis._fixed_visibility_fit``: where the kernel runs Newton's
method on the phase from the start it is given, the oracle searches every
phase, a 64-point grid refined around each of its local maxima.  Its
resolution, 3e-9 rad, leaves its log-likelihood within rounding of the
maximum, so the kernel's must not fall below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from scipy.integrate import simpson

from biphoton.engines import expected_class_probabilities, sample_pair_outcomes
from biphoton.errors import DomainError
from biphoton.interferometer import (
    InterferometerGeometry,
    class_probabilities,
    class_probabilities_pair,
    delta_L,
    fringe_phase,
    transit_times,
)
from biphoton.spectral import TWO_PI, sample_signal

TRUTH_CENTRAL = 0
TRUTH_SIDE_SL = 1
TRUTH_SIDE_LS = 2
TRUTH_BUNDLE = 3
TRUTH_BACKGROUND = 4


class PathLabel(Enum):
    S = "S"
    L = "L"


def _split(a):
    """Veltkamp split of a into two halves of at most 26 significant bits."""
    scaled = a * 134217729.0  # 2**27 + 1
    high = scaled - (scaled - a)
    return high, a - high


def _two_product(a, b):
    """(a * b, err) with a * b + err equal to the exact product (Dekker)."""
    x = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return x, ((ah * bh - x) + ah * bl + al * bh) + al * bl


def product_mod_2pi(k, length):
    """k * length mod 2*pi, elementwise: ``np.fmod`` of the rounded product,
    which is exact, plus the product's rounding error."""
    x, err = _two_product(k, length)
    return np.fmod(x, TWO_PI) + err


def fringe_phase_oracle(k, geometry: InterferometerGeometry):
    """``fringe_phase`` for an array of wavenumbers."""
    base = product_mod_2pi(k, geometry.path_long_base_m - geometry.path_short_m)
    return base + np.multiply(k, geometry.path_long_offset_m)


def path_phase(k, geometry: InterferometerGeometry, path: PathLabel):
    """k * (path length), reduced so the scan offset contributes exactly."""
    if path is PathLabel.S:
        return product_mod_2pi(k, geometry.path_short_m)
    base = product_mod_2pi(k, geometry.path_long_base_m)
    return base + np.multiply(k, geometry.path_long_offset_m)


@dataclass(frozen=True)
class DetectorAmplitudes:
    """Single-photon amplitudes at the two output ports, per arm."""

    a_short: complex
    a_long: complex
    b_short: complex
    b_long: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.a_short, self.a_long, self.b_short, self.b_long)


def detector_amplitudes(k: float, geometry: InterferometerGeometry) -> DetectorAmplitudes:
    """Amplitudes for one photon of wavenumber k reaching port A/B via S/L.

    Symmetric beam-splitter convention with the minus sign on the (B, L)
    element; for T = 0.5 the four magnitudes are 1/2.  Unitary for any T:
    the squared magnitudes sum to 1.
    """
    if k <= 0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    t = geometry.splitter_transmittance
    cross = math.sqrt(t * (1.0 - t))
    ph_s = np.exp(1j * path_phase(k, geometry, PathLabel.S))
    ph_l = np.exp(1j * path_phase(k, geometry, PathLabel.L))
    return DetectorAmplitudes(
        a_short=cross * ph_s,
        a_long=cross * ph_l,
        b_short=t * ph_s,
        b_long=-(1.0 - t) * ph_l,
    )


@dataclass(frozen=True)
class CoincidenceTerm:
    """One of the eight amplitude terms of the post-selected output state."""

    path_at_a: PathLabel
    path_at_b: PathLabel
    k_at_a: float
    k_at_b: float
    amplitude: complex


def _assignment_terms(ka: float, kb: float, geometry: InterferometerGeometry):
    """(SS, LL, SL, LS) amplitudes with the photon of wavenumber ka at port A."""
    amps_a = detector_amplitudes(ka, geometry)
    amps_b = detector_amplitudes(kb, geometry)
    return (
        amps_a.a_short * amps_b.b_short,
        amps_a.a_long * amps_b.b_long,
        amps_a.a_short * amps_b.b_long,
        amps_a.a_long * amps_b.b_short,
    )


def _assignments(k1: float, k2: float):
    return ((k1, k2), (k2, k1))


def coincidence_terms(
    k1: float, k2: float, geometry: InterferometerGeometry
) -> list[CoincidenceTerm]:
    """The eight amplitude terms, ordered by assignment then path group."""
    paths = (
        (PathLabel.S, PathLabel.S),
        (PathLabel.L, PathLabel.L),
        (PathLabel.S, PathLabel.L),
        (PathLabel.L, PathLabel.S),
    )
    terms = []
    for ka, kb in _assignments(k1, k2):
        for (pa, pb), amp in zip(paths, _assignment_terms(ka, kb, geometry)):
            terms.append(
                CoincidenceTerm(
                    path_at_a=pa, path_at_b=pb, k_at_a=ka, k_at_b=kb,
                    amplitude=complex(amp),
                )
            )
    return terms


def class_probabilities_pair_oracle(
    k1: float, k2: float, geometry: InterferometerGeometry
) -> tuple[float, float, float]:
    """(p_central, p_short_long, p_long_short) for one pair from the eight terms.

    Within each assignment the central class is the coherent SS + LL sum with
    its cross term scaled by mu; the SL/LS cross term (also scaled by mu) is
    split between the side classes in proportion to their weights.
    """
    mu = geometry.mode_overlap
    p_c = p_sl = p_ls = 0.0
    for ka, kb in _assignments(k1, k2):
        t_ss, t_ll, t_sl, t_ls = _assignment_terms(ka, kb, geometry)
        p_c += (
            abs(t_ss) ** 2
            + abs(t_ll) ** 2
            + 2.0 * mu * (t_ss * t_ll.conjugate()).real
        )
        w_sl = abs(t_sl) ** 2
        w_ls = abs(t_ls) ** 2
        cross = 2.0 * mu * (t_sl * t_ls.conjugate()).real
        p_sl += w_sl + cross * w_sl / (w_sl + w_ls)
        p_ls += w_ls + cross * w_ls / (w_sl + w_ls)
    return max(p_c, 0.0), max(p_sl, 0.0), max(p_ls, 0.0)


def state_norm(k1: float, k2: float, geometry: InterferometerGeometry) -> float:
    """Squared norm of the full eight-term output state.

    The two photon-to-port assignments add incoherently; within each, all
    cross terms between different path groups carry the mode overlap mu.
    For mu = 1, T = 0.5 this equals half of
    1 - cos(k_p dL)/2 - cos((k_p - 2 k1) dL)/2.
    """
    mu = geometry.mode_overlap
    norm = 0.0
    for ka, kb in _assignments(k1, k2):
        terms = np.array(_assignment_terms(ka, kb, geometry))
        incoherent = float(np.sum(np.abs(terms) ** 2))
        coherent = float(np.abs(np.sum(terms)) ** 2)
        norm += (1.0 - mu) * incoherent + mu * coherent
    return norm


def tac_differences_oracle(starts, stops, tac) -> np.ndarray:
    """Single-start/single-stop TAC pairing, one start at a time."""
    stops = np.asarray(stops, dtype=float) + tac.electrical_delay
    diffs = []
    j = 0
    busy_until = -math.inf
    n_stops = stops.size
    for start in np.asarray(starts, dtype=float):
        if start < busy_until:
            continue
        while j < n_stops and stops[j] <= start:
            j += 1
        if j >= n_stops:
            break
        d = stops[j] - start
        if d <= tac.range:
            diffs.append(d)
            busy_until = stops[j]
            j += 1
        else:
            busy_until = start + tac.range
    return np.array(diffs, dtype=float)


def accept_free_oracle(starts, ends) -> np.ndarray:
    """Mask of the events a device that goes blind while busy accepts: event
    ``i`` is accepted when ``starts[i]`` lies at or after the end of the last
    accepted event's busy period, one event at a time."""
    accepted = np.zeros(len(starts), dtype=bool)
    busy_until = -math.inf
    for i, (start, end) in enumerate(zip(starts, ends)):
        if start >= busy_until:
            accepted[i] = True
            busy_until = end
    return accepted


def non_paralysable_oracle(times, dead_time: float) -> np.ndarray:
    """Sorted clicks a non-paralysable detector keeps, one click at a time."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return times
    kept = [times[0]]
    last = times[0]
    for t in times[1:]:
        if t >= last + dead_time:
            kept.append(t)
            last = t
    return np.array(kept)


def _edges_oracle(tac) -> np.ndarray:
    """The MCA channel edges, written out: ``n_channels + 1`` even steps."""
    return np.linspace(0.0, tac.range, tac.n_channels + 1)


def window_mask_oracle(tac, window_center: float, window_width: float) -> np.ndarray:
    """Mask of the channels whose centre, the midpoint of two explicit edges,
    lies in [center - width/2, center + width/2]; it refuses what
    ``window_channels`` refuses, with the same messages."""
    edges = _edges_oracle(tac)
    if not window_width > 0:
        raise DomainError(f"window width must be positive, got {window_width}")
    lo = window_center - window_width / 2.0
    hi = window_center + window_width / 2.0
    if not (lo >= edges[0] and hi <= edges[-1]):
        raise DomainError(
            f"window [{lo}, {hi}] s falls outside the histogram range "
            f"[{edges[0]}, {edges[-1]}] s"
        )
    centers = 0.5 * (edges[:-1] + edges[1:])
    mask = (centers >= lo) & (centers <= hi)
    if not mask.any():
        raise DomainError(
            f"window [{lo}, {hi}] s holds no MCA channel centre; the channels "
            f"are {edges[1] - edges[0]:.6g} s wide"
        )
    return mask


def histogram_oracle(diffs, tac) -> np.ndarray:
    """Counts of ``diffs`` in the channels, binned on the explicit edges."""
    counts, _ = np.histogram(diffs, bins=_edges_oracle(tac))
    return counts


def generate_events_oracle(profile, geometry, rates, duration: float, rng):
    """One acquisition as a merged stream ``(time, detector, truth)``.

    ``detector`` holds 0 for A and 1 for B; ``truth`` uses the TRUTH_* codes.
    Every emitted photon is returned, detected or not.  With no pair to
    draw, the oracle takes the same draws as ``generate_events`` at unit
    efficiency: each detector's background count and times, A first.
    """
    if duration < 0:
        raise DomainError(f"duration must be nonnegative, got {duration}")
    t_short, t_long = transit_times(geometry)

    n_pairs = int(rng.poisson(rates.pair_rate * duration))
    emit = np.sort(rng.random(n_pairs) * duration)
    delta = sample_signal(profile, rng, n_pairs)
    outcome = sample_pair_outcomes(profile, geometry, delta, rng)

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
    # chosen by a fair coin; each photon takes a random arm.
    rest = emit[outcome == 3]
    port = rng.integers(0, 2, rest.size).astype(np.uint8)
    for _ in range(2):
        arm = rng.integers(0, 2, rest.size)
        times.append(rest + np.where(arm == 0, t_short, t_long))
        dets.append(port)
        truths.append(np.full(rest.size, TRUTH_BUNDLE, dtype=np.uint8))

    for det in (0, 1):
        n_bg = int(rng.poisson(rates.singles_background * duration))
        add(rng.random(n_bg) * duration, det, TRUTH_BACKGROUND)

    time = np.concatenate(times)
    det = np.concatenate(dets)
    truth = np.concatenate(truths)
    order = np.argsort(time, kind="stable")
    return time[order], det[order], truth[order]


def detect_oracle(times, efficiency: float, rng) -> np.ndarray:
    """The photons a detector of quantum efficiency ``efficiency`` detects,
    each independently: one uniform per photon, kept when below it."""
    times = np.asarray(times, dtype=float)
    return times[rng.random(times.size) < efficiency]


def generate_events_nine_cells(profile, geometry, rates, duration: float, rng):
    """``(a, b, pairs_per_class)`` of one acquisition with every photon
    detected: one Poisson count per cell of the nine, that many uniform
    emission times, then each detector's background."""
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
    return np.concatenate(a), np.concatenate(b), np.append(counts[:3], counts[3:].sum())


def coherence_length(profile) -> float:
    """Coherence length 1/delta_k of the down-converted field (m)."""
    return 1.0 / profile.delta_k


def quadrature_mean(profile, func, tol: float = 1e-9) -> float:
    """Integral of pdf(k) * func(k) dk by Simpson's rule with grid doubling.

    Starts at 2000 intervals over the profile's support and doubles until
    two successive refinements agree to ``tol`` (relative, with an absolute
    floor of ``tol`` since the integrands here are bounded by 1).
    """
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


def classical_monte_carlo_oracle(profile, geometry, delta) -> tuple[float, float]:
    """Mean and standard error of (1 + cos phi_1)(1 - cos phi_2) over the
    signal deviations ``delta``: phi_1 = fringe_phase(k_center) + delta_L * delta,
    and k2 = k_pump - k1 makes phi_2 the pump phase minus phi_1."""
    phase_1 = fringe_phase(profile.k_center, geometry) + delta_L(geometry) * delta
    phase_2 = fringe_phase(profile.k_pump, geometry) - phase_1
    vals = (1.0 + np.cos(phase_1)) * (1.0 - np.cos(phase_2))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def pair_monte_carlo_oracle(profile, geometries, n: int, rng) -> list:
    """``(classical_mean, classical_stderr, coincidences)`` of ``n`` pairs for
    each of ``geometries``, every row on the same deviations, from one sine
    s = np.sin(x) per pair: the classical integrand (sin phi_c - s)^2 and the
    coincidence threshold a + b s^2, linear in cos 2x = 1 - 2 s^2."""
    delta = sample_signal(profile, rng, n)
    rows = []
    for geometry in geometries:
        s = np.sin(delta * delta_L(geometry))
        cos_pump = np.cos(fringe_phase(profile.k_pump, geometry))
        a, a_plus_b = (
            float(sum(class_probabilities(cos_pump, cos_diff, geometry)))
            for cos_diff in (1.0, -1.0)
        )
        threshold = a + (a_plus_b - a) * np.square(s)
        coincidences = int(np.count_nonzero(rng.random(n) < threshold))
        vals = np.square(math.sin(fringe_phase(profile.k_center, geometry)) - s)
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        rows.append((float(np.mean(vals)), stderr, coincidences))
    return rows


def expected_class_probabilities_oracle(profile, geometry) -> dict:
    """Per-pair outcome probabilities, one quadrature of the kernel per class."""
    kc = profile.k_center

    def comp(idx):
        def f(k):
            return class_probabilities_pair(k - kc, profile, geometry)[idx]

        return quadrature_mean(profile, f)

    p_c, p_sl, p_ls = comp(0), comp(1), comp(2)
    return {
        "central": p_c,
        "side_sl": p_sl,
        "side_ls": p_ls,
        "none": 1.0 - (p_c + p_sl + p_ls),
    }


def fixed_visibility_oracle(theta, y, vis) -> tuple[float, float, float]:
    """Global maximum Poisson log-likelihood of baseline * (1 - vis cos(theta + phi)).

    The baseline profiles out as N / sum(g), g = 1 - vis cos(theta + phi), and
    phi comes from a 64-point grid refined around each of its local maxima, 5
    times over 65 points, each refinement splitting the step by 32, to
    2 pi/64/32**5 = 3e-9 rad.  It needs no start.  Returns (log-likelihood,
    baseline, phi).
    """
    n_total = float(y.sum())
    hit = y > 0

    def profile(phi):
        g = 1.0 - vis * np.cos(theta + phi[:, None])
        with np.errstate(divide="ignore"):
            return np.log(g[:, hit]) @ y[hit] - n_total * np.log(g.sum(axis=1))

    step = TWO_PI / 64
    h = profile(np.arange(64) * step)
    phi = np.flatnonzero((h >= np.roll(h, 1)) & (h >= np.roll(h, -1))) * step
    for _ in range(5):
        grid = phi[:, None] + np.linspace(-step, step, 65)
        h = profile(grid.ravel()).reshape(grid.shape)
        phi = grid[np.arange(phi.size), h.argmax(axis=1)]
        step /= 32.0
    best = float(grid.flat[h.argmax()])
    total = float(np.sum(1.0 - vis * np.cos(theta + best)))
    return n_total * (math.log(n_total) - 1.0) + float(h.max()), n_total / total, best
