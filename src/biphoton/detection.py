"""Detectors, TAC and MCA simulation.

Turns one acquisition into a start-stop time-difference histogram.
:func:`detect_streams` draws only the photons its detectors detect, with
:func:`biphoton.engines.generate_events` at their efficiencies, and the
detector model here adds timing jitter and dead time.  Detector A provides
the start pulse, detector B the stop pulse after a fixed electrical delay;
the TAC is single-start/single-stop (starts arriving while a conversion is
pending are dropped, a start with no stop inside the range times out).  The
coincidence window is applied afterwards, on the recorded histogram, so the
window choice is a delayed choice.

A detector with non-paralysable dead time and the TAC both go blind after
an event they accept: a later event counts only if it arrives at or after
the end of the last accepted event's busy period (the dead time, or the
pending conversion).  One array kernel, ``_accept_free``, applies that rule
for both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engines import SourceRates, generate_events
from .errors import DomainError, PreconditionError, require_finite
from .interferometer import InterferometerGeometry
from .spectral import SpectralProfile


@dataclass(frozen=True)
class DetectorModel:
    """Timing jitter (Gaussian sigma), dead time, and quantum efficiency."""

    timing_jitter_sigma: float
    dead_time: float
    efficiency: float

    def __post_init__(self) -> None:
        require_finite(
            timing_jitter_sigma=self.timing_jitter_sigma,
            dead_time=self.dead_time,
            efficiency=self.efficiency,
        )
        if self.timing_jitter_sigma < 0 or self.dead_time < 0:
            raise DomainError("jitter and dead time must be nonnegative")
        if not 0.0 <= self.efficiency <= 1.0:
            raise DomainError(f"efficiency must lie in [0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class TacConfig:
    """TAC/MCA settings: stop-channel delay, conversion range, channel count."""

    electrical_delay: float
    range: float
    n_channels: int

    def __post_init__(self) -> None:
        require_finite(
            electrical_delay=self.electrical_delay,
            range=self.range,
            n_channels=self.n_channels,
        )
        if self.range <= 0:
            raise DomainError("TAC range must be positive")
        if self.n_channels < 2:
            raise DomainError("TAC needs at least 2 channels")
        if self.electrical_delay < 0:
            raise DomainError("electrical delay must be nonnegative")

    @property
    def bin_edges(self) -> np.ndarray:
        """Edges of the MCA channels, evenly spaced over [0, range]."""
        return np.linspace(0.0, self.range, self.n_channels + 1)


@dataclass
class TacHistogram:
    """Binned start-stop differences over [0, range]."""

    bin_edges: np.ndarray
    counts: np.ndarray
    duration: float

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self, path, config_hash: str = "") -> None:
        with open(path, "w") as fh:
            fh.write(f"# duration_s={float(self.duration)!r}\n")
            fh.write(f"# config_hash={config_hash}\n")
            fh.write("bin_center_s,count\n")
            for c, n in zip(self.bin_centers, self.counts):
                fh.write(f"{float(c)!r},{int(n)}\n")


def _accept_free(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Mask of the events a device that goes blind while busy accepts.

    Event ``i`` would keep the device busy from ``starts[i]`` to ``ends[i]``;
    it is accepted when it arrives at or after the end of the last accepted
    event's busy period.  ``starts`` must be sorted and ``ends``
    nondecreasing, so that end is the latest end of any accepted event, and
    the previous event's end the latest of all earlier ones.  An event at or
    after the previous event's end is accepted in bulk, whatever happened
    before it.  An event before the end of the last bulk-accepted event is
    rejected outright.  Only the rest, rare ones whose fate depends on an
    earlier rejected event, are decided in a short loop, in order.
    """
    free = np.ones(starts.size, dtype=bool)
    free[1:] = starts[1:] >= ends[:-1]
    free_end = np.maximum.accumulate(np.where(free, ends, -math.inf))
    accepted = free.copy()
    ambiguous = np.flatnonzero(~free & (starts >= free_end))
    busy_until = -math.inf
    for i, start, end, end_free in zip(
        ambiguous.tolist(),
        starts[ambiguous].tolist(),
        ends[ambiguous].tolist(),
        free_end[ambiguous].tolist(),
    ):
        if start >= max(end_free, busy_until):
            accepted[i] = True
            busy_until = end
    return accepted


def detect_clicks(
    times: np.ndarray, model: DetectorModel, rng: np.random.Generator
) -> np.ndarray:
    """Apply timing jitter, then dead-time suppression, to detected photons.

    ``times`` are photons the detector has already detected: the efficiency
    is applied where they are drawn, in
    :func:`biphoton.engines.generate_events`, so ``model.efficiency`` is not
    read here.  They may come in any order: the clicks are sorted after the
    jitter, the one place the chain orders them, and returned sorted.  Dead
    time is non-paralysable: a click is kept when ``t >= last + dead_time``,
    ``last`` being the last kept click, and a lost click does not extend the
    dead period.  This is the TAC's busy-period rule with no stop, so both
    share one kernel (``_accept_free``).
    """
    times = np.asarray(times, dtype=float)
    if model.timing_jitter_sigma > 0 and times.size:
        times = times + rng.normal(0.0, model.timing_jitter_sigma, times.size)
    times = np.sort(times)
    if model.dead_time > 0 and times.size:
        times = times[_accept_free(times, times + model.dead_time)]
    return times


def detect_streams(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    detector_a: DetectorModel,
    detector_b: DetectorModel,
    duration: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted click times at A and B of one acquisition of length ``duration``.

    Its photons are drawn at the detectors' own efficiencies, so each is
    applied exactly once; then jitter and dead time act, A first.
    """
    efficiency = (detector_a.efficiency, detector_b.efficiency)
    events = generate_events(profile, geometry, rates, duration, rng, efficiency)
    t_a = detect_clicks(events.a, detector_a, rng)
    t_b = detect_clicks(events.b, detector_b, rng)
    return t_a, t_b


def tac_differences(
    starts: np.ndarray, stops: np.ndarray, tac: TacConfig
) -> np.ndarray:
    """Start-stop differences recorded by a single-start/single-stop TAC.

    ``stops`` are shifted by the electrical delay before pairing; both
    inputs must be sorted.  A start arms the TAC; the next stop completes
    the conversion if it falls within the range, otherwise the TAC times out
    at start + range.  Starts during a pending conversion (before the busy
    period's end) are dropped; an out-of-range stop remains available to
    later starts, and a start with no later stop never converts.

    Each start's next stop and the end of the busy period it would open are
    found for all starts at once; which starts arm the TAC is then the same
    busy-period rule as detector dead time (``_accept_free``).  The ends
    never decrease: a later start has the same next stop or a later one, and
    a timeout ends at fl(start + range), no later than its stop.
    """
    starts = np.asarray(starts, dtype=float)
    stops = np.asarray(stops, dtype=float) + tac.electrical_delay
    if np.any(starts[1:] < starts[:-1]) or np.any(stops[1:] < stops[:-1]):
        raise PreconditionError("TAC starts and stops must be sorted")
    nxt = np.searchsorted(stops, starts, side="right")
    # starts with no later stop form a suffix and never convert
    n = int(np.searchsorted(nxt, stops.size, side="left"))
    if n == 0:
        return np.empty(0, dtype=float)
    starts = starts[:n]
    stop = stops[nxt[:n]]
    diffs = stop - starts
    converts = diffs <= tac.range
    ends = np.where(converts, stop, starts + tac.range)
    return diffs[_accept_free(starts, ends) & converts]


def histogram_from_clicks(
    t_a: np.ndarray, t_b: np.ndarray, tac: TacConfig, duration: float
) -> TacHistogram:
    diffs = tac_differences(t_a, t_b, tac)
    edges = tac.bin_edges
    counts, _ = np.histogram(diffs, bins=edges)
    return TacHistogram(
        bin_edges=edges, counts=counts.astype(np.int64), duration=duration
    )


def acquire_histogram(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    detector_a: DetectorModel,
    detector_b: DetectorModel,
    tac: TacConfig,
    duration: float,
    rng: np.random.Generator,
) -> TacHistogram:
    """Full chain of one acquisition: detected photons, jitter, dead time,
    TAC pairing, MCA binning."""
    t_a, t_b = detect_streams(
        profile, geometry, rates, detector_a, detector_b, duration, rng
    )
    return histogram_from_clicks(t_a, t_b, tac, duration)


def window_channels(
    bin_edges: np.ndarray, window_center: float, window_width: float
) -> np.ndarray:
    """Mask of the MCA channels a coincidence window takes: those whose bin
    centre lies in [center - width/2, center + width/2].

    Raises DomainError unless the width is positive and the window lies
    inside the range of ``bin_edges`` and takes at least one channel; a NaN
    width or centre fails these tests.
    """
    if not window_width > 0:
        raise DomainError(f"window width must be positive, got {window_width}")
    lo = window_center - window_width / 2.0
    hi = window_center + window_width / 2.0
    if not (lo >= bin_edges[0] and hi <= bin_edges[-1]):
        raise DomainError(
            f"window [{lo}, {hi}] s falls outside the histogram range "
            f"[{bin_edges[0]}, {bin_edges[-1]}] s"
        )
    centers = 0.5 * (bin_edges[:-1] + bin_edges[1:])
    mask = (centers >= lo) & (centers <= hi)
    if not mask.any():
        raise DomainError(
            f"window [{lo}, {hi}] s holds no MCA channel centre; the channels "
            f"are {bin_edges[1] - bin_edges[0]:.6g} s wide"
        )
    return mask


def gate_count(hist: TacHistogram, window_center: float, window_width: float) -> int:
    """Counts in the channels :func:`window_channels` assigns the window."""
    mask = window_channels(hist.bin_edges, window_center, window_width)
    return int(hist.counts[mask].sum())
