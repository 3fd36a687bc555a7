"""Detectors, TAC and MCA simulation.

Turns one acquisition into a start-stop time-difference histogram: the
int64 counts in each MCA channel, and the clicks at A and B
(:func:`acquire_histogram`).  The photons come from
:func:`biphoton.engines.generate_events`, already thinned by the detectors'
efficiencies, and the detector model here adds timing jitter and dead time.
Detector A provides the start pulse, detector B the stop pulse after a fixed
electrical delay, into a single-start/single-stop TAC
(:func:`tac_differences`).  The coincidence window is applied afterwards, on
the recorded histogram, as one range of channels, so the window choice is a
delayed choice.

Detector dead time and the TAC's pending conversion are one busy-period
rule, which one array kernel, :func:`_accept_free`, applies for both.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .engines import SourceRates, generate_events
from .errors import DomainError
from .interferometer import InterferometerGeometry
from .spectral import SpectralProfile


@dataclass(frozen=True)
class DetectorModel:
    """Timing jitter (Gaussian sigma) and dead time, s, and quantum efficiency."""

    jitter_sigma_s: float
    dead_time_s: float
    efficiency: float


@dataclass(frozen=True)
class TacConfig:
    """TAC/MCA settings: stop-channel delay, conversion range, channel count."""

    electrical_delay: float
    range: float
    n_channels: int

    @functools.cached_property
    def bin_edges(self) -> np.ndarray:
        """Edges of the MCA channels, ``n_channels + 1`` even steps over
        [0, range]: the channel map, computed once and read-only."""
        edges = np.linspace(0.0, self.range, self.n_channels + 1)
        edges.flags.writeable = False
        return edges

    @functools.cached_property
    def bin_centers(self) -> np.ndarray:
        """Centres of the MCA channels, the midpoints of :attr:`bin_edges`.

        Computed once and read-only, so every histogram and window of this
        TAC shares the one array.
        """
        edges = self.bin_edges
        centers = 0.5 * (edges[:-1] + edges[1:])
        centers.flags.writeable = False
        return centers


def _accept_free(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Mask of the events a device that goes blind while busy accepts.

    Event ``i`` would keep the device busy from ``starts[i]`` to ``ends[i]``;
    it is accepted when it arrives at or after the end of the last accepted
    event's busy period.  ``starts`` must be sorted and ``ends``
    nondecreasing, so the rule has two tiers.  An event free of its
    predecessor (``starts[i] >= ends[i - 1]``) is free of every earlier one,
    so it is accepted; a busy event right after a free one is rejected.  Only
    the later events of a run of busy events go through a short loop, in
    order, each run starting from the end of the free event before it.
    """
    accepted = np.ones(starts.size, dtype=bool)
    accepted[1:] = starts[1:] >= ends[:-1]
    busy = ~accepted
    for i in (np.flatnonzero(busy[1:] & busy[:-1]) + 1).tolist():
        if not busy[i - 2]:
            busy_until = ends[i - 2]
        if starts[i] >= busy_until:
            accepted[i] = True
            busy_until = ends[i]
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
    time is non-paralysable: a click is kept when ``t >= last + dead_time_s``,
    ``last`` being the last kept click, and a lost click does not extend the
    dead period.  This is the TAC's busy-period rule with no stop, so both
    share one kernel (``_accept_free``).
    """
    times = np.asarray(times, dtype=float)
    if model.jitter_sigma_s > 0:
        jitter = rng.standard_normal(times.size)
        jitter *= model.jitter_sigma_s  # rng.normal(0.0, sigma, n), in place
        times = np.add(times, jitter, out=jitter)
    times = np.sort(times)
    if model.dead_time_s > 0:
        times = times[_accept_free(times, times + model.dead_time_s)]
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
        raise DomainError("TAC starts and stops must be sorted")
    # a start with no later stop pairs with one at infinity: it times out
    stop = np.append(stops, np.inf)[np.searchsorted(stops, starts, side="right")]
    diffs = stop - starts
    converts = diffs <= tac.range
    ends = np.where(converts, stop, starts + tac.range)
    return diffs[_accept_free(starts, ends) & converts]


def histogram_from_clicks(
    t_a: np.ndarray, t_b: np.ndarray, tac: TacConfig
) -> np.ndarray:
    """int64 counts of the start-stop differences, which
    :func:`tac_differences` returns in (0, ``tac.range``], in each of the
    ``tac.n_channels`` even MCA channels over [0, ``tac.range``].

    These are the counts ``np.histogram`` gives on ``tac.bin_edges``, by its
    own rule without its wrapper's cost: a difference's scaled value,
    truncated, lies within one channel of its own; one step down where it
    falls below that channel's lower edge, then one up where it reaches the
    upper edge (except in the last channel, which holds ``range``), settle
    it on the edges.
    """
    diffs = tac_differences(t_a, t_b, tac)
    n = tac.n_channels
    edges = tac.bin_edges
    channel = (diffs * (n / tac.range)).astype(np.intp)
    np.minimum(channel, n - 1, out=channel)
    channel -= diffs < edges[channel]
    channel += (diffs >= edges[channel + 1]) & (channel != n - 1)
    return np.bincount(channel, minlength=n).astype(np.int64, copy=False)


def acquire_histogram(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    detector_a: DetectorModel,
    detector_b: DetectorModel,
    tac: TacConfig,
    duration: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Full chain of one acquisition: detected photons, jitter, dead time,
    TAC pairing, MCA binning.  Returns the MCA counts and the clicks at A
    and B, one row of a scan's ``counts`` and ``clicks``."""
    t_a, t_b = detect_streams(
        profile, geometry, rates, detector_a, detector_b, duration, rng
    )
    return histogram_from_clicks(t_a, t_b, tac), (t_a.size, t_b.size)


def window_channels(
    tac: TacConfig, window_center: float, window_width: float
) -> slice:
    """The MCA channels a coincidence window takes, as one slice: those whose
    centre lies in [center - width/2, center + width/2].  The centres are
    sorted, so they are one run.

    Raises DomainError unless the width is positive and the window lies
    inside the TAC range and takes at least one channel; a NaN width or
    centre fails these tests.
    """
    if not window_width > 0:
        raise DomainError(f"window width must be positive, got {window_width}")
    lo = window_center - window_width / 2.0
    hi = window_center + window_width / 2.0
    if not (lo >= 0.0 and hi <= tac.range):
        raise DomainError(
            f"window [{lo}, {hi}] s falls outside the histogram range "
            f"[0.0, {float(tac.range)}] s"
        )
    start = np.searchsorted(tac.bin_centers, lo, "left")
    stop = np.searchsorted(tac.bin_centers, hi, "right")
    if not start < stop:
        raise DomainError(
            f"window [{lo}, {hi}] s holds no MCA channel centre; the channels "
            f"are {tac.range / tac.n_channels:.6g} s wide"
        )
    return slice(start, stop)


def gate_count(
    counts: np.ndarray, tac: TacConfig, window_center: float, window_width: float
):
    """Counts in the channels :func:`window_channels` assigns the window,
    summed over the last axis of ``counts``: one count for a histogram, one
    a row for a scan's count matrix."""
    return counts[..., window_channels(tac, window_center, window_width)].sum(axis=-1)
