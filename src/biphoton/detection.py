"""Detectors, TAC and MCA simulation.

Turns event streams into start-stop time-difference histograms.  Detector A
provides the start pulse, detector B the stop pulse after a fixed electrical
delay; the TAC is single-start/single-stop (starts arriving while a
conversion is pending are dropped, a start with no stop inside the range
times out).  The coincidence window is applied afterwards, on the recorded
histogram, so the window choice is a delayed choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .engines import EventStream


@dataclass(frozen=True)
class DetectorModel:
    """Timing jitter (Gaussian sigma), dead time, and quantum efficiency."""

    timing_jitter_sigma: float = 300e-12
    dead_time: float = 50e-9
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.timing_jitter_sigma < 0 or self.dead_time < 0:
            raise DomainError("jitter and dead time must be nonnegative")
        if not 0.0 <= self.efficiency <= 1.0:
            raise DomainError(f"efficiency must lie in [0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class TacConfig:
    """TAC/MCA settings: stop-channel delay, conversion range, channel count."""

    electrical_delay: float = 10e-9
    range: float = 20e-9
    n_channels: int = 4096

    def __post_init__(self) -> None:
        if self.range <= 0:
            raise DomainError("TAC range must be positive")
        if self.n_channels < 2:
            raise DomainError("TAC needs at least 2 channels")
        if self.electrical_delay < 0:
            raise DomainError("electrical delay must be nonnegative")


@dataclass
class TacHistogram:
    """Binned start-stop differences over [0, range].

    ``mergeable`` is set when both detectors ran without dead time; merging
    dead-time-affected histograms would double-count suppression and is
    refused.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    duration: float
    mergeable: bool = True

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


def detect_clicks(
    times: np.ndarray, model: DetectorModel, rng: np.random.Generator
) -> np.ndarray:
    """Apply efficiency thinning, timing jitter, then dead-time suppression.

    Returns the accepted click times, sorted.
    """
    times = np.asarray(times, dtype=float)
    if model.efficiency < 1.0:
        times = times[rng.random(times.size) < model.efficiency]
    if model.timing_jitter_sigma > 0 and times.size:
        times = times + rng.normal(0.0, model.timing_jitter_sigma, times.size)
    times = np.sort(times)
    if model.dead_time > 0 and times.size:
        kept = [times[0]]
        last = times[0]
        for t in times[1:]:
            if t - last >= model.dead_time:
                kept.append(t)
                last = t
        times = np.array(kept)
    return times


def detect_streams(
    events: EventStream,
    detector_a: DetectorModel,
    detector_b: DetectorModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Detected click times at A and B for one event stream."""
    if events.time.size and np.any(np.diff(events.time) < 0):
        raise PreconditionError("event stream must be time-sorted")
    t_a = detect_clicks(events.times_for(0), detector_a, rng)
    t_b = detect_clicks(events.times_for(1), detector_b, rng)
    return t_a, t_b


def tac_differences(
    starts: np.ndarray, stops: np.ndarray, tac: TacConfig
) -> np.ndarray:
    """Start-stop differences recorded by a single-start/single-stop TAC.

    ``stops`` are shifted by the electrical delay before pairing.  A start
    arms the TAC; the next stop completes the conversion if it falls within
    the range, otherwise the TAC times out at start + range.  Starts during
    a pending conversion are dropped; an out-of-range stop remains available
    to later starts.
    """
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


def histogram_from_clicks(
    t_a: np.ndarray,
    t_b: np.ndarray,
    tac: TacConfig,
    duration: float,
    mergeable: bool = True,
) -> TacHistogram:
    diffs = tac_differences(t_a, t_b, tac)
    edges = np.linspace(0.0, tac.range, tac.n_channels + 1)
    counts, _ = np.histogram(diffs, bins=edges)
    return TacHistogram(
        bin_edges=edges,
        counts=counts.astype(np.int64),
        duration=duration,
        mergeable=mergeable,
    )


def acquire_histogram(
    events: EventStream,
    detector_a: DetectorModel,
    detector_b: DetectorModel,
    tac: TacConfig,
    rng: np.random.Generator,
) -> TacHistogram:
    """Full chain: thinning, jitter, dead time, TAC pairing, MCA binning."""
    t_a, t_b = detect_streams(events, detector_a, detector_b, rng)
    mergeable = detector_a.dead_time == 0 and detector_b.dead_time == 0
    return histogram_from_clicks(t_a, t_b, tac, events.duration, mergeable)


def merge_histograms(a: TacHistogram, b: TacHistogram) -> TacHistogram:
    """Bin-wise sum; only valid for acquisitions taken without dead time."""
    if not (a.mergeable and b.mergeable):
        raise PreconditionError(
            "cannot merge histograms acquired with detector dead time enabled"
        )
    if a.bin_edges.shape != b.bin_edges.shape or not np.allclose(
        a.bin_edges, b.bin_edges
    ):
        raise PreconditionError("histogram binnings differ")
    return TacHistogram(
        bin_edges=a.bin_edges.copy(),
        counts=a.counts + b.counts,
        duration=a.duration + b.duration,
        mergeable=True,
    )


def gate_count(hist: TacHistogram, window_center: float, window_width: float) -> int:
    """Counts in bins whose center lies inside the coincidence window."""
    if window_width <= 0:
        raise DomainError("window width must be positive")
    lo = window_center - window_width / 2.0
    hi = window_center + window_width / 2.0
    if lo < hist.bin_edges[0] or hi > hist.bin_edges[-1]:
        raise DomainError(
            f"window [{lo}, {hi}] falls outside the histogram range "
            f"[{hist.bin_edges[0]}, {hist.bin_edges[-1]}]"
        )
    centers = hist.bin_centers
    mask = (centers >= lo) & (centers <= hi)
    return int(hist.counts[mask].sum())
