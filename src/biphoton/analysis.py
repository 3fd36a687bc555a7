"""Fringe-scan orchestration, visibility fitting, and the classicality verdict.

The regime boundary is set by the coincidence window against the arrival-time
split delta_L/c: a window wider than the split cannot distinguish the paths
(classical regime, visibility capped at 50%); a narrower window selects the
central class only (quantum regime).  A fitted visibility more than two
standard deviations above 0.5 is reported as nonclassical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import optimize, stats
from scipy.constants import c as SPEED_OF_LIGHT

from .detection import (
    DetectorModel,
    TacConfig,
    TacHistogram,
    detect_streams,
    gate_count,
    histogram_from_clicks,
)
from .engines import SourceRates, generate_events
from .errors import BoundaryError, DomainError, FitError
from .interferometer import InterferometerGeometry, delta_L
from .spectral import TWO_PI, SpectralProfile


class Regime(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class Verdict(Enum):
    CONSISTENT_WITH_CLASSICAL = "consistent_with_classical"
    NONCLASSICAL = "nonclassical"


class PztInterpretation(Enum):
    PATH_DIFFERENCE = "path_difference"
    MIRROR_DISPLACEMENT = "mirror_displacement"


@dataclass(frozen=True)
class PztCalibration:
    """Piezo calibration; the quoted value is 46 +/- 8 nm per volt."""

    nm_per_volt: float = 46.0
    nm_per_volt_sigma: float = 8.0
    interpretation: PztInterpretation = PztInterpretation.PATH_DIFFERENCE

    def __post_init__(self) -> None:
        if self.nm_per_volt <= 0:
            raise DomainError("nm_per_volt must be positive")


def volts_to_offset(volts: float, cal: PztCalibration) -> float:
    """Piezo drive voltage to optical-path offset in metres.

    A mirror displacement is traversed twice in a Michelson arm, doubling the
    path change.
    """
    factor = 2.0 if cal.interpretation is PztInterpretation.MIRROR_DISPLACEMENT else 1.0
    return factor * volts * cal.nm_per_volt * 1e-9


def classify_regime(window_width: float, geometry: InterferometerGeometry) -> Regime:
    """Classical if the window exceeds delta_L/c, quantum if it is smaller."""
    dl = delta_L(geometry)
    if dl <= 0:
        raise DomainError("path difference must be positive")
    split = dl / SPEED_OF_LIGHT
    if window_width == split:
        raise BoundaryError(
            f"window width equals delta_L/c = {split}; the boundary is undefined"
        )
    return Regime.CLASSICAL if window_width > split else Regime.QUANTUM


@dataclass
class FringeScan:
    """Per-offset singles rates and gated coincidence counts."""

    offsets: np.ndarray
    singles_a: np.ndarray
    singles_b: np.ndarray
    coincidences: np.ndarray
    duration: float
    window_width: float
    volts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.offsets) and np.any(np.diff(self.offsets) <= 0):
            raise DomainError("scan offsets must be strictly increasing")
        if np.any(self.coincidences < 0):
            raise DomainError("counts must be nonnegative")

    def to_csv(self, path, config_hash: str = "") -> None:
        with open(path, "w") as fh:
            fh.write(f"# window_s={float(self.window_width)!r}\n")
            fh.write(f"# config_hash={config_hash}\n")
            fh.write("offset_m,volts,singles_a,singles_b,coincidences,duration_s\n")
            volts = self.volts if self.volts is not None else np.zeros_like(self.offsets)
            for o, v, sa, sb, cc in zip(
                self.offsets, volts, self.singles_a, self.singles_b, self.coincidences
            ):
                fh.write(
                    f"{float(o)!r},{float(v)!r},{float(sa)!r},{float(sb)!r},"
                    f"{int(cc)},{float(self.duration)!r}\n"
                )


@dataclass
class VisibilityReport:
    visibility: float
    visibility_sigma: float
    period: float
    phase: float
    baseline: float
    regime: Regime | None
    verdict: Verdict
    chi2: float
    n_points: int

    def to_dict(self) -> dict:
        return {
            "visibility": self.visibility,
            "visibility_sigma": self.visibility_sigma,
            "period_m": self.period,
            "phase_rad": self.phase,
            "baseline": self.baseline,
            "regime": self.regime.value if self.regime else None,
            "verdict": self.verdict.value,
            "chi2": self.chi2,
            "n_points": self.n_points,
        }


@dataclass
class ScanPoint:
    """One acquisition of a fringe scan: histogram plus singles rates."""

    offset: float
    hist: TacHistogram
    singles_a: float
    singles_b: float
    duration: float


def acquire_scan_corpus(
    profile: SpectralProfile,
    geometry: InterferometerGeometry,
    rates: SourceRates,
    detector_a: DetectorModel,
    detector_b: DetectorModel,
    tac: TacConfig,
    offsets,
    duration: float,
    seed: int,
) -> list[ScanPoint]:
    """Simulate the full scan once; every window analysis reuses this corpus.

    Each scan point runs on an independently derived seed, so points can be
    computed in any order (or in parallel) with identical results.
    """
    points = []
    for i, offset in enumerate(offsets):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        geom = geometry.with_offset(float(offset))
        events = generate_events(profile, geom, rates, duration, rng)
        t_a, t_b = detect_streams(events, detector_a, detector_b, rng)
        mergeable = detector_a.dead_time == 0 and detector_b.dead_time == 0
        hist = histogram_from_clicks(t_a, t_b, tac, duration, mergeable)
        points.append(
            ScanPoint(
                offset=float(offset),
                hist=hist,
                singles_a=t_a.size / duration if duration > 0 else 0.0,
                singles_b=t_b.size / duration if duration > 0 else 0.0,
                duration=duration,
            )
        )
    return points


def gate_scan(
    corpus: list[ScanPoint], tac: TacConfig, window_width: float
) -> FringeScan:
    """Delayed-choice window applied to an already acquired corpus."""
    return FringeScan(
        offsets=np.array([p.offset for p in corpus]),
        singles_a=np.array([p.singles_a for p in corpus]),
        singles_b=np.array([p.singles_b for p in corpus]),
        coincidences=np.array(
            [gate_count(p.hist, tac.electrical_delay, window_width) for p in corpus]
        ),
        duration=corpus[0].duration if corpus else 0.0,
        window_width=window_width,
    )


def _fringe_model(x, baseline, vis, phase, period):
    return baseline * (1.0 - vis * np.cos(TWO_PI * x / period + phase))


def fit_visibility(
    scan: FringeScan,
    known_period: float | None = None,
    regime: Regime | None = None,
) -> VisibilityReport:
    """Weighted least-squares fit of baseline * (1 - V cos(2 pi x/P + phi)).

    Poisson weights (sigma_i = sqrt(max(count, 1))); when ``known_period`` is
    given the period is locked, otherwise it is fitted starting from the
    dominant FFT component.  The verdict is nonclassical only when
    V - 2 sigma_V > 0.5.
    """
    x = np.asarray(scan.offsets, dtype=float)
    y = np.asarray(scan.coincidences, dtype=float)
    if x.size < 5:
        raise FitError("too few points to fit a fringe")
    sigma = np.sqrt(np.maximum(y, 1.0))
    baseline0 = max(float(np.mean(y)), 1e-12)
    vis0 = min(
        (float(np.max(y)) - float(np.min(y))) / (2.0 * baseline0), 0.99
    )

    if known_period is not None:
        periods = [known_period]
        fit_period = False
    else:
        span = x.max() - x.min()
        detrended = y - np.mean(y)
        spectrum = np.abs(np.fft.rfft(detrended))
        freq = np.fft.rfftfreq(x.size, d=span / max(x.size - 1, 1))
        idx = int(np.argmax(spectrum[1:])) + 1
        periods = [1.0 / freq[idx]] if freq[idx] > 0 else [span]
        fit_period = True

    best = None
    diagnostics = []
    for period0 in periods:
        for phase0 in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            if fit_period:
                def model(xx, b, v, ph, pp):
                    return _fringe_model(xx, b, v, ph, pp)
                p0 = [baseline0, max(vis0, 0.05), phase0, period0]
            else:
                def model(xx, b, v, ph, pp=period0):
                    return _fringe_model(xx, b, v, ph, pp)
                p0 = [baseline0, max(vis0, 0.05), phase0]
            try:
                popt, pcov = optimize.curve_fit(
                    model, x, y, p0=p0, sigma=sigma, absolute_sigma=True, maxfev=20000
                )
            except (RuntimeError, optimize.OptimizeWarning) as exc:
                diagnostics.append(str(exc))
                continue
            resid = (y - model(x, *popt)) / sigma
            chi2 = float(np.sum(resid**2))
            if best is None or chi2 < best[0]:
                best = (chi2, popt, pcov, period0)
    if best is None:
        raise FitError(
            "fringe fit failed to converge; attempts: " + "; ".join(diagnostics)
        )
    chi2, popt, pcov, period0 = best
    baseline, vis, phase = popt[0], popt[1], popt[2]
    period = popt[3] if fit_period else period0
    if baseline < 0:
        baseline, vis = -baseline, -vis
    if vis < 0:
        vis, phase = -vis, phase + math.pi
    phase = math.remainder(phase, TWO_PI)
    vis_sigma = float(np.sqrt(np.abs(pcov[1][1])))

    verdict = (
        Verdict.NONCLASSICAL
        if vis - 2.0 * vis_sigma > 0.5
        else Verdict.CONSISTENT_WITH_CLASSICAL
    )
    return VisibilityReport(
        visibility=float(vis),
        visibility_sigma=vis_sigma,
        period=float(period),
        phase=float(phase),
        baseline=float(baseline),
        regime=regime,
        verdict=verdict,
        chi2=chi2,
        n_points=int(x.size),
    )


def flatness_pvalue(counts) -> float:
    """Chi-square p-value for 'these Poisson counts share one mean'."""
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean()
    if mean <= 0:
        return 1.0
    chi2 = float(np.sum((counts - mean) ** 2 / mean))
    return float(stats.chi2.sf(chi2, counts.size - 1))
