"""Fringe-scan orchestration, visibility fitting, and the classicality verdict.

The regime label reads the gate the window applies, delay +/- W/2: the
window is classical when its half-width strictly exceeds the arrival-time
split delta_L/c, so the gate reaches the side peaks' centres, and quantum
otherwise.  It ignores the peaks' jitter width, so a window whose half-width
lies just past the split still cuts off part of them and can fit a V above
50% (ROADMAP item 1 derives the label from the gated peaks).  A locked-period
Poisson fit whose one-sided likelihood-ratio test rejects V <= 0.5 at 2 sigma
is nonclassical.  Its fixed-V fits are Newton's method on the phase, checked
against a grid over every phase in ``tests/oracle.py``.
A scan is acquired once, a row of :func:`acquire_histogram` per point, and a
window gates every row at once, as one range of the TAC's channels.  The
points run on a pool of min(usable CPUs, points) threads, each on its own
random stream into its own row, so the corpus does not depend on the pool's
size.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .detection import DetectorModel, TacConfig, acquire_histogram, gate_count
from .engines import SourceRates
from .errors import DomainError, FitError
from .interferometer import SPEED_OF_LIGHT, InterferometerGeometry, delta_L
from .spectral import TWO_PI, SpectralProfile


class Regime(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class Verdict(Enum):
    CONSISTENT_WITH_CLASSICAL = "consistent_with_classical"
    NONCLASSICAL = "nonclassical"


def classify_regime(window_width: float, geometry: InterferometerGeometry) -> Regime:
    """Classical if the gate's half-width strictly exceeds delta_L/c, so it
    reaches the side peaks' centres, else quantum, even at equality."""
    split = delta_L(geometry) / SPEED_OF_LIGHT
    return Regime.CLASSICAL if window_width / 2 > split else Regime.QUANTUM


@dataclass
class FringeScan:
    """Per-offset singles rates and gated coincidence counts, in any order."""

    offsets: np.ndarray
    singles_a: np.ndarray
    singles_b: np.ndarray
    coincidences: np.ndarray
    duration: float
    window_width: float

    def __post_init__(self) -> None:
        if np.any(self.coincidences < 0):
            raise DomainError("counts must be nonnegative")


@dataclass
class VisibilityReport:
    """A fit's result; each field is the key it is written under."""

    visibility: float
    visibility_sigma: float
    period_m: float
    phase_rad: float
    baseline: float
    regime: Regime | None
    verdict: Verdict
    chi2: float
    n_points: int

    def to_dict(self) -> dict:
        return asdict(self) | {
            "regime": self.regime.value if self.regime else None,
            "verdict": self.verdict.value,
        }


@dataclass
class ScanCorpus:
    """A fringe scan acquired once: per point its offset, its clicks at A and
    B (``clicks``, one row each) and its MCA counts (one row of ``counts``),
    every row binned on the TAC's channels."""

    offsets: np.ndarray
    clicks: np.ndarray
    counts: np.ndarray
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
) -> ScanCorpus:
    """Simulate the full scan once; every window analysis reuses this corpus.

    Point ``i`` is one :func:`acquire_histogram` run on its own stream,
    ``SeedSequence(seed, spawn_key=(i,))``, that writes its row of the
    preallocated int64 ``counts`` and ``clicks`` matrices.  The points run on
    a pool of min(usable CPUs, points) threads, made for this call; no two
    share a stream or a row, so the corpus is bit-identical whatever the
    pool's size.  A point's exception is raised here, after the points
    already running have finished.
    """
    offsets = np.array(offsets, dtype=float)
    corpus = ScanCorpus(
        offsets=offsets,
        clicks=np.empty((offsets.size, 2), dtype=np.int64),
        counts=np.empty((offsets.size, tac.n_channels), dtype=np.int64),
        duration=duration,
    )

    def acquire_point(i: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        geom = geometry.with_offset(float(offsets[i]))
        corpus.counts[i], corpus.clicks[i] = acquire_histogram(
            profile, geom, rates, detector_a, detector_b, tac, duration, rng
        )

    # numpy releases the interpreter lock for the jitter draws, the sorts and
    # the TAC's binary search, about half of a point's time
    workers = max(1, min(_usable_cpus(), offsets.size))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(acquire_point, range(offsets.size)))  # raises a point's error
    return corpus


def _usable_cpus() -> int:
    """The CPUs this process may run on (``nproc``), or the machine's count
    where the platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def gate_scan(corpus: ScanCorpus, tac: TacConfig, window_width: float) -> FringeScan:
    """Delayed-choice window applied to an already acquired corpus: one
    channel range gates every point."""
    duration = corpus.duration
    if duration > 0:
        singles = corpus.clicks / duration
    else:
        singles = np.zeros(corpus.clicks.shape)
    return FringeScan(
        offsets=corpus.offsets,
        singles_a=singles[:, 0],
        singles_b=singles[:, 1],
        coincidences=gate_count(corpus.counts, tac, tac.electrical_delay, window_width),
        duration=duration,
        window_width=window_width,
    )


# a Newton step on the phase is at most 1/64 turn: at V = 1 the profile has a
# pole at each counted point's null, and short steps stay between the poles
_PHASE_STEP = TWO_PI / 64
_TOLERANCE = 1e-10  # Newton decrement, about twice the log-likelihood still to gain
_LR_THRESHOLD = 4.0  # (2 sigma)^2: the one-sided 2-sigma level


def _fixed_visibility_fit(
    theta: np.ndarray, y: np.ndarray, vis: float, phi: float
) -> tuple[float, float, float]:
    """Maximum Poisson log-likelihood of baseline * (1 - vis cos(theta + phi)).

    The baseline profiles out as N / sum(g), g = 1 - vis cos(theta + phi), and
    Newton's method from the given phi climbs sum(y log g) - N log sum(g), by
    analytic derivatives, each step clipped to ``_PHASE_STEP`` and uphill
    where the profile is not concave.  Returns (log-likelihood, baseline, phi).
    """
    n_total, hit = float(y.sum()), y > 0
    for _ in range(100):
        c, s = vis * np.cos(theta + phi), vis * np.sin(theta + phi)
        g, total = 1.0 - c[hit], theta.size - c.sum()
        ratio, mean_c, mean_s = s[hit] / g, c.sum() / total, s.sum() / total
        slope = y[hit] @ ratio - n_total * mean_s
        curve = y[hit] @ (c[hit] / g - ratio**2) - n_total * (mean_c - mean_s**2)
        step = -slope / curve if curve < 0 else math.copysign(_PHASE_STEP, slope)
        phi += min(max(step, -_PHASE_STEP), _PHASE_STEP)
        if slope * step < _TOLERANCE:
            break
    g = 1.0 - vis * np.cos(theta + phi)
    total = float(g.sum())
    h = float(np.log(g[hit]) @ y[hit]) - n_total * math.log(total)
    return n_total * (math.log(n_total) - 1.0) + h, n_total / total, phi


def fringe_design(offsets, period: float) -> tuple[np.ndarray, np.ndarray]:
    """Fringe phases theta = 2 pi x/P and the fit's columns [1, cos, sin].

    Raises FitError when the columns are rank-deficient (by the rank of their
    Gram matrix): offsets that alias onto one or two fringe phases cannot
    resolve the fringe.  Config validation runs this same test on the scan.
    """
    theta = TWO_PI * np.asarray(offsets, dtype=float) / period
    design = np.column_stack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
    if np.linalg.matrix_rank(design.T @ design) < 3:
        raise FitError("the scan offsets do not resolve the fringe phase")
    return theta, design


def fit_visibility(
    scan: FringeScan,
    known_period: float | None = None,
    regime: Regime | None = None,
) -> VisibilityReport:
    """Poisson maximum-likelihood fit of baseline * (1 - V cos(2 pi x/P + phi)).

    The period P is locked to ``known_period``, which is required, so the
    model b0 + b1 cos(theta) + b2 sin(theta), theta = 2 pi x/P, is linear and
    V = sqrt(b1^2 + b2^2)/b0 is kept in [0, 1].  From a linear solve weighted
    by 1/max(count, 1), Fisher-scoring steps climb the concave log-likelihood,
    each halved until it keeps V < 1 and does not lower the likelihood; if
    they stall against V = 1, the best fit with V fixed at 1 is reported.

    The verdict is a one-sided likelihood-ratio test of V <= 0.5 (Chernoff,
    Ann. Math. Stat. 25, 573, 1954): nonclassical only when V > 0.5 and
    2 (l_max - l(V = 0.5)) > 4, the 2-sigma level.  A fit at fixed V is
    Newton's method on the phase from where the ascent stopped: the likelihood
    is concave and {V <= v} a convex cone, so the maximum there is unique, on
    the surface, next to that start.  ``visibility_sigma`` is the delta-method
    error from the information weighted by 1/max(count, 1), and ``chi2`` the
    matching Neyman chi-square.
    """
    x = np.asarray(scan.offsets, dtype=float)
    y = np.asarray(scan.coincidences, dtype=float)
    if x.size < 5:
        raise FitError("too few points to fit a fringe")
    if known_period is None:
        raise FitError("the fringe period must be given: the fit locks it")
    if not y.sum() > 0:
        raise FitError("the scan has no coincidences to fit")
    theta, design = fringe_design(x, known_period)
    neyman = 1.0 / np.maximum(y, 1.0)
    info = (design.T * neyman) @ design
    start = np.linalg.solve(info, design.T @ (neyman * y))

    def inside(coef):
        return math.hypot(coef[1], coef[2]) < coef[0]

    def loglik_of(coef):
        mu = design @ coef
        return float(y @ np.log(mu) - mu.sum())  # up to -sum(log y!)

    b = start if inside(start) else np.array([y.mean(), 0.0, 0.0])
    loglik = loglik_of(b)
    for _ in range(100):
        mu = design @ b
        score = design.T @ (y / mu - 1.0)
        step = np.linalg.solve((design.T / mu) @ design, score)
        converged = score @ step < _TOLERANCE
        if converged:
            break
        for trial in (b + 0.5**k * step for k in range(40)):
            if inside(trial) and (trial_loglik := loglik_of(trial)) >= loglik:
                break
        else:
            break
        b, loglik = trial, trial_loglik
    baseline = float(b[0])
    vis = math.hypot(b[1], b[2]) / baseline
    phase = math.atan2(b[2], -b[1])
    if not converged:
        # a concave likelihood whose ascent stalls peaks on the V = 1 boundary
        edge = _fixed_visibility_fit(theta, y, 1.0, phase)
        if edge[0] >= loglik:
            loglik, baseline, vis, phase = edge[0], edge[1], 1.0, edge[2]

    mu = baseline * (1.0 - vis * np.cos(theta + phase))
    grad = np.array([-vis, -math.cos(phase), math.sin(phase)]) / baseline
    vis_sigma = math.sqrt(grad @ np.linalg.solve(info, grad))
    null = _fixed_visibility_fit(theta, y, 0.5, phase)[0] if vis > 0.5 else loglik
    verdict = Verdict.CONSISTENT_WITH_CLASSICAL
    if 2.0 * (loglik - null) > _LR_THRESHOLD:  # null = l(V = 0.5)
        verdict = Verdict.NONCLASSICAL
    return VisibilityReport(
        visibility=vis,
        visibility_sigma=vis_sigma,
        period_m=float(known_period),
        phase_rad=math.remainder(phase, TWO_PI),
        baseline=baseline,
        regime=regime,
        verdict=verdict,
        chi2=float(np.sum((y - mu) ** 2 * neyman)),
        n_points=int(x.size),
    )

