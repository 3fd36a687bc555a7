"""Fringe-scan orchestration, visibility fitting, and the classicality verdict.

The regime label reads the gate the window applies, delay +/- W/2: the
window is classical when its half-width strictly exceeds the arrival-time
split delta_L/c, so the gate reaches the side peaks' centres, and quantum
otherwise.  It ignores the peaks' jitter width, so a window whose half-width
lies just past the split still cuts off part of them and can fit a V above
50% (ROADMAP item 1 derives the label from the gated peaks).  A locked-period
Poisson fit whose one-sided likelihood-ratio test rejects V <= 0.5 at 2 sigma
is nonclassical.
A scan is acquired once, a row of :func:`acquire_histogram` per point, and a
window gates every row at once, as one range of the TAC's channels.
"""
from __future__ import annotations

import math
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
    ``SeedSequence(seed, spawn_key=(i,))``, so points can be computed in any
    order (or in parallel) with identical results.  Each run returns its row
    of the preallocated int64 ``counts`` and ``clicks`` matrices.
    """
    offsets = np.array(offsets, dtype=float)
    corpus = ScanCorpus(
        offsets=offsets,
        clicks=np.empty((offsets.size, 2), dtype=np.int64),
        counts=np.empty((offsets.size, tac.n_channels), dtype=np.int64),
        duration=duration,
    )
    for i, offset in enumerate(offsets):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        geom = geometry.with_offset(float(offset))
        corpus.counts[i], corpus.clicks[i] = acquire_histogram(
            profile, geom, rates, detector_a, detector_b, tac, duration, rng
        )
    return corpus


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


_PHASE_GRID = 64
# each refinement splits the step by 32, to 2 pi/64/32**5 = 3e-9 rad; at V = 1,
# though, the maximum is flat to rounding over about 1e-7 rad
_REFINEMENTS = 5
_TOLERANCE = 1e-10  # Newton decrement, about twice the log-likelihood still to gain
_LR_THRESHOLD = 4.0  # (2 sigma)^2: the one-sided 2-sigma level


def _fixed_visibility_fit(
    theta: np.ndarray, y: np.ndarray, vis: float
) -> tuple[float, float, float]:
    """Maximum Poisson log-likelihood of baseline * (1 - vis cos(theta + phi)).

    The baseline profiles out as N / sum(g), g = 1 - vis cos(theta + phi), and
    phi comes from a coarse grid refined around each of its local maxima.
    Returns (log-likelihood, baseline, phi).
    """
    n_total = float(y.sum())
    hit = y > 0

    def profile(phi):
        g = 1.0 - vis * np.cos(theta + phi[:, None])
        with np.errstate(divide="ignore"):
            return np.log(g[:, hit]) @ y[hit] - n_total * np.log(g.sum(axis=1))

    step = TWO_PI / _PHASE_GRID
    h = profile(np.arange(_PHASE_GRID) * step)
    phi = np.flatnonzero((h >= np.roll(h, 1)) & (h >= np.roll(h, -1))) * step
    for _ in range(_REFINEMENTS):
        grid = phi[:, None] + np.linspace(-step, step, 65)
        h = profile(grid.ravel()).reshape(grid.shape)
        phi = grid[np.arange(phi.size), h.argmax(axis=1)]
        step /= 32.0
    best = float(grid.flat[h.argmax()])
    total = float(np.sum(1.0 - vis * np.cos(theta + best)))
    return n_total * (math.log(n_total) - 1.0) + float(h.max()), n_total / total, best


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
    2 (l_max - l(V = 0.5)) > 4, the 2-sigma level.  ``visibility_sigma`` is
    the delta-method error from the information weighted by 1/max(count, 1),
    and ``chi2`` the matching Neyman chi-square.
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
        edge_loglik, edge_baseline, edge_phase = _fixed_visibility_fit(theta, y, 1.0)
        if edge_loglik >= loglik:
            loglik, baseline, vis, phase = edge_loglik, edge_baseline, 1.0, edge_phase

    mu = baseline * (1.0 - vis * np.cos(theta + phase))
    grad = np.array([-vis, -math.cos(phase), math.sin(phase)]) / baseline
    vis_sigma = math.sqrt(grad @ np.linalg.solve(info, grad))
    null_loglik = _fixed_visibility_fit(theta, y, 0.5)[0] if vis > 0.5 else loglik
    verdict = Verdict.CONSISTENT_WITH_CLASSICAL
    if 2.0 * (loglik - null_loglik) > _LR_THRESHOLD:
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

