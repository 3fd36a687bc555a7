"""Fringe-scan orchestration, visibility fitting, and the classicality verdict.

The regime label reads the gate the window applies, delay +/- W/2: the
window is classical when its half-width strictly exceeds the arrival-time
split delta_L/c, so the gate reaches the side peaks' centres, and quantum
otherwise.  It ignores the peaks' jitter width, so a window whose half-width
lies just past the split still cuts off part of them and can fit a V above
50% (ROADMAP item 1 derives the label from the gated peaks).  A locked-period
Poisson fit whose one-sided likelihood-ratio test rejects V <= 0.5 at 2 sigma
is nonclassical.  One kernel fits the fringe at a fixed V, by Newton's method
on the phase, checked against a grid over every phase in ``tests/oracle.py``;
the free fit climbs its profile over V, bracketed on [0, 1].
A scan is acquired once, a row of :func:`acquire_histogram` per point, and a
window gates every row at once, as one range of the TAC's channels.  The
points run on a pool of min(usable CPUs, points) threads, each on its own
random stream into its own row, so the corpus does not depend on the pool's
size.
"""
from __future__ import annotations

import cmath
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
) -> tuple[float, float, float, float, float]:
    """Maximum Poisson log-likelihood of baseline * (1 - vis cos(theta + phi)).

    The baseline profiles out as N / sum(g), g = 1 - vis cos(theta + phi), and
    Newton's method from the given phi climbs sum(y log g) - N log sum(g), by
    analytic derivatives, each step clipped to ``_PHASE_STEP`` and uphill
    where the profile is not concave.  The arrays at the phi it stops at also
    give the slope of l_p(V) = max_phi l(V, phi), dl/dV by the envelope
    theorem, and its curvature, the Schur complement l_VV - l_Vphi^2/l_phiphi.
    Returns (log-likelihood, baseline, phi, dl_p/dV, d2l_p/dV2).
    """
    n_total, hit = float(y.sum()), y > 0
    turn = np.exp(1j * theta)  # e^{i theta}, rotated by e^{i phi} on each step
    y, turn_hit, turn_sum = y[hit], turn[hit], complex(turn.sum())
    # a counted point on the null at V = 1 gives inf and nan, and a step off it
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            rotation = cmath.exp(1j * phi)
            wave, wave_sum = turn_hit * rotation, turn_sum * rotation
            g, total = 1.0 - vis * wave.real, theta.size - vis * wave_sum.real
            a, b = wave.real / g, wave.imag / g
            mean_c, mean_s = wave_sum.real / total, wave_sum.imag / total
            d_a, d_b = y @ a - n_total * mean_c, y @ b - n_total * mean_s
            slope = vis * d_b  # dl/dphi
            curve = vis * d_a - vis**2 * (y @ b**2 - n_total * mean_s**2)
            step = -slope / curve if curve < 0 else math.copysign(_PHASE_STEP, slope)
            step = min(max(step, -_PHASE_STEP), _PHASE_STEP)
            if curve < 0 and slope * step < _TOLERANCE:
                break
            phi += step
    curve_vphi = d_b + vis * (y @ (a * b) - n_total * mean_c * mean_s)
    curve_v = n_total * mean_c**2 - y @ a**2 - curve_vphi**2 / curve
    loglik = n_total * (math.log(n_total / total) - 1.0) + float(np.log(g) @ y)
    return loglik, n_total / total, phi, float(-d_a), float(curve_v)


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

    The period P is locked to ``known_period``, which is required.  In the
    linear form b0 + b1 cos(theta) + b2 sin(theta), theta = 2 pi x/P, the
    log-likelihood is concave and each {V <= v}, V = sqrt(b1^2 + b2^2)/b0, a
    convex cone, so the profile l_p(V) = max_phi l(V, phi) is unimodal on
    [0, 1] (Murphy & van der Vaart, JASA 95, 449, 2000).  Newton's method on
    V climbs it from a linear solve weighted by 1/max(count, 1), each step a
    fixed-V fit started at the last one's phase; the slope's sign brackets
    the maximum, a step that leaves the bracket bisects it, and the fit
    stops at V = 1 when l_p still rises there, which is the maximum's KKT
    condition.

    The verdict is a one-sided likelihood-ratio test of V <= 0.5 (Chernoff,
    Ann. Math. Stat. 25, 573, 1954): nonclassical only when V > 0.5 and
    2 (l_max - l(V = 0.5)) > 4, the 2-sigma level, l(V = 0.5) being the same
    kernel started at the fitted phase: on the surface of a convex cone
    below the maximum, the maximum is unique and next to that start.
    ``visibility_sigma`` is the delta-method error from the information
    weighted by 1/max(count, 1), and ``chi2`` the matching Neyman chi-square.
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
    b0, b1, b2 = np.linalg.solve(info, design.T @ (neyman * y))
    amplitude, phase = math.hypot(b1, b2), math.atan2(b2, -b1)
    # l_p rises on [0, lo] and falls on [hi, 1]; a start outside V < 1 tries V = 1
    trial, lo, hi = amplitude / b0 if 0 < amplitude < b0 else 1.0, 0.0, math.inf
    for _ in range(100):
        vis = trial
        loglik, baseline, phase, slope, curve = _fixed_visibility_fit(
            theta, y, vis, phase
        )
        lo, hi = (vis, hi) if slope >= 0 else (lo, vis)
        step = -slope / curve if curve < 0 else math.copysign(math.inf, slope)
        if lo == 1.0 or slope * step < _TOLERANCE:
            break
        trial = min(vis + step, 1.0)
        if not lo < trial < hi:
            trial = (lo + min(hi, 1.0)) / 2
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

