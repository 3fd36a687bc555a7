"""Unbalanced Michelson geometry and the biphoton coincidence classes.

A pair entering the interferometer splits over the short (S) and long (L)
arms; post-selecting on one photon at each output port leaves eight amplitude
terms.  Grouped by the arrival-time difference t_B - t_A they form three
coincidence classes: central (both photons took the same arm, dt = 0) and two
side classes (dt = +/- delta_L/c).

The two photon-to-port assignments (signal at A / idler at B and the swap)
occupy orthogonal states; each class probability is the sum over both
assignments of a coherent amplitude sum within the assignment.  The mode
overlap ``mu`` scales interference cross terms between different path groups.
That sum reduces to two real cosines per pair, of the sum and the difference
of the two photons' fringe phases, which :func:`class_probabilities_pair`
evaluates directly.  :func:`detector_amplitudes` gives the single-photon
amplitudes the eight terms are built from; the eight-term sum itself lives in
``tests/oracle.py`` as the reference the closed form is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .errors import DomainError
from .spectral import TWO_PI, WavenumberPair


class PathLabel(Enum):
    S = "S"
    L = "L"


class CoincidenceClass(Enum):
    CENTRAL = "central"     # (S,S) + (L,L), dt = 0
    SHORT_LONG = "side_sl"  # A via S, B via L, dt = +delta_L/c
    LONG_SHORT = "side_ls"  # A via L, B via S, dt = -delta_L/c


@dataclass(frozen=True)
class InterferometerGeometry:
    """Arm lengths and beam-splitter parameters.

    The long arm is stored as a coarse base plus a fine scan offset so that
    nanometre-scale fringe scans keep full phase precision: the phase of a
    metre-scale path is reduced mod 2*pi before the offset term is added.
    """

    path_short: float
    path_long_base: float
    path_long_offset: float = 0.0
    splitter_transmittance: float = 0.5
    mode_overlap: float = 1.0

    def __post_init__(self) -> None:
        if self.path_long_base + self.path_long_offset <= self.path_short:
            raise DomainError("long arm must exceed short arm")
        if not 0.0 < self.splitter_transmittance < 1.0:
            raise DomainError(
                f"transmittance must lie in (0, 1), got {self.splitter_transmittance}"
            )
        if not 0.0 <= self.mode_overlap <= 1.0:
            raise DomainError(f"mode_overlap must lie in [0, 1], got {self.mode_overlap}")

    def with_offset(self, offset: float) -> "InterferometerGeometry":
        return replace(self, path_long_offset=offset)


def delta_L(geometry: InterferometerGeometry) -> float:
    """Optical-path difference L - S; the fine offset enters at full precision."""
    return (geometry.path_long_base - geometry.path_short) + geometry.path_long_offset


def transit_times(geometry: InterferometerGeometry) -> tuple[float, float]:
    """(short-arm, long-arm) propagation times in seconds."""
    t_s = geometry.path_short / SPEED_OF_LIGHT
    t_l = (geometry.path_long_base + geometry.path_long_offset) / SPEED_OF_LIGHT
    return t_s, t_l


#: elements per block of the phase reduction
_BLOCK = 16384


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


def _fmod_2pi(x):
    """``np.fmod(x, TWO_PI)`` bit for bit, without libm's bitwise fmod loop.

    The remainder r = |x| - q * TWO_PI with q = floor(|x| / TWO_PI) is formed
    from the exact product q * TWO_PI = hi + lo.  |x| - hi is exact (the two
    agree to within a factor of 2), and an fmod result is always
    representable, so the last subtraction is exact too whenever r lands in
    [0, TWO_PI).  Where the rounded quotient crossed an integer, np.fmod
    itself supplies the value.
    """
    ax = np.abs(x)
    hi, lo = _two_product(np.floor(ax / TWO_PI), TWO_PI)
    r = (ax - hi) - lo
    if r.size and not (r.min() >= 0.0 and r.max() < TWO_PI):
        bad = ~((r >= 0.0) & (r < TWO_PI))
        r = np.where(bad, np.fmod(ax, TWO_PI), r)
    return np.copysign(r, x)


def _product_mod_2pi(k, length):
    """k * length reduced mod 2*pi without losing the product's low bits.

    A plain float product of a ~1e7 rad/m wavenumber and a metre-scale path
    carries an absolute error of ~1e-9 rad, which would swamp nanometre-scale
    fringe structure.  A Dekker two-product recovers the exact rounding
    residue, so the reduced phase is accurate to ~1 ulp.
    """
    k = np.asarray(k, dtype=float)
    if k.size <= _BLOCK:
        x, err = _two_product(k, length)
        return _fmod_2pi(x) + err
    # elementwise, so blocks give the same bits; cache-sized blocks keep the
    # temporaries off freshly mapped pages (2.5x faster for 200k phases on a
    # 2-CPU x86-64 host)
    flat = k.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        out[i : i + _BLOCK] = _product_mod_2pi(flat[i : i + _BLOCK], length)
    return out.reshape(k.shape)


def path_phase(k, geometry: InterferometerGeometry, path: PathLabel):
    """k * (path length), reduced so the scan offset contributes exactly."""
    if path is PathLabel.S:
        return _product_mod_2pi(k, geometry.path_short)
    base = _product_mod_2pi(k, geometry.path_long_base)
    return base + np.multiply(k, geometry.path_long_offset)


def fringe_phase(k, geometry: InterferometerGeometry):
    """Phase k * delta_L, safe for nanometre offsets on metre-scale arms."""
    base = _product_mod_2pi(k, geometry.path_long_base - geometry.path_short)
    return base + np.multiply(k, geometry.path_long_offset)


def offset_for_phase(
    k: float, geometry: InterferometerGeometry, target_phase: float
) -> float:
    """Scan offset that puts ``fringe_phase(k, .)`` at ``target_phase`` mod 2*pi."""
    zero = geometry.with_offset(0.0)
    residual = (target_phase - float(fringe_phase(k, zero))) % TWO_PI
    return residual / k


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
class CoincidenceClassSet:
    """Per-pair class probabilities and their arrival-time signatures."""

    p_central: float
    p_short_long: float
    p_long_short: float
    dt_central: float
    dt_short_long: float
    dt_long_short: float

    @property
    def p_total(self) -> float:
        return self.p_central + self.p_short_long + self.p_long_short

    def probability(self, cls: CoincidenceClass) -> float:
        return {
            CoincidenceClass.CENTRAL: self.p_central,
            CoincidenceClass.SHORT_LONG: self.p_short_long,
            CoincidenceClass.LONG_SHORT: self.p_long_short,
        }[cls]


def class_probabilities_pair(k1, k2, geometry: InterferometerGeometry):
    """Class probabilities (p_central, p_short_long, p_long_short) for pairs
    (k1, k2), vectorized.

    Closed form of the eight-term output sum.  With c^2 = T(1 - T), summed
    over both photon-to-port assignments:

    * central = SS + LL, weight 2c^2[T^2 + (1 - T)^2], cross term
      -4 mu c^2 T(1 - T) cos(phi_1 + phi_2);
    * side classes, weights 2c^2(1 - T)^2 (SL) and 2c^2 T^2 (LS), which split
      the cross term -4 mu c^2 T(1 - T) cos(phi_1 - phi_2) in proportion to
      their weights, so every class stays nonnegative for any T;

    where phi_i = k_i * delta_L from :func:`fringe_phase`.
    """
    t = geometry.splitter_transmittance
    c2 = t * (1.0 - t)
    w_sl = 2.0 * c2 * (1.0 - t) ** 2
    w_ls = 2.0 * c2 * t * t
    w_side = w_sl + w_ls
    cross = 4.0 * geometry.mode_overlap * c2 * c2
    f1 = fringe_phase(k1, geometry)
    f2 = fringe_phase(k2, geometry)
    p_c = w_side - cross * np.cos(f1 + f2)
    side = 1.0 - (cross / w_side) * np.cos(f1 - f2)
    # clamp rounding residue; exact nulls otherwise land at ~-1e-17
    return (
        np.maximum(p_c, 0.0),
        np.maximum(w_sl * side, 0.0),
        np.maximum(w_ls * side, 0.0),
    )


def coincidence_classes(
    pair: WavenumberPair, geometry: InterferometerGeometry
) -> CoincidenceClassSet:
    """Group the eight output terms into the three arrival-time classes."""
    p_c, p_sl, p_ls = class_probabilities_pair(pair.k1, pair.k2, geometry)
    dt = delta_L(geometry) / SPEED_OF_LIGHT
    return CoincidenceClassSet(
        p_central=float(p_c),
        p_short_long=float(p_sl),
        p_long_short=float(p_ls),
        dt_central=0.0,
        dt_short_long=+dt,
        dt_long_short=-dt,
    )
