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
That sum reduces to two real cosines, of the sum and the difference of the
two photons' fringe phases phi_i = k_i * delta_L.  The pair conserves the
pump wavenumber, k1 + k2 = k_pump, so phi_1 + phi_2 = k_pump * delta_L is the
pump phase, the same for every pair: the central class fringes at the pump
wavelength.  The pairs are degenerate, k1 = k_pump/2 + delta, so the one
phase that varies from pair to pair is phi_1 - phi_2 = 2 delta * delta_L:
:func:`class_probabilities_pair` costs one multiply and one cosine per pair.
The eight-term sum itself, with the single-photon port amplitudes it is
built from, lives in ``tests/oracle.py`` as the reference it is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .errors import DomainError, require_finite
from .spectral import TWO_PI, SpectralProfile


@dataclass(frozen=True)
class InterferometerGeometry:
    """Arm lengths and beam-splitter parameters.

    The long arm is stored as a coarse base plus a fine scan offset so that
    nanometre-scale fringe scans keep full phase precision: the phase of a
    metre-scale path is reduced mod 2*pi exactly, in rational arithmetic,
    before the offset term is added (:func:`fringe_phase`).
    """

    path_short: float
    path_long_base: float
    path_long_offset: float = 0.0
    splitter_transmittance: float = 0.5
    mode_overlap: float = 1.0

    def __post_init__(self) -> None:
        require_finite(
            path_short=self.path_short,
            path_long_base=self.path_long_base,
            path_long_offset=self.path_long_offset,
        )
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


def fringe_phase(k: float, geometry: InterferometerGeometry) -> float:
    """Phase k * delta_L of one wavenumber, safe for nanometre offsets.

    A float product of a ~1e7 rad/m wavenumber and a metre-scale path
    carries an absolute error of ~1e-9 rad, which would swamp nanometre-scale
    fringe structure.  So k * (L_base - S) is reduced mod 2*pi in exact
    rational arithmetic and rounded once, keeping the sign of k as
    ``np.fmod`` does; the offset term k * offset is added after.
    """
    exact = Fraction(k) * Fraction(geometry.path_long_base - geometry.path_short)
    period = Fraction(TWO_PI)
    base = float(exact - math.trunc(exact / period) * period)
    return base + k * geometry.path_long_offset


def offset_for_phase(
    k: float, geometry: InterferometerGeometry, target_phase: float
) -> float:
    """Scan offset that puts ``fringe_phase(k, .)`` at ``target_phase`` mod 2*pi."""
    zero = geometry.with_offset(0.0)
    residual = (target_phase - fringe_phase(k, zero)) % TWO_PI
    return residual / k


def class_probabilities(cos_pump, cos_diff, geometry: InterferometerGeometry):
    """Class probabilities (p_central, p_short_long, p_long_short) from the
    cosines of the pump phase phi_1 + phi_2 and of the phase difference
    phi_1 - phi_2.

    Closed form of the eight-term output sum.  With c^2 = T(1 - T), summed
    over both photon-to-port assignments:

    * central = SS + LL, weight 2c^2[T^2 + (1 - T)^2], cross term
      -4 mu c^2 T(1 - T) cos(phi_1 + phi_2);
    * side classes, weights 2c^2(1 - T)^2 (SL) and 2c^2 T^2 (LS), which split
      the cross term -4 mu c^2 T(1 - T) cos(phi_1 - phi_2) in proportion to
      their weights, so every class stays nonnegative for any T.

    Each class is linear in its cosine, so the kernel at the spectral mean of
    cos_diff is the spectral mean of the kernel.
    """
    t = geometry.splitter_transmittance
    c2 = t * (1.0 - t)
    w_sl = 2.0 * c2 * (1.0 - t) ** 2
    w_ls = 2.0 * c2 * t * t
    w_side = w_sl + w_ls
    cross = 4.0 * geometry.mode_overlap * c2 * c2
    p_c = w_side - cross * cos_pump
    side = 1.0 - (cross / w_side) * cos_diff
    # clamp rounding residue; exact nulls otherwise land at ~-1e-17
    return (
        np.maximum(p_c, 0.0),
        np.maximum(w_sl * side, 0.0),
        np.maximum(w_ls * side, 0.0),
    )


def class_probabilities_pair(
    delta, profile: SpectralProfile, geometry: InterferometerGeometry
):
    """:func:`class_probabilities` for degenerate pairs k1 = k_pump/2 + delta,
    k2 = k_pump - k1, vectorized over the deviations ``delta``.

    phi_i = k_i * delta_L.  phi_1 + phi_2 is the pump phase, one scalar for
    every pair.  phi_1 - phi_2 is 2 delta * delta_L, some thousands of
    radians, where plain float arithmetic is accurate to ~1e-11 rad.  So
    p_central comes back as a read-only broadcast of one value.
    """
    p_c, p_sl, p_ls = class_probabilities(
        np.cos(fringe_phase(profile.k_pump, geometry)),
        np.cos(2.0 * delta_L(geometry) * delta),
        geometry,
    )
    return np.broadcast_to(p_c, np.shape(delta)), p_sl, p_ls
