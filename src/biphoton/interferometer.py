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

``SPEED_OF_LIGHT`` is c = 299 792 458 m/s, exact by the SI definition of the
metre (BIPM, *The International System of Units*, 9th ed., 2019); every
arm-length-to-time conversion in the package uses it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .spectral import TWO_PI, SpectralProfile

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class InterferometerGeometry:
    """Arm lengths (m) and beam-splitter parameters, named as the geometry keys.

    The long arm is stored as a coarse base plus a fine scan offset, so the
    metre-scale term k * (L_base - S) of a fringe phase is reduced mod 2*pi
    once, exactly, for every point of a scan, and each point adds only
    k * offset (:func:`fringe_phase`).
    """

    path_short_m: float
    path_long_base_m: float
    path_long_offset_m: float = 0.0
    splitter_transmittance: float = 0.5
    mode_overlap: float = 1.0

    def with_offset(self, offset: float) -> "InterferometerGeometry":
        return replace(self, path_long_offset_m=offset)


def delta_L(geometry: InterferometerGeometry) -> float:
    """Optical-path difference L - S, m; the fine offset enters at full precision."""
    base = geometry.path_long_base_m - geometry.path_short_m
    return base + geometry.path_long_offset_m


def transit_times(geometry: InterferometerGeometry) -> tuple[float, float]:
    """(short-arm, long-arm) propagation times in seconds."""
    long_arm = geometry.path_long_base_m + geometry.path_long_offset_m
    return geometry.path_short_m / SPEED_OF_LIGHT, long_arm / SPEED_OF_LIGHT


def fringe_phase(k: float, geometry: InterferometerGeometry) -> float:
    """Phase k * delta_L of one wavenumber, its base term reduced exactly.

    k * (L_base - S) is reduced mod 2*pi in exact rational arithmetic and
    rounded once, keeping the sign of k as ``np.fmod`` does; the offset term
    k * offset is added after.  A float product would be off by ~1e-9 rad,
    far below the fringe scale (1 nm of offset moves the pump phase by
    1.5e-2 rad), so exactness buys no resolution.  It buys two things.  The
    phase is the correctly rounded residue, which any exact reduction gives
    bit for bit (``tests/oracle.py``).  And phases add: the residues of
    k1 * delta_L and k2 * delta_L sum to that of k_pump * delta_L to within
    rounding, the identity phi_1 + phi_2 = phi_p that the kernel's one pump
    phase rests on; rounded products break it and move the class
    probabilities by up to 1.6e-10.  The reduction is memoized on
    (k, L_base - S), which every point of a scan and every row of
    ``compare`` share.
    """
    base = _reduced_base_phase(k, geometry.path_long_base_m - geometry.path_short_m)
    return base + k * geometry.path_long_offset_m


@functools.lru_cache
def _reduced_base_phase(k: float, length: float) -> float:
    """k * length mod 2*pi, exact in rational arithmetic, rounded once."""
    exact = Fraction(k) * Fraction(length)
    period = Fraction(TWO_PI)
    return float(exact - math.trunc(exact / period) * period)


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
