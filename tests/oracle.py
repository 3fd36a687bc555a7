"""Eight-term amplitude sum: the reference the closed-form kernel is checked against.

Every term is built from :func:`biphoton.detector_amplitudes`, one pair at a
time, exactly as the post-selected output state is written down: for each
photon-to-port assignment, the four path terms SS, LL, SL and LS.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biphoton import WavenumberPair, detector_amplitudes
from biphoton.interferometer import InterferometerGeometry, PathLabel


@dataclass(frozen=True)
class CoincidenceTerm:
    """One of the eight amplitude terms of the post-selected output state."""

    path_at_a: PathLabel
    path_at_b: PathLabel
    k_at_a: float
    k_at_b: float
    amplitude: complex


def _assignment_terms(ka: float, kb: float, geometry: InterferometerGeometry):
    """(SS, LL, SL, LS) amplitudes with the photon of wavenumber ka at port A."""
    amps_a = detector_amplitudes(ka, geometry)
    amps_b = detector_amplitudes(kb, geometry)
    return (
        amps_a.a_short * amps_b.b_short,
        amps_a.a_long * amps_b.b_long,
        amps_a.a_short * amps_b.b_long,
        amps_a.a_long * amps_b.b_short,
    )


def _assignments(pair: WavenumberPair):
    return ((pair.k1, pair.k2), (pair.k2, pair.k1))


def coincidence_terms(
    pair: WavenumberPair, geometry: InterferometerGeometry
) -> list[CoincidenceTerm]:
    """The eight amplitude terms, ordered by assignment then path group."""
    paths = (
        (PathLabel.S, PathLabel.S),
        (PathLabel.L, PathLabel.L),
        (PathLabel.S, PathLabel.L),
        (PathLabel.L, PathLabel.S),
    )
    terms = []
    for ka, kb in _assignments(pair):
        for (pa, pb), amp in zip(paths, _assignment_terms(ka, kb, geometry)):
            terms.append(
                CoincidenceTerm(
                    path_at_a=pa, path_at_b=pb, k_at_a=ka, k_at_b=kb,
                    amplitude=complex(amp),
                )
            )
    return terms


def class_probabilities_pair_oracle(
    k1: float, k2: float, geometry: InterferometerGeometry
) -> tuple[float, float, float]:
    """(p_central, p_short_long, p_long_short) for one pair from the eight terms.

    Within each assignment the central class is the coherent SS + LL sum with
    its cross term scaled by mu; the SL/LS cross term (also scaled by mu) is
    split between the side classes in proportion to their weights.
    """
    mu = geometry.mode_overlap
    p_c = p_sl = p_ls = 0.0
    for ka, kb in _assignments(WavenumberPair(k1=k1, k2=k2)):
        t_ss, t_ll, t_sl, t_ls = _assignment_terms(ka, kb, geometry)
        p_c += (
            abs(t_ss) ** 2
            + abs(t_ll) ** 2
            + 2.0 * mu * (t_ss * t_ll.conjugate()).real
        )
        w_sl = abs(t_sl) ** 2
        w_ls = abs(t_ls) ** 2
        cross = 2.0 * mu * (t_sl * t_ls.conjugate()).real
        p_sl += w_sl + cross * w_sl / (w_sl + w_ls)
        p_ls += w_ls + cross * w_ls / (w_sl + w_ls)
    return max(p_c, 0.0), max(p_sl, 0.0), max(p_ls, 0.0)


def state_norm(pair: WavenumberPair, geometry: InterferometerGeometry) -> float:
    """Squared norm of the full eight-term output state.

    The two photon-to-port assignments add incoherently; within each, all
    cross terms between different path groups carry the mode overlap mu.
    For mu = 1, T = 0.5 this equals half of
    1 - cos(k_p dL)/2 - cos((k_p - 2 k1) dL)/2.
    """
    mu = geometry.mode_overlap
    norm = 0.0
    for ka, kb in _assignments(pair):
        terms = np.array(_assignment_terms(ka, kb, geometry))
        incoherent = float(np.sum(np.abs(terms) ** 2))
        coherent = float(np.abs(np.sum(terms)) ** 2)
        norm += (1.0 - mu) * incoherent + mu * coherent
    return norm
