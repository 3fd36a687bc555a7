"""Output checks behind the benchmark's failure count.

Each check compares what the program wrote with the repo's own analytic
engines, within bounds taken from counting statistics (Z standard errors).
A check is a tuple (name, ok, detail).  Regime and verdict labels are
recorded for the results file but never gated on.
"""
from __future__ import annotations

import json
import math

import numpy as np

#: standard errors a Monte Carlo or counted quantity may stray from its
#: expectation; at 5 sigma a correct program fails a check about once in
#: 1.7 million
Z = 5.0


def _parse_histogram(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = [
        line.split(",")
        for line in text.splitlines()
        if line and not line.startswith("#") and not line.startswith("bin_center_s")
    ]
    x = np.array([float(r[0]) for r in rows])
    n = np.array([int(r[1]) for r in rows], dtype=float)
    return x, n


def histogram(cfg, raw: bytes) -> list[tuple[str, bool, str]]:
    """Three TAC peaks: at the electrical delay and at +/- delta_L/c.

    The side peaks must hold equal counts, each peak's centroid must sit at
    its expected delay, and the central peak's share of the three must match
    the analytic class probabilities.  A flat accidental background,
    estimated well away from the peaks, is subtracted first.
    """
    from scipy.constants import c as SPEED_OF_LIGHT

    from biphoton.engines import expected_class_probabilities
    from biphoton.interferometer import delta_L

    if not raw:
        return [("histogram_written", False, "histogram.csv missing")]
    x, n = _parse_histogram(raw.decode())
    tac = cfg.tac()
    split = delta_L(cfg.geometry()) / SPEED_OF_LIGHT
    delay = tac.electrical_delay
    bin_width = tac.range / tac.n_channels
    half = 0.45 * split

    far = (np.abs(x - delay) > 2.5 * split) & (x > 1e-9) & (x < tac.range - 1e-9)
    bg_per_bin = float(n[far].mean())

    out = []
    peaks = {}
    for name, centre in (
        ("central", delay),
        ("side_sl", delay + split),
        ("side_ls", delay - split),
    ):
        sel = np.abs(x - centre) <= half
        total = float(n[sel].sum())
        net = total - bg_per_bin * sel.sum()
        peaks[name] = (total, net, bg_per_bin * sel.sum())
        if total <= 0:
            out.append((f"peak_{name}_position", False, "no counts"))
            continue
        mean = float((x[sel] * n[sel]).sum() / total)
        spread = math.sqrt(float((n[sel] * (x[sel] - mean) ** 2).sum()) / total)
        tol = Z * spread / math.sqrt(total) + bin_width
        out.append(
            (
                f"peak_{name}_position",
                abs(mean - centre) <= tol,
                f"centroid {mean:.6e} s, expected {centre:.6e} s, tol {tol:.2e} s",
            )
        )

    n_sl, n_ls = peaks["side_sl"][0], peaks["side_ls"][0]
    tol = Z * math.sqrt(n_sl + n_ls)
    out.append(
        (
            "side_peaks_equal",
            abs(n_sl - n_ls) <= tol,
            f"side_sl {n_sl:.0f}, side_ls {n_ls:.0f}, tol {tol:.0f}",
        )
    )

    probs = expected_class_probabilities(cfg.profile(), cfg.geometry(), cfg.rates())
    p_sum = probs["central"] + probs["side_sl"] + probs["side_ls"]
    f0 = probs["central"] / p_sum
    net_total = sum(p[1] for p in peaks.values())
    bg_total = sum(p[2] for p in peaks.values())
    f = peaks["central"][1] / net_total
    sigma = math.sqrt(f0 * (1.0 - f0) / net_total + bg_total / net_total**2)
    out.append(
        (
            "central_fraction",
            abs(f - f0) <= Z * sigma,
            f"measured {f:.5f}, analytic {f0:.5f}, sigma {sigma:.5f}",
        )
    )
    return out


def compare(cfg, raw: bytes) -> list[tuple[str, bool, str]]:
    """Each Monte Carlo rate lies within Z standard errors of its analytic rate."""
    if not raw:
        return [("compare_written", False, "compare.json missing")]
    pair_rate = cfg.rates().pair_rate
    out = []
    for i, row in enumerate(json.loads(raw)["rows"]):
        err = row["classical_mc_stderr"]
        diff = row["classical_mc_rate"] - row["classical_rate"]
        out.append(
            (
                f"row{i}_classical_mc",
                abs(diff) <= Z * err,
                f"diff {diff:.3f}/s, stderr {err:.3f}/s",
            )
        )
        p = row["quantum_wide_rate"] / pair_rate
        err = pair_rate * math.sqrt(p * (1.0 - p) / row["quantum_mc_n"])
        diff = row["quantum_mc_wide_rate"] - row["quantum_wide_rate"]
        out.append(
            (
                f"row{i}_quantum_mc",
                abs(diff) <= Z * err,
                f"diff {diff:.3f}/s, stderr {err:.3f}/s",
            )
        )
    return out


def reports(by_window: dict[str, dict]) -> tuple[list, dict]:
    """Each fit either succeeded with V in [0, 1] or counts as failed.

    Returns the checks and, per window, the regime and verdict labels, which
    are recorded only.  ``label_conflicts`` counts windows labelled classical
    whose verdict is nonclassical.
    """
    out = []
    labels = {}
    conflicts = 0
    for window, report in by_window.items():
        if "error" in report:
            out.append((f"fit_{window}", False, report["error"]))
            continue
        v, sv = report["visibility"], report["visibility_sigma"]
        ok = 0.0 <= v <= 1.0 and math.isfinite(sv)
        out.append((f"fit_{window}", ok, f"V {v:.4f} +/- {sv:.4f}"))
        labels[window] = {
            "regime": report["regime"],
            "verdict": report["verdict"],
            "visibility": v,
        }
        if report["regime"] == "classical" and report["verdict"] == "nonclassical":
            conflicts += 1
    labels["label_conflicts"] = conflicts
    return out, labels
