"""What the traced run wraps, and the per-layer metrics derived from its spans.

Each layer is a module of the ``biphoton`` package; the spans sit at calls
into the layer's public functions.  ``cli`` is the span around
``biphoton.cli.main``: its self time is argument parsing, config resolution
and output writing, everything the CLI does outside the wrapped layers.
"""
from __future__ import annotations

import numpy as np

from spans import Target

def _draws(result, *args, **kwargs):
    return {"draws": int(np.size(result))}


def _pairs(result, *args, **kwargs):
    return {"pairs": int(np.size(result[0]))}


def _events(result, *args, **kwargs):
    return {"events": len(result)}


def _clicks(result, times, *args, **kwargs):
    return {"clicks_in": int(np.size(times)), "clicks_out": int(np.size(result))}


def _tac(result, starts, *args, **kwargs):
    return {"starts": int(np.size(starts)), "conversions": int(np.size(result))}


TARGETS = (
    Target("biphoton.spectral", "sample_signal", "spectral.sample_signal", _draws),
    Target(
        "biphoton.interferometer",
        "class_probabilities_pair",
        "interferometer.class_probabilities_pair",
        _pairs,
    ),
    Target("biphoton.interferometer", "fringe_phase", "interferometer.fringe_phase"),
    Target(
        "biphoton.engines", "sample_pair_outcomes", "engines.sample_pair_outcomes"
    ),
    Target("biphoton.engines", "generate_events", "engines.generate_events", _events),
    Target("biphoton.engines", "quantum_rate_narrow", "engines.quadrature"),
    Target("biphoton.engines", "side_class_rate", "engines.quadrature"),
    Target("biphoton.engines", "classical_rate", "engines.quadrature"),
    Target(
        "biphoton.engines", "normalization_check", "engines.normalization_check"
    ),
    Target(
        "biphoton.engines", "classical_monte_carlo", "engines.classical_monte_carlo"
    ),
    Target("biphoton.detection", "detect_clicks", "detection.detect_clicks", _clicks),
    Target("biphoton.detection", "detect_streams", "detection.detect_streams"),
    Target("biphoton.detection", "tac_differences", "detection.tac_differences", _tac),
    Target(
        "biphoton.detection", "histogram_from_clicks", "detection.histogram_from_clicks"
    ),
    Target("biphoton.detection", "acquire_histogram", "detection.acquire_histogram"),
    Target("biphoton.detection", "gate_count", "detection.gate_count"),
    Target(
        "biphoton.analysis", "acquire_scan_corpus", "analysis.acquire_scan_corpus"
    ),
    Target("biphoton.analysis", "gate_scan", "analysis.gate_scan"),
    Target("biphoton.analysis", "classify_regime", "analysis.classify_regime"),
    Target("biphoton.analysis", "fit_visibility", "analysis.fit_visibility"),
    Target("biphoton.cli", "main", "cli"),
)

#: per-layer metric name -> (span name or layer, quantity, unit)
METRICS = {
    "spectral.sample_signal.self_s": ("spectral.sample_signal", "self_s", "s"),
    "spectral.sample_signal.draws": ("spectral.sample_signal", "draws", "count"),
    "interferometer.class_probabilities_pair.self_s": (
        "interferometer.class_probabilities_pair", "self_s", "s"),
    "interferometer.class_probabilities_pair.calls": (
        "interferometer.class_probabilities_pair", "calls", "count"),
    "interferometer.class_probabilities_pair.pairs": (
        "interferometer.class_probabilities_pair", "pairs", "count"),
    "interferometer.fringe_phase.self_s": ("interferometer.fringe_phase", "self_s", "s"),
    "interferometer.fringe_phase.calls": ("interferometer.fringe_phase", "calls", "count"),
    "engines.sample_pair_outcomes.self_s": ("engines.sample_pair_outcomes", "self_s", "s"),
    "engines.generate_events.self_s": ("engines.generate_events", "self_s", "s"),
    "engines.generate_events.events": ("engines.generate_events", "events", "count"),
    "engines.quadrature.self_s": ("engines.quadrature", "self_s", "s"),
    "engines.normalization_check.self_s": ("engines.normalization_check", "self_s", "s"),
    "engines.normalization_check.calls": ("engines.normalization_check", "calls", "count"),
    "engines.classical_monte_carlo.self_s": (
        "engines.classical_monte_carlo", "self_s", "s"),
    "detection.detect_clicks.self_s": ("detection.detect_clicks", "self_s", "s"),
    "detection.detect_clicks.clicks_in": ("detection.detect_clicks", "clicks_in", "count"),
    "detection.detect_clicks.clicks_out": ("detection.detect_clicks", "clicks_out", "count"),
    "detection.tac_differences.self_s": ("detection.tac_differences", "self_s", "s"),
    "detection.tac_differences.starts": ("detection.tac_differences", "starts", "count"),
    "detection.tac_differences.conversions": (
        "detection.tac_differences", "conversions", "count"),
    "detection.histogram_from_clicks.self_s": (
        "detection.histogram_from_clicks", "self_s", "s"),
    "detection.gate_count.self_s": ("detection.gate_count", "self_s", "s"),
    "detection.gate_count.calls": ("detection.gate_count", "calls", "count"),
    "analysis.fit_visibility.self_s": ("analysis.fit_visibility", "self_s", "s"),
    "analysis.fit_visibility.calls": ("analysis.fit_visibility", "calls", "count"),
    "analysis.fit_visibility.failures": ("analysis.fit_visibility", "failures", "count"),
    "analysis.gate_scan.self_s": ("analysis.gate_scan", "self_s", "s"),
    "spectral.self_s": ("spectral", "layer_self_s", "s"),
    "interferometer.self_s": ("interferometer", "layer_self_s", "s"),
    "engines.self_s": ("engines", "layer_self_s", "s"),
    "detection.self_s": ("detection", "layer_self_s", "s"),
    "analysis.self_s": ("analysis", "layer_self_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
}
OVERHEAD_METRIC = "trace.overhead_s"


def _value(totals: dict, source: str, quantity: str) -> float:
    if quantity == "layer_self_s":
        return sum(
            e["self_ns"] for name, e in totals.items() if name.startswith(source + ".")
        ) / 1e9
    entry = totals.get(source, {})
    if quantity == "self_s":
        return entry.get("self_ns", 0) / 1e9
    return entry.get(quantity, 0)


def layer_metrics(
    setup: dict, jobs: list[dict], traced_s: list[float], untraced_s: list[float]
) -> tuple[dict, list[str]]:
    """Per-layer metrics for one set-up plus one job, and any count mismatches.

    Times are the set-up's spans plus the minimum over traced jobs; counts are
    the set-up's plus one job's, and must repeat exactly from job to job.
    The tracing overhead compares traced and untraced jobs of one process.
    """
    problems = []
    out = {}
    for metric, (source, quantity, unit) in METRICS.items():
        per_job = [_value(totals, source, quantity) for totals in jobs]
        if unit == "count":
            if len(set(per_job)) > 1:
                problems.append(f"{metric} differs between jobs: {per_job}")
            value = per_job[0]
        else:
            value = min(per_job)
        out[metric] = {"value": _value(setup, source, quantity) + value, "unit": unit}
    kernel = "interferometer.class_probabilities_pair"
    pairs = out[f"{kernel}.pairs"]["value"]
    out[f"{kernel}.ns_per_pair"] = {
        "value": 1e9 * out[f"{kernel}.self_s"]["value"] / pairs if pairs else 0.0,
        "unit": "ns",
    }
    out[OVERHEAD_METRIC] = {
        "value": min(traced_s) - min(untraced_s),
        "unit": "s",
    }
    return out, problems
