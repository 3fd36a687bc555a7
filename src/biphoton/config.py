"""Experiment configuration: defaults, JSON loading, validation, hashing."""
from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import fringe_design
from .detection import DetectorModel, TacConfig
from .engines import SourceRates
from .errors import ConfigError, FitError
from .interferometer import SPEED_OF_LIGHT, InterferometerGeometry, delta_L
from .spectral import SpectralProfile, SpectralShape, wavelength_to_wavenumber

# Expected photons of one acquisition, 2 (pair_rate + singles_background)
# duration, at most.  One acquisition's tracemalloc peak at run.duration_s = 10
# (2e6 expected photons) is about 37 B a photon at the defaults and 27 B with
# 50 ns dead time, so the cap holds it to about 3.7 GB.
MAX_PHOTONS = 1e8

# section -> key -> (default, allowed values).  A key's type is its default's:
# a float key takes a float or an int, either finite as a float, an int key
# only an int, and bool is never a number.  A number key's allowed values are
# an interval, each end open "(" ")" or closed "[" "]"; a string key's are a
# tuple of choices.  The key names carry the units.
KEYS: dict = {
    "source": {
        "pump_wavelength_m": (427e-9, "(0, inf)"),
        "coherence_length_m": (100e-6, "(0, inf)"),
        "shape": ("gaussian", tuple(s.value for s in SpectralShape)),
    },
    "geometry": {
        "path_short_m": (0.5, "[0, inf)"),
        # open at 0: the long arm must exceed the short one, which is at least 0
        "path_long_base_m": (1.05, "(0, inf)"),
        "splitter_transmittance": (0.5, "(0, 1)"),
        "mode_overlap": (1.0, "[0, 1]"),
    },
    "rates": {
        "pair_rate": (1.0e5, "[0, inf)"),
        "singles_background": (0.0, "[0, inf)"),
    },
    "detector": {
        "jitter_sigma_s": (300e-12, "[0, inf)"),
        "dead_time_s": (0.0, "[0, inf)"),
        "efficiency": (1.0, "[0, 1]"),
    },
    "tac": {
        # at zero the early side peak, at delay - delta_L/c < 0, misses the TAC
        "electrical_delay_s": (10e-9, "(0, inf)"),
        "range_s": (20e-9, "(0, inf)"),
        # the histogram holds one bin per MCA channel; 2**16 is the most MCAs have
        "n_channels": (4096, "[2, 65536]"),
    },
    "scan": {
        # a scan keeps one int64 count matrix, a row of n_channels per point:
        # at 4096 points of 65536 channels it is 2 GiB (2.1 GB), held while
        # each point acquires (at most about 3.7 GB, see MAX_PHOTONS)
        "n_points": (24, "[8, 4096]"),
        "span_periods": (2.0, "[1, inf)"),
        "duration_s": (0.04, "[0, inf)"),
    },
    "run": {
        "duration_s": (1.0, "[0, inf)"),
        "seed": (1, "[0, inf)"),
    },
}

DEFAULTS: dict = {
    section: {key: default for key, (default, _) in keys.items()}
    for section, keys in KEYS.items()
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    if not isinstance(override, dict):
        what = f"section {path}" if path else "file"
        raise ConfigError(f"config {what} must be an object, got {override!r:.40}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _refusal(name: str, value, default, allowed) -> str | None:
    """Why ``value`` may not be the value of key ``name``; None when it may."""
    if isinstance(default, str):
        if value in allowed:
            return None
        return f"{name} must be one of {list(allowed)}, got {value!r:.40}"
    integer = isinstance(default, int)
    types = int if integer else (int, float)
    if isinstance(value, types) and not isinstance(value, bool):
        lo, hi = (float(end) for end in allowed[1:-1].split(","))
        above = lo <= value if allowed[0] == "[" else lo < value
        below = value <= hi if allowed[-1] == "]" else value < hi
        # the builders pass an int through unchanged, but the float arithmetic
        # on a float key's value converts it, so it must be finite as a float
        if above and below and (integer or abs(value) <= sys.float_info.max):
            return None
    kind = "an integer" if integer else "a finite number"
    return f"{name} must be {kind} in {allowed}, got {value!r:.40}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated pipeline configuration built from nested key/value data."""

    data: dict

    @classmethod
    def resolve(cls, raw: dict) -> "ExperimentConfig":
        """``raw`` merged over the defaults, not yet validated."""
        return cls(data=_deep_merge(DEFAULTS, raw))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls.resolve(raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config_file(path))

    # builders -----------------------------------------------------------

    def profile(self) -> SpectralProfile:
        src = self.data["source"]
        k_pump = wavelength_to_wavenumber(src["pump_wavelength_m"])
        delta_k = 1.0 / src["coherence_length_m"]
        shape = SpectralShape(src["shape"])
        return SpectralProfile(k_pump=k_pump, delta_k=delta_k, shape=shape)

    def geometry(self) -> InterferometerGeometry:
        return InterferometerGeometry(**self.data["geometry"])

    def rates(self) -> SourceRates:
        return SourceRates(**self.data["rates"])

    def detector(self) -> DetectorModel:
        return DetectorModel(**self.data["detector"])

    def tac(self) -> TacConfig:
        t = self.data["tac"]
        return TacConfig(
            electrical_delay=t["electrical_delay_s"],
            range=t["range_s"],
            n_channels=t["n_channels"],
        )

    def scan_offsets(self) -> np.ndarray:
        scan = self.data["scan"]
        period = self.data["source"]["pump_wavelength_m"]
        span = scan["span_periods"] * period
        return np.linspace(0.0, span, scan["n_points"], endpoint=False)

    # validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Raise ConfigError on fatal problems; return non-fatal warnings."""
        warnings: list[str] = []
        for section, keys in KEYS.items():
            for key, (default, allowed) in keys.items():
                value = self.data[section][key]
                refusal = _refusal(f"{section}.{key}", value, default, allowed)
                if refusal:
                    raise ConfigError(refusal)
        geometry, rates = self.geometry(), self.rates()
        if not geometry.path_long_base_m > geometry.path_short_m:
            raise ConfigError(
                f"geometry.path_long_base_m = {geometry.path_long_base_m} m must "
                f"exceed geometry.path_short_m = {geometry.path_short_m} m"
            )
        profile = self.profile()
        src = self.data["source"]
        # a positive length below about 1e-308 m passes KEYS, but the
        # wavenumber derived from it overflows
        for key, name, derived in (
            ("pump_wavelength_m", "k_pump = 2*pi/lambda", profile.k_pump),
            ("coherence_length_m", "delta_k = 1/l_c", profile.delta_k),
        ):
            if not math.isfinite(derived):
                raise ConfigError(
                    f"source.{key} = {src[key]!r} m is too small: "
                    f"{name} overflows to inf"
                )
        lo, hi = profile.support()
        if not (lo > 0.0 and hi < profile.k_pump):
            # pairs need 0 < k1 < k_pump, and both the sampler and the
            # closed-form spectral averages use the untruncated spectrum
            raise ConfigError(
                f"source: the signal spectrum's support [{lo:.6g}, {hi:.6g}] rad/m "
                f"crosses 0 or k_pump = {profile.k_pump:.6g} rad/m; "
                "source.coherence_length_m is too short"
            )
        detector, tac = self.detector(), self.tac()
        for section in ("run", "scan"):
            duration = self.data[section]["duration_s"]
            photons = 2.0 * (rates.pair_rate + rates.singles_background) * duration
            if photons > MAX_PHOTONS:
                raise ConfigError(
                    f"{section}.duration_s: 2 * (rates.pair_rate + rates."
                    f"singles_background) * {section}.duration_s = {photons:.3g} "
                    f"expected photons per acquisition, above {MAX_PHOTONS:.0e}"
                )

        dl = delta_L(geometry)
        lcoh = src["coherence_length_m"]
        if dl < 100.0 * lcoh:
            warnings.append(
                f"path difference delta_L = {dl:.6g} m is below 100x the coherence "
                f"length source.coherence_length_m = {lcoh!r} m; single-photon "
                "interference is not negligible"
            )
        # a start-stop difference carries the jitter of both detectors
        spread = math.sqrt(2.0) * detector.jitter_sigma_s
        if not spread < tac.range:
            raise ConfigError(
                f"detector.jitter_sigma_s = {detector.jitter_sigma_s!r} s: "
                f"sqrt(2) * jitter = {spread:.6g} s, the spread of a start-stop "
                f"difference, must be less than tac.range_s = {tac.range!r} s"
            )
        span = self.data["scan"]["span_periods"]
        period = self.data["source"]["pump_wavelength_m"]
        if not math.isfinite(span * period):
            raise ConfigError(
                f"scan.span_periods * source.pump_wavelength_m = {span!r} * "
                f"{period!r} m overflows; the scan length must be finite"
            )
        # the offsets are >= 0 and only lengthen the long arm, so the last scan
        # point splits the peaks most: if the TAC holds its three, it holds all
        offsets = self.scan_offsets()
        travel = float(offsets.max())
        split = delta_L(geometry.with_offset(travel)) / SPEED_OF_LIGHT
        if tac.electrical_delay < split or tac.electrical_delay + split > tac.range:
            raise ConfigError(
                f"scan.span_periods = {span!r} moves the long arm by {travel:.6g} m, "
                f"so delta_L/c runs from {dl / SPEED_OF_LIGHT:.6g} s at the first "
                f"scan point to {split:.6g} s at the last; the TAC holds all three "
                f"peaks only if tac.electrical_delay_s = {tac.electrical_delay!r} s "
                f">= delta_L/c and tac.electrical_delay_s + delta_L/c <= "
                f"tac.range_s = {tac.range!r} s at every point"
            )
        try:
            fringe_design(offsets, period)
        except FitError as exc:
            raise ConfigError(f"scan: {exc}") from exc
        return warnings

    # serialization ------------------------------------------------------

    def config_hash(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.data, sort_keys=True, separators=(",", ":")).encode()
        )
        return digest.hexdigest()[:12]


def _parse_int(literal: str) -> int:
    """A JSON integer literal as an int.  Python refuses to convert one of
    more digits than its limit (4300 by default); that is a config error."""
    try:
        return int(literal)
    except ValueError:
        raise ConfigError(
            f"config file holds an integer of {len(literal.lstrip('-'))} digits, "
            f"past the {sys.get_int_max_str_digits()}-digit limit on integers"
        ) from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a config error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config file gives the key {key!r:.40} twice")
        obj[key] = value
    return obj


def read_config_file(path) -> dict:
    """The raw key/value data of a UTF-8 JSON config file, not yet merged."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        return json.loads(
            raw.decode(), parse_int=_parse_int, object_pairs_hook=_unique_keys
        )
    except RecursionError:
        raise ConfigError("config file nests arrays or objects too deeply") from None
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
