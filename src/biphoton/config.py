"""Experiment configuration: defaults, JSON loading, validation, hashing."""
from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .analysis import fringe_design
from .detection import DetectorModel, TacConfig
from .engines import SourceRates
from .errors import BiphotonError, ConfigError
from .interferometer import SPEED_OF_LIGHT, InterferometerGeometry, delta_L
from .spectral import (
    SpectralProfile,
    SpectralShape,
    coherence_length,
    wavelength_to_wavenumber,
)

# Expected photons of one acquisition, 2 (pair_rate + singles_background)
# duration, at most: about 5 GB at the ~48 B of peak memory a photon costs.
MAX_PHOTONS = 1e8
# The histogram holds one bin per MCA channel; 2**16 is the most MCAs have.
MAX_CHANNELS = 65_536

DEFAULTS: dict = {
    "source": {
        "pump_wavelength_m": 427e-9,
        "coherence_length_m": 100e-6,
        "shape": "gaussian",
    },
    "geometry": {
        "path_short_m": 0.5,
        "path_long_base_m": 1.05,
        "splitter_transmittance": 0.5,
        "mode_overlap": 1.0,
    },
    "rates": {
        "pair_rate": 1.0e5,
        "rc0": 1.0e5,
        "singles_background": 0.0,
    },
    "detector": {
        "jitter_sigma_s": 300e-12,
        "dead_time_s": 0.0,
        "efficiency": 1.0,
    },
    "tac": {
        "electrical_delay_s": 10e-9,
        "range_s": 20e-9,
        "n_channels": 4096,
    },
    "scan": {
        "n_points": 24,
        "span_periods": 2.0,
        "duration_s": 0.04,
    },
    "run": {
        "duration_s": 1.0,
        "seed": 1,
    },
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


def _is_int(value) -> bool:
    """True for an integer; bool is excluded although it subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for an int or float config value; bool and strings are excluded."""
    return _is_int(value) or isinstance(value, float)


def _build(section: str, builder):
    """``builder()``, with any error it raises as a ConfigError naming ``section``."""
    try:
        return builder()
    except (BiphotonError, ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


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

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls.from_dict({})

    @classmethod
    def packaged(cls, name: str) -> "ExperimentConfig":
        """Load a config shipped with the package (e.g. 'experimental')."""
        text = (
            resources.files("biphoton") / "configs" / f"{name}.json"
        ).read_text()
        return cls.from_dict(json.loads(text))

    # builders -----------------------------------------------------------

    def profile(self) -> SpectralProfile:
        src = self.data["source"]
        k_pump = wavelength_to_wavenumber(src["pump_wavelength_m"])
        delta_k = 1.0 / src["coherence_length_m"]
        shape = SpectralShape(src["shape"])
        return SpectralProfile(k_pump=k_pump, delta_k=delta_k, shape=shape)

    def geometry(self) -> InterferometerGeometry:
        geo = self.data["geometry"]
        return InterferometerGeometry(
            path_short=geo["path_short_m"],
            path_long_base=geo["path_long_base_m"],
            splitter_transmittance=geo["splitter_transmittance"],
            mode_overlap=geo["mode_overlap"],
        )

    def rates(self) -> SourceRates:
        r = self.data["rates"]
        return SourceRates(
            pair_rate=r["pair_rate"],
            rc0=r["rc0"],
            singles_background=r["singles_background"],
        )

    def detector(self) -> DetectorModel:
        d = self.data["detector"]
        return DetectorModel(
            timing_jitter_sigma=d["jitter_sigma_s"],
            dead_time=d["dead_time_s"],
            efficiency=d["efficiency"],
        )

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
        for section, defaults in DEFAULTS.items():
            for key, default in defaults.items():
                value = self.data[section][key]
                if _is_number(default) and not _is_number(value):
                    raise ConfigError(
                        f"{section}.{key} must be a number, got {value!r}"
                    )
        coherence = self.data["source"]["coherence_length_m"]
        # NaN passes on to the profile builder, whose message names delta_k
        if coherence <= 0:
            raise ConfigError(
                f"source.coherence_length_m must be positive, got {coherence!r}"
            )
        n_channels = self.data["tac"]["n_channels"]
        if not _is_int(n_channels) or n_channels > MAX_CHANNELS:
            raise ConfigError(
                f"tac.n_channels must be an integer of at most {MAX_CHANNELS}, "
                f"got {n_channels!r}"
            )
        shape = self.data["source"]["shape"]
        shapes = [s.value for s in SpectralShape]
        if shape not in shapes:
            raise ConfigError(f"source.shape must be one of {shapes}, got {shape!r}")
        profile = _build("source", self.profile)
        lo, hi = profile.support()
        if not (lo > 0.0 and hi < profile.k_pump):
            # pairs need 0 < k1 < k_pump, and both the sampler and the
            # closed-form spectral averages use the untruncated spectrum
            raise ConfigError(
                f"source: the signal spectrum's support [{lo:.6g}, {hi:.6g}] rad/m "
                f"crosses 0 or k_pump = {profile.k_pump:.6g} rad/m; "
                "source.coherence_length_m is too short"
            )
        geometry = _build("geometry", self.geometry)
        rates = _build("rates", self.rates)
        _build("detector", self.detector)
        tac = _build("tac", self.tac)
        for section in ("run", "scan"):
            duration = self.data[section]["duration_s"]
            if not 0.0 <= duration < math.inf:
                raise ConfigError(
                    f"{section}.duration_s must be a finite nonnegative number, "
                    f"got {duration!r}"
                )
            photons = 2.0 * (rates.pair_rate + rates.singles_background) * duration
            if photons > MAX_PHOTONS:
                raise ConfigError(
                    f"{section}.duration_s: 2 * (rates.pair_rate + rates."
                    f"singles_background) * {section}.duration_s = {photons:.3g} "
                    f"expected photons per acquisition, above {MAX_PHOTONS:.0e}"
                )

        dl = delta_L(geometry)
        lcoh = coherence_length(profile)
        if dl < 100.0 * lcoh:
            warnings.append(
                f"path difference {dl} m is below 100x the coherence length "
                f"{lcoh} m; single-photon interference is not negligible"
            )
        split = dl / SPEED_OF_LIGHT
        if tac.electrical_delay < split:
            raise ConfigError(
                f"electrical delay {tac.electrical_delay} s is smaller than "
                f"delta_L/c = {split} s; the early side peak falls outside the TAC"
            )
        if tac.electrical_delay + split > tac.range:
            raise ConfigError(
                f"electrical delay {tac.electrical_delay} s plus delta_L/c = "
                f"{split} s exceeds the TAC range {tac.range} s"
            )
        n_points = self.data["scan"]["n_points"]
        if not _is_int(n_points):
            raise ConfigError(f"scan.n_points must be an integer, got {n_points!r}")
        if n_points < 8:
            raise ConfigError("scan needs at least 8 points")
        span = self.data["scan"]["span_periods"]
        if not 1.0 <= span < math.inf:
            raise ConfigError(
                "scan.span_periods must be a finite number of at least one "
                f"fringe period, got {span!r}"
            )
        period = self.data["source"]["pump_wavelength_m"]
        if not math.isfinite(span * period):
            raise ConfigError(
                f"scan.span_periods * source.pump_wavelength_m = {span!r} * "
                f"{period!r} m overflows; the scan length must be finite"
            )
        # the scan lengthens the long arm, so its last point splits the peaks most
        offsets = self.scan_offsets()
        travel = float(offsets.max())
        last = _build("scan", lambda: geometry.with_offset(travel))
        last_split = delta_L(last) / SPEED_OF_LIGHT
        if (
            tac.electrical_delay < last_split
            or tac.electrical_delay + last_split > tac.range
        ):
            raise ConfigError(
                f"scan.span_periods = {span!r} moves the long arm by {travel:.6g} m; "
                f"at the last scan point delta_L/c = {last_split:.6g} s puts a side "
                f"peak outside the TAC (electrical delay {tac.electrical_delay} s, "
                f"range {tac.range} s)"
            )
        _build("scan", lambda: fringe_design(offsets, period))
        seed = self.data["run"]["seed"]
        if not _is_int(seed) or seed < 0:
            raise ConfigError(
                f"run.seed must be a nonnegative integer, got {seed!r}"
            )
        return warnings

    # serialization ------------------------------------------------------

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2)

    def config_hash(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.data, sort_keys=True, separators=(",", ":")).encode()
        )
        return digest.hexdigest()[:12]


def read_config_file(path) -> dict:
    """The raw key/value data of a JSON config file, not yet merged."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
