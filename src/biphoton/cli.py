"""Command-line front end.

Subcommands:
  histogram    simulate one acquisition and write the TAC histogram CSV
  fringes      simulate a fringe scan once, analyze it per coincidence window
  compare      tabulate analytic and Monte Carlo rates over a phase grid
  print-config dump the fully resolved configuration

Exit codes: 0 success, 2 configuration error, 3 runtime/fit error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    acquire_scan_corpus,
    classify_regime,
    fit_visibility,
    gate_scan,
)
from .config import ExperimentConfig, read_config_file
from .detection import acquire_histogram, window_channels
from .engines import (
    classical_rate,
    pair_monte_carlo,
    quantum_rate_narrow,
    quantum_rate_wide,
)
from .errors import BiphotonError, ConfigError, DomainError
from .interferometer import offset_for_phase
from .spectral import TWO_PI, sample_signal


def _load_config(args) -> ExperimentConfig:
    """``--config`` (or the defaults) with ``--seed``, validated once."""
    cfg = ExperimentConfig.resolve(read_config_file(args.config) if args.config else {})
    if args.seed is not None:
        cfg.data["run"]["seed"] = args.seed
    for warning in cfg.validate():
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _out_dir(args) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        path = Path(os.environ.get("BIPHOTON_OUT", "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guard_overwrite(path: Path, config_hash: str, force: bool) -> None:
    """Refuse to overwrite an artifact produced by a different configuration."""
    if not path.exists() or force:
        return
    head = path.read_text()[:4096]
    for line in head.splitlines():
        token = None
        if line.startswith("# config_hash="):
            token = line.split("=", 1)[1].strip()
        elif '"config_hash"' in line:
            token = line.split(":", 1)[1].strip().strip('",')
        if token and token != config_hash:
            raise ConfigError(
                f"{path} was produced with config hash {token}, current hash is "
                f"{config_hash}; pass --force to overwrite"
            )


def _write_json(path: Path, payload: dict, config_hash: str, force: bool) -> None:
    payload = {"config_hash": config_hash, **payload}
    _guard_overwrite(path, config_hash, force)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _window_tag(width_s: float) -> str:
    """Name of a window in output file names and printed lines."""
    return f"{width_s * 1e9:g}ns"


def _check_windows(windows_s, tac) -> None:
    """Refuse, before any acquisition, each window gate_count would refuse.

    Windows whose tags coincide would write the same output files, the later
    silently overwriting the earlier, so they are refused too.
    """
    seen = {}
    edges = tac.bin_edges
    for width in windows_s:
        tag = _window_tag(width)
        if tag in seen:
            raise ConfigError(
                f"--window {width * 1e9:.12g} ns and --window {seen[tag] * 1e9:.12g} ns "
                f"share the output tag {tag}; give distinct windows"
            )
        seen[tag] = width
        try:
            window_channels(edges, tac.electrical_delay, width)
        except DomainError as exc:
            raise ConfigError(f"--window {width * 1e9:g} ns: {exc}") from exc


def cmd_histogram(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    rng = np.random.default_rng(cfg.data["run"]["seed"])
    detector = cfg.detector()
    hist = acquire_histogram(
        cfg.profile(),
        cfg.geometry(),
        cfg.rates(),
        detector,
        detector,
        cfg.tac(),
        cfg.data["run"]["duration_s"],
        rng,
    )
    path = out / "histogram.csv"
    _guard_overwrite(path, cfg.config_hash(), args.force)
    hist.to_csv(path, config_hash=cfg.config_hash())
    print(f"wrote {path} ({hist.total} start-stop pairs)")
    return 0


def cmd_fringes(args) -> int:
    cfg = _load_config(args)
    tac = cfg.tac()
    windows_s = [w * 1e-9 for w in (args.window or [5.0, 1.0])]
    _check_windows(windows_s, tac)
    out = _out_dir(args)
    profile = cfg.profile()
    geometry = cfg.geometry()
    corpus = acquire_scan_corpus(
        profile,
        geometry,
        cfg.rates(),
        cfg.detector(),
        cfg.detector(),
        tac,
        cfg.scan_offsets(),
        cfg.data["scan"]["duration_s"],
        cfg.data["run"]["seed"],
    )
    chash = cfg.config_hash()
    period = cfg.data["source"]["pump_wavelength_m"]
    for window in windows_s:
        tag = _window_tag(window)
        scan = gate_scan(corpus, tac, window)
        regime = classify_regime(window, geometry)
        # fit before writing, so a scan that cannot be fitted leaves no file
        report = fit_visibility(scan, known_period=period, regime=regime)
        scan_path = out / f"fringes_scan_{tag}.csv"
        _guard_overwrite(scan_path, chash, args.force)
        scan.to_csv(scan_path, config_hash=chash)
        report_path = out / f"fringes_report_{tag}.json"
        _write_json(report_path, report.to_dict(), chash, args.force)
        print(
            f"window {tag}: regime={regime.value} "
            f"V={report.visibility:.3f}+/-{report.visibility_sigma:.3f} "
            f"verdict={report.verdict.value}"
        )
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    profile = cfg.profile()
    geometry = cfg.geometry()
    rates = cfg.rates()
    rng = np.random.default_rng(cfg.data["run"]["seed"])
    n_mc = 200_000
    rows = []
    for i in range(9):
        phase = i * TWO_PI / 8.0
        geom = geometry.with_offset(
            offset_for_phase(profile.k_pump, geometry, phase)
        )
        narrow = quantum_rate_narrow(profile, geom, rates)
        wide = quantum_rate_wide(profile, geom, rates)
        classical = classical_rate(profile, geom, rates)
        # one draw of signal deviations serves both Monte Carlo columns
        delta = sample_signal(profile, rng, n_mc)
        cmc_mean, cmc_err, coincidences = pair_monte_carlo(profile, geom, delta, rng)
        qmc = coincidences / n_mc * rates.pair_rate
        rows.append(
            {
                "phase_rad": phase,
                "quantum_narrow_rate": narrow,
                "quantum_wide_rate": wide,
                "classical_rate": classical,
                "classical_mc_rate": 0.5 * rates.pair_rate * cmc_mean,
                "classical_mc_stderr": 0.5 * rates.pair_rate * cmc_err,
                "quantum_mc_wide_rate": qmc,
                "quantum_mc_n": n_mc,
            }
        )
    path = out / "compare.json"
    _write_json(path, {"rows": rows}, cfg.config_hash(), args.force)
    print(f"wrote {path}")
    return 0


def cmd_print_config(args) -> int:
    cfg = _load_config(args)
    print(cfg.canonical_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon interference simulator for an unbalanced "
        "Michelson interferometer",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument(
            "--force", action="store_true", help="overwrite mismatched outputs"
        )

    p = sub.add_parser("histogram", help="simulate one TAC/MCA acquisition")
    common(p)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("fringes", help="fringe scan with delayed-choice windows")
    common(p)
    p.add_argument(
        "--window",
        type=float,
        action="append",
        metavar="NS",
        help="coincidence window in ns (repeatable; default 5 and 1)",
    )
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("compare", help="analytic vs Monte Carlo rate table")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("print-config", help="dump the resolved configuration")
    common(p)
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BiphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
