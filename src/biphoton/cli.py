"""Command-line front end, and the one module that writes files.

Subcommands:
  histogram    simulate one acquisition and write the TAC histogram CSV
  fringes      simulate a fringe scan once, analyze it per coincidence window
  compare      tabulate analytic and Monte Carlo rates over a phase grid
  print-config dump the fully resolved configuration

Exit codes: 0 success, 1 stdout closed by its reader (nothing printed), 2
configuration error or an output that cannot be written, 3 runtime/fit error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
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
    side_class_rate,
)
from .errors import BiphotonError, ConfigError, DomainError
from .interferometer import offset_for_phase
from .spectral import TWO_PI


def _load_config(args) -> ExperimentConfig:
    """``--config`` (or the defaults) with ``--seed``, validated once."""
    cfg = ExperimentConfig.resolve(read_config_file(args.config) if args.config else {})
    if args.seed is not None:
        cfg.data["run"]["seed"] = args.seed
    for warning in cfg.validate():
        print(f"warning: {warning}", file=sys.stderr)
    return cfg


def _artifacts(args, config_hash: str, names: list[str]) -> list[Path]:
    """The command's output paths, checked before any acquisition.

    The output directory is created, and each path is guarded by
    :func:`_guard_overwrite`, so a fault in any of them ends the command
    before it has computed or written anything.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out}: {exc.strerror}"
        ) from exc
    paths = [out / name for name in names]
    for path in paths:
        _guard_overwrite(path, config_hash, args.force)
    return paths


# the config hash of a CSV (``# config_hash=H``) or JSON (``"config_hash": "H"``)
# artifact; H is any token, not hex only, so a foreign one is refused too
_HASH_LINE = re.compile(r'(?:^# config_hash=|"config_hash": ")([^\s"]+)', re.M)


def _guard_overwrite(path: Path, config_hash: str, force: bool) -> None:
    """Refuse an output path that is a directory, or, unless ``force``, one
    that is not a regular file (a named pipe would block the read) or that
    holds an artifact of a different configuration.

    Only the first 4096 bytes of an existing file are read; bytes that are
    not UTF-8 hold no hash.
    """
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    if force or not path.exists():
        return
    if not path.is_file():
        raise ConfigError(
            f"cannot write {path}: it is not a regular file; "
            "pass --force to replace it"
        )
    try:
        with open(path, "rb") as fh:
            head = fh.read(4096).decode("utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    found = _HASH_LINE.search(head)
    if found and found[1] != config_hash:
        raise ConfigError(
            f"{path} was produced with config hash {found[1]}, current hash is "
            f"{config_hash}; pass --force to overwrite"
        )


def _write(texts: dict[Path, str]) -> None:
    """The one file writer, all or nothing: each text goes to a new file at a
    temporary name beside its path, and only once all are written are they
    renamed into place.  A path that cannot be written is a ConfigError, and
    its temporaries are removed."""
    temps = {path: path.with_name(path.name + ".tmp") for path in texts}
    opened = []
    try:
        for path, text in texts.items():
            temps[path].unlink(missing_ok=True)
            with open(temps[path], "x") as fh:
                opened.append(temps[path])
                fh.write(text)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in opened:
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _csv(config_hash: str, meta: dict, **columns) -> str:
    """``# key=value`` lines of ``meta`` and the hash, the column names, and
    the rows; a scalar column repeats, and ``repr`` keeps every float exact."""
    lines = [f"# {key}={value!r}" for key, value in meta.items()]
    lines += [f"# config_hash={config_hash}", ",".join(columns)]
    rows = zip(*(a.tolist() for a in np.broadcast_arrays(*columns.values())))
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload: dict, config_hash: str) -> str:
    payload = {"config_hash": config_hash, **payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _window_tag(width_s: float) -> str:
    """Name of a window in output file names and printed lines."""
    return f"{width_s * 1e9:g}ns"


def _check_windows(windows_s, tac) -> None:
    """Refuse, before any acquisition, each window gate_count would refuse.

    Windows whose tags coincide would write the same output files, the later
    silently overwriting the earlier, so they are refused too.
    """
    seen = {}
    for width in windows_s:
        tag = _window_tag(width)
        if tag in seen:
            raise ConfigError(
                f"--window {width * 1e9:.12g} ns and --window {seen[tag] * 1e9:.12g} ns "
                f"share the output tag {tag}; give distinct windows"
            )
        seen[tag] = width
        try:
            window_channels(tac, tac.electrical_delay, width)
        except DomainError as exc:
            raise ConfigError(f"--window {width * 1e9:g} ns: {exc}") from exc


def cmd_histogram(args) -> int:
    cfg = _load_config(args)
    chash = cfg.config_hash()
    (path,) = _artifacts(args, chash, ["histogram.csv"])
    rng = np.random.default_rng(cfg.data["run"]["seed"])
    detector, tac = cfg.detector(), cfg.tac()
    duration = cfg.data["run"]["duration_s"]
    counts, _ = acquire_histogram(
        cfg.profile(), cfg.geometry(), cfg.rates(), detector, detector, tac,
        duration, rng,
    )
    _write({path: _csv(chash, {"duration_s": float(duration)},
                       bin_center_s=tac.bin_centers, count=counts)})
    print(f"wrote {path} ({int(counts.sum())} start-stop pairs)")
    return 0


def cmd_fringes(args) -> int:
    cfg = _load_config(args)
    tac = cfg.tac()
    windows_s = [w * 1e-9 for w in (args.window or [5.0, 1.0])]
    _check_windows(windows_s, tac)
    chash = cfg.config_hash()
    tags = [_window_tag(window) for window in windows_s]
    # the scans' paths, then the reports'
    paths = _artifacts(
        args,
        chash,
        [f"fringes_scan_{tag}.csv" for tag in tags]
        + [f"fringes_report_{tag}.json" for tag in tags],
    )
    profile = cfg.profile()
    geometry = cfg.geometry()
    detector = cfg.detector()
    corpus = acquire_scan_corpus(
        profile,
        geometry,
        cfg.rates(),
        detector,
        detector,
        tac,
        cfg.scan_offsets(),
        cfg.data["scan"]["duration_s"],
        cfg.data["run"]["seed"],
    )
    period = cfg.data["source"]["pump_wavelength_m"]
    # every window is fitted before anything is written, so a scan that
    # cannot be fitted leaves no file
    texts, lines = {}, []
    for window, tag, scan_path, report_path in zip(
        windows_s, tags, paths, paths[len(tags) :]
    ):
        scan = gate_scan(corpus, tac, window)
        regime = classify_regime(window, geometry)
        report = fit_visibility(scan, known_period=period, regime=regime)
        texts[scan_path] = _csv(
            chash, {"window_s": float(scan.window_width)},
            offset_m=scan.offsets, singles_a=scan.singles_a, singles_b=scan.singles_b,
            coincidences=scan.coincidences, duration_s=float(scan.duration),
        )
        texts[report_path] = _json(report.to_dict(), chash)
        lines.append(
            f"window {tag}: regime={regime.value} "
            f"V={report.visibility:.3f}+/-{report.visibility_sigma:.3f} "
            f"verdict={report.verdict.value}"
        )
    _write(texts)
    print("\n".join(lines))
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    chash = cfg.config_hash()
    (path,) = _artifacts(args, chash, ["compare.json"])
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
        wide = narrow + side_class_rate(profile, geom, rates)
        classical = classical_rate(profile, geom, rates)
        cmc_mean, cmc_err, coincidences = pair_monte_carlo(profile, geom, n_mc, rng)
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
    _write({path: _json({"rows": rows}, chash)})
    print(f"wrote {path}")
    return 0


def cmd_print_config(args) -> int:
    cfg = _load_config(args)
    print(json.dumps(cfg.data, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon interference simulator for an unbalanced "
        "Michelson interferometer",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes=True):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="override run.seed")
        if not writes:
            return
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
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
    common(p, writes=False)
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()  # so the interpreter's final flush writes nothing
        return 1
    except BiphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
