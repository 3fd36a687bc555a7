"""The benchmark's four workloads.

Each workload is a closed loop of identical batch jobs, one at a time, in one
process.  Its inputs, a config file and an argv, are generated here from the
seed and the program sees nothing else.  The parent process only calls
``write_inputs``; the worker process calls the rest after importing biphoton.

Why these four: see README.md in this directory.
"""
from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks

#: windows of the ``fringes`` run, in ns; 2-5 ns is where the regime label
#: disagrees with the gate actually applied, so those stay in
FRINGE_WINDOWS_NS = ("1", "2", "3", "5", "7")

#: the delayed-choice grid: 0.20 ns to 19.80 ns in 0.04 ns steps, every
#: window inside the 20 ns TAC range around the 10 ns electrical delay
SWEEP_WINDOWS_NS = tuple(round(0.2 + 0.04 * i, 2) for i in range(491))


def _experimental(root: Path) -> dict:
    path = root / "src" / "biphoton" / "configs" / "experimental.json"
    return json.loads(path.read_text())


#: name -> (base config, CLI subcommand and its options; None = no CLI)
WORKLOADS = {
    "acquire_long": (
        lambda root: {"run": {"duration_s": 10.0}, "detector": {"dead_time_s": 50e-9}},
        ["histogram"],
    ),
    "scan_experimental": (
        _experimental,
        ["fringes"] + [a for w in FRINGE_WINDOWS_NS for a in ("--window", w)],
    ),
    "compare_default": (lambda root: {}, ["compare"]),
    "window_sweep": (_experimental, None),
}


def write_inputs(name: str, seed: int, root: Path, run_dir: Path) -> Path:
    """Write the config and job description for one run; return the spec path."""
    base, command = WORKLOADS[name]
    config = base(root)
    config.setdefault("run", {})["seed"] = seed
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    out_dir = run_dir / "out"
    argv = None
    if command is not None:
        argv = command + [
            "--config", str(config_path), "--seed", str(seed), "--out", str(out_dir)
        ]
    spec = {
        "workload": name,
        "seed": seed,
        "config": str(config_path),
        "out": str(out_dir),
        "argv": argv,
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    return spec_path


# --- worker side: everything below runs after biphoton is imported ---------


@dataclass
class Context:
    name: str
    spec: dict
    cfg: object  # biphoton.config.ExperimentConfig
    corpus: list = field(default_factory=list)


def setup(spec: dict) -> Context:
    """Resolve the config; ``window_sweep`` also acquires its corpus here."""
    from biphoton import analysis
    from biphoton.config import ExperimentConfig

    cfg = ExperimentConfig.from_file(spec["config"])
    ctx = Context(spec["workload"], spec, cfg)
    if spec["argv"] is None:
        ctx.corpus = analysis.acquire_scan_corpus(
            cfg.profile(),
            cfg.geometry(),
            cfg.rates(),
            cfg.detector(),
            cfg.detector(),
            cfg.tac(),
            cfg.scan_offsets(),
            cfg.data["scan"]["duration_s"],
            cfg.data["run"]["seed"],
        )
    return ctx


def prepare(ctx: Context) -> None:
    """Untimed: give each CLI job an empty output directory."""
    if ctx.spec["argv"] is not None:
        out = Path(ctx.spec["out"])
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)


def run(ctx: Context):
    """One job, the timed part.  Returns (ok, payload)."""
    if ctx.spec["argv"] is not None:
        from biphoton import cli

        with redirect_stdout(io.StringIO()):
            code = cli.main(ctx.spec["argv"])
        return code == 0, code
    return True, _sweep(ctx)


def _sweep(ctx: Context) -> list[dict]:
    from biphoton import analysis
    from biphoton.errors import BiphotonError

    cfg = ctx.cfg
    tac, geometry = cfg.tac(), cfg.geometry()
    period = cfg.data["source"]["pump_wavelength_m"]
    rows = []
    for w_ns in SWEEP_WINDOWS_NS:
        width = w_ns * 1e-9
        scan = analysis.gate_scan(ctx.corpus, tac, width)
        try:
            regime = analysis.classify_regime(width, geometry)
            report = analysis.fit_visibility(
                scan, known_period=period, regime=regime
            ).to_dict()
        except BiphotonError as exc:
            report = {"error": f"{type(exc).__name__}: {exc}"}
        rows.append(
            {
                "window_ns": w_ns,
                "coincidences": scan.coincidences.tolist(),
                "report": report,
            }
        )
    return rows


def collect(ctx: Context, payload) -> dict[str, bytes]:
    """Untimed: the job's outputs as name -> bytes."""
    if ctx.spec["argv"] is not None:
        out = Path(ctx.spec["out"])
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return {"sweep.json": (json.dumps(payload, sort_keys=True) + "\n").encode()}


def pairs_per_job(ctx: Context, outputs: dict[str, bytes]) -> float:
    """Simulated pairs one job processes.

    ``compare`` counts the quantum Monte Carlo pairs its table records;
    ``window_sweep`` counts the pairs of the corpus it re-analyses.
    """
    data = ctx.cfg.data
    if ctx.name == "acquire_long":
        return data["rates"]["pair_rate"] * data["run"]["duration_s"]
    if ctx.name == "compare_default":
        rows = json.loads(outputs["compare.json"])["rows"]
        return float(sum(r["quantum_mc_n"] for r in rows))
    scan = data["scan"]
    return data["rates"]["pair_rate"] * scan["duration_s"] * scan["n_points"]


def check(ctx: Context, outputs: dict[str, bytes]):
    """Output checks and recorded (not gated) labels for one job's outputs."""
    if ctx.name == "acquire_long":
        return checks.histogram(ctx.cfg, outputs.get("histogram.csv", b"")), {}
    if ctx.name == "compare_default":
        return checks.compare(ctx.cfg, outputs.get("compare.json", b"")), {}
    if ctx.name == "scan_experimental":
        reports = {}
        for w in FRINGE_WINDOWS_NS:
            raw = outputs.get(f"fringes_report_{w}ns.json")
            reports[f"{w}ns"] = json.loads(raw) if raw else {"error": "missing"}
        return checks.reports(reports)
    rows = json.loads(outputs["sweep.json"])
    return checks.reports({f"{r['window_ns']:g}ns": r["report"] for r in rows})
