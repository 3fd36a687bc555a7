"""Measure the checkout against a pinned baseline commit with the benchmark.

    python3 scripts/trajectory.py --out BENCH_<pr>.json [--base REV] [--pairs N]

Both trees are exported into one temporary directory: the baseline with
``git archive`` of ``--base``, and the checkout as git sees it (tracked
files as they are on disk, plus untracked files that are not ignored, but
not the record being written), so that each side runs ``bench/run.py``
unchanged from a fresh tree of its own.  ``git archive`` registers nothing
in the repository, so an interrupted run leaves no stale worktree behind.
Each side's record holds the sha256 of its exported tree (see
:func:`tree_sha256`); the checkout's also holds the sha256 of each file it
measured and the ``git status`` entries by which it differs from HEAD.  So
a record ties to the files it measured: a commit whose tree, less the
record, hashes the same holds exactly those, and where they differ, the
per-file digests name the files.

For each workload that ``BENCHMARK.json`` bounds, it runs N pairs of
untraced runs of ``BENCHMARK.json``'s ``run_seconds``, one seed per pair
(1, 2, ..., N), and the side that runs first alternates from pair to pair.
Per workload, side and end-to-end metric it records the median and the
quartiles; per workload and metric, the checkout/baseline ratio of the
medians, the share of pairs the checkout won (ties count for neither), and
whether that is a resolved gain: a win in at least nine tenths of the
pairs, with medians further apart than the baseline's interquartile
distance.  One traced run per side and workload
adds the signal deviations each side draws (``spectral.sample_signal.draws``),
which sits beside ``pairs_per_s``, since that metric counts the pairs
evaluated, not the pairs drawn; the checkout's traced run also gives the
per-layer self times and counts.  The output digest of every run, the
failed and attempted operations, and the environment (CPU model, ``nproc``,
load average, Python and numpy versions) are recorded too.

The baseline is pinned; change it only with ``--base``, and say so.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: the pinned baseline commit that every BENCH_<pr>.json is measured against
BASE = "fddb45e"


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def _export_commit(rev: str, dst: Path) -> None:
    dst.mkdir()
    archive = _git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(dst)], input=archive, check=True)


def _export_checkout(dst: Path, skip: str | None) -> list[str]:
    """Copy the checkout as git sees it into ``dst``, less the file ``skip``
    (relative to the root); return the ``git status`` entries by which that
    differs from HEAD's tree."""
    dst.mkdir()
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        src = ROOT / name
        if name and name != skip and src.is_file():  # a tracked file may be deleted on disk
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst / name)
    # modified, deleted and untracked files, ignored ones left out as above
    changed = _git("status", "-z", "--porcelain", "--untracked-files=all")
    return [e for e in changed.decode().split("\0") if e and e[3:] != skip]


def file_sha256s(tree: Path) -> dict[str, str]:
    """The sha256 of each file under ``tree``, by POSIX path, sorted."""
    return {
        path.relative_to(tree).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in tree.rglob("*") if p.is_file())
    }


def tree_sha256(tree: Path) -> str:
    """sha256 over :func:`file_sha256s`: each file adds its path, a NUL,
    its sha256 and a newline."""
    lines = "".join(f"{name}\0{digest}\n" for name, digest in file_sha256s(tree).items())
    return hashlib.sha256(lines.encode()).hexdigest()


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line and the output
    digest from its record."""
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"error: bench/run.py {workload} seed {seed} in {tree.name} "
            f"exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = tree / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}" / "results.json"
    result["output_digest"] = json.loads(record.read_text())["output_digest"]
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _compare(metric: dict, head: list[float], base: list[float]) -> dict:
    """Ratio of the medians, the checkout's share of won pairs, and whether
    the gain is resolved by the nine-tenths rule and the baseline's spread."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for h, b in zip(head, base))
    share = wins / len(head)
    med_h, med_b = statistics.median(head), statistics.median(base)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    return {
        "ratio": med_h / med_b,
        "head_won_share": share,
        "resolved_gain": share >= 0.9 and sign * (med_b - med_h) > q3 - q1,
        "bound": metric["bound"],
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="BENCH_<pr>.json to write")
    parser.add_argument("--base", default=BASE, help=f"baseline commit (default {BASE})")
    parser.add_argument(
        "--pairs", type=int, default=10, help="alternated pairs per workload (>= 5)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 5:
        parser.error("--pairs must be at least 5")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = Path(args.out).resolve()
    skip = out.relative_to(ROOT).as_posix() if out.is_relative_to(ROOT) else None
    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    head_commit = _git("rev-parse", "HEAD").decode().strip()

    record = {
        "head": {"commit": head_commit},
        "base": {"commit": base_commit, "rev": args.base},
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "environment_start": _environment(),
        "workloads": {},
    }
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="biphoton-trajectory-") as tmp:
        trees = {"head": Path(tmp) / "head", "base": Path(tmp) / "base"}
        record["head"]["changes_from_commit"] = _export_checkout(trees["head"], skip)
        _export_commit(base_commit, trees["base"])
        for side, tree in trees.items():
            record[side]["tree_sha256"] = tree_sha256(tree)
        record["head"]["files"] = file_sha256s(trees["head"])
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"head": [], "base": []}
            for i, seed in enumerate(record["seeds"]):
                order = ("head", "base") if i % 2 == 0 else ("base", "head")
                for side in order:
                    runs[side].append(_bench(trees[side], workload, seed, seconds, 0))
                    print(
                        f"{workload} seed {seed} {side}: run_s "
                        f"{runs[side][-1]['metrics']['run_s']['value']:.4f}",
                        file=sys.stderr,
                    )
            traced = {
                side: _bench(trees[side], workload, record["seeds"][0], seconds, 1)
                for side in ("head", "base")
            }
            entry = {"sides": {}, "comparison": {}}
            for side in ("head", "base"):
                draws = traced[side]["metrics"].get("spectral.sample_signal.draws")
                entry["sides"][side] = {
                    "metrics": {
                        m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs[side]])
                        for m in spec["end_to_end"]
                    },
                    "drawn_pairs_per_job": draws["value"] if draws else None,
                    "failed": sum(r["failed"] for r in runs[side]),
                    "attempted": sum(r["attempted"] for r in runs[side]),
                    "output_digests": [r["output_digest"] for r in runs[side]],
                }
            for m in spec["end_to_end"]:
                entry["comparison"][m["name"]] = _compare(
                    m,
                    entry["sides"]["head"]["metrics"][m["name"]]["runs"],
                    entry["sides"]["base"]["metrics"][m["name"]]["runs"],
                )
            entry["head_layers"] = {
                name: m["value"] for name, m in traced["head"]["metrics"].items()
            }
            record["workloads"][workload] = entry
    record["environment_end"] = _environment()
    record["wall_s"] = time.monotonic() - started
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["workloads"].items():
        for name, c in entry["comparison"].items():
            print(
                f"{workload} {name}: head/base {c['ratio']:.3f}, "
                f"head won {c['head_won_share']:.0%}, resolved gain {c['resolved_gain']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
