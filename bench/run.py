"""biphoton benchmark: one workload per call, from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh worker processes (bench/worker.py).  With
``--trace 0`` the end-to-end metrics are measured: set-up time is taken over
several fresh interpreters and reported as the median, then one worker runs
the closed loop of jobs for ``--seconds``.  With ``--trace 1`` one worker
runs traced and untraced jobs in turn and the per-layer metrics are
reported.  The last line of standard output is the result as JSON; the full
record, with provenance, checks, labels and output digests, goes to
``.bench_runs/<workload>-seed<N>-trace<T>/results.json``.

Exits 2 without a result when the checkout holds no biphoton sources, and 1
when a worker process fails or runs out of time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import workloads  # noqa: E402

#: fresh interpreters whose set-up time is measured besides the worker's own;
#: the median of all of them is robust to the first one's cold caches
SETUP_PROBES = 2
#: a run must end within this many seconds of starting
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(mode, spec_path, result_path, seconds, trace, deadline) -> tuple[float, dict]:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--spec", str(spec_path), "--mode", mode, "--seconds", str(seconds),
        "--trace", str(trace), "--result", str(result_path),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return t0, json.loads(Path(result_path).read_text())


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src" / "biphoton"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec_path = workloads.write_inputs(args.workload, args.seed, ROOT, run_dir)

    def spawn(mode, name):
        return _spawn(
            mode, spec_path, run_dir / name, args.seconds, args.trace, deadline
        )

    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                t0, probe = spawn("probe", f"probe{i}.json")
                setup.append(probe["ready"] - t0)
        t0, res = spawn("run", "worker.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["layer_metrics"]
    else:
        setup.append(res["ready"] - t0)
        run_s = res["run_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "pairs_per_s": {"value": res["pairs_per_job"] / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = res["attempted"], res["failed"]
    run_median_s = res["run_median_s"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_commit": _git_commit(ROOT),
            "src_sha256": _source_digest(ROOT),
            "python": res["versions"]["python"],
            "numpy": res["versions"]["numpy"],
            "scipy": res["versions"]["scipy"],
            "biphoton": res["versions"]["biphoton"],
            "nproc": len(os.sched_getaffinity(0)),
            "config_hash": res["config_hash"],
            "seed": args.seed,
        },
        "metrics": metrics,
        "fail_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "setup_samples_s": setup,
        "run_median_s": run_median_s,
        "job_seconds": res["job_seconds"],
        "traced_seconds": res["traced_seconds"],
        "output_digest": res["digest"],
        "digests_equal": res["digests_equal"],
        "file_digests": res["file_digests"],
        "checks": res["checks"],
        "labels": res["labels"],
        "errors": res["errors"],
        "layer_problems": res.get("layer_problems", []),
    }
    (run_dir / "results.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"run_median_s = {run_median_s:.6g} s (not bounded)")
    print(
        f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted}); "
        f"jobs {len(res['job_seconds']) + len(res['traced_seconds'])}; "
        f"output sha256 {res['digest']}"
    )
    for name, ok, detail in res["checks"]:
        if not ok:
            print(f"FAILED {name}: {detail}")
    for error in res["errors"]:
        print(error, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
