"""Benchmark worker: one fresh interpreter per workload run, started by run.py.

    python3 bench/worker.py --spec SPEC --mode probe|run --seconds S \
        --trace 0|1 --result PATH

``probe`` imports biphoton, sets the workload up, records the monotonic
clock and exits; the parent takes set-up time from its own clock reading
just before the process started.  ``run`` does the same set-up, then runs
identical jobs one at a time until ``--seconds`` have passed.  With
``--trace 1`` it alternates untraced and traced jobs, so the traced result
digests can be compared with the untraced ones and the tracing overhead
measured in the same process.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def digest(outputs: dict[str, bytes]) -> tuple[str, dict[str, str]]:
    files = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    combined = hashlib.sha256(
        "".join(f"{name}\0{files[name]}\n" for name in sorted(files)).encode()
    ).hexdigest()
    return combined, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("probe", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import biphoton.cli  # noqa: F401  (the whole program)
    import workloads

    spec = json.loads(Path(args.spec).read_text())
    recorder = None
    if args.trace:
        import layers
        from spans import Recorder

        recorder = Recorder("biphoton")
        recorder.install(layers.TARGETS)
    try:
        ctx = workloads.setup(spec)
    finally:
        if recorder is not None:
            recorder.uninstall()
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "probe":
        Path(args.result).write_text(json.dumps(result))
        return 0

    # Timed jobs run until --seconds have passed, at least one of each kind
    # when tracing.  Job 0 pays for lazy imports, so it is rarely the fastest.
    jobs = []
    first_outputs = None
    start = time.monotonic()
    min_jobs = 2 if recorder is not None else 1
    while len(jobs) < min_jobs or time.monotonic() - start < args.seconds:
        index = len(jobs)
        traced = recorder is not None and index % 2 == 1
        workloads.prepare(ctx)
        error = None
        if traced:
            recorder.phase = f"job{index}"
            recorder.install(layers.TARGETS)
        t0 = time.perf_counter()
        try:
            ok, payload = workloads.run(ctx)
        except Exception:  # a job that raises is a failed operation
            ok, payload, error = False, None, traceback.format_exc()
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                recorder.uninstall()
        outputs = workloads.collect(ctx, payload) if error is None else {}
        combined, files = digest(outputs)
        if first_outputs is None:
            first_outputs = outputs
            result["file_digests"] = files
        jobs.append(
            {
                "traced": traced,
                "seconds": seconds,
                "ok": ok,
                "digest": combined,
                "error": error,
            }
        )

    # Every job repeats job 0's inputs, so a job whose digest matches job 0's
    # has job 0's check results; one that differs fails them all.
    check_list, labels = workloads.check(ctx, first_outputs)
    check_list = [(name, bool(ok), detail) for name, ok, detail in check_list]
    n_bad = sum(not ok for _, ok, _ in check_list)
    attempted = failed = 0
    for job in jobs:
        same = job["digest"] == jobs[0]["digest"]
        attempted += 1 + len(check_list)
        failed += (not (job["ok"] and same)) + (n_bad if same else len(check_list))

    plain = [j["seconds"] for j in jobs if not j["traced"]]
    traced_s = [j["seconds"] for j in jobs if j["traced"]]
    result.update(
        {
            "job_seconds": plain,
            "traced_seconds": traced_s,
            # interference on a shared host only ever adds time, so the
            # fastest job is the steadiest estimate of the program's own cost
            "run_s": min(plain),
            "run_median_s": statistics.median(plain),
            "digest": jobs[0]["digest"],
            "digests_equal": all(j["digest"] == jobs[0]["digest"] for j in jobs),
            "errors": sorted({j["error"] for j in jobs if j["error"]}),
            "checks": check_list,
            "labels": labels,
            "pairs_per_job": workloads.pairs_per_job(ctx, first_outputs),
            "config_hash": ctx.cfg.config_hash(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": _versions(),
        }
    )
    if recorder is not None:
        from spans import totals_by_phase

        totals = totals_by_phase(recorder.spans)
        traced = [totals.get(f"job{i}", {}) for i, j in enumerate(jobs) if j["traced"]]
        metrics, problems = layers.layer_metrics(
            totals.get("setup", {}), traced, traced_s, plain
        )
        attempted += 1
        failed += bool(problems)
        result["layer_metrics"] = metrics
        result["layer_problems"] = problems
        recorder.dump(Path(args.result).with_name("spans.jsonl"))
    result["attempted"] = attempted
    result["failed"] = failed
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    import biphoton

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "biphoton": biphoton.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
