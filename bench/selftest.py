"""Self-tests of the benchmark, kept out of the repo's pytest suite.

    python3 bench/selftest.py            # about a minute on 2 CPUs

They check the self-time arithmetic, that tracing puts every patched name
back, that the traced and untraced runs give the same output digest, that a
seed the benchmark was not tuned on passes every output check, and that the
benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from spans import Recorder, Span, self_times, totals_by_phase  # noqa: E402

#: a seed none of the benchmark's own tuning runs used
FRESH_SEED = 90210


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )
    return proc


def _results(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}" / "results.json"
    return json.loads(path.read_text())


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            Span("a", 0, 100, None, "p", {"calls": 1}),
            Span("b", 10, 40, 0, "p", {"calls": 1}),
            Span("d", 20, 30, 1, "p", {"calls": 1}),
            Span("e", 35, 45, 0, "p", {"calls": 1}),
            Span("c", 50, 70, 0, "p", {"calls": 1}),
            Span("b", 80, 90, 0, "q", {"calls": 1, "pairs": 7}),
        ]
        # a: 100 minus the union of [10,40], [35,45], [50,70], [80,90]
        self.assertEqual(self_times(spans), [35, 20, 10, 10, 20, 10])
        totals = totals_by_phase(spans)
        self.assertEqual(totals["p"]["b"], {"self_ns": 20, "calls": 1})
        self.assertEqual(totals["q"]["b"], {"self_ns": 10, "calls": 1, "pairs": 7})

    def test_sum_of_self_times_is_root_duration(self):
        spans = [
            Span("root", 0, 1000, None, "p"),
            Span("x", 100, 400, 0, "p"),
            Span("y", 150, 250, 1, "p"),
            Span("x", 500, 900, 0, "p"),
        ]
        self.assertEqual(sum(self_times(spans)), 1000)


class Wrapping(unittest.TestCase):
    def test_install_patches_importers_and_uninstall_restores(self):
        import biphoton
        import biphoton.cli  # noqa: F401
        import layers

        modules = {
            name: dict(vars(mod))
            for name, mod in sys.modules.items()
            if name == "biphoton" or name.startswith("biphoton.")
        }
        recorder = Recorder("biphoton")
        recorder.install(layers.TARGETS)
        patched = set(recorder.patched)
        # defined in one module, imported by name into another
        for where in ("biphoton.interferometer", "biphoton.engines"):
            self.assertIn((where, "class_probabilities_pair"), patched)
        for where in ("biphoton.detection", "biphoton.analysis", "biphoton"):
            self.assertIn((where, "gate_count"), patched)
        self.assertIn(("biphoton.cli", "fit_visibility"), patched)
        for target in layers.TARGETS:
            self.assertIn((target.module, target.attr), patched)

        from biphoton.spectral import SpectralProfile

        profile = SpectralProfile(k_pump=1.4e7, delta_k=1e4)
        draws = biphoton.engines.sample_signal(profile, np.random.default_rng(1), 5)
        self.assertEqual(len(draws), 5)
        self.assertEqual([s.name for s in recorder.spans], ["spectral.sample_signal"])
        self.assertEqual(recorder.spans[0].counts["draws"], 5)

        recorder.uninstall()
        self.assertEqual(recorder.patched, [])
        for name, before in modules.items():
            after = vars(sys.modules[name])
            for attr, obj in before.items():
                self.assertIs(after[attr], obj, f"{name}.{attr} not restored")

    def test_failed_call_is_counted_and_reraised(self):
        import biphoton.analysis as analysis
        import biphoton.cli  # noqa: F401
        import layers
        from biphoton.errors import FitError

        recorder = Recorder("biphoton")
        recorder.install(layers.TARGETS)
        try:
            scan = analysis.FringeScan(
                offsets=np.arange(3.0),
                singles_a=np.ones(3),
                singles_b=np.ones(3),
                coincidences=np.ones(3),
                duration=1.0,
                window_width=1e-9,
            )
            with self.assertRaises(FitError):
                analysis.fit_visibility(scan)
        finally:
            recorder.uninstall()
        self.assertEqual(recorder.spans[-1].counts, {"calls": 1, "failures": 1})


class EndToEnd(unittest.TestCase):
    def test_fresh_seed_passes_every_check(self):
        for workload in ("acquire_long", "scan_experimental", "compare_default",
                         "window_sweep"):
            with self.subTest(workload=workload):
                proc = _run(workload, FRESH_SEED, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                last = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(last["correct"], proc.stdout)
                self.assertEqual(last["failed"], 0)
                failing = [c for c in _results(workload, FRESH_SEED, 0)["checks"]
                           if not c[1]]
                self.assertEqual(failing, [])

    def test_traced_digest_equals_untraced(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run("scan_experimental", FRESH_SEED + 1, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            self.assertEqual(
                {name: m["unit"] for name, m in metrics.items()},
                {m["name"]: m["unit"] for m in declared[kind]},
            )
        plain = _results("scan_experimental", FRESH_SEED + 1, 0)
        traced = _results("scan_experimental", FRESH_SEED + 1, 1)
        self.assertTrue(traced["digests_equal"])
        self.assertEqual(plain["output_digest"], traced["output_digest"])
        self.assertEqual(plain["file_digests"], traced["file_digests"])

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_runs" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = _run("compare_default", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
