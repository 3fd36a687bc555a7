"""Committed CLI outputs: the run matrix, and the script that rewrites them.

    PYTHONPATH=src python tests/golden.py           # rewrite golden_outputs.json
    PYTHONPATH=src python tests/golden.py --check   # compare, report exact identity

The matrix is ``histogram``, ``fringes --window 1 2 3 5 7`` and ``compare``
on the defaults and on ``experimental.json``, plus ``histogram`` with
``run.duration_s`` 2 and 50 ns dead time, each at seeds 1-3: 21 runs through
``cli.main`` in process.  A run keeps its exit code, its printed lines (the
output directory masked as ``OUT``) and every artifact it writes.

Each text is split into its numbers and its skeleton, the text with every
number replaced by ``#``.  The skeleton and the integers must match exactly,
so the golden file keeps their SHA-256 digests; the floats must match within
``FLOAT_RTOL``, since they pass through ``np.sin``, ``np.cos``, ``np.log``
and LAPACK, which may round differently on another CPU or numpy build.
``compare``'s Monte Carlo columns no longer pass through ``np.sin``: their
sine is ``engines._sin_in_place``, built from IEEE arithmetic alone.  Float lists are
stored once, by digest, so the nine histograms share two lists of bin
centres.  The raw SHA-256 of each text and the numpy version are kept too,
so ``--check`` also reports which texts are byte-identical.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

#: floats agree within this relative bound: a judgement, as no second
#: platform was at hand to measure the spread; integers compare exactly
FLOAT_RTOL = 1e-12

SEEDS = (1, 2, 3)
WINDOWS = [a for w in ("1", "2", "3", "5", "7") for a in ("--window", w)]
ALL = (["histogram"], ["fringes", *WINDOWS], ["compare"])
#: run group -> (config: None for the defaults, a shipped config's name, or data;
#: the commands run on it)
MATRIX = {
    "default": (None, ALL),
    "experimental": ("experimental", ALL),
    "dead_time": (
        {"run": {"duration_s": 2.0}, "detector": {"dead_time_s": 50e-9}},
        (["histogram"],),
    ),
}

_NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split(text: str) -> tuple[str, list[int], list[float]]:
    """The skeleton of ``text``, its integers, and its floats (the numbers
    with a point or an exponent)."""
    ints, floats = [], []
    for token in _NUMBER.findall(text):
        if any(c in token for c in ".eE"):
            floats.append(float(token))
        else:
            ints.append(int(token))
    return _NUMBER.sub("#", text), ints, floats


def _config_argv(config, tmp: Path) -> list[str]:
    import biphoton

    if config is None:
        return []
    if isinstance(config, str):
        path = Path(biphoton.__file__).parent / "configs" / f"{config}.json"
    else:
        path = tmp / "config.json"
        path.write_text(json.dumps(config))
    return ["--config", str(path)]


def run_matrix(tmp: Path) -> dict:
    """Run name -> {"exit", "lines", "artifacts": name -> text}, each run
    writing into a fresh directory under ``tmp``."""
    from biphoton import cli

    runs = {}
    for group, (config, commands) in MATRIX.items():
        for argv in commands:
            for seed in SEEDS:
                name = f"{group}/{argv[0]}/seed{seed}"
                out = tmp / name.replace("/", "_")
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = cli.main(
                        argv + _config_argv(config, tmp)
                        + ["--seed", str(seed), "--out", str(out)]
                    )
                lines = stdout.getvalue() + stderr.getvalue()
                runs[name] = {
                    "exit": code,
                    "lines": lines.replace(str(out), "OUT"),
                    "artifacts": {p.name: p.read_text() for p in sorted(out.iterdir())},
                }
    return runs


def _texts(runs: dict):
    """(label, text) of every printed-lines block and artifact."""
    for name, run in runs.items():
        yield f"{name} printed lines", run["lines"]
        for art, text in run["artifacts"].items():
            yield f"{name} {art}", text


def record(runs: dict) -> dict:
    """The golden form of :func:`run_matrix`'s runs."""
    floats, texts = {}, {}
    for label, text in _texts(runs):
        skeleton, ints, values = split(text)
        key = _sha(repr(values))[:16]
        floats[key] = values
        texts[label] = {
            "sha256": _sha(text),
            "skeleton": _sha(skeleton),
            "ints": _sha(repr(ints)),
            "floats": key,
        }
    return {
        "numpy": np.__version__,
        "float_rtol": FLOAT_RTOL,
        "exit": {name: run["exit"] for name, run in runs.items()},
        "texts": texts,
        "floats": floats,
    }


def compare(golden: dict, runs: dict) -> tuple[list[str], list[str]]:
    """Differences beyond the bounds, and for each text that is within them
    but not byte-identical a line with its largest relative float
    difference."""
    problems, inexact = [], []
    exits = {name: run["exit"] for name, run in runs.items()}
    if exits != golden["exit"]:
        problems.append(f"exit codes {exits} != {golden['exit']}")
    got = dict(_texts(runs))
    for label in sorted(golden["texts"].keys() - got.keys()):
        problems.append(f"{label}: missing")
    for label in sorted(got.keys() - golden["texts"].keys()):
        problems.append(f"{label}: not in the golden file")
    for label, want in golden["texts"].items():
        if label not in got:
            continue
        text = got[label]
        skeleton, ints, values = split(text)
        expected = golden["floats"][want["floats"]]
        if _sha(skeleton) != want["skeleton"]:
            problems.append(f"{label}: text differs outside its numbers")
        elif _sha(repr(ints)) != want["ints"]:
            problems.append(f"{label}: integers differ")
        elif len(values) != len(expected):
            problems.append(f"{label}: {len(values)} floats, expected {len(expected)}")
        else:
            worst = max(
                (abs(a - b) / abs(b) if b else math.inf
                 for a, b in zip(values, expected) if a != b),
                default=0.0,
            )
            if not worst <= FLOAT_RTOL:
                problems.append(f"{label}: floats differ by {worst:.3g} relative")
            elif _sha(text) != want["sha256"]:
                inexact.append(f"{label}: within bounds, floats differ by {worst:.3g} "
                               "relative at most")
    return problems, inexact


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_matrix(Path(tmp))
    if argv != ["--check"]:
        golden = record(runs)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.name}: {len(runs)} runs, {len(golden['texts'])} texts")
        return 0
    golden = json.loads(GOLDEN.read_text())
    problems, inexact = compare(golden, runs)
    for line in problems + inexact:
        print(line)
    texts = golden["texts"]
    same = sum(
        label in texts and _sha(text) == texts[label]["sha256"]
        for label, text in _texts(runs)
    )
    print(f"{same}/{len(texts)} texts byte-identical "
          f"(numpy {np.__version__}; golden file written with {golden['numpy']})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
