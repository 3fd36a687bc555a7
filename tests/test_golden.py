"""The CLI's outputs for a fixed matrix of configs, commands and seeds match
the committed golden file (``golden.py`` says how to rewrite it)."""
import hashlib
import json
import re

import pytest

import golden


def test_outputs_match_golden_file(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    problems, _ = golden.compare(want, golden.run_matrix(tmp_path))
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_quoted_fringe_lines_match_golden_run(doc):
    # the quoted ``fringes --seed 1 --window 1 ... 7`` lines are that golden
    # run's printed lines, byte for byte: re-paste them when the run changes
    text = (golden.GOLDEN.parents[1] / doc).read_text()
    (block,) = re.findall(r"^```\n(window 1ns: .*?)^```$", text, re.M | re.S)
    want = json.loads(golden.GOLDEN.read_text())["texts"]
    digest = want["default/fringes/seed1 printed lines"]["sha256"]
    assert hashlib.sha256(block.encode()).hexdigest() == digest


def test_tokenizer_separates_integers_floats_and_text():
    skeleton, ints, floats = golden.split(
        "window 5ns: V=0.975+/-0.012 n=24 hash=3fa2e9 t=-1.5e-09,7\n"
    )
    assert skeleton == "window 5ns: V=#+/# n=# hash=3fa2e9 t=#,#\n"
    assert ints == [24, 7]
    assert floats == [0.975, -0.012, -1.5e-09]
