"""The CLI's outputs for a fixed matrix of configs, commands and seeds match
the committed golden file (``golden.py`` says how to rewrite it)."""
import json

import golden


def test_outputs_match_golden_file(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    problems, _ = golden.compare(want, golden.run_matrix(tmp_path))
    assert not problems, "\n".join(problems)


def test_tokenizer_separates_integers_floats_and_text():
    skeleton, ints, floats = golden.split(
        "window 5ns: V=0.975+/-0.012 n=24 hash=3fa2e9 t=-1.5e-09,7\n"
    )
    assert skeleton == "window 5ns: V=#+/# n=# hash=3fa2e9 t=#,#\n"
    assert ints == [24, 7]
    assert floats == [0.975, -0.012, -1.5e-09]
