import importlib
import sys
from pathlib import Path


def test_every_traced_function_exists(monkeypatch):
    # the traced benchmark run wraps each target by module and attribute
    # name, so a function renamed or removed in the package breaks it; bench/
    # is on the path only while its layers.py is imported, and nothing there
    # is written
    bench = Path(__file__).resolve().parents[1] / "bench"
    try:
        with monkeypatch.context() as m:
            m.syspath_prepend(str(bench))
            m.setattr(sys, "dont_write_bytecode", True)
            targets = importlib.import_module("layers").TARGETS
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert targets
    for t in targets:
        assert callable(getattr(importlib.import_module(t.module), t.attr, None)), t
