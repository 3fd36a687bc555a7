import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def import_bench(monkeypatch, name):
    """The module ``name`` of bench/: bench/ is on the path only while it is
    imported, nothing there is written, and its modules leave sys.modules
    afterwards."""
    try:
        with monkeypatch.context() as m:
            m.syspath_prepend(str(ROOT / "bench"))
            m.setattr(sys, "dont_write_bytecode", True)
            return importlib.import_module(name)
    finally:
        for module in ("layers", "spans", "workloads", "checks"):
            sys.modules.pop(module, None)


def test_every_traced_function_exists(monkeypatch):
    # the traced benchmark run wraps each target by module and attribute
    # name, so a function renamed or removed in the package breaks it
    targets = import_bench(monkeypatch, "layers").TARGETS
    assert targets
    for t in targets:
        assert callable(getattr(importlib.import_module(t.module), t.attr, None)), t


@pytest.mark.parametrize(
    "name", ["acquire_long", "scan_experimental", "compare_default", "window_sweep"]
)
def test_one_job_of_each_workload(monkeypatch, tmp_path, name):
    # one job as the benchmark's worker runs it, so a call the benchmark
    # makes into the package breaks a test before it breaks a bench run;
    # every output check passes
    workloads = import_bench(monkeypatch, "workloads")
    spec_path = workloads.write_inputs(name, 1, ROOT, tmp_path)
    ctx = workloads.setup(json.loads(spec_path.read_text()))
    workloads.prepare(ctx)
    ok, payload = workloads.run(ctx)
    assert ok, payload
    checks, _ = workloads.check(ctx, workloads.collect(ctx, payload))
    assert checks
    assert [c for c in checks if not c[1]] == []
