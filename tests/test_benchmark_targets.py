"""The benchmark's traced run (perfbench/tracer.py) wraps package
attributes by module and name, so each of them must keep resolving."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"dwelldos.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        target = vars(owner).get(attr)
        assert callable(target) or isinstance(target, property), f"{module}.{path}"
