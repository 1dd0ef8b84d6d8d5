"""The benchmark's traced run (perfbench/tracer.py) wraps package
attributes by module and name, so each of them must keep resolving, and
its workload configs (perfbench/workloads.py) must keep loading and
accept the traced run's dataclasses.replace(config, workers=1)."""

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from dwelldos.cli import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_workload_configs_load(tmp_path, monkeypatch):
    # every benchmark workload, full and tiny, must stay a valid config
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        for tiny in (False, True):
            doc = workload.config(1, tiny=tiny)
            path = tmp_path / f"{name}-{tiny}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            config = load_config(path)
            assert config.backend == doc["backend"], name
            assert config.grid.count == doc["grid"]["count"], name
            # the traced run solves its config again with one worker
            assert dataclasses.replace(config, workers=1).workers == 1, name
