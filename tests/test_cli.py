import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dwelldos
from dwelldos import analysis as an
from dwelldos import cli
from dwelldos.cli import load_config, main
from dwelldos.errors import ConfigError
from dwelldos.model import LatticeRegion, LatticeSystem, LayerStack

REPO = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """This process's environment with the checkout's src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def free_scan_config(tmp_path: Path, count=10, workers=1, **grid_extra) -> str:
    doc = {
        "backend": "stack",
        "system": {"v_left": 0.0, "v_right": 0.0, "layers": [{"d": 2.0, "V": 0.0}]},
        "grid": {"e_min": 0.5, "e_max": 2.0, "count": count, **grid_extra},
        "methods": ["direct", "green"],
        "workers": workers,
    }
    return write_config(tmp_path / "cfg.json", doc)


def lattice_config(tmp_path: Path, **extra) -> str:
    doc = {
        "backend": "lattice",
        "system": {"width": 3, "length": 10, "disorder": {"seed": 7, "v_range": [-0.5, 0.5]}},
        "grid": {"e_min": -1.5, "e_max": 1.5, "count": 60},
        "methods": ["direct", "green"],
        "workers": 1,
    }
    doc.update(extra)
    return write_config(tmp_path / "lat.json", doc)


def with_identity_tol(cfg: str, tol: float) -> str:
    """The config file `cfg`, rewritten with tolerances.identity = tol."""
    doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
    doc["tolerances"] = {"identity": tol}
    return write_config(Path(cfg), doc)


def dbarrier_config(tmp_path: Path, count=1201, methods=("direct", "green")) -> str:
    doc = {
        "backend": "stack",
        "system": {
            "layers": [{"d": 0.5, "V": 12.0}, {"d": 2.0, "V": 0.0}, {"d": 0.5, "V": 12.0}]
        },
        "grid": {"e_min": 0.3, "e_max": 8.0, "count": count},
        "methods": list(methods),
        "workers": 1,
    }
    return write_config(tmp_path / "db.json", doc)


# --------------------------------------------------------------------- config

def test_load_config_round_trip(tmp_path):
    cfg = load_config(free_scan_config(tmp_path))
    assert cfg.backend == "stack"
    assert cfg.grid.count == 10
    assert cfg.methods == ("direct", "green")


def test_config_errors_name_fields(tmp_path):
    with pytest.raises(ConfigError, match="backend"):
        load_config(write_config(tmp_path / "a.json", {"system": {}, "grid": {}}))
    with pytest.raises(ConfigError, match="grid.e_min"):
        load_config(write_config(tmp_path / "b.json", {
            "backend": "stack",
            "system": {"layers": [{"d": 1, "V": 0}]},
            "grid": {"e_max": 1.0, "count": 5},
        }))
    with pytest.raises(ConfigError, match="not valid JSON"):
        p = tmp_path / "c.json"
        p.write_text("{broken", encoding="utf-8")
        load_config(p)
    with pytest.raises(ConfigError, match="not valid JSON"):
        # raw text: json.dumps refuses an integer beyond int's 4300-digit limit too
        p = tmp_path / "c2.json"
        p.write_text('{"min_prominence": 1' + "0" * 4399 + "}", encoding="utf-8")
        load_config(p)
    with pytest.raises(ConfigError, match="region"):
        load_config(write_config(tmp_path / "d.json", {
            "backend": "stack",
            "system": {"layers": [{"d": 1, "V": 0}]},
            "grid": {"e_min": 0.5, "e_max": 1.0, "count": 5},
            "region": {"col_min": 0, "col_max": 1, "row_min": 0, "row_max": 1},
        }))


@pytest.mark.parametrize("field, update", [
    ("system", {"system": 5}),
    ("system.width", {"system": {"width": "a", "length": 10}}),
    ("tolerances", {"tolerances": 5}),
    ("tolerances.identity", {"tolerances": {"identity": "x"}}),
    ("min_prominence", {"min_prominence": "abc"}),
    ("dv", {"dv": "x"}),  # dv is no config field: its cases are refused as unknown
    ("workers", {"workers": "x"}),
    ("methods", {"methods": 3}),
    ("methods", {"methods": [["direct"]]}),
    # integer fields take integral numbers only, never a fraction or a bool
    ("system.width", {"system": {"width": 3.7, "length": 10}}),
    ("system.length", {"system": {"width": 3, "length": True}}),
    ("grid.count", {"grid": {"e_min": -1.5, "e_max": 1.5, "count": 4.9}}),
    ("grid.count", {"grid": {"e_min": -1.5, "e_max": 1.5, "count": True}}),
    ("system.disorder.seed", {"system": {"width": 3, "length": 10, "disorder": {"seed": 7.5}}}),
    ("system.random.seed", {"backend": "stack", "system": {"random": {"seed": 1.5}}}),
    ("system.random.n_layers",
     {"backend": "stack", "system": {"random": {"seed": 1, "n_layers": 2.5}}}),
    ("region.col_max", {"region": {"col_min": 0, "col_max": 1.5, "row_min": 0, "row_max": 1}}),
    ("workers", {"workers": 1.5}),
    ("workers", {"workers": False}),
    # json reads NaN and Infinity; the tolerance must be finite and > 0
    ("tolerances.identity", {"tolerances": {"identity": math.inf}}),
    ("tolerances.identity", {"tolerances": {"identity": math.nan}}),
    ("tolerances.identity", {"tolerances": {"identity": -1}}),
    ("dv", {"dv": math.nan}),
    ("dv", {"dv": math.inf}),
    ("min_prominence", {"min_prominence": math.nan}),
    ("min_prominence", {"min_prominence": math.inf}),
    ("min_prominence", {"min_prominence": -0.1}),
    # a non-finite grid bound or lead potential is refused at its own field
    ("grid.e_max", {"grid": {"e_min": -1.5, "e_max": math.inf, "count": 60}}),
    ("system.v_left", {"backend": "stack",
                       "system": {"v_left": math.nan, "layers": [{"d": 1.0, "V": 0.0}]}}),
    # the threshold margin is a model constant; old configs may repeat it
    ("grid.threshold_margin",
     {"grid": {"e_min": -1.5, "e_max": 1.5, "count": 60, "threshold_margin": 1e-3}}),
    # json's true/false are not numbers where a real number is read
    ("grid.e_min", {"grid": {"e_min": True, "e_max": 1.5, "count": 60}}),
    ("grid.e_max", {"grid": {"e_min": -1.5, "e_max": True, "count": 60}}),
    ("system.v_left", {"backend": "stack",
                       "system": {"v_left": True, "layers": [{"d": 1.0, "V": 0.0}]}}),
    ("system.v_right", {"backend": "stack",
                        "system": {"v_right": False, "layers": [{"d": 1.0, "V": 0.0}]}}),
    ("system.layers", {"backend": "stack", "system": {"layers": [{"d": True, "V": 0.0}]}}),
    ("system.layers", {"backend": "stack", "system": {"layers": [[1.0, False]]}}),
    ("system.random.v_range",
     {"backend": "stack", "system": {"random": {"seed": 1, "v_range": [0.0, True]}}}),
    ("system.random.d_range",
     {"backend": "stack", "system": {"random": {"seed": 1, "d_range": [True, 1.5]}}}),
    ("system.random.v_left",
     {"backend": "stack", "system": {"random": {"seed": 1, "v_left": True}}}),
    ("system.disorder.v_range",
     {"system": {"width": 3, "length": 10, "disorder": {"seed": 7, "v_range": [False, 0.5]}}}),
    ("system.onsite", {"system": {"width": 3, "length": 10, "onsite": True}}),
    ("system.onsite", {"system": {"width": 2, "length": 2, "onsite": [[0.0, True], [0.0, 0.0]]}}),
    ("dv", {"dv": True}),
    ("tolerances.identity", {"tolerances": {"identity": True}}),
    ("min_prominence", {"min_prominence": False}),
    # a number field takes a JSON number, never a string, and a list field a JSON array
    ("grid.e_max", {"grid": {"e_min": -1.5, "e_max": " 2.0 ", "count": 60}}),
    ("tolerances.identity", {"tolerances": {"identity": "1e-9"}}),
    ("min_prominence", {"min_prominence": "0.1"}),
    ("system.layers", {"backend": "stack", "system": {"layers": [{"d": "1.0", "V": 0.0}]}}),
    ("system.v_left", {"backend": "stack",
                       "system": {"v_left": "0", "layers": [{"d": 1.0, "V": 0.0}]}}),
    ("methods", {"methods": {"direct": False, "green": False}}),
    # a JSON integer too large for a float
    ("min_prominence", {"min_prominence": 10**400}),
    ("grid.e_min", {"grid": {"e_min": 10**400, "e_max": 1.5, "count": 60}}),
    ("tolerances.identity", {"tolerances": {"identity": 10**400}}),
    ("system.layers", {"backend": "stack", "system": {"layers": [{"d": 10**400, "V": 0.0}]}}),
    ("system.v_left", {"backend": "stack",
                       "system": {"v_left": 10**400, "layers": [{"d": 1.0, "V": 0.0}]}}),
    # finite grid bounds whose span e_max - e_min overflows
    ("grid", {"backend": "stack", "system": {"layers": [[1.0, 1.0]]},
              "grid": {"e_min": -1e308, "e_max": 1e308, "count": 3}}),
    # a seed the 64-bit generator would fold onto another, a range that is no pair
    ("system.random", {"backend": "stack", "system": {"random": {"seed": 2**64 + 1}}}),
    ("system.random", {"backend": "stack", "system": {"random": {"seed": -1}}}),
    ("system.random",
     {"backend": "stack", "system": {"random": {"seed": 1, "v_range": [0.0, 1.0, 2.0]}}}),
    ("system.random", {"backend": "stack", "system": {"random": {"seed": 1, "d_range": 1.0}}}),
    ("system.disorder", {"system": {"width": 3, "length": 10, "disorder": {"seed": 2**70}}}),
    ("system.disorder",
     {"system": {"width": 3, "length": 10, "disorder": {"seed": 7, "v_range": [[-0.5, 0.5]]}}}),
    # a count whose float64 points numpy cannot index, refused before any allocation
    ("grid", {"backend": "stack", "system": {"layers": [[1.0, 1.0]]},
              "grid": {"e_min": 0.5, "e_max": 1.5, "count": 2**63 - 1}}),
    # an unknown method beside a known one, and layers that are no array
    ("methods", {"methods": ["direct", "foo"]}),
    ("system.layers", {"backend": "stack", "system": {"layers": 5}}),
    # more grid points than the span resolves, and layers whose total length overflows
    ("grid", {"grid": {"e_min": 1.0, "e_max": 1.0 + 2.2e-16, "count": 5}}),
    ("system", {"backend": "stack", "system": {"layers": [[1e308, 0.0], [1e308, 0.0]]}}),
    # arrays nested past the interpreter's depth: json.loads cannot decode 100 000
    # levels; 900 levels decode, then recurse in the readers (Python 3.11) or pass
    # numpy's 64 dimensions (from 3.12, whose comprehensions add no frame)
    (None, {"backend": "stack", "system": {"layers": "<100000 nested arrays around >"}}),
    (None, {"system": {"width": 3, "length": 10, "onsite": "<900 nested arrays around 0.0>"}}),
])
def test_malformed_field_is_config_error(tmp_path, capsys, field, update):
    cfg = lattice_config(tmp_path, **update)
    if field is None:  # json.dumps cannot write such nesting: it replaces a placeholder
        text = re.sub(r'"<(\d+) nested arrays around (.*?)>"',
                      lambda m: "[" * int(m[1]) + m[2] + "]" * int(m[1]),
                      Path(cfg).read_text(encoding="utf-8"))
        Path(cfg).write_text(text, encoding="utf-8")
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    if field is None:  # no traceback: the error is one line
        assert err.count("\n") == 1
    else:
        assert f"'{field}'" in err


_LAYERS = [{"d": 1.0, "V": 0.0}]


@pytest.mark.parametrize("field, update", [
    # a misspelled field at each level, beside a config that loads without it
    ("methds", {"methds": ["direct", "green", "vderiv"]}),
    ("system.onsit", {"system": {"width": 3, "length": 10, "onsit": 0.1}}),
    ("system.v_rigth", {"backend": "stack", "system": {"layers": _LAYERS, "v_rigth": 0.5}}),
    ("system.random.n_layer",
     {"backend": "stack", "system": {"random": {"seed": 1, "n_layer": 3}}}),
    ("system.disorder.v_rang",
     {"system": {"width": 3, "length": 10, "disorder": {"seed": 7, "v_rang": [-2.0, 2.0]}}}),
    ("system.layers[1].v",
     {"backend": "stack", "system": {"layers": [[1.0, 0.0], {"d": 1.0, "V": 0.0, "v": 3.0}]}}),
    ("grid.cnt", {"grid": {"e_min": -1.5, "e_max": 1.5, "count": 60, "cnt": 6}}),
    ("region.col_mx",
     {"region": {"col_min": 0, "col_max": 1, "row_min": 0, "row_max": 1, "col_mx": 2}}),
    ("tolerances.identiy", {"tolerances": {"identiy": 1e-14}}),
    # a generated system takes no field that it generates itself
    ("system.layers", {"backend": "stack", "system": {"random": {"seed": 1}, "layers": _LAYERS}}),
    ("system.v_left", {"backend": "stack", "system": {"random": {"seed": 1}, "v_left": 0.5}}),
    ("system.onsite",
     {"system": {"width": 3, "length": 10, "disorder": {"seed": 7}, "onsite": 0.5}}),
])
def test_unknown_field_is_config_error(tmp_path, capsys, field, update):
    cfg = lattice_config(tmp_path, **update)
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert f"field '{field}' is not allowed" in err


def test_optional_fields_still_load(tmp_path):
    # the fields older configs and the benchmark's workloads carry
    cfg = load_config(lattice_config(
        tmp_path, region=None, min_prominence=0.1, workers=2, tolerances={"identity": 1e-9},
        grid={"e_min": -1.5, "e_max": 1.5, "count": 60, "threshold_margin": 1e-6}))
    assert (cfg.system.region, cfg.min_prominence, cfg.workers, cfg.identity_tol) == (
        None, 0.1, 2, 1e-9)


@pytest.mark.parametrize("bounds", [
    {"col_min": 0, "col_max": 12, "row_min": 0, "row_max": 1},  # the strip has 10 columns
    {"col_min": 0, "col_max": 2, "row_min": 1, "row_max": 3},   # and 3 rows
])
def test_region_outside_device_is_config_error(tmp_path, capsys, bounds):
    out = tmp_path / "out"
    cfg = lattice_config(tmp_path, region=bounds)
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'region'" in err
    assert not out.exists()  # refused on load, before any output


@pytest.mark.parametrize("bounds, palindromic", [
    (None, True), ((2, 5, 0, 1), True), ((0, 3, 0, 2), False),
], ids=["whole-device", "mirror-region", "one-sided-region"])
def test_scan_calls_a_strip_palindromic_only_with_a_mirror_omega(tmp_path, bounds, palindromic):
    # mirror channels of a one-sided Omega have unequal dwell times
    region = bounds and dict(zip(("col_min", "col_max", "row_min", "row_max"), bounds))
    onsite = [[1.5] * 3 if c in (2, 5) else [0.0] * 3 for c in range(8)]
    cfg = lattice_config(tmp_path, system={"width": 3, "length": 8, "onsite": onsite},
                         grid={"e_min": -1.5, "e_max": 1.5, "count": 7}, region=region)
    assert load_config(cfg).system.region == (bounds and LatticeRegion(*bounds))
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["palindromic"] is palindromic
    if palindromic:
        assert summary["symmetric_max_dev"] < 1e-10
    else:
        assert "symmetric_max_dev" not in summary


_ROWS = [[0.1, -0.2], [0.0, 0.3], [-0.1, 0.2]]  # onsite[col][row] of a 2 x 3 strip


@pytest.mark.parametrize("onsite, expected", [
    pytest.param(None, [[0.0] * 2] * 3, id="absent"),
    pytest.param(0.25, [[0.25] * 2] * 3, id="number"),
    pytest.param(_ROWS, _ROWS, id="rows"),
])
def test_given_lattice_loads_and_verifies(tmp_path, capsys, onsite, expected):
    system = {"width": 2, "length": 3, **({} if onsite is None else {"onsite": onsite})}
    cfg = write_config(tmp_path / "given.json", {
        "backend": "lattice", "system": system,
        "grid": {"e_min": -1.0, "e_max": 1.0, "count": 21}})
    assert load_config(cfg).system.onsite.tolist() == expected
    # the config's three forms are LatticeSystem's own: absent, one number, rows
    assert LatticeSystem(2, 3, *([] if onsite is None else [onsite])).onsite.tolist() == expected
    assert main(["verify", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_every_system_builder_is_the_library_s():
    # a config's system object is passed to a model builder as read, so the
    # config and a library call meet one rule set and cli decides no form
    for _, build, _, generate in cli._SYSTEMS.values():
        assert build.__module__ == generate.__module__ == "dwelldos.model"
    assert cli._SYSTEMS["stack"][1] is LayerStack and cli._SYSTEMS["lattice"][1] is LatticeSystem


def test_main_exit_2_on_bad_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["scan", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


# ----------------------------------------------------------------------- scan

def test_scan_free_stack_row_count_and_residuals(tmp_path):
    cfg = free_scan_config(tmp_path, count=10)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header == "energy,channel,tau_direct,tau_vderiv,dos_green,dos_sum,residual_rel,skipped"
    assert len(rows) == 30  # ALL + left + right per energy
    for row in rows:
        fields = row.split(",")
        assert float(fields[6]) < 1e-12
        assert fields[7] == "false"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_residual_rel"] < 1e-12
    assert summary["skipped"] == 0


def test_scan_numbers_round_trip(tmp_path):
    cfg = free_scan_config(tmp_path, count=4)
    out = tmp_path / "out"
    main(["scan", "--config", cfg, "--out", str(out)])
    row = (out / "scan.csv").read_text().splitlines()[1].split(",")
    # 17 significant digits: parsing back reproduces the double exactly
    tau = float(row[2])
    assert format(tau, ".17g") == row[2]


def test_scan_deterministic_across_runs_and_workers(tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    cfg1 = free_scan_config(tmp_path, count=12, workers=1)
    main(["scan", "--config", cfg1, "--out", str(out1)])
    main(["scan", "--config", cfg1, "--out", str(out2)])
    cfg2 = free_scan_config(tmp_path, count=12, workers=3)
    main(["scan", "--config", cfg2, "--out", str(out3)])
    b1 = (out1 / "scan.csv").read_bytes()
    assert b1 == (out2 / "scan.csv").read_bytes()
    assert b1 == (out3 / "scan.csv").read_bytes()


def test_lattice_scan_parallel_determinism(tmp_path):
    out1, out2 = tmp_path / "l1", tmp_path / "l2"
    cfg1 = lattice_config(tmp_path)
    main(["scan", "--config", cfg1, "--out", str(out1)])
    cfg2 = lattice_config(tmp_path, workers=3)
    main(["scan", "--config", cfg2, "--out", str(out2)])
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


def test_scan_below_threshold_grid(tmp_path):
    doc = {
        "backend": "stack",
        "system": {"v_left": 5.0, "v_right": 5.0, "layers": [{"d": 1.0, "V": 0.0}]},
        "grid": {"e_min": 0.5, "e_max": 2.0, "count": 5},
        "workers": 1,
    }
    cfg = write_config(tmp_path / "below.json", doc)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(r.endswith(",true") for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["warnings"]


def test_scan_with_vderiv_column(tmp_path):
    doc = {
        "backend": "stack",
        "system": {"layers": [{"d": 1.0, "V": 1.0}]},
        "grid": {"e_min": 0.4, "e_max": 0.8, "count": 3},
        "methods": ["direct", "green", "vderiv"],
        "workers": 1,
    }
    cfg = write_config(tmp_path / "v.json", doc)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[3] != ""  # tau_vderiv present
        assert abs(float(fields[3]) - float(fields[2])) < 1e-6


# --------------------------------------------------------------------- verify

def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    cfg = free_scan_config(tmp_path, count=10)
    assert main(["verify", "--config", with_identity_tol(cfg, 1e-8)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    # below the floating-point floor: must fail and report the worst point
    assert main(["verify", "--config", with_identity_tol(cfg, 1e-16)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False
    assert summary["worst"]


def test_verify_fails_on_nan_residual(tmp_path, monkeypatch, capsys):
    # Python's max would drop the NaN and report 1e-12
    cfg = with_identity_tol(free_scan_config(tmp_path, count=2), 1e-8)
    table = cli.compute_reports(load_config(cfg))
    table.residual_rel[:] = [1e-12, float("nan")]  # at E = 0.5 and 2.0
    monkeypatch.setattr(cli, "compute_reports", lambda config: table)
    assert main(["verify", "--config", cfg]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False
    assert math.isnan(summary["max_residual_rel"])
    assert summary["worst"][0][0] == 2.0
    assert summary["worst"][1] == [0.5, 1e-12]


@pytest.mark.parametrize("command", ["scan", "verify", "resonances"])
def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, command):
    # exit 1 means the identity failed; running out of memory is not that,
    # and it is reported without a traceback (no real allocation is made)
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(an, "verify_identity", too_big)
    out = ["--out", str(tmp_path / "out")] if command != "verify" else []
    assert main([command, "--config", dbarrier_config(tmp_path), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out of memory: Unable to allocate 7.28 TiB for an array "
                            "with shape (1000000000000,)\n")


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_configs_verify_without_skips(config, capsys):
    assert main(["verify", "--config", str(config)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True and summary["skipped"] == 0


def test_scan_and_verify_build_no_report_rows(tmp_path, monkeypatch):
    # scan and verify read the table's columns; a row object is built only
    # when a caller indexes or iterates the table
    built = []

    def counted(init):
        def init_counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return init_counted

    for record in (an.DwellReport, an.ChannelRecord):
        monkeypatch.setattr(record, "__init__", counted(record.__init__))
    cfg = str(REPO / "configs" / "stack_scan.json")
    assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["verify", "--config", cfg]) == 0
    assert built == []
    cli.compute_reports(load_config(cfg))[0]
    assert built == ["ChannelRecord", "ChannelRecord", "DwellReport"]


def opaque_config(tmp_path: Path, thickness: float, count: int, e_max: float) -> str:
    doc = {
        "backend": "stack",
        "system": {"layers": [{"d": thickness, "V": 50.0}]},
        "grid": {"e_min": 0.5, "e_max": e_max, "count": count},
        "methods": ["direct", "green"],
        "workers": 1,
    }
    return write_config(tmp_path / "opaque.json", doc)


def test_verify_fails_when_every_point_is_a_failure_skip(tmp_path, capsys):
    # W = 0 at every energy: all five points are NumericalFailureError skips
    assert main(["verify", "--config", opaque_config(tmp_path, 120.0, 5, 1.5)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False
    assert summary["skipped"] == 5
    assert summary["skip_reasons"] == {"NumericalFailureError": 5}
    assert "skipped as failures" in summary["warnings"][0]


def test_verify_fails_on_one_failure_skip(tmp_path, capsys):
    # E = 0.5 underflows W (subnormal); the other seven points verify
    assert main(["verify", "--config", opaque_config(tmp_path, 103.0, 8, 49.0)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False
    assert summary["max_residual_rel"] < 1e-8
    assert summary["skip_reasons"] == {"NumericalFailureError": 1}


def test_verify_fails_when_every_skip_is_expected(tmp_path, capsys):
    # nothing failed, but nothing was verified either: not a pass
    doc = {
        "backend": "stack",
        "system": {"v_left": 5.0, "v_right": 5.0, "layers": [{"d": 1.0, "V": 0.0}]},
        "grid": {"e_min": 0.5, "e_max": 5.0, "count": 4},
        "workers": 1,
    }
    assert main(["verify", "--config", write_config(tmp_path / "b.json", doc)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False
    assert summary["max_residual_rel"] is None
    assert summary["warnings"] == [
        "all grid points were skipped (NoOpenChannelError, ThresholdProximityError)"]
    assert summary["skip_reasons"] == {"NoOpenChannelError": 3, "ThresholdProximityError": 1}


def test_scan_summary_counts_skip_reasons(tmp_path):
    out = tmp_path / "out"
    assert main(["scan", "--config", opaque_config(tmp_path, 120.0, 5, 1.5),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["skip_reasons"] == {"NumericalFailureError": 5}
    assert summary["warnings"] == [
        "5 grid points were skipped as failures (NumericalFailureError)",
        "all grid points were skipped (NumericalFailureError)",
    ]


def test_verify_lattice_fixture(tmp_path, capsys):
    cfg = lattice_config(tmp_path, tolerances={"identity": 1e-9})
    assert main(["verify", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_residual_rel"] < 1e-9


def test_verify_requires_both_sides(tmp_path):
    cfg = lattice_config(tmp_path, methods=["direct"], tolerances={"identity": 1e-9})
    assert main(["verify", "--config", cfg]) == 2


# ----------------------------------------------------------------- resonances

def test_resonances_double_barrier(tmp_path):
    cfg = dbarrier_config(tmp_path)
    out = tmp_path / "peaks"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "peaks.csv").read_text().splitlines()
    assert lines[0] == "E_peak,kind,channel,height,width,match_distance"
    dos_rows = [l for l in lines[1:] if l.split(",")[1] == "dos"]
    assert len(dos_rows) >= 1
    assert all(r.split(",")[5] != "" for r in dos_rows)  # matched
    summary = json.loads((out / "summary.json").read_text())
    assert summary["matched"] >= 1 and summary["unmatched"] == 0


def test_resonances_reports_failed_points(tmp_path):
    # 96 of these 400 points are NumericalFailureError skips: resonances
    # searches the other 304 and says so in the summary that scan writes
    doc = {"backend": "stack", "system": {"layers": [[0.5, 12], [2, 0], [0.5, 12], [200, 20]]},
           "grid": {"e_min": 0.3, "e_max": 30.0, "count": 400}}
    cfg = write_config(tmp_path / "failing.json", doc)
    summaries = {}
    for command in ("scan", "resonances"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        summaries[command] = json.loads((out / "summary.json").read_text())
    scan, found = summaries["scan"], summaries["resonances"]
    assert found["failed"] == 96 and found["skip_reasons"] == {"NumericalFailureError": 96}
    assert found["warnings"] == ["96 grid points were skipped as failures (NumericalFailureError)"]
    assert (found["dos_peaks"], found["matched"]) == (15, 15)
    shared = scan.keys() - {"command", "rows"}
    assert {k: found[k] for k in shared} == {k: scan[k] for k in shared}


def test_opaque_window_skips_its_non_positive_region_dos(tmp_path, capsys):
    # 41 points within 4e-8 of a resonance of the shipped opaque double
    # barrier: the Green route loses its digits and reads rho_Omega <= 0 at 27
    # of them, each a failed skip; the worst of the other 14 (1 - 1.5e-6)
    # still fails verify, and the DOS peak stays inside the window
    doc = json.loads((REPO / "configs" / "opaque_double_barrier.json").read_text())
    e_min, e_max = 7.52509622, 7.52509626
    doc["grid"] = {"e_min": e_min, "e_max": e_max, "count": 41}
    cfg = write_config(tmp_path / "window.json", doc)
    failed = (27, {"NumericalFailureError": 27},
              ["27 grid points were skipped as failures (NumericalFailureError)"])
    assert main(["verify", "--config", cfg]) == 1
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (summary["failed"], summary["skip_reasons"], summary["warnings"]) == failed
    assert 0.99 < summary["max_residual_rel"] < 1.0
    for command in ("scan", "resonances"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        summary = json.loads((tmp_path / command / "summary.json").read_text())
        assert (summary["failed"], summary["skip_reasons"], summary["warnings"]) == failed
    with open(tmp_path / "scan" / "scan.csv", newline="") as f:
        rows = [row for row in csv.DictReader(f) if row["skipped"] == "false"]
    assert len(rows) == 14 * 3 and all(float(row["dos_green"]) > 0 for row in rows)
    with open(tmp_path / "resonances" / "peaks.csv", newline="") as f:
        peaks = [float(row["E_peak"]) for row in csv.DictReader(f)]
    assert peaks and all(e_min <= e <= e_max for e in peaks)


def test_resonances_free_stack_empty_table(tmp_path):
    cfg = free_scan_config(tmp_path, count=40)
    out = tmp_path / "peaks"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "peaks.csv").read_text().splitlines()
    assert lines == ["E_peak,kind,channel,height,width,match_distance"]


@pytest.mark.parametrize("methods", [["vderiv"], ["green"], ["direct", "vderiv"]],
                         ids=["vderiv", "green", "direct-vderiv"])
def test_resonances_requires_both_routes(tmp_path, capsys, monkeypatch, methods):
    # without a dwell curve every DOS peak would be unmatched, and without a
    # DOS curve peaks.csv would be empty; both are refused before any solve
    monkeypatch.setattr(cli, "compute_reports", lambda config: pytest.fail("solved"))
    cfg, out = dbarrier_config(tmp_path, count=20, methods=methods), tmp_path / "peaks"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: resonances requires both 'direct' and 'green' in methods\n")
    assert not out.exists()


def test_resonances_too_coarse_grid(tmp_path, capsys):
    cfg = dbarrier_config(tmp_path, count=3)
    out = tmp_path / "peaks"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 2
    assert "insufficient" in capsys.readouterr().err.lower()


# ------------------------------------------------------------- import cost

def test_no_command_imports_scipy(tmp_path):
    # numpy is the only runtime dependency: importing scipy.signal alone
    # costs several times a short run, so scan, verify and resonances on
    # every shipped config, and the oracles module, must leave scipy
    # unloaded (checked in a fresh interpreter).  numpy.ma (5-8 ms, loaded
    # by the first np.unique) must stay unloaded too; numpy.matrixlib comes
    # with numpy itself, so names match exactly.
    code = (
        "import sys\n"
        "from dwelldos.cli import main\n"
        "import dwelldos.oracles\n"
        "for name in sys.argv[3:]:\n"
        "    cfg = f'{sys.argv[1]}/configs/{name}.json'\n"
        "    for command in ('scan', 'resonances'):\n"
        "        out = f'{sys.argv[2]}/{name}-{command}'\n"
        "        assert main([command, '--config', cfg, '--out', out]) == 0\n"
        "    assert main(['verify', '--config', cfg]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    names = sorted(p.stem for p in (REPO / "configs").glob("*.json"))
    proc = subprocess.run([sys.executable, "-c", code, str(REPO), str(tmp_path), *names],
                          capture_output=True, text=True, timeout=300, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("config, backend", [("stack_scan", "dwelldos.solver1d"),
                                             ("lattice_verify", "dwelldos.lattice")])
def test_scan_loads_only_its_backend(config, backend, tmp_path):
    # each backend costs its compile time on a run without a bytecode
    # cache, so scan loads the backend of its system only (fresh interpreter)
    code = (
        "import sys\n"
        "from dwelldos.cli import main\n"
        "assert main(['scan', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print([m for m in ('dwelldos.lattice', 'dwelldos.solver1d') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(REPO / "configs" / f"{config}.json"),
                           str(tmp_path)], capture_output=True, text=True, timeout=300,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([backend])


def test_package_lists_every_name():
    # the package resolves its names on first use; a star-import and dir()
    # still see all of them
    namespace = {}
    exec("from dwelldos import *", namespace)
    assert {"verify_identity", "ReportTable", "lattice"} <= set(dwelldos.__all__)
    assert "Layer" not in dwelldos.__all__  # a layer is a (d, V) pair
    assert set(dwelldos.__all__) <= set(namespace) & set(dir(dwelldos))


# -------------------------------------------------------------- process entry

def run_entry(tmp_path: Path, *args: str) -> tuple[int, str, str]:
    """`python -m dwelldos.cli *args` as a fresh process: its exit code,
    stdout and stderr.  stdout goes to a file, so it is block-buffered and
    reaches the file only if the process flushes it on the way out."""
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.run([sys.executable, "-m", "dwelldos.cli", *args], stdout=fo,
                              stderr=fe, env=env, timeout=120)
    return proc.returncode, out.read_text(), err.read_text()


def test_entry_scan_prints_its_summary_and_rewrites_the_same_bytes(tmp_path):
    cfg, out = free_scan_config(tmp_path, count=10), tmp_path / "out"
    runs = []
    for _ in range(2):  # into a fresh --out, then into the same one again
        code, stdout, _ = run_entry(tmp_path, "scan", "--config", cfg, "--out", str(out))
        assert code == 0
        files = {name: (out / name).read_bytes() for name in ("scan.csv", "summary.json")}
        assert json.loads(stdout.splitlines()[-1]) == json.loads(files["summary.json"])
        runs.append((stdout, files))
    assert runs[0] == runs[1]


def test_entry_exit_codes(tmp_path):
    cfg = with_identity_tol(free_scan_config(tmp_path, count=10), 1e-16)
    code, stdout, _ = run_entry(tmp_path, "verify", "--config", cfg)
    assert code == 1 and json.loads(stdout.splitlines()[-1])["pass"] is False
    missing = str(tmp_path / "nope.json")
    code, stdout, stderr = run_entry(tmp_path, "verify", "--config", missing)
    assert code == 2 and stdout == ""
    assert stderr.startswith(f"config error: cannot read config {missing}")


def test_main_leaves_the_collector_unfrozen(tmp_path):
    frozen, environ = gc.get_freeze_count(), dict(os.environ)
    assert main(["scan", "--config", free_scan_config(tmp_path), "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen
    assert dict(os.environ) == environ


def _refuse_none(name):
    raise TypeError("expected str, bytes or os.PathLike object, not NoneType")


@pytest.mark.parametrize("cdll", [_refuse_none, lambda name: object()],
                         ids=["no-c-library", "no-mallopt"])
def test_keep_freed_memory_returns_quietly_without_mallopt(monkeypatch, capfd, cdll):
    # Windows' CDLL refuses None; macOS' C library has no mallopt
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: calls.append(name) or cdll(name))
    assert cli._keep_freed_memory() is None
    assert calls == [None] and capfd.readouterr() == ("", "")


# run in a fresh interpreter by one entry path: print the BLAS idle spin that
# numpy's OpenBLAS reads as numpy loads, then run the entry (a missing config)
_BLAS_PROBE = """
import os, re, runpy, sys
def hook(event, args):
    if event == "import" and args[0] == "numpy":
        print("numpy sees", os.environ.get("OPENBLAS_THREAD_TIMEOUT"), flush=True)
sys.addaudithook(hook)
path, pyproject = sys.argv[1:]
sys.argv = ["dwelldos", "verify", "--config", "missing.json"]
if path == "module":  # python -m dwelldos.cli
    runpy.run_module("dwelldos.cli", run_name="__main__", alter_sys=True)
elif path == "script":  # the dwelldos console script that pyproject.toml names
    text = open(pyproject, encoding="utf-8").read()
    module, name = re.search(r'^dwelldos = "(.+):(.+)"$', text, re.M).groups()
    getattr(__import__(module, fromlist=[name]), name)()
else:  # importing the CLI module sets nothing
    before = dict(os.environ)
    import dwelldos.cli
    assert dict(os.environ) == before
"""


@pytest.mark.parametrize("path", ["module", "script", "import"])
@pytest.mark.parametrize("user, expected", [
    ({}, "20"), ({"OPENBLAS_THREAD_TIMEOUT": "5"}, "5"), ({"GOTO_THREAD_TIMEOUT": "5"}, "None"),
], ids=["default", "user-value", "user-goto-value"])
def test_entries_let_idle_blas_workers_sleep(path, user, expected):
    # both process entries default the spin before numpy loads and keep a
    # value the user set; an import leaves the environment alone
    env = {**src_env(), **user}
    for name in {"OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT"} - user.keys():
        env.pop(name, None)
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, path, str(REPO / "pyproject.toml")],
                          capture_output=True, text=True, env=env, timeout=120)
    seen = expected if path != "import" else user.get("OPENBLAS_THREAD_TIMEOUT", "None")
    assert proc.stdout.splitlines() == [f"numpy sees {seen}"], proc.stderr
    assert proc.returncode == (0 if path == "import" else 2), proc.stderr


def test_outputs_replace_what_their_paths_hold(tmp_path):
    # a symlinked output is replaced, and what it pointed to is left as it was
    cfg, out, kept = dbarrier_config(tmp_path, count=41), tmp_path / "out", tmp_path / "kept"
    kept.write_text("kept")
    out.mkdir()
    for name in ("scan.csv", "peaks.csv", "summary.json"):
        (out / name).symlink_to(kept)
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
    for name in ("scan.csv", "peaks.csv", "summary.json"):
        assert not (out / name).is_symlink()
    assert (out / "peaks.csv").read_text().startswith(cli.PEAKS_HEADER)
    assert kept.read_text() == "kept"
