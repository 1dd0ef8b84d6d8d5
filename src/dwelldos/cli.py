"""Command-line front end: scan, verify, and resonance search.

Config is a single JSON document (see configs/ for one example per
backend) whose objects are closed sets of fields.  Exit codes: 0
success, 1 verification failure, 2 usage or config error; `verify` also
fails when a grid point was skipped for any reason other than threshold
proximity or no open channel, and when no point was verified at all.
Output is deterministic: rows are sorted by (energy, channel) and floats
are serialized with 17 significant digits.  The `workers` field is
validated (>= 0) but has no effect: the grid is solved in energy chunks
in one process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis as an
from .errors import ConfigError, DwellDosError, InsufficientDataError
from .model import (
    THRESHOLD_MARGIN,
    EnergyGrid,
    LatticeRegion,
    LatticeSystem,
    LayerStack,
    build_stack,
    channel_thresholds,  # unused here; the benchmark's tracer wraps it by this name
    random_lattice,
    random_stack,
)

SCAN_HEADER = "energy,channel,tau_direct,tau_vderiv,dos_green,dos_sum,residual_rel,skipped"
PEAKS_HEADER = "E_peak,kind,channel,height,width,match_distance"


@dataclass(frozen=True)
class RunConfig:
    backend: str
    system: LayerStack | LatticeSystem
    grid: EnergyGrid
    region: LatticeRegion | None
    methods: tuple[str, ...]
    identity_tol: float
    min_prominence: float
    workers: int


def _require(doc: dict, key: str, where: str = ""):  # where: doc's path and a dot, or ""
    if key not in doc:
        raise ConfigError(f"missing field '{where}{key}'")
    return doc[key]


def _closed(doc: dict, where: str, known: tuple[str, ...]) -> dict:
    """doc, or a ConfigError naming its first field outside `known`: a
    misspelled field would otherwise leave its default in force unseen."""
    for key in doc:
        if key not in known:
            raise ConfigError(f"field '{where}{key}' is not allowed here "
                              f"(allowed: {', '.join(known)})")
    return doc


def _object(doc: dict, key: str, known: tuple[str, ...] | None, where: str = "",
            default: dict | None = None) -> dict:
    """doc[key] (or the default when it is absent), checked to be a JSON
    object, and closed to fields outside `known` when that is given."""
    value = _require(doc, key, where) if default is None else doc.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"field '{where}{key}' must be a JSON object, "
                          f"got {type(value).__name__}")
    return value if known is None else _closed(value, f"{where}{key}.", known)


def _parse(field: str, build):
    """build(), or a ConfigError naming the field when a value has the
    wrong type or form or the model rejects it."""
    try:
        return build()
    except ConfigError:
        raise
    except (TypeError, KeyError, ValueError, DwellDosError) as exc:
        raise ConfigError(f"bad field '{field}': {exc}") from exc


def _integer(field: str, value) -> int:
    """value as an int when it is an integral JSON number; a fraction, a
    bool or any other type is a ConfigError naming the field."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"field '{field}' must be an integer, got {value!r}")
    return int(value)


def _real(field: str, value):
    """value, or a ConfigError naming the field when it is or holds a bool:
    json's true/false would read as 1.0/0.0 where a number is meant.
    Lists and objects are checked entry by entry."""
    if isinstance(value, bool):
        raise ConfigError(f"field '{field}' has the bool {value!r} where a number is meant")
    if isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _real(field, item)
    return value


def _positive_finite(value, allow_zero: bool = False) -> float:
    """float(value) when it is finite and > 0 (>= 0 with allow_zero), else
    a ValueError: json reads NaN and Infinity as numbers."""
    number = float(value)
    if not (math.isfinite(number) and (number >= 0.0 if allow_zero else number > 0.0)):
        raise ValueError(f"must be finite and {'>= 0' if allow_zero else '> 0'}, got {value!r}")
    return number


def _tol_argument(text: str) -> float:
    """verify's --tol: argparse turns a bad value into a usage error naming it (exit 2)."""
    try:
        return _positive_finite(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_system(backend: str, doc: dict) -> LayerStack | LatticeSystem:
    # a generated system (random, disorder) takes no field it generates itself
    if backend == "stack":
        generated = "random" in doc
        _closed(doc, "system.", ("random",) if generated else ("layers", "v_left", "v_right"))
        if generated:
            r = _object(doc, "random", ("seed", "n_layers", "v_range", "d_range", "v_left",
                                        "v_right"), "system.")
            return _parse("system.random", lambda: random_stack(
                seed=_integer("system.random.seed", _require(r, "seed", "system.random.")),
                n_layers=_integer("system.random.n_layers", r.get("n_layers", 5)),
                v_range=tuple(_real("system.random.v_range", r.get("v_range", (0.0, 2.0)))),
                d_range=tuple(_real("system.random.d_range", r.get("d_range", (0.5, 1.5)))),
                v_left=float(_real("system.random.v_left", r.get("v_left", 0.0))),
                v_right=float(_real("system.random.v_right", r.get("v_right", 0.0))),
            ))
        layers = _real("system.layers", _require(doc, "layers", "system."))
        for i, layer in enumerate(layers if isinstance(layers, list) else []):
            if isinstance(layer, dict):
                _closed(layer, f"system.layers[{i}].", ("d", "V"))
        return _parse("system", lambda: build_stack(
            layers,
            v_left=float(_real("system.v_left", doc.get("v_left", 0.0))),
            v_right=float(_real("system.v_right", doc.get("v_right", 0.0))),
        ))
    # lattice backend
    _closed(doc, "system.", ("width", "length", "disorder" if "disorder" in doc else "onsite"))
    width = _integer("system.width", _require(doc, "width", "system."))
    length = _integer("system.length", _require(doc, "length", "system."))
    if "disorder" in doc:
        d = _object(doc, "disorder", ("seed", "v_range"), "system.")
        return _parse("system.disorder", lambda: random_lattice(
            seed=_integer("system.disorder.seed", _require(d, "seed", "system.disorder.")),
            width=width, length=length,
            v_range=tuple(_real("system.disorder.v_range", d.get("v_range", (-0.5, 0.5)))),
        ))
    onsite = _real("system.onsite", doc.get("onsite", 0.0))
    return _parse("system.onsite", lambda: LatticeSystem(
        width=width, length=length,
        onsite=(np.full((length, width), float(onsite)) if isinstance(onsite, (int, float))
                else np.asarray(onsite, dtype=float)),
    ))


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _closed(doc, "", ("backend", "system", "grid", "region", "methods", "tolerances",
                      "min_prominence", "workers"))

    backend = _require(doc, "backend")
    if backend not in ("stack", "lattice"):
        raise ConfigError(f"field 'backend' must be 'stack' or 'lattice', got {backend!r}")
    system = _build_system(backend, _object(doc, "system", None))

    g = _object(doc, "grid", ("e_min", "e_max", "count", "threshold_margin"))
    # older configs carry the margin; a value the model does not use is refused
    if g.get("threshold_margin", THRESHOLD_MARGIN) != THRESHOLD_MARGIN:
        raise ConfigError(f"field 'grid.threshold_margin' must be {THRESHOLD_MARGIN} "
                          f"(a fixed model constant), got {g['threshold_margin']!r}")
    grid = _parse("grid", lambda: EnergyGrid(
        e_min=float(_real("grid.e_min", _require(g, "e_min", "grid."))),
        e_max=float(_real("grid.e_max", _require(g, "e_max", "grid."))),
        count=_integer("grid.count", _require(g, "count", "grid.")),
    ))

    region = None
    if doc.get("region") is not None:
        if backend != "lattice":
            raise ConfigError("field 'region' is only supported for the lattice backend")
        bounds = ("col_min", "col_max", "row_min", "row_max")
        r = _object(doc, "region", bounds)
        region = _parse("region", lambda: LatticeRegion(
            **{key: _integer(f"region.{key}", _require(r, key, "region.")) for key in bounds}))
        _parse("region", lambda: system.region_sites(region))  # inside the device

    methods = _parse("methods", lambda: tuple(doc.get("methods", ["direct", "green"])))
    if not methods:
        raise ConfigError("field 'methods' must be non-empty")
    bad = _parse("methods", lambda: sorted(set(methods) - set(an.METHODS)))
    if bad:
        raise ConfigError(f"field 'methods' has unknown entries {bad}")

    tolerances = _object(doc, "tolerances", ("identity",), default={})
    tol = _parse("tolerances.identity", lambda: _positive_finite(
        _real("tolerances.identity", tolerances.get("identity", 1e-8))))
    prom = _parse("min_prominence", lambda: _positive_finite(
        _real("min_prominence", doc.get("min_prominence", 0.05)), allow_zero=True))
    workers = _integer("workers", doc.get("workers", 0))
    if workers < 0:
        raise ConfigError("field 'workers' must be >= 0")
    return RunConfig(
        backend=backend, system=system, grid=grid, region=region,
        methods=methods, identity_tol=tol,
        min_prominence=prom, workers=workers,
    )


# ----------------------------------------------------------------------------
# Report computation
# ----------------------------------------------------------------------------


def compute_reports(config: RunConfig) -> list[an.DwellReport]:
    """verify_identity on the configured system."""
    return an.verify_identity(config.system, config.grid, config.region, config.methods)


# ----------------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------------


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def _channel_sort_key(label: str):
    if label == "ALL":
        return (0, "", 0)
    if ":" in label:
        lead, mode = label.split(":", 1)
        return (1, lead, int(mode))
    return (1, label, 0)


def _scan_rows(reports: list[an.DwellReport]) -> list[str]:
    rows = []
    for rep in sorted(reports, key=lambda r: r.energy):
        e = format(rep.energy, ".17g")
        if rep.skipped:
            rows.append(f"{e},ALL,,,,,,true")
            continue
        taus = [c.tau_direct for c in rep.channels if c.tau_direct is not None]
        vds = [c.tau_vderiv for c in rep.channels if c.tau_vderiv is not None]
        tau_sum = float(sum(taus)) if taus else None
        vd_sum = float(sum(vds)) if vds and len(vds) == len(rep.channels) else None
        shared = f"{_fmt(rep.dos_green)},{_fmt(rep.dos_sum)},{_fmt(rep.residual_rel)},false"
        rows.append(f"{e},ALL,{_fmt(tau_sum)},{_fmt(vd_sum)},{shared}")
        for c in sorted(rep.channels, key=lambda c: _channel_sort_key(c.channel)):
            rows.append(f"{e},{c.channel},{_fmt(c.tau_direct)},{_fmt(c.tau_vderiv)},{shared}")
    return rows


def write_scan_csv(reports: list[an.DwellReport], path: Path) -> int:
    rows = _scan_rows(reports)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SCAN_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return len(rows)


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------


def _skip_warnings(summary: dict) -> tuple[list[str], bool]:
    """Warnings about the skipped points (one naming the skips that are
    failures, one naming the skip classes when every point was skipped)
    and whether any skip is a failure."""
    failed = {k: n for k, n in summary["skip_reasons"].items()
              if k not in an.EXPECTED_SKIPS}
    warnings = []
    if failed:
        warnings.append(f"{sum(failed.values())} grid points were skipped as failures "
                        f"({', '.join(failed)})")
    if summary["skipped"] == summary["points"]:
        warnings.append(f"all grid points were skipped ({', '.join(summary['skip_reasons'])})")
    return warnings, bool(failed)


def cmd_scan(config: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = compute_reports(config)
    n_rows = write_scan_csv(reports, out_dir / "scan.csv")
    summary = an.summarize_reports(reports, config.system)
    summary["rows"] = n_rows
    summary["command"] = "scan"
    summary["warnings"], _ = _skip_warnings(summary)
    _write_json(summary, out_dir / "summary.json")
    return summary


def cmd_verify(config: RunConfig, tol: float | None = None) -> tuple[int, dict]:
    if not {"direct", "green"} <= set(config.methods):
        raise ConfigError("verify requires both 'direct' and 'green' in methods")
    tolerance = config.identity_tol if tol is None else float(tol)
    reports = compute_reports(config)
    summary = an.summarize_reports(reports, config.system)
    summary["command"] = "verify"
    summary["tolerance"] = tolerance
    worst = summary["max_residual_rel"]
    warnings, failed = _skip_warnings(summary)
    if warnings:
        summary["warnings"] = warnings
    # a point that failed to compute was not verified, and a grid with no
    # verified point (worst is None) verified nothing
    ok = worst is not None and worst < tolerance and not failed
    summary["pass"] = bool(ok)
    return (0 if ok else 1), summary


def cmd_resonances(config: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = compute_reports(config)
    table = an.find_resonances(reports, min_prominence=config.min_prominence)
    lines = []
    for p, m in zip(table.dos_peaks, table.matches):  # one match per DOS peak, in order
        dist = _fmt(m.distance) if m.matched else ""
        chan = m.channel or ""
        lines.append(f"{_fmt(p.energy)},dos,{chan},{_fmt(p.height)},{_fmt(p.width)},{dist}")
    for chan, peaks in sorted(table.dwell_peaks.items(), key=lambda kv: _channel_sort_key(kv[0])):
        for p in peaks:
            lines.append(f"{_fmt(p.energy)},dwell,{chan},{_fmt(p.height)},{_fmt(p.width)},")
    with open(out_dir / "peaks.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PEAKS_HEADER + "\n")
        for line in lines:
            fh.write(line + "\n")
    summary = {
        "command": "resonances",
        "dos_peaks": len(table.dos_peaks),
        "matched": sum(1 for m in table.matches if m.matched),
        "unmatched": sum(1 for m in table.matches if not m.matched),
        "grid_resolution": table.grid_resolution,
    }
    _write_json(summary, out_dir / "summary.json")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dwelldos",
        description="Dwell times and region DOS for multilayer and lattice scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_scan = sub.add_parser("scan", help="per-energy estimator table (CSV + JSON)")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out", required=True)
    p_ver = sub.add_parser("verify", help="pass/fail identity check")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--tol", type=_tol_argument, default=None)
    p_res = sub.add_parser("resonances", help="DOS / dwell-time peak table")
    p_res.add_argument("--config", required=True)
    p_res.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    try:
        config = load_config(args.config)
        if args.command == "scan":
            summary = cmd_scan(config, Path(args.out))
            print(json.dumps(summary, sort_keys=True))
            return 0
        if args.command == "verify":
            code, summary = cmd_verify(config, args.tol)
            print(json.dumps(summary, sort_keys=True))
            return code
        summary = cmd_resonances(config, Path(args.out))
        print(json.dumps(summary, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 2
    except DwellDosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
