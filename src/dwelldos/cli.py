"""Command-line front end: scan, verify, and resonance search.

Config is a single JSON document (see configs/ for one example per
backend).  Exit codes: 0 success, 1 verification failure, 2 usage or
config error.  Output is deterministic: rows are sorted by (energy,
channel), floats are serialized with 17 significant digits, and the
worker count never changes the bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis as an
from .errors import ConfigError, DwellDosError, InsufficientDataError
from .model import (
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
_VALID_METHODS = ("direct", "green", "vderiv")


@dataclass(frozen=True)
class RunConfig:
    backend: str
    system: LayerStack | LatticeSystem
    grid: EnergyGrid
    region: LatticeRegion | None
    methods: tuple[str, ...]
    dv: float | None
    identity_tol: float
    min_prominence: float
    workers: int


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
    return doc[key]


def _build_system(backend: str, doc: dict) -> LayerStack | LatticeSystem:
    if backend == "stack":
        if "random" in doc:
            r = doc["random"]
            try:
                return random_stack(
                    seed=int(_require(r, "seed", "system.random")),
                    n_layers=int(r.get("n_layers", 5)),
                    v_range=tuple(r.get("v_range", (0.0, 2.0))),
                    d_range=tuple(r.get("d_range", (0.5, 1.5))),
                    v_left=float(r.get("v_left", 0.0)),
                    v_right=float(r.get("v_right", 0.0)),
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad 'system.random': {exc}") from exc
        layers = _require(doc, "layers", "system")
        try:
            return build_stack(
                layers,
                v_left=float(doc.get("v_left", 0.0)),
                v_right=float(doc.get("v_right", 0.0)),
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad 'system.layers': {exc}") from exc
    # lattice backend
    width = int(_require(doc, "width", "system"))
    length = int(_require(doc, "length", "system"))
    if "disorder" in doc:
        d = doc["disorder"]
        try:
            return random_lattice(
                seed=int(_require(d, "seed", "system.disorder")),
                width=width, length=length,
                v_range=tuple(d.get("v_range", (-0.5, 0.5))),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad 'system.disorder': {exc}") from exc
    onsite = doc.get("onsite", 0.0)
    try:
        if isinstance(onsite, (int, float)):
            arr = np.full((length, width), float(onsite))
        else:
            arr = np.asarray(onsite, dtype=float)
        return LatticeSystem(width=width, length=length, onsite=arr)
    except (TypeError, ValueError, DwellDosError) as exc:
        raise ConfigError(f"bad 'system.onsite': {exc}") from exc


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

    backend = _require(doc, "backend", "")
    if backend not in ("stack", "lattice"):
        raise ConfigError(f"field 'backend' must be 'stack' or 'lattice', got {backend!r}")
    system = _build_system(backend, _require(doc, "system", ""))

    g = _require(doc, "grid", "")
    try:
        grid = EnergyGrid(
            e_min=float(_require(g, "e_min", "grid")),
            e_max=float(_require(g, "e_max", "grid")),
            count=int(_require(g, "count", "grid")),
            threshold_margin=float(g.get("threshold_margin", 1e-6)),
        )
    except (TypeError, ValueError, DwellDosError) as exc:
        raise ConfigError(f"bad 'grid': {exc}") from exc

    region = None
    if doc.get("region") is not None:
        if backend != "lattice":
            raise ConfigError("field 'region' is only supported for the lattice backend")
        r = doc["region"]
        try:
            region = LatticeRegion(
                col_min=int(_require(r, "col_min", "region")),
                col_max=int(_require(r, "col_max", "region")),
                row_min=int(_require(r, "row_min", "region")),
                row_max=int(_require(r, "row_max", "region")),
            )
        except (TypeError, ValueError, DwellDosError) as exc:
            raise ConfigError(f"bad 'region': {exc}") from exc

    methods = tuple(doc.get("methods", ["direct", "green"]))
    if not methods:
        raise ConfigError("field 'methods' must be non-empty")
    bad = set(methods) - set(_VALID_METHODS)
    if bad:
        raise ConfigError(f"field 'methods' has unknown entries {sorted(bad)}")

    dv = doc.get("dv")
    if dv is not None:
        dv = float(dv)
        if dv <= 0:
            raise ConfigError("field 'dv' must be positive")

    tol = float(doc.get("tolerances", {}).get("identity", 1e-8))
    prom = float(doc.get("min_prominence", 0.05))
    workers = int(doc.get("workers", 0))
    if workers < 0:
        raise ConfigError("field 'workers' must be >= 0")
    return RunConfig(
        backend=backend, system=system, grid=grid, region=region,
        methods=methods, dv=dv, identity_tol=tol,
        min_prominence=prom, workers=workers,
    )


# ----------------------------------------------------------------------------
# Report computation
# ----------------------------------------------------------------------------


def _resolve_workers(config: RunConfig) -> int:
    """Worker count: DWELLDOS_WORKERS overrides the config; 0 means all cores."""
    env = os.environ.get("DWELLDOS_WORKERS")
    n = config.workers
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(
                f"environment variable DWELLDOS_WORKERS must be an integer, got {env!r}"
            ) from None
        if n < 0:
            raise ConfigError(f"environment variable DWELLDOS_WORKERS must be >= 0, got {n}")
    return n or os.cpu_count() or 1


def compute_reports(config: RunConfig) -> list[an.DwellReport]:
    """verify_identity on the configured system with the resolved worker count."""
    return an.verify_identity(config.system, config.grid, config.region,
                              config.methods, config.dv,
                              workers=_resolve_workers(config))


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
        tau_sum = None
        vd_sum = None
        taus = [c.tau_direct for c in rep.channels if c.tau_direct is not None]
        if taus:
            tau_sum = float(sum(taus))
        vds = [c.tau_vderiv for c in rep.channels if c.tau_vderiv is not None]
        if vds and len(vds) == len(rep.channels):
            vd_sum = float(sum(vds))
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


def cmd_scan(config: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = compute_reports(config)
    n_rows = write_scan_csv(reports, out_dir / "scan.csv")
    summary = an.summarize_reports(reports, config.system)
    summary["rows"] = n_rows
    summary["command"] = "scan"
    warnings = []
    if summary["skipped"] == summary["points"]:
        warnings.append("all grid points were skipped (threshold proximity or no open channel)")
    summary["warnings"] = warnings
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
    ok = worst is not None and worst < tolerance
    if summary["skipped"] == summary["points"]:
        # degenerate but well-defined: nothing to verify, nothing failed
        ok = True
        summary["warnings"] = ["all grid points were skipped"]
    summary["pass"] = bool(ok)
    return (0 if ok else 1), summary


def cmd_resonances(config: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = compute_reports(config)
    table = an.find_resonances(reports, min_prominence=config.min_prominence)
    lines = []
    match_by_peak = {id(m.dos_peak): m for m in table.matches}
    for p in table.dos_peaks:
        m = match_by_peak[id(p)]
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
    p_ver.add_argument("--tol", type=float, default=None)
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
