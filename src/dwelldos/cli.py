"""Command-line front end: scan, verify, and resonance search.

Config is a single JSON document (see configs/ for one example per
backend).  Each object in it is read through one table that maps its
fields to readers; the keys are the keyword names of the model builder it
feeds, so a field left out keeps that builder's default.  Exit codes: 0
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
    uniform_lattice,
)

SCAN_HEADER = "energy,channel,tau_direct,tau_vderiv,dos_green,dos_sum,residual_rel,skipped"
PEAKS_HEADER = "E_peak,kind,channel,height,width,match_distance"


@dataclass(frozen=True)
class RunConfig:
    backend: str
    system: LayerStack | LatticeSystem
    grid: EnergyGrid
    region: LatticeRegion | None = None
    methods: tuple[str, ...] = ("direct", "green")
    identity_tol: float = 1e-8
    min_prominence: float = 0.05
    workers: int = 0


def _required(read):
    """`read`, for a field that its object must carry."""
    def read_required(path: str, value):
        return read(path, value)
    read_required.required = True
    return read_required


def _fields(where: str, doc, table: dict) -> dict:
    """The fields of the JSON object `doc` at path `where` ("" for the root),
    in `table` order, each read by its reader: read(path, value) returns the
    value read or raises a ConfigError naming the path.  A field outside the
    table (a misspelled one would leave its default in force unseen) or a
    missing required one is refused."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{where}' must be a JSON object, got {type(doc).__name__}"
                          if where else "config root must be a JSON object")
    prefix = f"{where}." if where else ""
    for key in doc:
        if key not in table:
            raise ConfigError(f"field '{prefix}{key}' is not allowed here "
                              f"(allowed: {', '.join(table)})")
    fields = {}
    for key, read in table.items():
        if key in doc:
            fields[key] = read(prefix + key, doc[key])
        elif getattr(read, "required", False):
            raise ConfigError(f"missing field '{prefix}{key}'")
    return fields


def _parse(field: str, build):
    """build(), or a ConfigError naming the field when the model refuses a value."""
    try:
        return build()
    except ConfigError:
        raise
    except (TypeError, KeyError, ValueError, DwellDosError) as exc:
        raise ConfigError(f"bad field '{field}': {exc}") from exc


def _object(table: dict, build=dict):
    """The reader of an object whose fields, read by `table`, are `build`'s keywords."""
    return lambda path, value: _parse(path, lambda: build(**_fields(path, value, table)))


def _value(path: str, value):
    return value  # checked by the code that reads it


def _integer(path: str, value) -> int:
    """value as an int when it is an integral JSON number, never a fraction or a bool."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
    return int(value)


def _real(path: str, value) -> float:
    """value as a float when it is a JSON number, never a string or a bool (1.0/0.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{path}' must be a number, got {value!r}")
    return float(value)


def _reals(path: str, value):
    """A number, or an array of numbers (nested arrays too), entry by entry."""
    return [_reals(path, v) for v in value] if isinstance(value, list) else _real(path, value)


def _checked(read, ok, rule: str):
    """`read`, and a value read that fails ok() refused as not `rule`."""
    def read_checked(path: str, value):
        value = read(path, value)
        if not ok(value):
            raise ConfigError(f"field '{path}' must be {rule}, got {value!r}")
        return value
    return read_checked


# json reads NaN and Infinity as numbers
_POSITIVE = _checked(_real, lambda x: math.isfinite(x) and x > 0.0, "finite and > 0")


def _tol_argument(text: str) -> float:
    """verify's --tol: argparse turns a bad value into a usage error naming it (exit 2)."""
    try:
        return _POSITIVE("--tol", float(text))
    except ValueError as exc:  # a ConfigError is a ValueError too
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _layers(path: str, value) -> list:
    """Layers, each a [d, V] pair or a _LAYER object: a layer's field is named by its
    index when unknown or missing, and a value that is no number by `path`."""
    if not isinstance(value, list):
        raise ConfigError(f"field '{path}' must be an array, got {value!r}")
    _reals(path, [list(_fields(f"{path}[{i}]", layer, _LAYER).values())
                  if isinstance(layer, dict) else layer for i, layer in enumerate(value)])
    return value


def _methods(path: str, value) -> tuple[str, ...]:
    if not (isinstance(value, list) and value and all(isinstance(m, str) for m in value)):
        raise ConfigError(f"field '{path}' must be a non-empty array of strings, got {value!r}")
    bad = sorted(set(value) - set(an.METHODS))
    if bad:
        raise ConfigError(f"field '{path}' has unknown entries {bad}")
    return tuple(value)


def _lattice(onsite=None, **size) -> LatticeSystem:
    """The given lattice: `onsite` an array per site, one number or absent."""
    if isinstance(onsite, list):
        return LatticeSystem(onsite=onsite, **size)
    return uniform_lattice(**size) if onsite is None else uniform_lattice(**size, v=onsite)


# One table per config object, keyed by the keyword names of the builder
# that the object feeds; a field left out keeps that builder's default.
_LAYER = {"d": _required(_value), "V": _required(_value)}
_LEADS = {"v_left": _real, "v_right": _real}
_DISORDER = {"seed": _required(_integer), "v_range": _reals}
_RANDOM = {**_DISORDER, "n_layers": _integer, "d_range": _reals, **_LEADS}
_SIZE = {"width": _required(_integer), "length": _required(_integer)}
_REGION = {key: _required(_integer) for key in ("col_min", "col_max", "row_min", "row_max")}
# per backend: a given system's table and builder, then a generated
# system's, whose seeded builder takes the fields of the generator object
# (the one field the given table lacks) and the others.  A generated
# system takes no field that it generates itself.
_SYSTEMS = {
    "stack": ({"layers": _required(_layers), **_LEADS}, build_stack,
              {"random": _required(_object(_RANDOM))}, random_stack),
    "lattice": ({**_SIZE, "onsite": _reals}, _lattice,
                {**_SIZE, "disorder": _required(_object(_DISORDER))}, random_lattice),
}
_GRID = {"e_min": _required(_real), "e_max": _required(_real), "count": _required(_integer),
         # older configs carry the margin; a value the model does not use is refused
         "threshold_margin": _checked(_value, lambda m: m == THRESHOLD_MARGIN,
                                      f"{THRESHOLD_MARGIN} (a fixed model constant)")}
_TOLERANCES = {"identity": _POSITIVE}  # each tolerance `x` is RunConfig's `x_tol`
_ROOT = {
    "backend": _required(_checked(_value, lambda b: b in ("stack", "lattice"),
                                  "'stack' or 'lattice'")),
    "system": _required(_value),  # read by its backend's tables in _system
    "grid": _required(_object(_GRID, lambda threshold_margin=None, **grid: EnergyGrid(**grid))),
    "region": lambda path, value: None if value is None else _object(_REGION, LatticeRegion)(
        path, value),
    "methods": _methods,
    "tolerances": _object(_TOLERANCES),
    "min_prominence": _checked(_real, lambda x: math.isfinite(x) and x >= 0.0,
                               "finite and >= 0"),
    "workers": _checked(_integer, lambda n: n >= 0, ">= 0"),
}


def _system(backend: str, doc) -> LayerStack | LatticeSystem:
    given, build, generated, generate = _SYSTEMS[backend]
    (generator,) = generated.keys() - given.keys()
    if isinstance(doc, dict) and generator in doc:
        fields = _fields("system", doc, generated)
        return _parse(f"system.{generator}", lambda: generate(**fields.pop(generator), **fields))
    return _object(given, build)("system", doc)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    run = _fields("", doc, _ROOT)
    run["system"] = system = _system(run["backend"], run["system"])
    if run.get("region") is not None:
        if run["backend"] != "lattice":
            raise ConfigError("field 'region' is only supported for the lattice backend")
        _parse("region", lambda: system.region_sites(run["region"]))  # inside the device
    tolerances = {f"{key}_tol": tol for key, tol in run.pop("tolerances", {}).items()}
    return RunConfig(**run, **tolerances)


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
    lead, _, mode = label.partition(":")
    return (1, lead, int(mode or 0))


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
        for c in rep.channels:  # in label order
            rows.append(f"{e},{c.channel},{_fmt(c.tau_direct)},{_fmt(c.tau_vderiv)},{shared}")
    return rows


def _write_csv(path: Path, header: str, rows: list[str]) -> int:
    path.write_text("".join(f"{r}\n" for r in [header, *rows]), encoding="utf-8", newline="\n")
    return len(rows)


def write_scan_csv(reports: list[an.DwellReport], path: Path) -> int:
    return _write_csv(path, SCAN_HEADER, _scan_rows(reports))


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------


def _skip_warnings(summary: dict) -> tuple[list[str], bool]:
    """Warnings about the skipped points (one naming the skips that are
    failures, one naming the skip classes when every point was skipped)
    and whether any skip is a failure."""
    failed = {k: n for k, n in summary["skip_reasons"].items() if k not in an.EXPECTED_SKIPS}
    warnings = []
    if failed:
        warnings.append(f"{sum(failed.values())} grid points were skipped as failures "
                        f"({', '.join(failed)})")
    if summary["skipped"] == summary["points"]:
        warnings.append(f"all grid points were skipped ({', '.join(summary['skip_reasons'])})")
    return warnings, bool(failed)


def cmd_scan(config: RunConfig, out_dir: Path) -> dict:
    reports = compute_reports(config)
    n_rows = write_scan_csv(reports, out_dir / "scan.csv")
    summary = an.summarize_reports(reports, config.system)
    summary.update(rows=n_rows, command="scan")
    summary["warnings"], _ = _skip_warnings(summary)
    return summary


def cmd_verify(config: RunConfig, tol: float | None = None) -> tuple[int, dict]:
    if not {"direct", "green"} <= set(config.methods):
        raise ConfigError("verify requires both 'direct' and 'green' in methods")
    tolerance = config.identity_tol if tol is None else float(tol)
    reports = compute_reports(config)
    summary = an.summarize_reports(reports, config.system)
    summary.update(command="verify", tolerance=tolerance)
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
    _write_csv(out_dir / "peaks.csv", PEAKS_HEADER, lines)
    matched = sum(1 for m in table.matches if m.matched)
    return {"command": "resonances", "dos_peaks": len(table.dos_peaks), "matched": matched,
            "unmatched": len(table.matches) - matched, "grid_resolution": table.grid_resolution}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dwelldos",
        description="Dwell times and region DOS for multilayer and lattice scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("scan", "per-energy estimator table (CSV + JSON)"),
                       ("verify", "pass/fail identity check"),
                       ("resonances", "DOS / dwell-time peak table")):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", required=True)
        if name == "verify":
            command.add_argument("--tol", type=_tol_argument, default=None)
        else:
            command.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    try:
        config = load_config(args.config)
        if args.command == "verify":
            code, summary = cmd_verify(config, args.tol)
        else:  # scan and resonances write their table and summary.json to --out
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            command = cmd_scan if args.command == "scan" else cmd_resonances
            code, summary = 0, command(config, out_dir)
            (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True)
                                                  + "\n", encoding="utf-8", newline="\n")
    except (DwellDosError, OSError) as exc:
        kind = ("config error" if isinstance(exc, ConfigError) else
                "insufficient data" if isinstance(exc, InsufficientDataError) else
                "error" if isinstance(exc, DwellDosError) else "io error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
