"""Command-line front end: scan, verify, and resonance search.

Config is a single JSON document (see configs/ for one example per
backend).  Each object in it is read through one table that maps its
fields to readers; the keys are the keyword names of the model builder it
feeds, so a field left out keeps that builder's default.  Exit codes: 0
success, 1 verification failure, 2 usage or config error (`verify` and
`resonances` need both direct and green in `methods`), an unreadable or
unwritable file, or too little memory for the grid or system; `verify` also
fails when a grid point was skipped for any reason other than threshold
proximity or no open channel, and when no point was verified at all.
Each command's summary (summary.json, or verify's report) is
analysis.summarize_reports of its grid, which alone decides which skips
failed, plus the command's own fields: scan's `rows`, verify's
`tolerance` and `pass`, and resonances' peak counts.
Output is deterministic: scan.csv and peaks.csv write floats to 17
significant digits, summary.json and stdout in JSON's shortest round-trip
form (json.dumps), so one float may read 0.62725 in summary.json and
0.62724999999999997 in scan.csv.
scan.csv rows go by ascending energy, each energy's ALL row, then the left
lead's channels and the right lead's, modes ascending (left:9 before
left:10); peaks.csv has the DOS peaks by energy, then the dwell peaks of
ALL and of each channel in that order, each curve's by energy.  A grid's
reports stay the columns of one analysis.ReportTable from the solve to
scan.csv and summary.json: no per-energy report object is built on the way.  An
existing output file is removed before it is written, never truncated:
truncating a file and writing it again makes ext4 flush it, tens of
milliseconds a file, and a symlinked output is replaced, not written
through.  The `workers` field is validated (>= 0) but has no effect: the
grid is solved in energy chunks in one process.

`entry` is the process entry of `python -m dwelldos.cli` and of the
`dwelldos` script (dwelldos.script), which both first let numpy's idle
BLAS workers sleep (dwelldos._let_blas_workers_sleep).  It keeps memory
that the C allocator frees in the process, so each energy chunk reuses
the pages of the one before instead of faulting them in again, and it
freezes the garbage collector's objects once `main` has returned, so the
collections at interpreter exit skip them.  `main` and importing this
module change nothing process-wide.
"""

from __future__ import annotations

if __name__ == "__main__":  # python -m dwelldos.cli: before numpy loads (see entry)
    from . import _let_blas_workers_sleep
    _let_blas_workers_sleep()

import argparse
import ctypes
import gc
import json
import math
import sys
from dataclasses import dataclass, replace
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
    uniform_lattice,
)

SCAN_HEADER = "energy,channel,tau_direct,tau_vderiv,dos_green,dos_sum,residual_rel,skipped"
PEAKS_HEADER = "E_peak,kind,channel,height,width,match_distance"


@dataclass(frozen=True)
class RunConfig:
    backend: str
    system: LayerStack | LatticeSystem
    grid: EnergyGrid
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
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the largest float
        raise ConfigError(f"field '{path}' is a number too large for a float") from None


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


def _layers(path: str, value) -> list:
    """Layers, each a [d, V] pair or a _LAYER object, as [d, V] pairs: a layer's field
    is named by its index when unknown or missing, and a value that is no number by `path`."""
    if not isinstance(value, list):
        raise ConfigError(f"field '{path}' must be an array, got {value!r}")
    return _reals(path, [list(_fields(f"{path}[{i}]", layer, _LAYER).values())
                         if isinstance(layer, dict) else layer for i, layer in enumerate(value)])


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
# each tolerance `x` is RunConfig's `x_tol`; json reads NaN and Infinity as numbers
_TOLERANCES = {"identity": _checked(_real, lambda x: math.isfinite(x) and x > 0.0,
                                    "finite and > 0")}
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
        return _load_config(path)
    except RecursionError:  # in json.loads or in a reader of nested arrays
        raise ConfigError("config nests arrays or objects too deeply to read") from None


def _load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    except ValueError as exc:  # an integer beyond int's digit limit, or text that is no UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    run = _fields("", doc, _ROOT)
    run["system"] = system = _system(run["backend"], run["system"])
    region = run.pop("region", None)
    if region is not None:
        if run["backend"] != "lattice":
            raise ConfigError("field 'region' is only supported for the lattice backend")
        run["system"] = _parse("region", lambda: replace(system, region=region))
    tolerances = {f"{key}_tol": tol for key, tol in run.pop("tolerances", {}).items()}
    return RunConfig(**run, **tolerances)


# ----------------------------------------------------------------------------
# Report computation
# ----------------------------------------------------------------------------


def compute_reports(config: RunConfig) -> an.ReportTable:
    """verify_identity on the configured system: its ReportTable."""
    return an.verify_identity(config.system, config.grid, config.methods)


# ----------------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------------


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def _texts(values, given=None) -> list:
    """The _fmt text of each value, "" where `given` is False, as nested
    lists of values' shape."""
    if given is None:  # one % over all values formats them in C, each as format(x, ".17g")
        flat = ("%.17g\n" * values.size % tuple(values.ravel().tolist())).split("\n")[:-1]
        return np.reshape(np.array(flat, dtype=object), values.shape).tolist()
    texts = np.full(values.shape, "", dtype=object)
    texts[given] = _texts(values[given])
    return texts.tolist()


def _scan_rows(table: an.ReportTable) -> list[str]:
    """The scan.csv rows of a ReportTable, from its columns in table order,
    which is by energy: an ALL row per energy with the channel sums, then a
    row per listed channel in label order, each with the energy's DOS
    columns, and a cell empty where its column holds no value."""
    energy = _texts(table.energies)
    (tau_sum, n_tau), (vd_sum, n_vd) = map(table.channel_sum, ("tau_direct", "tau_vderiv"))
    sums = zip(_texts(tau_sum, n_tau > 0), _texts(vd_sum, n_vd > 0))
    dos = [_texts(*table.column(name)) for name in ("dos_green", "dos_sum", "residual_rel")]
    shared = [f"{g},{s},{r},false" for g, s, r in zip(*dos)]
    m = len(table.labels)
    rows = [None] * (len(table) * (m + 1))
    rows[::m + 1] = [f"{e},ALL,,,,,,true" if skip else f"{e},ALL,{t},{v},{s}"
                     for e, (t, v), s, skip in zip(energy, sums, shared, table.skipped.tolist())]
    channels = zip(table.labels, _texts(*table.column("tau_direct")),
                   _texts(*table.column("tau_vderiv")), table.open.tolist())
    for j, (label, taus, vds, oks) in enumerate(channels):
        rows[j + 1::m + 1] = [f"{e},{label},{t},{v},{s}" if ok else None
                              for e, t, v, s, ok in zip(energy, taus, vds, shared, oks)]
    return [row for row in rows if row is not None]


def _write(path: Path, text: str) -> None:
    """text as the new file `path`: an existing file there is removed first
    (see the module docstring), and a symlink replaced, not followed."""
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: str, rows: list[str]) -> int:
    _write(path, "".join(f"{r}\n" for r in [header, *rows]))
    return len(rows)


def write_scan_csv(table: an.ReportTable, path: Path) -> int:
    return _write_csv(path, SCAN_HEADER, _scan_rows(table))


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------


def cmd_scan(config: RunConfig, out_dir: Path) -> dict:
    reports = compute_reports(config)
    summary = an.summarize_reports(reports, config.system)
    summary.update(command="scan", rows=write_scan_csv(reports, out_dir / "scan.csv"))
    return summary


def cmd_verify(config: RunConfig) -> tuple[int, dict]:
    summary = an.summarize_reports(compute_reports(config), config.system)
    worst = summary["max_residual_rel"]
    # a point that failed to compute was not verified, and a grid with no
    # verified point (worst is None) verified nothing
    ok = worst is not None and worst < config.identity_tol and not summary["failed"]
    summary.update({"command": "verify", "tolerance": config.identity_tol, "pass": ok})
    return (0 if ok else 1), summary


def cmd_resonances(config: RunConfig, out_dir: Path) -> dict:
    reports = compute_reports(config)
    table = an.find_resonances(reports, min_prominence=config.min_prominence)
    lines = []
    for p, m in zip(table.dos_peaks, table.matches):  # one match per DOS peak, in order
        dist = _fmt(m.distance) if m.matched else ""
        chan = m.channel or ""
        lines.append(f"{_fmt(p.energy)},dos,{chan},{_fmt(p.height)},{_fmt(p.width)},{dist}")
    for chan, peaks in table.dwell_peaks.items():
        for p in peaks:
            lines.append(f"{_fmt(p.energy)},dwell,{chan},{_fmt(p.height)},{_fmt(p.width)},")
    _write_csv(out_dir / "peaks.csv", PEAKS_HEADER, lines)
    matched = sum(1 for m in table.matches if m.matched)
    summary = an.summarize_reports(reports, config.system)
    summary.update(command="resonances", dos_peaks=len(table.dos_peaks), matched=matched,
                   unmatched=len(table.matches) - matched,
                   grid_resolution=table.grid_resolution)
    return summary


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
        if name != "verify":
            command.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0

    try:
        config = load_config(args.config)
        if args.command != "scan" and not {"direct", "green"} <= set(config.methods):
            raise ConfigError(f"{args.command} requires both 'direct' and 'green' in methods")
        if args.command == "verify":
            code, summary = cmd_verify(config)
        else:  # scan and resonances write their table and summary.json to --out
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            command = cmd_scan if args.command == "scan" else cmd_resonances
            code, summary = 0, command(config, out_dir)
            _write(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except (DwellDosError, OSError, MemoryError) as exc:
        kind = ("config error" if isinstance(exc, ConfigError) else
                "insufficient data" if isinstance(exc, InsufficientDataError) else
                "error: out of memory" if isinstance(exc, MemoryError) else
                "error" if isinstance(exc, DwellDosError) else "io error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return code


def _keep_freed_memory() -> None:
    """Have the C allocator keep freed memory in the process; nothing where
    it has no mallopt.  A chunk's arrays (analysis._BATCH_BYTES) stay below
    the mmap threshold, so they come from the heap, and freed heap goes back
    to the kernel only when its free top exceeds the trim threshold."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows' CDLL refuses None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def entry(argv: list[str] | None = None) -> None:
    """Run `main` as a whole process and exit with its code (see the module
    docstring)."""
    _keep_freed_memory()
    code = main(argv)
    gc.freeze()  # the exit-time collections then skip every object left
    sys.exit(code)


if __name__ == "__main__":
    entry()
