"""Validation of `scan.csv` and per-point classification.

Every grid point is classified from the generated inputs and the CSV
alone (the CSV drops `skip_reason`):

- verified: computed, its open channels match the inputs, and the
  residual recomputed from `dos_green` and `dos_sum` is below the tolerance;
- expected: reported skipped, and the inputs say it is within the margin
  of a threshold or has no open channel;
- failed: anything else.  A computed point with no open channel is failed
  even when its residual is 0, since the identity 0 = 0 checks nothing.

Malformed output (wrong header, missing or out-of-order grid points,
empty or non-finite numbers where a value is due) raises `ScanError`,
which fails the whole run.
"""

from __future__ import annotations

import math
from collections import Counter

from workloads import expected_channels, grid_points

SCAN_HEADER = "energy,channel,tau_direct,tau_vderiv,dos_green,dos_sum,residual_rel,skipped"
RESIDUAL_FLOOR = 1e-30
_TAU_SUM_RTOL = 1e-12


class ScanError(Exception):
    """scan.csv breaks its contract."""


def _num(cell: str, what: str, energy: str) -> float:
    if cell == "":
        raise ScanError(f"empty {what} at E = {energy}")
    try:
        x = float(cell)
    except ValueError:
        raise ScanError(f"non-numeric {what} {cell!r} at E = {energy}") from None
    if not math.isfinite(x):
        raise ScanError(f"non-finite {what} {cell!r} at E = {energy}")
    return x


def classify_scan(text: str, doc: dict) -> list[str]:
    """Check scan.csv text against the config it came from.

    Returns one class per grid point: "verified", "expected" or a failure
    name ("skipped", "no_channel", "channels", "residual").
    """
    lines = text.split("\n")
    if lines[-1] != "":
        raise ScanError("scan.csv does not end with a newline")
    lines.pop()
    if not lines or lines[0] != SCAN_HEADER:
        raise ScanError(f"bad header {lines[0] if lines else ''!r}")
    methods = set(doc["methods"])  # every workload has "direct" and "green"
    tol = float(doc["tolerances"]["identity"])
    points = grid_points(doc)

    groups: list[list[list[str]]] = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 8:
            raise ScanError(f"line {n} has {len(cells)} cells")
        if cells[1] == "ALL":
            groups.append([cells])
        elif not groups or cells[0] != groups[-1][0][0]:
            raise ScanError(f"line {n}: channel row without its ALL row")
        else:
            groups[-1].append(cells)
    if len(groups) != len(points):
        raise ScanError(f"{len(groups)} ALL rows for {len(points)} grid points")

    classes = []
    for energy, rows in zip(points, groups):
        head = rows[0]
        e = head[0]
        if float(e) != float(energy):
            raise ScanError(f"ALL row at E = {e}, grid point {energy!r} expected")
        if head[7] not in ("true", "false"):
            raise ScanError(f"bad skipped cell {head[7]!r} at E = {e}")
        near, labels = expected_channels(doc, float(energy))
        if head[7] == "true":
            if len(rows) > 1 or any(head[2:7]):
                raise ScanError(f"skipped point with values at E = {e}")
            classes.append("expected" if near or not labels else "skipped")
            continue
        green = _num(head[4], "dos_green", e)
        dsum = _num(head[5], "dos_sum", e)
        _num(head[6], "residual_rel", e)
        for cells in rows[1:]:
            if cells[4:8] != head[4:8]:
                raise ScanError(f"channel row {cells[1]} disagrees with ALL row at E = {e}")
        if len(rows) > 1:
            for cells in rows:
                _num(cells[2], "tau_direct", e)
                if "vderiv" in methods:
                    _num(cells[3], "tau_vderiv", e)
            taus = sum(float(c[2]) for c in rows[1:])
            if abs(taus / (2.0 * math.pi) - dsum) > _TAU_SUM_RTOL * max(abs(dsum), 1e-300):
                raise ScanError(f"dos_sum is not the channel tau sum at E = {e}")
        if not labels:
            classes.append("no_channel")
        elif [c[1] for c in rows[1:]] != labels:
            classes.append("channels")
        else:
            resid = abs(green - dsum) / max(green, RESIDUAL_FLOOR)
            classes.append("verified" if resid < tol else "residual")
    return classes


def coarse(cls: str) -> str:
    """"verified", "expected" or "failed" for one point class."""
    return cls if cls in ("verified", "expected") else "failed"


def tally(classes: list[str]) -> Counter:
    """Counts of verified, expected and failed points."""
    out = Counter(verified=0, expected=0, failed=0)
    out.update(coarse(c) for c in classes)
    return out
