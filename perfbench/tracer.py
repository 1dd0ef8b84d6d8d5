"""In-memory span tracer that wraps dwelldos module attributes from outside.

`Tracer.install()` replaces the functions and methods listed in `TARGETS`
with timing wrappers and `Tracer.uninstall()` puts the originals back, so
nothing under `src/` changes.  Each call records one span (name, start,
end, parent, name of the exception it raised or None).  A span's self time is its duration minus the durations of
its direct children, so the self times of a tree add up to the root span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute path, span name).  A callee in the same module as
# all its callers needs a span only when a metric names it; the others
# are wrapped so that their self time counts for their own module.  cli
# imports channel_thresholds by name, so it is wrapped where cli looks it
# up.  Properties are wrapped through their getter.
TARGETS = [
    ("cli", "compute_reports", "cli.compute_reports"),
    ("cli", "write_scan_csv", "cli.write_scan_csv"),
    ("cli", "channel_thresholds", "model.channel_thresholds"),
    ("analysis", "compute_report", "analysis.compute_report"),
    ("analysis", "dwell_times_vderiv_all", "analysis.dwell_times_vderiv_all"),
    ("analysis", "shifted_smatrix", "analysis.shifted_smatrix"),
    ("analysis", "summarize_reports", "analysis.summarize_reports"),
    ("solver1d", "scattering_amplitudes", "solver1d.scattering_amplitudes"),
    ("solver1d", "dwell_time_direct_1d", "solver1d.dwell_time_direct_1d"),
    ("solver1d", "dos_region_1d", "solver1d.dos_region_1d"),
    ("lattice", "lead_modes", "lattice.lead_modes"),
    ("lattice", "open_channels", "lattice.open_channels"),
    ("lattice", "build_hamiltonian", "lattice.build_hamiltonian"),
    ("lattice", "_LatticeWorkspace.__init__", "lattice.factorize"),
    ("lattice", "scattering_matrix", "lattice.scattering_matrix"),
    ("lattice", "dwell_time_lattice", "lattice.dwell_time_lattice"),
    ("lattice", "dos_region_lattice", "lattice.dos_region_lattice"),
    ("model", "EnergyGrid.points", "model.grid_points"),
    ("model", "EnergyGrid.admissible_mask", "model.admissible_mask"),
    ("model", "LayerStack.boundaries", "model.stack_arrays"),
    ("model", "LayerStack.thicknesses", "model.stack_arrays"),
    ("model", "LayerStack.potentials", "model.stack_arrays"),
    ("model", "LayerStack.total_length", "model.stack_arrays"),
    ("model", "LayerStack.shifted", "model.shifted"),
    ("model", "LatticeSystem.shifted", "model.shifted"),
    ("model", "LatticeSystem.region_sites", "model.region_sites"),
]


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent, exception name]
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, opened[-1] if opened else -1, None]
            spans.append(span)
            opened.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                opened.pop()

        return traced

    def install(self) -> None:
        for module, path, name in TARGETS:
            owner = self.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, property):
                setattr(owner, attr, property(self._wrap(name, original.fget)))
            else:
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [t1 - t0 for _, t0, t1, _, _ in self.spans]
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= t1 - t0
        return out

    def roots(self) -> list[str]:
        """Name of each span's outermost ancestor (parents precede children)."""
        out: list[str] = []
        for name, _, _, parent, _ in self.spans:
            out.append(name if parent < 0 else out[parent])
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and the list of durations."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for (name, t0, t1, _, _), own in zip(self.spans, self.self_times()):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += own
            rec["durations"].append(t1 - t0)
        return out

    def vderiv_halvings(self) -> int:
        """Step halvings inside dwell_times_vderiv_all.

        Its first shifted_smatrix call is S(0); each loop iteration then
        calls S(+dv) and, unless that raised, S(-dv).  Every iteration
        after the first follows one halving.
        """
        calls: dict[int, list] = defaultdict(list)
        for name, _, _, parent, exc in self.spans:
            if name == "analysis.shifted_smatrix" and parent >= 0:
                calls[parent].append(exc)
        halvings = 0
        for index, (name, *_) in enumerate(self.spans):
            seq = calls.get(index, [])
            if name != "analysis.dwell_times_vderiv_all" or not seq or seq[0]:
                continue
            k, iterations = 1, 0
            while k < len(seq):
                iterations += 1
                k += 1 if seq[k] else 2
            halvings += max(iterations - 1, 0)
        return halvings
