"""Seeded workload definitions for the dwelldos benchmark.

Each workload turns a seed into one `dwelldos scan` config document.  The
seed only picks the random system (stack layers or lattice disorder); the
sizes and energy grids are fixed, so every seed does the same amount of
work.  The expected channel structure at each grid point is worked out
here from the generated inputs alone, without calling dwelldos, so the
output checks do not trust the code they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, dict], dict]
    full: dict
    tiny: dict  # for --smoke: the same config shape at a tiny size

    def config(self, seed: int, tiny: bool = False) -> dict:
        return self.build(seed, self.tiny if tiny else self.full)


def _stack(seed: int, spec: dict) -> dict:
    return {
        "backend": "stack",
        "system": {"random": {
            "seed": seed, "n_layers": spec["n_layers"],
            "v_range": [5.5, 6.5], "d_range": [0.55, 0.65],
        }},
        "grid": {"e_min": 0.3, "e_max": 16.0, "count": spec["count"],
                 "threshold_margin": 1e-6},
        "methods": ["direct", "green", "vderiv"],
        "tolerances": {"identity": 1e-8},
        "workers": 0,
    }


def _lattice(seed: int, spec: dict) -> dict:
    return {
        "backend": "lattice",
        "system": {"width": spec["width"], "length": spec["length"],
                   "disorder": {"seed": seed, "v_range": [-0.5, 0.5]}},
        "grid": {"e_min": spec["e_min"], "e_max": spec["e_max"],
                 "count": spec["count"], "threshold_margin": 1e-6},
        "region": spec.get("region"),
        "methods": spec["methods"],
        "tolerances": {"identity": 1e-9},
        "workers": 1,
    }


_NARROW_REGION = {"col_min": 3, "col_max": 8, "row_min": 0, "row_max": 3}

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# stack-scan stresses solver1d and the process pool; lattice-wide the
# dense lattice algebra; lattice-narrow the Python work per energy that a
# faster lattice solver leaves untouched.  lattice-narrow is left out of
# BENCHMARK.json because its timings were too noisy to gate on.  The stack V and d ranges are
# narrow so that the number of pole-skipped points, and with it the
# verified-point count, barely depends on the seed.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "stack-scan", _stack,
            full={"n_layers": 40, "count": 1500},
            tiny={"n_layers": 5, "count": 40},
        ),
        Workload(
            "lattice-wide", _lattice,
            full={"width": 10, "length": 80, "count": 30,
                  "e_min": -3.5, "e_max": 3.5, "methods": ["direct", "green"]},
            tiny={"width": 3, "length": 8, "count": 6,
                  "e_min": -3.5, "e_max": 3.5, "methods": ["direct", "green"]},
        ),
        Workload(
            "lattice-narrow", _lattice,
            full={"width": 4, "length": 12, "count": 1000,
                  "e_min": -3.9, "e_max": 3.9, "region": _NARROW_REGION,
                  "methods": ["direct", "green", "vderiv"]},
            tiny={"width": 4, "length": 12, "count": 60,
                  "e_min": -3.9, "e_max": 3.9, "region": _NARROW_REGION,
                  "methods": ["direct", "green", "vderiv"]},
        ),
    )
}


def grid_points(doc: dict) -> np.ndarray:
    g = doc["grid"]
    if g["count"] == 1:
        return np.array([float(g["e_min"])])
    return np.linspace(g["e_min"], g["e_max"], g["count"])


def expected_channels(doc: dict, energy: float) -> tuple[bool, list[str]]:
    """(near a threshold, open channel labels in scan.csv order) at one energy.

    Stacks here have zero asymptotic potential on both sides, so both
    channels open at E > 0.  An ideal lead of width W carries transverse
    mode m (eps_m = -2 cos(m pi / (W + 1))) while |E - eps_m| < 2.
    """
    margin = doc["grid"]["threshold_margin"]
    if doc["backend"] == "stack":
        near = abs(energy) <= margin
        return near, (["left", "right"] if energy > 0.0 else [])
    width = doc["system"]["width"]
    eps = [-2.0 * math.cos(m * math.pi / (width + 1)) for m in range(1, width + 1)]
    near = any(abs(energy - e + s) <= margin for e in eps for s in (-2.0, 2.0))
    modes = [m for m, e in enumerate(eps, start=1) if abs(energy - e) < 2.0]
    return near, [f"{lead}:{m}" for lead in ("left", "right") for m in modes]
