"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All tolerances are pinned here, not configurable.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import find_peaks

from dwelldos.analysis import (
    dwell_time_vderiv,
    find_resonances,
    summarize_reports,
    verify_identity,
)
from dwelldos.cli import main
from dwelldos.lattice import open_channels, scattering_matrix
from dwelldos.model import (
    EnergyGrid,
    LatticeRegion,
    build_stack,
    double_barrier,
    free_stack,
    gaussian_spectral_weight,
    palindromic_stack,
    random_lattice,
    random_stack,
    rectangular_barrier,
)
from dwelldos.oracles import BoxSpec, box_dos
from dwelldos.solver1d import (
    ScatterBatch,
    dos_region_1d,
    dwell_time_direct_1d,
    ldos_1d,
    ldos_mode_sum_1d,
    scattering_amplitudes,
)

IDENTITY_TOL_1D = 1e-8
IDENTITY_TOL_LATTICE = 1e-9
SYMMETRY_TOL_TAU = 1e-12
SYMMETRY_TOL_RHO = 1e-10
VDERIV_SLOPE_RANGE = (1.7, 2.3)
VDERIV_ABS_TOL = 1e-5
SPECTRAL_TOL = 1e-10
BOX_REL_TOL = 0.02
RUNTIME_1D = 30.0
RUNTIME_LATTICE = 60.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_central_identity_1d():
    grid = EnergyGrid(0.05, 4.0, 1000)
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(1, 11):
        stack = random_stack(seed, n_layers=5, v_range=(0.0, 2.0), d_range=(0.5, 1.5))
        reports = verify_identity(stack, grid)
        assert all(not r.skipped for r in reports)
        worst = max(worst, max(r.residual_rel for r in reports))
    elapsed = time.monotonic() - t0
    ok = worst < IDENTITY_TOL_1D and elapsed < RUNTIME_1D
    report(
        "criterion 1 (1D identity, 10 stacks x 1000 energies)",
        ok, f"max residual {worst:.3e} < {IDENTITY_TOL_1D}, {elapsed:.1f}s < {RUNTIME_1D}s",
    )
    assert worst < IDENTITY_TOL_1D
    assert elapsed < RUNTIME_1D


def test_criterion_2_symmetric_special_case():
    stacks = [
        rectangular_barrier(1.0, 1.0),
        double_barrier(0.5, 12.0, 2.0),
        palindromic_stack(1),
        palindromic_stack(2),
        palindromic_stack(3),
    ]
    grid = EnergyGrid(0.2, 3.5, 200)
    worst_tau = 0.0
    worst_rho = 0.0
    for stack in stacks:
        assert stack.is_palindromic()
        for rep in verify_identity(stack, grid):
            if rep.skipped:
                continue
            taus = {c.channel: c.tau_direct for c in rep.channels}
            worst_tau = max(worst_tau, abs(taus["left"] - taus["right"]))
            worst_rho = max(
                worst_rho, abs(rep.dos_green * np.pi / taus["left"] - 1.0)
            )
    ok = worst_tau < SYMMETRY_TOL_TAU and worst_rho < SYMMETRY_TOL_RHO
    report(
        "criterion 2 (symmetric 1D special case, 5 palindromic stacks)",
        ok,
        f"max |tau_L - tau_R| {worst_tau:.3e} < {SYMMETRY_TOL_TAU}, "
        f"max |rho*pi/tau - 1| {worst_rho:.3e} < {SYMMETRY_TOL_RHO}",
    )
    assert worst_tau < SYMMETRY_TOL_TAU
    assert worst_rho < SYMMETRY_TOL_RHO


def test_criterion_3_multichannel_identity():
    runs = [
        (1, 12, EnergyGrid(-1.8, 1.8, 120), None),
        (2, 14, EnergyGrid(-2.5, 2.5, 150), LatticeRegion(3, 10, 0, 1)),
        (3, 10, EnergyGrid(-1.5, 1.5, 120), LatticeRegion(2, 7, 1, 2)),
        (5, 20, EnergyGrid(-3.0, 3.0, 200), LatticeRegion(3, 16, 1, 3)),
    ]
    worst_full = 0.0
    worst_sub = 0.0  # Omega strictly inside the device, reported separately
    elapsed_w5 = None
    for width, length, grid, region in runs:
        system = random_lattice(width * 11 + 1, width, length, (-0.5, 0.5))
        for omega in (None, region):
            if width == 1 and omega is not None:
                continue
            t0 = time.monotonic()
            reports = verify_identity(replace(system, region=omega), grid)
            dt = time.monotonic() - t0
            if width == 5 and omega is None:
                elapsed_w5 = dt
            live = [r for r in reports if not r.skipped]
            assert live, "grid must keep usable points"
            peak = max(r.residual_rel for r in live)
            if omega is None:
                worst_full = max(worst_full, peak)
            else:
                worst_sub = max(worst_sub, peak)
    worst = max(worst_full, worst_sub)
    ok = worst < IDENTITY_TOL_LATTICE and elapsed_w5 < RUNTIME_LATTICE
    report(
        "criterion 3 (multichannel identity, W in {1,2,3,5})",
        ok,
        f"max residual: full device {worst_full:.3e}, sub-region {worst_sub:.3e} "
        f"< {IDENTITY_TOL_LATTICE}; W=5 run {elapsed_w5:.1f}s < {RUNTIME_LATTICE}s",
    )
    assert worst < IDENTITY_TOL_LATTICE
    assert elapsed_w5 < RUNTIME_LATTICE


def test_criterion_4_vderiv_route():
    # barrier fixture away from any resonance
    barrier = rectangular_barrier(1.0, 1.0)
    e_b = 0.5
    tau_ref = dwell_time_direct_1d(barrier, e_b)
    errs = [abs(dwell_time_vderiv(barrier, e_b, "left", dv=dv) - tau_ref)
            for dv in (2e-4, 1e-4, 5e-5)]
    slopes_b = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    # lattice fixture
    lattice = random_lattice(11, 2, 6, (-0.5, 0.5))
    e_l = 0.3
    channels = open_channels(lattice, e_l)
    from dwelldos.lattice import dwell_time_lattice

    refs = {c: dwell_time_lattice(lattice, e_l, c) for c in channels}
    errs_l = []
    for dv in (5e-4, 2.5e-4, 1.25e-4):
        taus = {c: dwell_time_vderiv(lattice, e_l, c, dv=dv) for c in channels}
        errs_l.append(max(abs(taus[k] - refs[k]) for k in refs))
    slopes_l = [float(np.log2(errs_l[i] / errs_l[i + 1])) for i in range(2)]

    gap_b = abs(dwell_time_vderiv(barrier, e_b, "left", dv=1e-5) - tau_ref)
    gap_l = max(
        abs(dwell_time_vderiv(lattice, e_l, c, dv=1e-5) - refs[c])
        for c in channels
    )
    slopes = slopes_b + slopes_l
    ok = (all(VDERIV_SLOPE_RANGE[0] <= s <= VDERIV_SLOPE_RANGE[1] for s in slopes)
          and gap_b < VDERIV_ABS_TOL and gap_l < VDERIV_ABS_TOL)
    report(
        "criterion 4 (V-derivative dwell times)",
        ok,
        f"Richardson slopes {['%.2f' % s for s in slopes]} in {VDERIV_SLOPE_RANGE}, "
        f"|gap| at dV=1e-5: barrier {gap_b:.2e}, lattice {gap_l:.2e} < {VDERIV_ABS_TOL}",
    )
    for s in slopes:
        assert VDERIV_SLOPE_RANGE[0] <= s <= VDERIV_SLOPE_RANGE[1]
    assert gap_b < VDERIV_ABS_TOL
    assert gap_l < VDERIV_ABS_TOL


def test_criterion_5_spectral_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    while count < 100:
        stack = random_stack(int(rng.integers(1, 2**32)))
        e = float(rng.uniform(0.1, 4.0))
        x = float(rng.uniform(0.0, stack.total_length))
        lhs = ldos_1d(stack, e, x)
        rhs = ldos_mode_sum_1d(stack, e, x)
        worst = max(worst, abs(lhs - rhs))
        count += 1
    ok = worst < SPECTRAL_TOL
    report(
        "criterion 5 (Green's-function spectral identity, 100 samples)",
        ok, f"max |rho_G - sum|phi|^2| = {worst:.3e} < {SPECTRAL_TOL}",
    )
    assert worst < SPECTRAL_TOL


def test_criterion_6_closed_box_oracle():
    length = 402.0
    eta = 3.0 * 2.0 * np.pi * np.sqrt(2.0) / length
    box = BoxSpec(pad_left=200.0, pad_right=200.0, grid_step=0.08, eta=eta)

    free = free_stack(2.0)
    grid_f = EnergyGrid(0.8, 3.0, 10)
    rho_box = box_dos(free, box, grid_f)
    rho_ref = np.array([dos_region_1d(free, float(e)) for e in grid_f.points])
    err_free = float(np.max(np.abs(rho_box - rho_ref) / rho_ref))

    barrier = rectangular_barrier(1.0, 1.0)
    grid_b = EnergyGrid(1.4, 3.0, 9)
    rho_box_b = box_dos(barrier, box, grid_b)
    rho_ref_b = np.array([dos_region_1d(barrier, float(e)) for e in grid_b.points])
    err_barrier = float(np.max(np.abs(rho_box_b - rho_ref_b) / rho_ref_b))

    # double barrier: box DOS peaks vs find_resonances peaks within eta
    dbl = double_barrier(0.5, 12.0, 2.0)
    grid_d = EnergyGrid(0.3, 8.0, 1201)
    box_d = BoxSpec(pad_left=40.0, pad_right=40.0, grid_step=0.04,
                    eta=5.0 * 2.0 * np.pi * np.sqrt(1.4) / 83.0)
    rho_d = box_dos(dbl, box_d, grid_d)
    idx, _ = find_peaks(rho_d, prominence=0.05 * rho_d.max())
    box_peaks = grid_d.points[idx]
    table = find_resonances(verify_identity(dbl, grid_d))
    align = max(
        float(np.min(np.abs(box_peaks - p.energy))) for p in table.dos_peaks
    )
    ok = err_free < BOX_REL_TOL and err_barrier < BOX_REL_TOL and align < box_d.eta
    report(
        "criterion 6 (closed-box oracle)",
        ok,
        f"free {err_free:.4f} / barrier {err_barrier:.4f} < {BOX_REL_TOL}; "
        f"double-barrier peak alignment {align:.3f} < eta {box_d.eta:.3f}",
    )
    assert err_free < BOX_REL_TOL
    assert err_barrier < BOX_REL_TOL
    assert align < box_d.eta


def test_criterion_7_peak_correspondence():
    dbl = double_barrier(0.5, 12.0, 2.0)
    reports = verify_identity(dbl, EnergyGrid(0.3, 8.0, 2001))
    table = find_resonances(reports)
    n_peaks = len(table.dos_peaks)
    unmatched = sum(1 for m in table.matches if not m.matched)
    max_dist = max((m.distance for m in table.matches), default=np.inf)
    ok = n_peaks >= 2 and unmatched == 0 and max_dist <= table.grid_resolution
    report(
        "criterion 7 (DOS/dwell peak correspondence)",
        ok,
        f"{n_peaks} DOS peaks, 0 unmatched required (got {unmatched}), "
        f"max match distance {max_dist:.2e} <= grid step {table.grid_resolution:.2e}",
    )
    assert n_peaks >= 2
    assert unmatched == 0


def test_criterion_8_wavepacket_delta_limit():
    from dwelldos.analysis import wavepacket_dwell_time

    stack = free_stack(2.0)
    e0 = 1.5
    grid = np.linspace(0.5, 3.0, 4001)
    batch = ScatterBatch(stack, grid)
    assert not batch.failed.any()
    taus = batch.dwell_times[0]
    tau0 = dwell_time_direct_1d(stack, e0)
    errors = []
    for sigma in (0.2, 0.1, 0.05, 0.025):
        weights = gaussian_spectral_weight(e0, sigma, 0.6, 2.9, count=2401)
        val = wavepacket_dwell_time(weights, grid, taus)
        errors.append(abs(val - tau0))
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    report(
        "criterion 8 (wave-packet delta limit)",
        monotone,
        "errors " + " > ".join(f"{e:.2e}" for e in errors) + " monotone decreasing",
    )
    assert monotone


def test_criterion_9_infrastructure(tmp_path):
    import io
    import json
    from contextlib import redirect_stdout

    # scan determinism across runs and worker counts
    doc = {
        "backend": "stack",
        "system": {"layers": [{"d": 0.5, "V": 12.0}, {"d": 2.0, "V": 0.0},
                               {"d": 0.5, "V": 12.0}]},
        "grid": {"e_min": 0.3, "e_max": 8.0, "count": 100},
        "workers": 1,
    }
    cfg1 = tmp_path / "c1.json"
    cfg1.write_text(json.dumps(doc))
    doc["workers"] = 4
    cfg4 = tmp_path / "c4.json"
    cfg4.write_text(json.dumps(doc))
    outs = [tmp_path / n for n in ("r1", "r2", "r4")]
    with redirect_stdout(io.StringIO()):
        assert main(["scan", "--config", str(cfg1), "--out", str(outs[0])]) == 0
        assert main(["scan", "--config", str(cfg1), "--out", str(outs[1])]) == 0
        assert main(["scan", "--config", str(cfg4), "--out", str(outs[2])]) == 0
    contents = [(o / "scan.csv").read_bytes() for o in outs]
    deterministic = contents[0] == contents[1] == contents[2]

    # unitarity / reciprocity sweeps at the per-module tolerances
    rng = np.random.default_rng(9)
    worst_1d = 0.0
    for _ in range(40):
        stack = random_stack(int(rng.integers(1, 2**32)))
        e = float(rng.uniform(0.05, 4.0))
        s = scattering_amplitudes(stack, e).smatrices[0]  # both sides open
        worst_1d = max(worst_1d, float(np.max(np.abs(s.conj().T @ s - np.eye(len(s))))))
        worst_1d = max(worst_1d, abs(s[0, 1] - s[1, 0]))
    worst_lat = 0.0
    lattice = random_lattice(7, 3, 10, (-0.5, 0.5))
    for e in (-1.1, -0.4, 0.3, 0.9):
        s, _ = scattering_matrix(lattice, e)
        n = len(s)
        worst_lat = max(worst_lat, float(np.max(np.abs(s.conj().T @ s - np.eye(n)))))
        worst_lat = max(worst_lat, float(np.max(np.abs(s - s.T))))
    ok = deterministic and worst_1d < 1e-12 and worst_lat < 1e-10
    report(
        "criterion 9 (infrastructure)",
        ok,
        f"scan byte-identical across runs/workers: {deterministic}; "
        f"1D unitarity/reciprocity {worst_1d:.2e} < 1e-12; "
        f"lattice {worst_lat:.2e} < 1e-10",
    )
    assert deterministic
    assert worst_1d < 1e-12
    assert worst_lat < 1e-10
