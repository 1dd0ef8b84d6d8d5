import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelldos import analysis, errors, lattice, solver1d
from dwelldos.analysis import (
    Peak,
    ReportTable,
    compute_report,
    dwell_time_vderiv,
    dwell_times_vderiv_all,
    find_resonances,
    shifted_smatrix,
    summarize_reports,
    verify_identity,
    wavepacket_dwell_time,
)
from dwelldos.errors import (
    ClosedChannelError,
    CoverageError,
    DwellDosError,
    InsufficientDataError,
    NumericalFailureError,
    StepTooLargeError,
    ValidationError,
)
from dwelldos.cli import compute_reports, load_config
from dwelldos.lattice import dwell_time_lattice, open_channels, scattering_state
from dwelldos.model import (
    THRESHOLD_MARGIN,
    EnergyGrid,
    LatticeRegion,
    LatticeSystem,
    SpectralWeight,
    barrier_lattice,
    build_stack,
    channel_thresholds,
    double_barrier,
    gaussian_spectral_weight,
    palindromic_stack,
    random_lattice,
    random_stack,
    uniform_lattice,
)
from dwelldos.solver1d import dos_region_1d, dwell_time_direct_1d, scattering_amplitudes


# ------------------------------------------------------------ shifted S matrix

def test_zero_shift_is_identity_operation(barrier):
    s0, labels = shifted_smatrix(barrier, 0.5, 0.0)
    ref = scattering_amplitudes(barrier, 0.5).smatrices[0]  # both sides open
    assert labels == ["left", "right"]
    assert np.max(np.abs(s0 - ref)) < 1e-14


def test_uniform_shift_phase_on_free_stack(free2):
    # for a uniform shift V on [0, L]: arg t(V) - arg t(0) = (sqrt(E-V) - sqrt(E)) L
    e, v = 1.0, 1e-5
    s_v, _ = shifted_smatrix(free2, e, v)
    s_0, _ = shifted_smatrix(free2, e, 0.0)
    dphi = np.angle(s_v[1, 0] * np.conj(s_0[1, 0]))
    exact = (np.sqrt(e - v) - np.sqrt(e)) * 2.0
    assert abs(dphi - exact) < 1e-10


def test_shifted_smatrix_stays_unitary(stack42):
    for v in (-0.05, 0.02, 0.1):
        s, _ = shifted_smatrix(stack42, 1.1, v)
        assert np.max(np.abs(s.conj().T @ s - np.eye(len(s)))) < 1e-12


# ------------------------------------------------------------------ V-derivative

def test_vderiv_solves_each_shift_once(stack42, tree_solves):
    dwell_times_vderiv_all(stack42, 1.1, dv=1e-5)  # fixed step: no halving
    assert tree_solves == [1, 2]  # S(0); then S(+dv) and S(-dv) in one batch


def test_vderiv_free_stack_ballistic(free2):
    tau = dwell_time_vderiv(free2, 1.0, "left", dv=1e-4)
    assert abs(tau - 1.0) < 1e-7


def test_vderiv_second_order_in_dv(barrier):
    # halving dv reduces the direct-method gap by ~4x
    ref = dwell_time_direct_1d(barrier, 0.5, "left")
    errs = [abs(dwell_time_vderiv(barrier, 0.5, "left", dv=dv) - ref)
            for dv in (2e-4, 1e-4, 5e-5)]
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert 1.7 <= s <= 2.3


def test_vderiv_lattice_matches_direct():
    sysm = random_lattice(11, 2, 6, (-0.5, 0.5))
    e = 0.3
    taus = dwell_times_vderiv_all(sysm, e, dv=1e-5)
    for ch in open_channels(sysm, e):
        ref = dwell_time_lattice(sysm, e, ch)
        assert abs(taus[ch] - ref) < 1e-5


@pytest.mark.parametrize("backend", ["stack", "lattice"])
def test_vderiv_values_are_floats(backend, barrier, lattice3x10):
    # like tau_direct, never numpy scalars
    system, energy = (barrier, 1.5) if backend == "stack" else (lattice3x10, 0.3)
    channel = "left" if backend == "stack" else "left:1"
    values = [dwell_time_vderiv(system, energy, channel)]
    values += dwell_times_vderiv_all(system, energy).values()
    report = compute_report(system, energy, methods=("direct", "vderiv"))
    values += [c.tau_vderiv for c in report.channels] + [c.tau_direct for c in report.channels]
    assert len(values) >= 5 and all(type(v) is float for v in values)


def test_vderiv_step_too_large_raises(dbarrier):
    # on a sharp resonance the S phases rotate fast with V
    with pytest.raises(StepTooLargeError) as raised:
        dwell_time_vderiv(dbarrier, 1.4352, "left", dv=0.05)
    assert str(raised.value) == "phase step exceeds pi/2 for 2 S elements at dv = 0.05"


def test_vderiv_auto_halving_recovers(dbarrier):
    e = 1.4352  # essentially at the sharp resonance center
    ref = dwell_time_direct_1d(dbarrier, e, "left")
    tau_default = dwell_time_vderiv(dbarrier, e, "left")
    assert abs(tau_default - ref) / ref < 1e-5


def test_vderiv_subregion_matches_direct():
    # perturbing only a sub-rectangle measures the time spent there
    sysm = replace(random_lattice(11, 2, 6, (-0.5, 0.5)), region=LatticeRegion(1, 4, 0, 1))
    e = 0.3
    for ch in open_channels(sysm, e):
        ref = dwell_time_lattice(sysm, e, ch)
        tau = dwell_time_vderiv(sysm, e, ch, dv=1e-5)
        assert abs(tau - ref) < 1e-5


def test_vderiv_reads_only_open_channel_entries():
    # E = 0.4 is below v_right, so the right channel is closed: whatever
    # its row and column of the S stacks hold must change nothing
    stack = build_stack([(1.0, 1.0)], v_right=0.6)
    _, opened, _, s = analysis._solve(stack, [0.4] * 3, [0.0, 1e-5, -1e-5], ("vderiv",))
    dv = np.array([1e-5])
    ref, _ = analysis._vderiv_from_matrices(s[:1], s[1:2], s[2:], opened[:, :1], dv)
    junk = s.copy()
    junk[:, 1, :], junk[:, :, 1] = np.nan, 5.0
    taus, errors = analysis._vderiv_from_matrices(junk[:1], junk[1:2], junk[2:], opened[:, :1], dv)
    assert errors == [None] and taus[0, 0] == ref[0, 0] and taus[0, 1] == 0.0


@pytest.mark.parametrize("system, energy, expected, message", [
    (build_stack([(1.0, 1.0)], v_left=0.75), 0.75, "ThresholdProximityError",
     "E = 0.75 within 1e-06 of channel threshold {t}"),
    (build_stack([(1.0, 1.0)], v_left=0.75), -0.5, "NoOpenChannelError",
     "no open lead channel at E = -0.5"),
    (random_lattice(3, 2, 5), -1.0, "ThresholdProximityError",
     "E = -1.0 within 1e-06 of channel threshold {t}"),
    (random_lattice(3, 2, 5), -3.5, "NoOpenChannelError", "no open lead channel at E = -3.5"),
], ids=["stack-threshold", "stack-below", "lattice-threshold", "lattice-below"])
def test_single_energy_vderiv_raises_the_s0_skip(system, energy, expected, message):
    # at a threshold and below every channel S(0) has no solve; the
    # single-energy calls raise the error that compute_report skips with;
    # a threshold is named as channel_thresholds computes it
    t = min(channel_thresholds(system), key=lambda t: abs(t - energy))
    rep = compute_report(system, energy, methods=("vderiv",))
    assert rep.skipped and rep.skip_reason == f"{expected}: {message.format(t=t)}"
    cls = getattr(errors, expected)
    for call in (lambda: shifted_smatrix(system, energy, 0.0),
                 lambda: dwell_times_vderiv_all(system, energy, dv=1e-5),
                 lambda: dwell_times_vderiv_all(system, energy)):
        with pytest.raises(cls) as raised:
            call()
        assert type(raised.value) is cls


@pytest.mark.parametrize("system, energy", [
    (double_barrier(0.5, 12.0, 2.0), 1.4352), (random_lattice(11, 2, 6), 0.3),
], ids=["halving", "lattice"])
def test_single_energy_vderiv_is_the_report_row(system, energy):
    # both single-energy functions read the one-row table of compute_report,
    # bit for bit; the double barrier's default step halves at 1.4352
    rep = compute_report(system, energy, methods=("vderiv",))
    taus = {c.channel: c.tau_vderiv for c in rep.channels}
    assert len(taus) >= 2
    assert dwell_times_vderiv_all(system, energy) == taus
    assert {ch: dwell_time_vderiv(system, energy, ch) for ch in taus} == taus


def test_single_energy_vderiv_raises_the_step_error_before_a_closed_channel():
    # E = 1.4 is below v_right = 3, so "right" is closed, and dv = 0.05 is
    # too large a step there: the energy's own error comes first, as
    # model.channel_index states for every single-energy route
    stack = build_stack([(0.5, 12.0), (2.0, 0.0), (0.5, 12.0)], v_right=3.0)
    with pytest.raises(StepTooLargeError):
        dwell_time_vderiv(stack, 1.4, "right", dv=0.05)


_ROUTES = {
    "stack": {"direct": dwell_time_direct_1d, "vderiv": dwell_time_vderiv},
    "lattice": {"direct": dwell_time_lattice, "state": scattering_state,
                "vderiv": dwell_time_vderiv},
}


@pytest.mark.parametrize("backend,route", [(b, r) for b in _ROUTES for r in _ROUTES[b]])
def test_closed_channel_rule_on_every_route(backend, route):
    # a channel the system has but the energy closes is ClosedChannelError,
    # a label the system does not have is ValidationError, on every route
    system, energy, closed, opened, unknown = (
        (build_stack([(1.0, 0.5)], v_right=2.0), 1.0, "right", "left", "left:1")
        if backend == "stack" else (uniform_lattice(3, 4), -1.8, "left:3", "left:1", "left:4"))
    call = _ROUTES[backend][route]
    with pytest.raises(ClosedChannelError, match=f"channel '{closed}' closed at E = {energy}"):
        call(system, energy, closed)
    with pytest.raises(ValidationError, match=f"channel '{unknown}' not open"):
        call(system, energy, unknown)
    call(system, energy, opened)


def test_vderiv_unknown_channel(barrier):
    with pytest.raises(ValidationError):
        dwell_time_vderiv(barrier, 0.5, "up")


@pytest.mark.parametrize("dv, rule", [
    pytest.param(0.0, "finite and > 0", id="0.0"),
    pytest.param(np.nan, "finite and > 0", id="nan"),
    pytest.param(np.inf, "finite and > 0", id="inf"),
    pytest.param(-1e-5, "finite and > 0", id="-1e-05"),
    # a bool, a string, an array or an integer past float range is no number
    pytest.param(True, "a number", id="True"),
    pytest.param(np.array([1e-5, 1e-5]), "a number", id="array"),
    pytest.param("1e-5", "a number", id="string"),
    pytest.param(10**400, "a number, got an integer of 1329 bits", id="10**400"),
])
def test_vderiv_step_must_be_finite_and_positive(barrier, dv, rule):
    # refused by name before any shifted solve, never a NaN or a misnamed skip
    with pytest.raises(ValidationError, match=f"dv must be {rule}"):
        dwell_time_vderiv(barrier, 1.5, "left", dv=dv)
    with pytest.raises(ValidationError, match=f"dv must be {rule}"):
        verify_identity(barrier, EnergyGrid(1.0, 2.0, 3), methods=("direct", "vderiv"), dv=dv)


# ------------------------------------------------------------------ wave packet

def test_wavepacket_delta_limit(free2):
    sw = SpectralWeight(np.array([1.5]), np.array([1.0]))
    taus_e = np.linspace(1.0, 2.0, 11)
    taus = 1.0 / np.sqrt(taus_e)
    assert abs(wavepacket_dwell_time(sw, taus_e, taus) - 1.0 / np.sqrt(1.5)) < 1e-12


def test_wavepacket_uniform_window(free2):
    e = np.linspace(1.0, 2.0, 2001)
    w = np.ones_like(e)
    sw = SpectralWeight(e, w / np.trapezoid(w, e))
    batch = solver1d.ScatterBatch(free2, e)
    assert not batch.failed.any()
    val = wavepacket_dwell_time(sw, e, batch.dwell_times[0])
    # hand integral of L / (2 sqrt(E)) over [1, 2]
    assert abs(val - 2.0 * (np.sqrt(2.0) - 1.0)) < 1e-6


def test_wavepacket_between_extremes(barrier):
    e = np.linspace(0.4, 0.9, 301)
    sw = gaussian_spectral_weight(0.6, 0.05, 0.4, 0.9, 301)
    taus = np.array([dwell_time_direct_1d(barrier, float(x)) for x in e])
    val = wavepacket_dwell_time(sw, e, taus)
    assert taus.min() <= val <= taus.max()


def test_wavepacket_coverage_error():
    sw = SpectralWeight(np.array([0.5, 1.0, 1.5]), np.array([0.0, 2.0, 0.0]))
    with pytest.raises(CoverageError):
        wavepacket_dwell_time(sw, np.array([0.8, 1.2]), np.array([1.0, 1.0]))


# -------------------------------------------------------------- verify identity

def test_verify_identity_free_stack(free2):
    reports = verify_identity(free2, EnergyGrid(0.5, 3.0, 40))
    for rep in reports:
        assert not rep.skipped
        assert rep.residual_rel <= 1e-12


def test_verify_identity_random_stack(stack42):
    reports = verify_identity(stack42, EnergyGrid(0.05, 4.0, 300))
    summary = summarize_reports(reports, stack42)
    assert summary["skipped"] == 0
    assert summary["max_residual_rel"] < 1e-8
    assert summary["palindromic"] is False
    for rep in reports:
        assert rep.dos_green > 0.0 and rep.dos_sum > 0.0
        # residual is recomputable from the stored fields exactly
        recomputed = abs(rep.dos_green - rep.dos_sum) / max(rep.dos_green, 1e-30)
        assert rep.residual_rel == recomputed


def test_verify_identity_symmetric_barrier(barrier):
    reports = verify_identity(barrier, EnergyGrid(0.3, 2.5, 60))
    summary = summarize_reports(reports, barrier)
    assert summary["palindromic"] is True
    # rho_Omega * pi / tau = 1 for the symmetric two-channel case
    for rep in reports:
        tau_left = rep.channels[0].tau_direct
        assert abs(rep.dos_green * np.pi / tau_left - 1.0) < 1e-10
    assert summary["symmetric_max_dev"] < 1e-10


def test_verify_identity_symmetric_lattice():
    # a palindromic strip has equal dwell times in the mirror channels
    # left:m and right:m
    system = barrier_lattice(3, 8, [2, 5], 0.8)
    reports = verify_identity(system, EnergyGrid(-2.9, 2.9, 23))
    assert any(len(r.channels) == 6 for r in reports)
    summary = summarize_reports(reports, system)
    assert summary["palindromic"] is True
    assert summary["symmetric_max_dev"] < 1e-10


@pytest.mark.parametrize("first", [0, 1], ids=["nan-second", "nan-first"])
def test_symmetric_check_keeps_a_nan_deviation(first):
    # a NaN mirror deviation makes the maximum NaN wherever it comes, as a
    # NaN residual does; Python's max kept it only in first place
    stack = palindromic_stack(3, n_half=2)
    table = verify_identity(stack, EnergyGrid(1.0, 2.0, 2))
    bad = 0 if first else 1
    table.tau_direct[table.labels.index("right"), bad] = np.nan
    table.dos_sum[bad] = table.residual_rel[bad] = np.nan  # as the channel sum makes them
    assert not table.skipped.any()
    summary = summarize_reports(table, stack)
    assert math.isnan(summary["symmetric_max_dev"])
    assert math.isnan(summary["max_residual_rel"])


def test_symmetric_max_dev_reads_points_that_fail_the_identity(dbarrier):
    # symmetric_max_dev reads every point not skipped whose left-lead sum is
    # positive, and every mirror pair open on both sides, verified or not:
    # its largest deviation, 0.5 at E = 2, is at the point whose residual
    # (1.0) is above any tolerance.  E = 4 has a left sum of 0 and E = 5 is
    # skipped; neither is read (E = 5's mirror pair would give 4.0)
    tau = np.array([[1.0, 1.0, 1.0, 0.0, 5.0, 1.0], [1.0, 1.0, 1.25, 0.0, 1.0, 1.0]])
    green = np.array([2.0, 1.0, 2.25, 0.0, 6.0, 2.0]) / (2.0 * np.pi)
    dos_sum = tau.sum(axis=0) / (2.0 * np.pi)
    errors = [None] * 4 + [NumericalFailureError("solve failed"), None]
    table = ReportTable(np.arange(1.0, 7.0), ("left", "right"), np.ones((2, 6), dtype=bool),
                        errors, tau_direct=tau, dos_green=green, dos_sum=dos_sum,
                        residual_rel=np.abs(green - dos_sum) / np.maximum(green, 1e-30))
    summary = summarize_reports(table, dbarrier)
    assert summary["worst"][0] == (2.0, 1.0)
    assert summary["symmetric_max_dev"] == pytest.approx(0.5, abs=1e-15)


def test_report_table_rows_follow_their_columns(free2):
    # a row read before a column is written or replaced reads the new
    # value after it, as summarize_reports does
    table = verify_identity(free2, EnergyGrid(0.5, 2.0, 2))
    assert table[1].residual_rel == 0.0
    table.residual_rel[1] = np.nan
    assert math.isnan(table[1].residual_rel)
    assert math.isnan(summarize_reports(table)["max_residual_rel"])
    table.residual_rel = np.array([0.0, 0.5])
    assert table[1].residual_rel == summarize_reports(table)["max_residual_rel"] == 0.5


@pytest.mark.parametrize("region, palindromic", [
    (None, True), (LatticeRegion(2, 5, 0, 1), True), (LatticeRegion(0, 3, 0, 2), False),
], ids=["whole-device", "mirror-region", "one-sided-region"])
def test_symmetric_check_needs_a_mirror_omega(region, palindromic):
    # mirror channels of a one-sided Omega have unequal dwell times (up to
    # 4.9 apart here), which the symmetric check must not read as a broken
    # symmetry
    system = replace(barrier_lattice(3, 8, [2, 5], 1.5), region=region)
    assert system.is_palindromic() is palindromic
    summary = summarize_reports(verify_identity(system, EnergyGrid(-1.5, 1.5, 7)), system)
    assert summary["palindromic"] is palindromic
    if palindromic:
        assert summary["symmetric_max_dev"] < 1e-10
    else:
        assert "symmetric_max_dev" not in summary


@pytest.mark.parametrize("region", [None, LatticeRegion(2, 5, 0, 1)],
                         ids=["whole-device", "mirror-region"])
def test_symmetric_check_reads_the_green_route_on_a_lattice(monkeypatch, region):
    # the mirror pairs compare direct dwell times only; rho pi against the
    # left lead's dwell-time sum catches a fault in the Green route (1.0e-6)
    compute = lattice._LatticeWorkspace.region_dos.func
    monkeypatch.setattr(lattice._LatticeWorkspace, "region_dos",
                        property(lambda batch: compute(batch) * (1 + 1e-6)))
    system = replace(barrier_lattice(3, 8, [2, 5], 1.5), region=region)
    summary = summarize_reports(verify_identity(system, EnergyGrid(-1.5, 1.5, 7)), system)
    assert summary["symmetric_max_dev"] >= 5e-7


def test_verify_identity_reports_skips():
    stack = build_stack([(1.0, 1.0)], v_left=0.0, v_right=0.6)
    grid = EnergyGrid(0.0, 1.2, 13)  # hits E = 0.0 and E = 0.6 exactly
    reports = verify_identity(stack, grid)
    skipped = [r for r in reports if r.skipped]
    assert {r.energy for r in skipped} >= {0.0, 0.6}
    live = [r for r in reports if not r.skipped]
    assert all(r.residual_rel < 1e-9 for r in live)
    # points between the thresholds carry a single open channel
    one_sided = [r for r in live if 0.0 < r.energy < 0.6]
    assert one_sided and all(len(r.channels) == 1 for r in one_sided)


def test_threshold_points_are_skipped_by_the_solvers():
    # E = 0.75 is v_left of the stack; E = -1 is the band edge eps_1 + 2
    # of a two-row lattice (eps_1 = -1), so neither point is solved
    stack = build_stack([(1.0, 1.0)], v_left=0.75)
    lattice_ = random_lattice(3, 2, 5)
    for system, grid, edge in ((stack, EnergyGrid(0.25, 1.25, 5), 0.75),
                               (lattice_, EnergyGrid(-1.5, -0.5, 5), -1.0)):
        reports = verify_identity(system, grid, methods=("direct", "green", "vderiv"))
        skipped = [r for r in reports if r.skipped]
        assert [r.energy for r in skipped] == [edge]
        assert skipped[0].skip_reason.startswith("ThresholdProximityError")
        assert summarize_reports(reports)["skip_reasons"] == {"ThresholdProximityError": 1}


@pytest.mark.parametrize("factor, skipped", [(-0.5, True), (0.5, True), (-2.0, False),
                                             (2.0, False)])
@pytest.mark.parametrize("system, edge", [(build_stack([(1.0, 1.0)], v_left=0.75), 0.75),
                                          (random_lattice(3, 2, 5), -1.0)])
def test_threshold_margin_is_the_model_constant(system, edge, factor, skipped):
    # a stack threshold v_left and a lattice band edge eps_2 - 2, each
    # approached from both sides inside and outside THRESHOLD_MARGIN
    (edge,) = [t for t in channel_thresholds(system) if abs(t - edge) < 1e-12]
    rep = compute_report(system, edge + factor * THRESHOLD_MARGIN)
    assert rep.skipped == skipped
    if skipped:
        assert rep.skip_reason.startswith("ThresholdProximityError")


@pytest.mark.parametrize("system", [build_stack([(1.0, 1.0)], v_left=0.75),
                                    random_lattice(3, 2, 5)])
def test_admissible_mask_marks_the_threshold_skips(system):
    # the tracer-only mask must refuse exactly the points the solvers do
    thresholds = channel_thresholds(system)
    for t in thresholds:
        grid = EnergyGrid(t - 2.0 * THRESHOLD_MARGIN, t + 2.0 * THRESHOLD_MARGIN, 17)
        reports = verify_identity(system, grid, methods=("direct",))
        refused = [r.skipped and r.skip_reason.startswith("ThresholdProximityError")
                   for r in reports]
        assert 0 < sum(refused) < len(refused)
        np.testing.assert_array_equal(grid.admissible_mask(thresholds), np.logical_not(refused))


# two neighbouring flat layers: the junction between them has no k of its
# own and takes that of the evanescent layer to their right
_ADJACENT_FLAT = [(1.0, 1.0), (0.5, 1.0), (0.7, 3.0)]


@pytest.mark.parametrize("layers, offset", [
    pytest.param([(1.0, 1.0)], 1e-14, id="1e-14"),
    pytest.param([(1.0, 1.0)], -1e-14, id="-1e-14"),
    pytest.param([(1.0, 1.0)], -1.1e-16, id="-1.1e-16"),
    pytest.param(_ADJACENT_FLAT, 1e-14, id="adjacent-1e-14"),
    pytest.param(_ADJACENT_FLAT, -1e-14, id="adjacent--1e-14"),
])
def test_grazing_energy_uses_flat_basis(layers, offset):
    # |k| d <= 1e-4 is solved in the exact k = 0 basis {1, u}
    stack = build_stack(layers)
    k_layers = scattering_amplitudes(stack, 1.0 + offset).k_layers[0]
    assert all(k_layers[j] == 0.0 for j, (_, v) in enumerate(layers) if v == 1.0)
    rep = compute_report(stack, 1.0 + offset)
    assert not rep.skipped
    assert rep.residual_rel < 1e-9


def test_near_grazing_energy_verifies():
    rep = compute_report(build_stack([(1.0, 1.0)]), 1.0 - 1e-10)
    assert rep.residual_rel < 1e-9


def test_tiny_transmission_is_not_a_pole():
    # |t| = 5.5e-305: tiny, but G+ has no pole with an open channel
    rep = compute_report(build_stack([(100.0, 50.0)]), 1.0)
    assert not rep.skipped and rep.residual_rel < 1e-8


@pytest.mark.parametrize("thickness", [103.0, 120.0])  # W subnormal; W = 0
def test_underflowing_wronskian_is_numerical_failure(thickness):
    stack = build_stack([(thickness, 50.0)])
    rep = compute_report(stack, 1.0)
    assert rep.skipped
    w = scattering_amplitudes(stack, 1.0).wronskian[0]
    assert (w == 0.0) == (thickness == 120.0)
    assert rep.skip_reason == (f"NumericalFailureError: Wronskian {w} at E = 1.0: the outgoing "
                               "amplitude of the left-outgoing solution underflowed")
    with pytest.raises(NumericalFailureError):
        solver1d.greens_function_1d(stack, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("system", [build_stack([(1.0, 1.0)]), random_lattice(3, 3, 6)],
                         ids=["stack", "lattice"])
def test_non_finite_energy_is_a_failed_skip(system, energy):
    # a failure, not a point with nothing to check; tier-1 turns any
    # RuntimeWarning the solve lets escape into an error
    for methods in (("direct", "green"), ("vderiv",)):
        rep = compute_report(system, energy, methods=methods)
        assert rep.skipped
        assert rep.skip_reason == f"NumericalFailureError: non-finite energy E = {energy}"
        assert rep.skip_reason.split(":")[0] not in analysis.EXPECTED_SKIPS


def test_verify_identity_below_all_thresholds():
    stack = build_stack([(1.0, 0.0)], v_left=5.0, v_right=5.0)
    reports = verify_identity(stack, EnergyGrid(0.5, 2.0, 5))
    assert all(r.skipped for r in reports)
    assert all("NoOpenChannel" in r.skip_reason for r in reports)


def test_verify_identity_method_subsets(barrier):
    reports = verify_identity(barrier, EnergyGrid(0.4, 0.8, 3), methods=("direct",))
    for rep in reports:
        assert rep.dos_green is None and rep.residual_rel is None
        assert rep.dos_sum is not None
    with pytest.raises(ValidationError):
        verify_identity(barrier, EnergyGrid(0.4, 0.8, 3), methods=("bogus",))
    with pytest.raises(ValidationError):
        verify_identity(barrier, EnergyGrid(0.4, 0.8, 3), methods=())


@pytest.mark.parametrize("backend", ["stack", "lattice"])
@pytest.mark.parametrize("methods", [("bogus",), (), ("direct", "bogus")],
                         ids=["unknown", "empty", "one-unknown"])
def test_compute_report_refuses_bad_methods(backend, methods, dbarrier, chain4):
    system = dbarrier if backend == "stack" else chain4
    with pytest.raises(ValidationError):
        compute_report(system, 1.5, methods=methods)


def test_verify_identity_with_vderiv(barrier):
    reports = verify_identity(
        barrier, EnergyGrid(0.4, 0.8, 5), methods=("direct", "green", "vderiv")
    )
    for rep in reports:
        for ch in rep.channels:
            assert ch.tau_vderiv is not None
            assert abs(ch.tau_vderiv - ch.tau_direct) < 1e-6


def _chunk(monkeypatch, system, per_chunk):
    """Size _batches' chunks to per_chunk energies of `system`, from the
    bytes per energy that its batch class states."""
    lattice_system = isinstance(system, LatticeSystem)
    batch = lattice._LatticeWorkspace if lattice_system else solver1d.ScatterBatch
    monkeypatch.setattr(analysis, "_BATCH_BYTES", per_chunk * batch.bytes_per_energy(system))


# Chunking is a memory decision only: every grid report equals (==) the
# report of its energy alone, whatever the chunk and grid sizes.

@pytest.mark.parametrize("per_chunk, v_left", [(1, 0.0), (7, 0.0), (None, 0.0), (7, 20.0)],
                         ids=["1", "7", "None", "one-sided-7"])
def test_grid_chunks_match_single_energy_reports(per_chunk, v_left, monkeypatch):
    # E = 1: the d = 103 barrier underflows W (NumericalFailureError);
    # E = 56: exact k = 0 in the middle layer; the rest are ordinary.
    # With v_left = 20 the energies below 20 have the right channel only,
    # so the first chunk mixes 1x1 and 2x2 S matrices.
    stack = build_stack([(103.0, 50.0), (1.0, 56.0), (0.7, 3.0)], v_left=v_left)
    if per_chunk is not None:
        _chunk(monkeypatch, stack, per_chunk)
    grid = EnergyGrid(1.0, 61.0, 13)
    methods = ("direct", "green", "vderiv")
    reports = verify_identity(stack, grid, methods=methods)
    assert reports[0].skip_reason.startswith("NumericalFailureError")
    assert scattering_amplitudes(stack, 56.0).k_layers[0, 1] == 0.0
    assert sum(not r.skipped for r in reports) == 12
    assert {len(r.channels) for r in reports if not r.skipped} == ({1, 2} if v_left else {2})
    for rep in reports:
        assert rep == compute_report(stack, rep.energy, methods=methods)


@pytest.mark.parametrize("n_layers", [1, 3, 7, 31])
def test_stack_reports_do_not_depend_on_temporary_elision(n_layers, monkeypatch):
    # numpy evaluates x * y as y * x in a temporary y of 256 KiB or more.
    # Chunks of 2T energies and a last one of T put the (n + 1, E) arrays
    # at twice and at exactly 256 KiB, and the (E, n) arrays (and, with one
    # layer, the (E,) arrays) at 256 KiB or more; at least 4096 energies put
    # the V-derivative's (E, 2, 2) S stacks there too.
    stack = random_stack(5, n_layers=n_layers, v_range=(0.0, 6.0), d_range=(0.3, 1.0))
    t = 2**18 // (16 * (n_layers + 1))
    count = 2 * t * -(-4096 // (2 * t)) + t
    _chunk(monkeypatch, stack, 2 * t)
    methods = ("direct", "green", "vderiv")
    reports = verify_identity(stack, EnergyGrid(0.05, 12.0, count), methods=methods)
    edges = [i + j for i in range(0, count, 2 * t) for j in (-1, 0)]
    for i in sorted(set(edges[1:] + list(range(0, count, count // 61)))):
        assert reports[i] == compute_report(stack, reports[i].energy, methods=methods)


@pytest.mark.parametrize("per_chunk", [1, 3, None], ids=["1", "3", "all"])
def test_lattice_grid_chunks_match_single_energy_reports(per_chunk, monkeypatch):
    # W = 3 lead bands [-2 - sqrt 2, 2 - sqrt 2], [-2, 2], [sqrt 2 - 2,
    # 2 + sqrt 2]: E = -4 and -3.5 have no open channel, E = -2 and 2 sit
    # on band edges, and the other energies have 1, 2 or 3 open modes and
    # closed ones beside them
    system = random_lattice(3, 3, 6)
    grid = EnergyGrid(-4.0, 2.0, 13)
    _chunk(monkeypatch, system, per_chunk or grid.count)
    methods = ("direct", "green", "vderiv")
    reports = verify_identity(system, grid, methods=methods)
    assert summarize_reports(reports)["skip_reasons"] == {
        "NoOpenChannelError": 2, "ThresholdProximityError": 2}
    assert {len(r.channels) for r in reports if not r.skipped} == {2, 4, 6}
    for rep in reports:
        assert rep == compute_report(system, rep.energy, methods=methods)


def test_wide_strip_reports_do_not_depend_on_chunks(monkeypatch):
    # the 10 x 80 strip of lattice-wide at 1, 4 and its own 16 energies per chunk
    system, energies = _benchmark_system("lattice")
    methods = ("direct", "green", "vderiv")
    reference = [compute_report(system, e, methods=methods) for e in energies]
    grid = EnergyGrid(energies[0], energies[-1], len(energies))
    assert [float(e) for e in grid.points] == [float(e) for e in energies]
    for per_chunk in (1, 4, None):
        with monkeypatch.context() as patch:
            if per_chunk is not None:
                _chunk(patch, system, per_chunk)
            assert verify_identity(system, grid, methods=methods) == reference


def test_narrow_strip_vderiv_does_not_depend_on_grid_size():
    # lattice-narrow's system and grid: the V-derivative's S stacks of its
    # 1000 energies, (1000, 8, 8), are far above 256 KiB
    system = replace(random_lattice(1, 4, 12),
                     region=LatticeRegion(col_min=3, col_max=8, row_min=0, row_max=3))
    methods = ("direct", "green", "vderiv")
    reports = verify_identity(system, EnergyGrid(-3.9, 3.9, 1000), methods)
    for rep in reports[::16]:
        assert rep == compute_report(system, rep.energy, methods)


def _benchmark_system(backend):
    """The 10 x 80 strip of lattice-wide, the 40-layer stack of stack-scan,
    the 4 x 12 strip of lattice-narrow or a 4 x 2000 strip, with its grid."""
    if backend == "lattice":
        return random_lattice(1, 10, 80), list(np.linspace(-3.5, 3.5, 30))
    if backend == "narrow-lattice":
        return random_lattice(1, 4, 12), list(np.linspace(-3.9, 3.9, 1000))
    if backend == "long-lattice":
        return random_lattice(5, 4, 2000, (-1.0, 1.0)), list(np.linspace(-1.9, 1.9, 60))
    system = random_stack(1, n_layers=40, v_range=(5.5, 6.5), d_range=(0.55, 0.65))
    return system, list(np.linspace(0.3, 16.0, 1500))


def _peak_bytes(run):
    """tracemalloc peak of run(), above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# A chunk's peak, all routes read, is within this factor of _BATCH_BYTES on
# both backends, so each batch class's bytes_per_energy states its peak.
_BUDGET_FACTOR = 1.25


@pytest.mark.parametrize("backend", ["lattice", "stack", "narrow-lattice", "long-lattice"])
def test_chunk_peak_memory(backend):
    # one chunk of each benchmark system and of a long strip, all routes read
    system, energies = _benchmark_system(backend)
    sizes = []

    def first_chunk():
        batch = next(analysis._batches(system, energies, [0.0] * len(energies)))
        sizes.append(batch.energies.size)
        batch.dwell_times, batch.region_dos, batch.smatrices
        for route in ("direct", "green", "vderiv"):
            batch.errors(route)

    peak = _peak_bytes(first_chunk)
    assert sizes[0] < len(energies)  # a full chunk
    assert analysis._BATCH_BYTES / _BUDGET_FACTOR <= peak <= _BUDGET_FACTOR * analysis._BATCH_BYTES


@pytest.mark.parametrize("backend", ["lattice", "stack"])
def test_s_only_round_holds_one_chunk(backend):
    # each chunk's batch is freed before the next is solved, so S matrices
    # over the whole grid (2 and 4 chunks) peak near one chunk's solve
    system, energies = _benchmark_system(backend)
    per_chunk = next(analysis._batches(system, energies, [0.0] * len(energies))).energies.size
    peaks = [_peak_bytes(lambda: analysis._solve(system, grid, [0.0] * len(grid), ("vderiv",)))
             for grid in (energies[:per_chunk], energies)]
    assert len(energies) > 1.5 * per_chunk
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("v_left", [0.0, 20.0])
def test_grid_matches_per_energy_batches(v_left):
    # reference without the grid driver: the single-energy solver calls for
    # the skip, tau_direct and dos_green, and of the shifted stacks for S(+-dv).
    # E = 0 (and 20 with v_left = 20) is a threshold, E = 1..3 underflow W
    # in the d = 103 barrier, E = 51 and 53 sit on resonances too sharp for
    # the step, E = 56 is exact k = 0 in the middle layer
    stack = build_stack([(103.0, 50.0), (1.0, 56.0), (0.7, 3.0)], v_left=v_left)
    dv = 1e-5  # fixed step: no halving
    reports = verify_identity(stack, EnergyGrid(0.0, 60.0, 61),
                              methods=("direct", "green", "vderiv"), dv=dv)
    assert summarize_reports(reports)["skip_reasons"] == {
        "NumericalFailureError": 5, "ThresholdProximityError": 2 if v_left else 1}
    for rep in reports:
        e = rep.energy
        try:
            sol = scattering_amplitudes(stack, e)
            s0, _ = shifted_smatrix(stack, e, 0.0)
            s_plus, s_minus = (shifted_smatrix(stack.shifted(v), e, 0.0)[0] for v in (dv, -dv))
        except DwellDosError as err:
            assert rep.skip_reason == f"{type(err).__name__}: {err}"
            continue
        # tau_n = -sum_m |s_mn|^2 d(arg s_mn)/dV by central difference; the
        # step is unusable when sum_m |s_mn| d|s_mn|/dV (zero by
        # unitarity) exceeds 1e-6
        dphase = np.angle(s_plus * np.conj(s_minus))
        assert np.max(np.abs(dphase)) < 0.5 * np.pi
        tau_vderiv = -np.sum(np.abs(s0) ** 2 * dphase, axis=0) / (2.0 * dv)
        dmag = (np.abs(s_plus) - np.abs(s_minus)) / (2.0 * dv)
        if np.max(np.abs(np.sum(np.abs(s0) * dmag, axis=0))) > 1e-6:
            assert rep.skip_reason == (
                "NumericalFailureError: imaginary residual of the delay matrix diagonal reached "
                f"{np.max(np.abs(np.sum(np.abs(s0) * dmag, axis=0))):.3e} (> 1e-06) at dv = {dv}")
            continue
        sides = [side for side, opened in (("left", sol.open[0, 0]), ("right", sol.open[1, 0]))
                 if opened]
        try:
            taus = [dwell_time_direct_1d(stack, e, side) for side in sides]
            dos = dos_region_1d(stack, e)
        except DwellDosError as err:
            assert rep.skip_reason == f"{type(err).__name__}: {err}"
            continue
        assert not rep.skipped
        assert [c.channel for c in rep.channels] == sides
        pairs = [(rep.dos_green, dos), (rep.dos_sum, np.sum(taus) / (2.0 * np.pi))]
        pairs += [(c.tau_direct, t) for c, t in zip(rep.channels, taus)]
        pairs += [(c.tau_vderiv, t) for c, t in zip(rep.channels, tau_vderiv)]
        for got, want in pairs:
            assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("per_chunk", [None, 20])
def test_grid_judges_each_energy_once(per_chunk, monkeypatch):
    # the d = 103 barrier grid of the test above: one errors(*routes) per
    # batch runs the skip rule once, and the V-derivative rounds solve only
    # the energies that no route failed, so never E = 0 (a threshold) nor
    # E = 1..3 (W underflows on the Green route)
    stack = build_stack([(103.0, 50.0), (1.0, 56.0), (0.7, 3.0)])
    calls, shifted = [], []  # per batch, the size of each energy_errors call
    energy_errors, init = solver1d.energy_errors, solver1d.ScatterBatch.__init__

    def counting_errors(system, energies, *args, **kwargs):
        calls[-1].append(len(energies))
        return energy_errors(system, energies, *args, **kwargs)

    def recording_init(batch, system, energies, v_shift=0.0):
        init(batch, system, energies, v_shift)
        calls.append([])
        shifted.extend(np.asarray(energies)[np.asarray(v_shift) != 0.0].tolist())

    monkeypatch.setattr(solver1d, "energy_errors", counting_errors)
    monkeypatch.setattr(solver1d.ScatterBatch, "__init__", recording_init)
    if per_chunk is not None:
        _chunk(monkeypatch, stack, per_chunk)
    reports = verify_identity(stack, EnergyGrid(0.0, 60.0, 61),
                              methods=("direct", "green", "vderiv"), dv=1e-5)
    assert summarize_reports(reports)["skip_reasons"] == {
        "NumericalFailureError": 5, "ThresholdProximityError": 1}
    report = [[61]] if per_chunk is None else [[20], [20], [20], [1]]
    assert calls[:len(report)] == report
    assert all(len(batch) == 1 for batch in calls)  # the rounds' batches too
    # one round at the fixed step: S(+dv) and S(-dv) of E = 4..60, 114 solves, not 120
    assert sorted(shifted) == sorted([float(e) for e in range(4, 61)] * 2)
    assert reports[0].skip_reason.startswith("ThresholdProximityError: E = 0.0 within")
    for rep in reports[1:4]:  # the Green route's failure, not a V-derivative step's
        assert rep.skip_reason.startswith("NumericalFailureError: Wronskian ")
        assert rep.skip_reason.endswith(f"at E = {rep.energy}: the outgoing amplitude of the "
                                        "left-outgoing solution underflowed")


@pytest.mark.parametrize("method, other_route", [
    ("green", "layer_probability_integral"), ("direct", "_green_layer_integral")])
def test_grid_routes_share_no_integral(stack42, method, other_route, monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"the {method} route called {other_route}")

    monkeypatch.setattr(solver1d, other_route, forbidden)
    reports = verify_identity(stack42, EnergyGrid(0.05, 4.0, 20), methods=(method,))
    assert not any(r.skipped for r in reports)
    for rep in reports:
        assert (rep.dos_green is not None) == (method == "green")
        assert (rep.dos_sum is not None) == (method == "direct")


@pytest.mark.parametrize("per_chunk", [7, None])
def test_grid_probability_integral_runs_per_chunk(stack42, per_chunk, monkeypatch):
    calls = []
    integral = solver1d.layer_probability_integral

    def counting(*args):
        calls.append(1)
        return integral(*args)

    monkeypatch.setattr(solver1d, "layer_probability_integral", counting)
    if per_chunk is not None:
        _chunk(monkeypatch, stack42, per_chunk)
    reports = verify_identity(stack42, EnergyGrid(0.05, 4.0, 50),
                              methods=("direct", "green", "vderiv"))
    assert not any(r.skipped for r in reports)
    chunks = -(-50 // (per_chunk or 50))
    assert 0 < len(calls) <= 2 * chunks


@pytest.fixture
def tree_solves(monkeypatch):
    """Batch size of every 1D star-product tree, in call order."""
    sizes = []
    up_sweep = solver1d._up_sweep

    def counting(s):
        sizes.append(s.shape[2])
        return up_sweep(s)

    monkeypatch.setattr(solver1d, "_up_sweep", counting)
    return sizes


def test_grid_does_three_solves_per_point(stack42, tree_solves):
    grid = EnergyGrid(0.05, 4.0, 50)
    reports = verify_identity(stack42, grid, methods=("direct", "green", "vderiv"), dv=1e-5)
    assert not any(r.skipped for r in reports)
    assert tree_solves == [50, 100]  # S(0); then S(+dv) and S(-dv) in one batch


@pytest.mark.parametrize("backend", ["stack", "lattice"])
def test_report_solves_each_energy_and_shift_once(backend, stack42, tree_solves, monkeypatch):
    # S(0) is the routes' batch; S(+dv) and S(-dv) are one more batch of
    # two energies; a lattice batch reads both leads' modes off one
    # evaluation of the lead dispersion for all its energies
    batches, modes = [], []
    init, lead_modes = lattice._LatticeWorkspace.__init__, lattice._lead_modes

    def counting_init(ws, system, energies, *args):
        batches.append(len(energies))
        init(ws, system, energies, *args)

    def counting_modes(eps, energies):
        modes.append(len(energies))
        return lead_modes(eps, energies)

    monkeypatch.setattr(lattice._LatticeWorkspace, "__init__", counting_init)
    monkeypatch.setattr(lattice, "_lead_modes", counting_modes)
    system = stack42 if backend == "stack" else random_lattice(11, 4, 12, (-0.5, 0.5))
    rep = compute_report(system, 0.3, methods=("direct", "green", "vderiv"), dv=1e-5)
    assert not rep.skipped and all(c.tau_vderiv is not None for c in rep.channels)
    if backend == "stack":
        assert tree_solves == [1, 2]
        assert batches == modes == []
    else:
        assert len(rep.channels) == 8
        assert tree_solves == []
        assert batches == modes == [1, 2]


def test_grid_halving_resolves_only_failed_steps(tree_solves):
    # E = 1.47007 sits on a resonance so sharp that the default step is
    # halved four times before the phases unwrap; E = 2.235 and 3 are not
    sharp = double_barrier(1.0, 12.0, 2.0)
    grid = EnergyGrid(1.4700684803879822, 3.0, 3)
    methods = ("direct", "vderiv")
    reports = verify_identity(sharp, grid, methods=methods)
    assert tree_solves == [3, 6] + [2] * 4  # each halving: S(+) and S(-) of one energy
    for rep in reports:
        assert rep == compute_report(sharp, rep.energy, methods=methods)


def test_grid_halving_pools_retries_of_all_chunks(tree_solves, monkeypatch):
    # resonances at both ends of the grid need 6 and 3 halvings; with 4
    # energies per chunk they sit in different chunks, and the halving
    # rounds solve both together
    wide = double_barrier(1.0, 12.0, 4.0)
    _chunk(monkeypatch, wide, 4)
    grid = EnergyGrid(1.869973, 4.164395, 5)
    methods = ("direct", "vderiv")
    reports = verify_identity(wide, grid, methods=methods)
    assert not any(r.skipped for r in reports)
    # S(0) per chunk; the first S(+/-dv) round; 3 shared rounds; 3 more
    assert tree_solves == [4, 1] + [4, 4, 2] + [4] * 3 + [2] * 3
    for rep in reports:
        assert rep == compute_report(wide, rep.energy, methods=methods)


# ------------------------------------------- a reference the routes do not share
#
# The direct and Green routes of a stack both read the coefficients of one
# star-product tree, so an error in them can cancel in the identity.  Here
# they meet a 30-digit mpmath solve that carries psi and psi' across each
# layer with its exact transfer matrix and integrates every layer with
# mp.quad, where no such error can cancel.

def _reference(stack, energy: float) -> tuple[float, float, float]:
    """(tau_left, tau_right, dos) of a stack between two zero-potential
    leads, at 30 digits from the stack's own double values.

    psi_out_right (outgoing into the right lead) starts as e^{ik(x - L)} at
    x = L and psi_out_left as e^{-ikx} at x = 0; each is carried across
    the layers by psi(u) = psi cos(qu) + psi' u sinc(qu).  Normalized to
    unit incidence they are the left- and right-incident states, and
    G+(x, x) = psi_out_left psi_out_right / W.
    """
    with mp.workdps(30):
        k = mp.sqrt(mp.mpf(energy))
        layers = [(mp.mpf(d), mp.sqrt(mp.mpf(energy) - mp.mpf(v))) for d, v in stack.layers]

        def carry(psi, dpsi, q, u):
            return (psi * mp.cos(q * u) + dpsi * u * mp.sinc(q * u),
                    -psi * q * mp.sin(q * u) + dpsi * mp.cos(q * u))

        def wave(psi, dpsi, q):
            """psi(u) inside a layer, from psi and psi' on its left edge."""
            up, down = (psi + dpsi / (1j * q)) / 2, (psi - dpsi / (1j * q)) / 2
            return lambda u: up * mp.exp(1j * q * u) + down * mp.exp(-1j * q * u)

        def integral(f, d):  # the integrands are smooth: Gauss-Legendre suffices
            return mp.quad(f, [0, d], method="gauss-legendre")

        # (psi, psi') of both states on the left edge of each layer
        out_left = [(mp.mpc(1), -1j * k)]
        for d, q in layers[:-1]:
            out_left.append(carry(*out_left[-1], q, d))
        out_right = [(mp.mpc(1), 1j * k)]
        for d, q in reversed(layers):
            out_right.insert(0, carry(*out_right[0], q, -d))
        psi_l, dpsi_l = carry(*out_left[-1], layers[-1][1], layers[-1][0])  # at x = L
        psi_r, dpsi_r = out_right[0]  # at x = 0
        incident_left = (psi_r + dpsi_r / (1j * k)) / 2
        incident_right = (psi_l - dpsi_l / (1j * k)) / 2
        wronskian = dpsi_r + 1j * k * psi_r

        norm_l = norm_r = green = mp.mpf(0)
        for (d, q), left, right in zip(layers, out_left, out_right):
            wave_l, wave_r = wave(*left, q), wave(*right, q)
            norm_l += integral(lambda u: abs(wave_r(u)) ** 2, d)
            norm_r += integral(lambda u: abs(wave_l(u)) ** 2, d)
            green += integral(lambda u: wave_l(u) * wave_r(u), d)
        velocity = 2 * k
        return (float(norm_l / abs(incident_left) ** 2 / velocity),
                float(norm_r / abs(incident_right) ** 2 / velocity),
                float(-mp.im(green / wronskian) / mp.pi))


def _assert_matches_reference(stack, energy: float) -> None:
    rep = compute_report(stack, energy)
    assert not rep.skipped, rep.skip_reason
    taus = {c.channel: c.tau_direct for c in rep.channels}
    got = (taus["left"], taus["right"], rep.dos_green)
    for name, value, ref in zip(("tau_left", "tau_right", "dos_green"), got,
                                _reference(stack, energy)):
        assert abs(value - ref) <= 1e-10 * abs(ref), (name, value, ref)


# |k| d of a layer: propagating (k real) or evanescent (k = i kappa), kept
# at or above 1e-2, below which the scaled basis loses digits until the
# flat basis takes over at 1e-4
_layer = st.tuples(st.floats(0.1, 3.0), st.floats(1e-2, 20.0), st.booleans())


@settings(derandomize=True, deadline=None, max_examples=30)
@given(energy=st.floats(0.05, 10.0), layers=st.lists(_layer, min_size=1, max_size=6))
def test_routes_match_transfer_matrix_reference(energy, layers):
    stack = build_stack([(d, energy + (kd / d) ** 2 if evanescent else energy - (kd / d) ** 2)
                         for d, kd, evanescent in layers])
    _assert_matches_reference(stack, energy)


@pytest.mark.parametrize("energy", [
    pytest.param(1.0 + 1e-12, id="flat-basis"),  # |k| d = 1e-6, solved with k = 0
    pytest.param(1.0 - 1.0001e-4**2, id="scaled-basis", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "just above |k| d = 1e-4 the scaled basis loses digits: tau_left is 8.5e-9 and "
            "dos_green 4.7e-9 off the reference, and the identity residual 1.3e-8 is above "
            "the default 1e-8 (ROADMAP item 3)"))),
])
def test_near_grazing_layer_matches_reference(energy):
    _assert_matches_reference(build_stack([(1.0, 1.0)]), energy)


# ------------------------------------------------------------------- resonances

def _db_reports(dbarrier, count=2001):
    return verify_identity(dbarrier, EnergyGrid(0.3, 8.0, count))


def test_find_resonances_double_barrier(dbarrier):
    table = find_resonances(_db_reports(dbarrier))
    assert len(table.dos_peaks) >= 2
    assert all(m.matched for m in table.matches)
    for m in table.matches:
        assert m.distance <= table.grid_resolution


def test_find_resonances_monotone_curve(free2):
    reports = verify_identity(free2, EnergyGrid(0.5, 3.0, 60))
    table = find_resonances(reports)
    assert table.dos_peaks == ()
    assert table.matches == ()


def test_find_resonances_dwell_peaks_in_table_order():
    # "ALL", then lead by lead with modes ascending: "left:2" before "left:10"
    system = random_lattice(3, width=10, length=12, v_range=(-1.0, 1.0))
    table = verify_identity(system, EnergyGrid(-3.9, 3.9, 200))
    labels = [f"{lead}:{m}" for lead in ("left", "right") for m in range(1, 11)]
    assert table.labels == tuple(labels)
    assert list(find_resonances(table).dwell_peaks) == ["ALL", *labels]


def test_find_resonances_tie_goes_to_the_earlier_channel():
    # symmetric samples on an integer grid put the DOS peak at 5 and the
    # dwell peaks of left:1 and left:2 at 6 and 4, exactly 1 away; the
    # steep right:1 ramp keeps the channel sum free of peaks
    energies = np.arange(11.0)

    def bump(at):
        return np.maximum(2.0 - np.abs(energies - at), 0.0)

    tau = np.array([bump(6), bump(4), 10.0 * energies])
    n = energies.size
    table = ReportTable(energies, ("left:1", "left:2", "right:1"), np.ones((3, n), dtype=bool),
                        [None] * n, tau_direct=tau, dos_green=bump(5))
    result = find_resonances(table)
    assert [p.energy for p in result.dos_peaks] == [5.0]
    assert {name: [p.energy for p in peaks] for name, peaks in result.dwell_peaks.items()} == {
        "left:1": [6.0], "left:2": [4.0]}
    (match,) = result.matches
    assert (match.channel, match.dwell_peak.energy, match.distance, match.matched) == (
        "left:1", 6.0, 1.0, True)


def test_find_resonances_drops_a_nan_sample():
    # a NaN sample drops out of its curve as a skipped row does: the peaks
    # are those of the curve without it, not every local maximum (a NaN
    # maximum made every prominence pass)
    energies = np.linspace(1.0, 2.0, 10)
    curve = np.array([0.0, 1.0, 0.0, 0.01, 0.0, 5.0, 0.0, 0.02, 0.0, np.nan])
    tau = np.array([curve, 10.0 * energies])  # the steep right ramp has no peak

    def resonances(n):
        return find_resonances(ReportTable(
            energies[:n], ("left", "right"), np.ones((2, n), dtype=bool), [None] * n,
            tau_direct=tau[:, :n], dos_green=curve[:n]), min_prominence=0.05)

    result, clean = resonances(10), resonances(9)
    assert [round(p.energy, 3) for p in result.dos_peaks] == [1.111, 1.556]
    assert result.dos_peaks == clean.dos_peaks
    assert result.dwell_peaks["left"] == clean.dwell_peaks["left"] == result.dos_peaks


def test_report_table_refuses_decreasing_energies(dbarrier):
    # consumers read the rows in table order as the energy order, so a
    # table with its rows reversed is refused; equal energies are kept
    table = _db_reports(dbarrier, count=50)
    columns = {name: getattr(table, name)[..., ::-1] for name in
               ("tau_direct", "dos_green", "dos_sum", "residual_rel")}
    with pytest.raises(ValidationError, match="must not decrease"):
        ReportTable(table.energies[::-1], table.labels, table.open[:, ::-1],
                    table.errors[::-1], **columns)
    tied = ReportTable(np.array([0.5, 0.5, 0.6]), ("left", "right"),
                       np.ones((2, 3), dtype=bool), [None] * 3)
    assert [r.energy for r in tied] == [0.5, 0.5, 0.6]
    # a NaN energy hides the decrease after it from a step compared with < 0
    with pytest.raises(ValidationError, match="must not decrease"):
        ReportTable(np.array([1.0, np.nan, 0.5, 0.7, 0.9]), ("left", "right"),
                    np.ones((2, 5), dtype=bool), [None] * 5)
    # a single NaN energy has no step: its report is a skip
    assert compute_report(dbarrier, np.nan).skip_reason.startswith("NumericalFailureError")


@pytest.mark.parametrize("min_prominence, rule", [
    pytest.param(np.nan, "finite and >= 0", id="nan"),
    pytest.param(np.inf, "finite and >= 0", id="inf"),
    pytest.param(-1.0, "finite and >= 0", id="-1.0"),
    pytest.param("0.1", "a number", id="string"),
    pytest.param(False, "a number", id="False"),
])
def test_find_resonances_refuses_a_bad_prominence(dbarrier, min_prominence, rule):
    # the rule the CLI applies to the config's min_prominence: NaN and a
    # negative value would otherwise act as 0
    with pytest.raises(ValidationError, match=f"min_prominence must be {rule}"):
        find_resonances(_db_reports(dbarrier, count=50), min_prominence=min_prominence)


def test_report_table_keeps_each_skip_error():
    # skipped is derived from errors, a skipped row lists no channel, and
    # summarize_reports counts the errors by class
    errors = [None, NumericalFailureError("solve failed"), None, StepTooLargeError("dv")]
    table = ReportTable(np.arange(4.0), ("left", "right"), np.ones((2, 4), dtype=bool), errors,
                        tau_direct=np.ones((2, 4)))
    assert table.skipped.tolist() == [False, True, False, True]
    assert table.errors == errors and not table.open[:, [1, 3]].any()
    assert table.skip_reasons == [None, "NumericalFailureError: solve failed", None,
                                  "StepTooLargeError: dv"]
    assert [len(r.channels) for r in table] == [2, 0, 2, 0]
    assert table[3].skip_reason == "StepTooLargeError: dv"
    # a table equals its rows as a list, and nothing that is no table or list
    assert table == list(table) and table != 5
    assert summarize_reports(table)["skip_reasons"] == {"NumericalFailureError": 1,
                                                        "StepTooLargeError": 1}


def test_report_table_from_a_list_reads_as_from_the_array(dbarrier):
    # the energies of a table are kept as a float array, so a plain list, as
    # the README's constructor may be given, reads the same rows, summary and
    # resonances
    tau = np.array([[1.0, 3.0, 2.0, 1.0], [1.0, 3.0, 2.0, 1.0]])
    columns = dict(tau_direct=tau, tau_vderiv=tau.copy(), dos_green=tau[0] / np.pi,
                   dos_sum=tau.sum(axis=0) / (2.0 * np.pi), residual_rel=np.zeros(4))
    args = (("left", "right"), np.ones((2, 4), dtype=bool), [None] * 4)
    listed = ReportTable([1.0, 2.0, 3.0, 4.0], *args, **columns)
    array = ReportTable(np.array([1.0, 2.0, 3.0, 4.0]), *args, **columns)
    assert listed.energies.dtype == np.float64 and list(listed)[0].energy == 1.0
    assert list(listed) == list(array)
    assert summarize_reports(listed, dbarrier) == summarize_reports(array, dbarrier)
    assert find_resonances(listed) == find_resonances(array)
    assert len(find_resonances(listed).dos_peaks) == 1


def test_find_resonances_insufficient_data(free2):
    for count in (2, 3):
        reports = verify_identity(free2, EnergyGrid(0.5, 1.0, count))
        with pytest.raises(InsufficientDataError):
            find_resonances(reports)


def test_transmission_peaks_coincide_with_dos_peaks():
    from scipy.signal import find_peaks

    # opaque enough that the resonance/background interplay cannot push
    # the transmission maximum away from the DOS maximum
    sharp = double_barrier(0.8, 12.0, 2.0)
    reports = verify_identity(sharp, EnergyGrid(0.3, 8.0, 2001))
    table = find_resonances(reports)
    assert len(table.dos_peaks) >= 2
    energies = np.array([r.energy for r in reports])
    batch = solver1d.ScatterBatch(sharp, energies)
    assert batch.open[0].all() and not batch.failed.any()
    t2 = np.abs(batch.t) ** 2
    ti, _ = find_peaks(t2, prominence=0.05 * t2.max())

    def refine(i):
        x0, x1, x2 = energies[i - 1: i + 2]
        y0, y1, y2 = t2[i - 1: i + 2]
        den = (x0 - x1) * (x0 - x2) * (x1 - x2)
        a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / den
        b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / den
        return -b / (2 * a) if a < 0 else energies[i]

    t_peaks = np.array([refine(int(i)) for i in ti])
    step = table.grid_resolution
    for p in table.dos_peaks:
        assert np.min(np.abs(t_peaks - p.energy)) <= 2.0 * step


def _scipy_peaks(x, y, min_prominence):
    """The peaks _find_peaks_1d must return, found by scipy.signal's
    find_peaks and peak_widths at half prominence."""
    from scipy import signal

    if y.max() <= 0.0:
        return ()
    idx, _ = signal.find_peaks(y, prominence=min_prominence * float(y.max()))
    if idx.size == 0:
        return ()
    with warnings.catch_warnings():  # where half the prominence rounds away
        warnings.filterwarnings("ignore", "some peaks have a width of 0")
        widths = signal.peak_widths(y, idx, rel_height=0.5)[0]
    spacing = np.gradient(x)
    peaks = (Peak(analysis._refine_peak(x, y, int(i)), float(y[i]), float(w * spacing[i]))
             for i, w in zip(idx, widths))
    return tuple(sorted(peaks, key=lambda p: p.energy))


@st.composite
def _curves(draw):
    """A strictly increasing grid and a finite curve on it, 1-60 points."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["integers", "floats", "smooth"]))
    if kind == "integers":  # plateaus, ties, equal neighbours and maxima at either edge
        y = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    elif kind == "floats":
        y = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    else:
        freq, phase = draw(st.floats(0.05, 3.0)), draw(st.floats(0.0, 6.3))
        y = np.sin(freq * np.arange(n) + phase) + draw(st.floats(-1.0, 2.0))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    return np.cumsum(steps), np.asarray(y, dtype=float)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(curve=_curves(), min_prominence=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_find_peaks_matches_scipy(curve, min_prominence):
    # same peak indices and bit-identical widths: a Peak compares its
    # refined energy, height and width with ==
    x, y = curve
    assert analysis._find_peaks_1d(x, y, min_prominence) == _scipy_peaks(x, y, min_prominence)


def test_find_peaks_matches_scipy_on_shipped_curves():
    # the DOS curve, the channel sum and each channel's dwell time of the
    # shipped stack scan, over its live points as find_resonances reads them
    table = compute_reports(load_config(Path(__file__).resolve().parents[1]
                                        / "configs" / "stack_scan.json"))
    live = np.flatnonzero(~table.skipped)
    total, count = table.channel_sum("tau_direct")
    curves = [table.column("dos_green"), (total, count > 0), *zip(*table.column("tau_direct"))]
    found = 0
    for values, given in curves:
        rows = live[given[live]]
        x, y = table.energies[rows], values[rows]
        for min_prominence in (0.0, 0.05, 0.3, 1.0):
            peaks = analysis._find_peaks_1d(x, y, min_prominence)
            assert peaks == _scipy_peaks(x, y, min_prominence)
            found += len(peaks)
    assert found > 0


@pytest.mark.parametrize("methods", [("direct",), ("green",), ("direct", "vderiv")],
                         ids=["direct", "green", "direct-vderiv"])
def test_find_resonances_needs_both_routes(dbarrier, methods):
    # a DOS peak needs the green route and a dwell peak the direct one
    table = verify_identity(dbarrier, EnergyGrid(0.3, 8.0, 20), methods)
    with pytest.raises(InsufficientDataError, match="green and direct"):
        find_resonances(table)


def test_summarize_handles_empty(free2):
    table = verify_identity(free2, EnergyGrid(-1.0, -0.5, 3))  # below both leads
    summary = summarize_reports(table)
    assert summary["max_residual_rel"] is None and summary["worst"] == []
    assert summary["skipped"] == 3
    assert summary["skip_reasons"] == {"NoOpenChannelError": 3}
