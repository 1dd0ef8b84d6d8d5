import numpy as np
import pytest

from dwelldos import analysis, lattice, solver1d
from dwelldos.analysis import (
    DwellReport,
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
    CoverageError,
    DwellDosError,
    InsufficientDataError,
    NumericalFailureError,
    StepTooLargeError,
    ValidationError,
)
from dwelldos.lattice import _LatticeWorkspace, dwell_time_lattice, open_channels
from dwelldos.model import (
    THRESHOLD_MARGIN,
    EnergyGrid,
    SpectralWeight,
    build_stack,
    channel_thresholds,
    gaussian_spectral_weight,
    random_lattice,
    random_stack,
)
from dwelldos.solver1d import dwell_time_direct_1d, scattering_amplitudes


# ------------------------------------------------------------ shifted S matrix

def test_zero_shift_is_identity_operation(barrier):
    s0, labels = shifted_smatrix(barrier, 0.5, 0.0)
    ref = scattering_amplitudes(barrier, 0.5).smatrix()
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

def test_vderiv_solves_each_shift_once(stack42, band_solves):
    dwell_times_vderiv_all(stack42, 1.1, dv=1e-5)  # fixed step: no halving
    assert band_solves == [1, 2]  # S(0); then S(+dv) and S(-dv) in one batch


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
    ws = _LatticeWorkspace(sysm, e)
    taus = dwell_times_vderiv_all(sysm, e, dv=1e-5)
    for ch in open_channels(sysm, e):
        ref = dwell_time_lattice(sysm, e, ch, workspace=ws)
        assert abs(taus[ch.label] - ref) < 1e-5


def test_vderiv_step_too_large_raises(dbarrier):
    # on a sharp resonance the S phases rotate fast with V
    with pytest.raises(StepTooLargeError):
        dwell_time_vderiv(dbarrier, 1.4352, "left", dv=0.05)


def test_vderiv_auto_halving_recovers(dbarrier):
    e = 1.4352  # essentially at the sharp resonance center
    ref = dwell_time_direct_1d(dbarrier, e, "left")
    tau_default = dwell_time_vderiv(dbarrier, e, "left")
    assert abs(tau_default - ref) / ref < 1e-5


def test_vderiv_subregion_matches_direct():
    # perturbing only a sub-rectangle measures the time spent there
    from dwelldos.model import LatticeRegion

    sysm = random_lattice(11, 2, 6, (-0.5, 0.5))
    region = LatticeRegion(1, 4, 0, 1)
    e = 0.3
    ws = _LatticeWorkspace(sysm, e)
    for ch in open_channels(sysm, e):
        ref = dwell_time_lattice(sysm, e, ch, region=region, workspace=ws)
        tau = dwell_time_vderiv(sysm, e, ch, dv=1e-5, region=region)
        assert abs(tau - ref) < 1e-5


def test_vderiv_unknown_channel(barrier):
    with pytest.raises(ValidationError):
        dwell_time_vderiv(barrier, 0.5, "up")


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


@pytest.mark.parametrize("offset", [1e-14, -1e-14, -1.1e-16])
def test_grazing_energy_uses_flat_basis(offset):
    # |k| d <= 1e-6 is solved in the exact k = 0 basis {1, u}
    stack = build_stack([(1.0, 1.0)])
    assert scattering_amplitudes(stack, 1.0 + offset).k_layers[0] == 0.0
    rep = compute_report(stack, 1.0 + offset)
    assert not rep.skipped
    assert rep.residual_rel < 1e-9


@pytest.mark.xfail(strict=True, reason="scaled layer basis is ill-conditioned "
                   "for 1e-6 < |k| d < ~3e-3 (residual ~1e-2 here)")
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
    assert rep.skip_reason.startswith("NumericalFailureError")
    assert "underflow" in rep.skip_reason
    with pytest.raises(NumericalFailureError):
        solver1d.green_1d(stack, 1.0)


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


def test_verify_identity_with_vderiv(barrier):
    reports = verify_identity(
        barrier, EnergyGrid(0.4, 0.8, 5), methods=("direct", "green", "vderiv")
    )
    for rep in reports:
        for ch in rep.channels:
            assert ch.tau_vderiv is not None
            assert abs(ch.tau_vderiv - ch.tau_direct) < 1e-6


def _same_report(rep, ref):
    assert rep.energy == ref.energy
    assert (rep.skipped, rep.skip_reason) == (ref.skipped, ref.skip_reason)
    assert [c.channel for c in rep.channels] == [c.channel for c in ref.channels]
    pairs = [(rep.dos_green, ref.dos_green), (rep.dos_sum, ref.dos_sum),
             (rep.residual_rel, ref.residual_rel)]
    for c, c_ref in zip(rep.channels, ref.channels):
        pairs += [(c.tau_direct, c_ref.tau_direct), (c.tau_vderiv, c_ref.tau_vderiv)]
    for got, want in pairs:
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("per_chunk, v_left", [(1, 0.0), (7, 0.0), (None, 0.0), (7, 20.0)],
                         ids=["1", "7", "None", "one-sided-7"])
def test_grid_chunks_match_single_energy_reports(per_chunk, v_left, monkeypatch):
    # E = 1: the d = 103 barrier underflows W (NumericalFailureError);
    # E = 56: exact k = 0 in the middle layer; the rest are ordinary.
    # With v_left = 20 the energies below 20 have the right channel only,
    # so the first chunk mixes 1x1 and 2x2 S matrices.
    stack = build_stack([(103.0, 50.0), (1.0, 56.0), (0.7, 3.0)], v_left=v_left)
    if per_chunk is not None:
        monkeypatch.setattr(analysis, "_BATCH_UNKNOWNS", per_chunk * (2 * 3 + 2))
    grid = EnergyGrid(1.0, 61.0, 13)
    methods = ("direct", "green", "vderiv")
    reports = verify_identity(stack, grid, methods=methods)
    assert reports[0].skip_reason.startswith("NumericalFailureError")
    assert scattering_amplitudes(stack, 56.0).k_layers[1] == 0.0
    assert sum(not r.skipped for r in reports) == 12
    assert {len(r.channels) for r in reports if not r.skipped} == ({1, 2} if v_left else {2})
    for rep in reports:
        _same_report(rep, compute_report(stack, rep.energy, methods=methods))


@pytest.mark.parametrize("v_left", [0.0, 20.0])
def test_grid_matches_per_energy_batches(v_left):
    # reference without the grid driver: ScatterBatch of one energy for the
    # skip, tau_direct and dos_green, and of the shifted stacks for S(+-dv).
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
            sol = solver1d.ScatterBatch(stack, [e]).solution(0)
            s0 = sol.smatrix()
            s_plus, s_minus = (solver1d.ScatterBatch(stack.shifted(v), [e]).solution(0).smatrix()
                               for v in (dv, -dv))
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
            assert rep.skip_reason.startswith("NumericalFailureError: imaginary residual")
            continue
        try:
            taus, dos = sol.dwell_times(), sol.dos()
        except DwellDosError as err:
            assert rep.skip_reason == f"{type(err).__name__}: {err}"
            continue
        assert not rep.skipped
        assert [c.channel for c in rep.channels] == [label for label, _ in sol.channels()]
        pairs = [(rep.dos_green, dos), (rep.dos_sum, np.sum(taus) / (2.0 * np.pi))]
        pairs += [(c.tau_direct, t) for c, t in zip(rep.channels, taus)]
        pairs += [(c.tau_vderiv, t) for c, t in zip(rep.channels, tau_vderiv)]
        for got, want in pairs:
            assert abs(got - want) <= 1e-14 * abs(want)


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
        monkeypatch.setattr(analysis, "_BATCH_UNKNOWNS", per_chunk * (2 * 5 + 2))
    reports = verify_identity(stack42, EnergyGrid(0.05, 4.0, 50),
                              methods=("direct", "green", "vderiv"))
    assert not any(r.skipped for r in reports)
    chunks = -(-50 // (per_chunk or 50))
    assert 0 < len(calls) <= 2 * chunks


@pytest.fixture
def band_solves(monkeypatch):
    """Batch size of every band solve, in call order."""
    sizes = []
    band_solve = solver1d._band_solve

    def counting(band, rhs):
        sizes.append(band.shape[2])
        return band_solve(band, rhs)

    monkeypatch.setattr(solver1d, "_band_solve", counting)
    return sizes


def test_grid_does_three_solves_per_point(stack42, band_solves):
    grid = EnergyGrid(0.05, 4.0, 50)
    reports = verify_identity(stack42, grid, methods=("direct", "green", "vderiv"), dv=1e-5)
    assert not any(r.skipped for r in reports)
    assert band_solves == [50, 100]  # S(0); then S(+dv) and S(-dv) in one batch


@pytest.mark.parametrize("backend", ["stack", "lattice"])
def test_report_solves_each_energy_and_shift_once(backend, stack42, band_solves, monkeypatch):
    # S(0) is the routes' state; S(+dv) and S(-dv) are one more solve
    # each (one band solve of two energies on a stack); a lattice
    # workspace reads both leads' modes off one lead_modes call
    calls = {"workspace": 0, "lead_modes": 0}
    init, modes = lattice._LatticeWorkspace.__init__, lattice.lead_modes

    def counting_init(ws, *args):
        calls["workspace"] += 1
        init(ws, *args)

    def counting_modes(*args):
        calls["lead_modes"] += 1
        return modes(*args)

    monkeypatch.setattr(lattice._LatticeWorkspace, "__init__", counting_init)
    monkeypatch.setattr(lattice, "lead_modes", counting_modes)
    system = stack42 if backend == "stack" else random_lattice(11, 4, 12, (-0.5, 0.5))
    rep = compute_report(system, 0.3, methods=("direct", "green", "vderiv"), dv=1e-5)
    assert not rep.skipped and all(c.tau_vderiv is not None for c in rep.channels)
    if backend == "stack":
        assert band_solves == [1, 2]
    else:
        assert len(rep.channels) == 8
        assert calls == {"workspace": 3, "lead_modes": 3}


def test_grid_halving_resolves_only_failed_steps(band_solves):
    from dwelldos.model import double_barrier

    # E = 1.47007 sits on a resonance so sharp that the default step is
    # halved four times before the phases unwrap; E = 2.235 and 3 are not
    sharp = double_barrier(1.0, 12.0, 2.0)
    grid = EnergyGrid(1.4700684803879822, 3.0, 3)
    methods = ("direct", "vderiv")
    reports = verify_identity(sharp, grid, methods=methods)
    assert band_solves == [3, 6] + [2] * 4  # each halving: S(+) and S(-) of one energy
    for rep in reports:
        _same_report(rep, compute_report(sharp, rep.energy, methods=methods))


def test_grid_halving_pools_retries_of_all_chunks(band_solves, monkeypatch):
    from dwelldos.model import double_barrier

    # resonances at both ends of the grid need 6 and 3 halvings; with 4
    # energies per chunk they sit in different chunks, and the halving
    # rounds solve both together
    wide = double_barrier(1.0, 12.0, 4.0)
    monkeypatch.setattr(analysis, "_BATCH_UNKNOWNS", 4 * (2 * 3 + 2))
    grid = EnergyGrid(1.869973, 4.164395, 5)
    methods = ("direct", "vderiv")
    reports = verify_identity(wide, grid, methods=methods)
    assert not any(r.skipped for r in reports)
    # S(0) per chunk; the first S(+/-dv) round; 3 shared rounds; 3 more
    assert band_solves == [4, 1] + [4, 4, 2] + [4] * 3 + [2] * 3
    for rep in reports:
        _same_report(rep, compute_report(wide, rep.energy, methods=methods))


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


def test_find_resonances_reversal_symmetric(dbarrier):
    reports = _db_reports(dbarrier, count=1201)
    fwd = find_resonances(reports)
    rev = find_resonances(list(reversed(reports)))
    assert len(fwd.dos_peaks) == len(rev.dos_peaks)
    for a, b in zip(fwd.dos_peaks, rev.dos_peaks):
        assert abs(a.energy - b.energy) < 1e-12


def test_find_resonances_insufficient_data(free2):
    for count in (2, 3):
        reports = verify_identity(free2, EnergyGrid(0.5, 1.0, count))
        with pytest.raises(InsufficientDataError):
            find_resonances(reports)


def test_transmission_peaks_coincide_with_dos_peaks():
    from scipy.signal import find_peaks

    from dwelldos.model import double_barrier

    # opaque enough that the resonance/background interplay cannot push
    # the transmission maximum away from the DOS maximum
    sharp = double_barrier(0.8, 12.0, 2.0)
    reports = verify_identity(sharp, EnergyGrid(0.3, 8.0, 2001))
    table = find_resonances(reports)
    assert len(table.dos_peaks) >= 2
    energies = np.array([r.energy for r in reports])
    batch = solver1d.ScatterBatch(sharp, energies)
    assert batch.open_left.all() and not batch.failed.any()
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


def test_summarize_handles_empty():
    summary = summarize_reports([DwellReport(energy=1.0, skipped=True,
                                             skip_reason="x")])
    assert summary["max_residual_rel"] is None
    assert summary["skipped"] == 1
