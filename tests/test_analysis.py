import numpy as np
import pytest

from dwelldos import analysis, solver1d
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
    InsufficientDataError,
    StepTooLargeError,
    ThresholdCrossingError,
    ValidationError,
)
from dwelldos.lattice import _LatticeWorkspace, dwell_time_lattice, open_channels
from dwelldos.model import (
    EnergyGrid,
    SpectralWeight,
    build_stack,
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

def test_vderiv_solves_each_shift_once(stack42, monkeypatch):
    energies = []
    solve = solver1d.scattering_amplitudes

    def counting(stack, energy, *args, **kwargs):
        energies.append(energy)
        return solve(stack, energy, *args, **kwargs)

    monkeypatch.setattr(solver1d, "scattering_amplitudes", counting)
    dwell_times_vderiv_all(stack42, 1.1, dv=1e-5)  # fixed step: no halving
    assert len(energies) == 3  # S(0), S(+dv), S(-dv)


def test_vderiv_open_channel_change_raises(barrier, monkeypatch):
    unshifted = analysis.shifted_smatrix

    def drop_right_channel(system, energy, v_shift, *args):
        s, labels = unshifted(system, energy, v_shift, *args)
        return (s, labels) if v_shift == 0.0 else (s[:1, :1], labels[:1])

    monkeypatch.setattr(analysis, "shifted_smatrix", drop_right_channel)
    with pytest.raises(ThresholdCrossingError):
        dwell_times_vderiv_all(barrier, 0.5, dv=1e-5)
    rep = compute_report(barrier, 0.5, methods=("direct", "green", "vderiv"))
    assert rep.skipped
    assert rep.skip_reason.startswith("ThresholdCrossingError")


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
        dwell_time_vderiv(dbarrier, 1.4352, "left", dv=0.05, auto_adjust=False)


def test_vderiv_auto_halving_recovers(dbarrier):
    e = 1.4352  # essentially at the sharp resonance center
    ref = dwell_time_direct_1d(dbarrier, e, "left")
    tau = dwell_time_vderiv(dbarrier, e, "left", dv=0.05, auto_adjust=True)
    assert abs(tau - ref) / ref < 1e-2  # large start, halved until usable
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
    taus = np.array([dwell_time_direct_1d(free2, float(x)) for x in e])
    val = wavepacket_dwell_time(sw, e, taus)
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
    t2 = np.array([
        abs(scattering_amplitudes(sharp, float(e)).t) ** 2 for e in energies
    ])
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
