import numpy as np
import pytest

import dwelldos.lattice
from buffer_oracle import buffer_scattering_state
from dwelldos.analysis import compute_report
from dwelldos.errors import (
    ClosedChannelError,
    NumericalFailureError,
    ThresholdProximityError,
    ValidationError,
)
from dwelldos.lattice import (
    _LatticeWorkspace,
    build_hamiltonian,
    dos_region_lattice,
    dwell_time_lattice,
    lead_modes,
    lead_self_energy,
    open_channels,
    scattering_matrix,
    scattering_state,
    transverse_modes,
)
from dwelldos.model import (
    LatticeRegion,
    barrier_lattice,
    random_lattice,
    uniform_lattice,
)
from dwelldos.oracles import dense_green_lattice


# ------------------------------------------------------------------ lead modes

def test_lead_modes_single_chain():
    (ch,) = lead_modes(1, 0.0)
    assert abs(ch.k.real - np.pi / 2) < 1e-14
    assert abs(ch.velocity - 2.0) < 1e-14
    assert ch.status == "open"


def test_lead_modes_two_chains_at_band_center():
    chans = lead_modes(2, 0.0)
    ks = sorted(c.k.real for c in chans)
    assert abs(ks[0] - np.pi / 3) < 1e-14
    assert abs(ks[1] - 2 * np.pi / 3) < 1e-14
    for c in chans:
        assert abs(c.velocity - np.sqrt(3.0)) < 1e-14


def test_lead_modes_open_set_matches_band_condition():
    chans = lead_modes(5, -3.5)
    for c in chans:
        should_open = c.transverse_energy - 2.0 < -3.5 < c.transverse_energy + 2.0
        assert c.is_open == should_open
    assert sum(c.is_open for c in chans) == 1


def test_transverse_profiles_orthonormal():
    chi, _ = transverse_modes(6)
    assert np.max(np.abs(chi.T @ chi - np.eye(6))) < 1e-12


def test_threshold_proximity_error():
    with pytest.raises(ThresholdProximityError):
        lead_modes(2, 1.0 + 1e-9)


# ---------------------------------------------------------------- self-energy

def test_self_energy_single_chain_band_center():
    sigma = lead_self_energy(1, 0.0)
    assert abs(sigma[0, 0] - (-1j)) < 1e-14


def test_self_energy_below_band_is_real_decaying():
    sigma = lead_self_energy(1, -2.5)
    assert abs(sigma[0, 0].imag) < 1e-14
    assert abs(sigma[0, 0]) < 1.0


def test_gamma_rank_equals_open_count():
    for e in (0.3, -2.5, 1.5, -1.2):
        sigma = lead_self_energy(3, e)
        gamma = 1j * (sigma - sigma.conj().T)
        rank = int(np.sum(np.linalg.eigvalsh(gamma) > 1e-10))
        assert rank == sum(c.is_open for c in lead_modes(3, e))


# ----------------------------------------------------------- scattering states

def test_empty_device_is_transparent(chain4):
    ch = [c for c in open_channels(chain4, 0.0) if c.lead == "left"][0]
    st = scattering_state(chain4, 0.0, ch)
    assert np.max(np.abs(np.abs(st.psi) - 1.0)) < 1e-12
    s, chans = scattering_matrix(chain4, 0.0)
    refl = s[0, 0]
    assert abs(refl) < 1e-12


def test_smatrix_unitarity_and_reciprocity(lattice3x10):
    for e in (-0.7, 0.3, 1.1):
        s, _ = scattering_matrix(lattice3x10, e)
        n = s.shape[0]
        assert np.max(np.abs(s.conj().T @ s - np.eye(n))) < 1e-10
        assert np.max(np.abs(s - s.T)) < 1e-10


def test_closed_channel_raises():
    sysm = uniform_lattice(3, 4)
    chans = lead_modes(3, -1.8)
    closed = [c for c in chans if not c.is_open]
    assert closed
    with pytest.raises(ClosedChannelError):
        scattering_state(sysm, -1.8, closed[0])


def test_dwell_time_empty_device(chain4):
    ch = [c for c in open_channels(chain4, 0.0) if c.lead == "left"][0]
    assert abs(dwell_time_lattice(chain4, 0.0, ch) - 2.0) < 1e-12


@pytest.mark.parametrize("width", [1, 2])
def test_dwell_time_mirror_symmetry(width):
    # W = 1 doubles the 1D picture: two channels, symmetric dwell times
    sysm = barrier_lattice(width, 7, [3], 1.5)
    assert sysm.is_palindromic()
    ws = _LatticeWorkspace(sysm, 0.4)
    taus = {c.label: dwell_time_lattice(sysm, 0.4, c, workspace=ws)
            for c in open_channels(sysm, 0.4)}
    for m in range(1, width + 1):
        assert abs(taus[f"left:{m}"] - taus[f"right:{m}"]) < 1e-10


def test_dwell_time_positive(lattice3x10, rng):
    for _ in range(5):
        e = float(rng.uniform(-1.0, 1.0))
        ws = _LatticeWorkspace(lattice3x10, e)
        for c in open_channels(lattice3x10, e):
            tau = dwell_time_lattice(lattice3x10, e, c, workspace=ws)
            assert np.isfinite(tau) and tau >= 0.0


def test_matches_explicit_buffer_oracle(lattice3x10):
    # independent solve with 400 explicit lead columns per side
    ch = [c for c in open_channels(lattice3x10, 0.3)
          if c.lead == "left" and c.mode == 2][0]
    st = scattering_state(lattice3x10, 0.3, ch)
    ref = buffer_scattering_state(lattice3x10, 0.3, "left", 2, buffer_cols=400)
    assert np.max(np.abs(st.psi - ref)) < 1e-6


# ------------------------------------------------------------- Green's function

def test_green_empty_chain_diagonal(chain4):
    g_diag = _LatticeWorkspace(chain4, 0.0).green_diagonal
    assert np.max(np.abs(g_diag.imag + 0.5)) < 1e-12


def test_green_closed_system_complex_symmetric():
    sysm = random_lattice(3, 2, 5)
    h = build_hamiltonian(sysm)
    g = np.linalg.inv((0.4 + 1e-6j) * np.eye(sysm.n_sites) - h)
    assert np.max(np.abs(g - g.T)) < 1e-12


def test_green_against_hand_built_two_by_two():
    # W = 2, Lx = 2 device, all on-site 0, E = 0.5: build the 4x4 operator
    # from explicitly written numbers and invert it directly.
    e = 0.5
    w = 2
    chi = np.array([[np.sin(np.pi / 3), np.sin(2 * np.pi / 3)],
                    [np.sin(2 * np.pi / 3), np.sin(4 * np.pi / 3)]]) * np.sqrt(2.0 / 3.0)
    eps = np.array([-2 * np.cos(np.pi / 3), -2 * np.cos(2 * np.pi / 3)])
    sigma = np.zeros((2, 2), dtype=complex)
    for m in range(2):
        c = (eps[m] - e) / 2.0
        k = np.arccos(c)  # both modes open at E = 0.5
        sigma += -np.exp(1j * k) * np.outer(chi[:, m], chi[:, m])
    h = np.array([
        [0.0, -1.0, -1.0, 0.0],
        [-1.0, 0.0, 0.0, -1.0],
        [-1.0, 0.0, 0.0, -1.0],
        [0.0, -1.0, 0.0, 0.0],
    ], dtype=complex)
    h[3, 2] = -1.0
    a = e * np.eye(4) - h
    a[:w, :w] -= sigma
    a[w:, w:] -= sigma
    ref = np.linalg.inv(a)
    # at L = 2 the two interface column blocks are all of G
    cols = _LatticeWorkspace(uniform_lattice(2, 2), e).green_columns
    g = np.hstack([cols["left"].reshape(4, 2), cols["right"].reshape(4, 2)])
    assert np.max(np.abs(g - ref)) < 1e-12


@pytest.mark.parametrize("width,length", [(1, 1), (2, 1), (1, 5), (3, 2), (3, 10), (5, 20)])
def test_sweeps_match_dense_inverse(width, length):
    # L = 1 attaches both leads to the one column block
    sysm = random_lattice(5, width, length)
    energies = (-1.2, 0.3, 1.7)
    if width > 1:
        assert any(not c.is_open for e in energies for c in lead_modes(width, e))
    for e in energies:
        ws = _LatticeWorkspace(sysm, e)
        g = dense_green_lattice(sysm, e)
        bound = 1e-12 * np.max(np.abs(g))
        assert np.max(np.abs(ws.green_diagonal - np.diag(g))) < bound
        for lead, cols in (("left", g[:, :width]), ("right", g[:, -width:])):
            ref = cols.reshape(length, width, width)
            assert np.max(np.abs(ws.green_columns[lead] - ref)) < bound


def test_smatrix_consistent_with_green_function(lattice3x10):
    # s_mn = -delta_mn + i sqrt(v_m v_n) chi_m^T G(c_m, c_n) chi_n with the
    # Green's function blocks taken between the interface columns
    e = 0.3
    ws = _LatticeWorkspace(lattice3x10, e)
    s, chans = scattering_matrix(lattice3x10, e, workspace=ws)
    interface = {"left": 0, "right": -1}
    ref = np.empty_like(s)
    for i, cm in enumerate(chans):
        for j, cn in enumerate(chans):
            gblk = ws.green_columns[cn.lead][interface[cm.lead]]
            val = 1j * np.sqrt(cm.velocity * cn.velocity) * (
                cm.transverse_profile @ gblk @ cn.transverse_profile
            )
            ref[i, j] = val - (1.0 if i == j else 0.0)
    assert np.max(np.abs(s - ref)) < 1e-12


def test_dos_region_empty_chain(chain4):
    dos = dos_region_lattice(chain4, 0.0)
    assert abs(dos - 2.0 / np.pi) < 1e-12


def test_dos_region_nonnegative(lattice3x10, rng):
    for _ in range(5):
        e = float(rng.uniform(-1.2, 1.2))
        assert dos_region_lattice(lattice3x10, e) >= 0.0


# ------------------------------------------------------------ central identity

@pytest.mark.parametrize("region", [None, LatticeRegion(2, 7, 0, 2), LatticeRegion(3, 5, 1, 1)])
def test_identity_full_and_subregion(lattice3x10, region):
    e = 0.3
    ws = _LatticeWorkspace(lattice3x10, e)
    taus = [dwell_time_lattice(lattice3x10, e, c, region, workspace=ws)
            for c in open_channels(lattice3x10, e)]
    dos = dos_region_lattice(lattice3x10, e, region, workspace=ws)
    assert abs(dos - sum(taus) / (2 * np.pi)) <= 1e-9 * dos


def test_evanescent_modes_matter_in_self_energy():
    # dropping evanescent lead modes from Sigma must visibly change G
    sysm = barrier_lattice(3, 6, [2, 3], 1.0)
    e = -1.2  # one open, two evanescent modes per lead
    modes = lead_modes(3, e)
    assert any(not c.is_open for c in modes)
    sigma_open = np.zeros((3, 3), dtype=complex)
    for c in modes:
        if c.is_open:
            sigma_open += -np.exp(1j * c.k) * np.outer(
                c.transverse_profile, c.transverse_profile
            )
    h = build_hamiltonian(sysm)
    n = sysm.n_sites
    a_trunc = (e * np.eye(n) - h).astype(complex)
    a_trunc[:3, :3] -= sigma_open
    a_trunc[n - 3:, n - 3:] -= sigma_open
    g_trunc = np.linalg.inv(a_trunc)
    ws = _LatticeWorkspace(sysm, e)
    assert np.max(np.abs(ws.green_diagonal - np.diag(g_trunc))) > 1e-6
    assert np.max(np.abs(ws.green_columns["left"] - g_trunc[:, :3].reshape(6, 3, 3))) > 1e-6


# ------------------------------------------------------------ sweep structure

@pytest.mark.parametrize("energy", [-3.95, 3.95])
def test_no_open_channel_is_skipped(energy):
    # outside the lead band [-2 - 2cos(pi/4), 2 + 2cos(pi/4)] nothing propagates
    rep = compute_report(random_lattice(3, 3, 6), energy)
    assert rep.skipped
    assert rep.skip_reason.startswith("NoOpenChannelError")


def test_unknown_channel_label_is_validation_error():
    ws = _LatticeWorkspace(random_lattice(3, 3, 6), 0.3)
    with pytest.raises(ValidationError, match="'left:99' not open at E = 0.3"):
        ws.dwell_time("left:99")


def test_report_never_builds_dense_hamiltonian(monkeypatch, lattice3x10):
    def refuse(system):
        raise AssertionError("dense Hamiltonian built")

    monkeypatch.setattr(dwelldos.lattice, "build_hamiltonian", refuse)
    rep = compute_report(lattice3x10, 0.3, LatticeRegion(2, 7, 0, 2),
                         methods=("direct", "green", "vderiv"))
    assert not rep.skipped
    assert rep.residual_rel < 1e-9
    for c in rep.channels:
        assert abs(c.tau_vderiv - c.tau_direct) < 1e-5


def test_corrupt_interface_columns_fail_residual_check(lattice3x10):
    ws = _LatticeWorkspace(lattice3x10, 0.3)
    left = [c for c in ws.open_modes if c.lead == "left"][0]
    ws.solve_channel(left)
    ws.green_columns["left"][4] *= 1.0 + 1e-6
    with pytest.raises(NumericalFailureError):
        ws.solve_channel(left)


def test_long_strip_identity():
    # 8000 sites: a dense operator would need about 1 GB
    sysm = random_lattice(13, 4, 2000)
    for e in (-0.7, 0.3, 1.1):
        rep = compute_report(sysm, e)
        assert not rep.skipped
        assert rep.residual_rel <= 1e-9
