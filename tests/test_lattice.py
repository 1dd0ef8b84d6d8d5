from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dwelldos.lattice
from buffer_oracle import buffer_scattering_state
from dwelldos.analysis import compute_report, verify_identity
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
)
from dwelldos.model import (
    EnergyGrid,
    LatticeRegion,
    LatticeSystem,
    barrier_lattice,
    channel_thresholds,
    random_lattice,
    transverse_modes,
    uniform_lattice,
)
from dwelldos.oracles import dense_green_lattice


def _dense_states(system, energy):
    """States psi = G[:, lead] (i v_n chi_n) of all 2W channels from the
    dense G, (L, W, 2W) as in _LatticeWorkspace.psi, and the dense G."""
    g, w = dense_green_lattice(system, energy), system.width
    q = 1j * lead_modes(w, energy)[1] * transverse_modes(w)[0]
    psi = np.concatenate([g[:, :w] @ q, g[:, -w:] @ q], axis=1)
    return psi.reshape(system.length, w, 2 * w), g


# ------------------------------------------------------------------ lead modes

def test_lead_modes_single_chain():
    (k,), (velocity,) = lead_modes(1, 0.0)
    assert abs(k.real - np.pi / 2) < 1e-14
    assert abs(velocity - 2.0) < 1e-14
    assert velocity > 0.0  # open


def test_lead_modes_two_chains_at_band_center():
    k, velocities = lead_modes(2, 0.0)
    ks = sorted(k.real)
    assert abs(ks[0] - np.pi / 3) < 1e-14
    assert abs(ks[1] - 2 * np.pi / 3) < 1e-14
    for velocity in velocities:
        assert abs(velocity - np.sqrt(3.0)) < 1e-14


def test_lead_modes_open_set_matches_band_condition():
    _, eps = transverse_modes(5)
    _, velocities = lead_modes(5, -3.5)
    for eps_m, velocity in zip(eps, velocities):
        should_open = eps_m - 2.0 < -3.5 < eps_m + 2.0
        assert (velocity > 0.0) == should_open
    assert np.count_nonzero(velocities > 0.0) == 1


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
        assert rank == np.count_nonzero(lead_modes(3, e)[1] > 0.0)


# ----------------------------------------------------------- scattering states

def test_empty_device_is_transparent(chain4):
    ch = [c for c in open_channels(chain4, 0.0) if c.startswith("left")][0]
    psi = scattering_state(chain4, 0.0, ch)
    assert np.max(np.abs(np.abs(psi) - 1.0)) < 1e-12
    s, chans = scattering_matrix(chain4, 0.0)
    refl = s[0, 0]
    assert abs(refl) < 1e-12


def test_smatrix_unitarity_and_reciprocity(lattice3x10):
    for e in (-0.7, 0.3, 1.1):
        s, _ = scattering_matrix(lattice3x10, e)
        n = s.shape[0]
        assert np.max(np.abs(s.conj().T @ s - np.eye(n))) < 1e-10
        assert np.max(np.abs(s - s.T)) < 1e-10


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 4), length=st.integers(1, 8),
       energy=st.floats(-3.9, 3.9), mirror=st.booleans())
def test_smatrix_properties_on_random_strips(seed, width, length, energy, mirror):
    # unitarity and reciprocity on the open block; a mirror-symmetric strip
    # gives each left:m the dwell time of its right:m
    system = random_lattice(seed, width, length)
    if mirror:
        system = LatticeSystem(width, length, system.onsite + system.onsite[::-1])
        assert system.is_palindromic()
    assume(np.min(np.abs(channel_thresholds(system) - energy)) > 1e-3)
    labels = open_channels(system, energy)
    assume(labels)
    s, chans = scattering_matrix(system, energy)
    assert chans == labels
    n = s.shape[0]
    assert np.max(np.abs(s.conj().T @ s - np.eye(n))) < 1e-10
    assert np.max(np.abs(s - s.T)) < 1e-10
    if mirror:
        taus = {c: dwell_time_lattice(system, energy, c) for c in labels}
        for c in labels[:n // 2]:
            assert abs(taus[c] - taus["right" + c[4:]]) < 1e-10


def test_closed_channel_raises():
    sysm = uniform_lattice(3, 4)
    _, velocities = lead_modes(3, -1.8)
    closed = [f"left:{m + 1}" for m in np.flatnonzero(velocities == 0.0)]
    assert closed
    with pytest.raises(ClosedChannelError):
        scattering_state(sysm, -1.8, closed[0])


def test_dwell_time_empty_device(chain4):
    ch = [c for c in open_channels(chain4, 0.0) if c.startswith("left")][0]
    assert abs(dwell_time_lattice(chain4, 0.0, ch) - 2.0) < 1e-12


@pytest.mark.parametrize("width", [1, 2])
def test_dwell_time_mirror_symmetry(width):
    # W = 1 doubles the 1D picture: two channels, symmetric dwell times
    sysm = barrier_lattice(width, 7, [3], 1.5)
    assert sysm.is_palindromic()
    taus = {c: dwell_time_lattice(sysm, 0.4, c) for c in open_channels(sysm, 0.4)}
    for m in range(1, width + 1):
        assert abs(taus[f"left:{m}"] - taus[f"right:{m}"]) < 1e-10


def test_dwell_time_positive(lattice3x10, rng):
    energies = rng.uniform(-1.0, 1.0, size=5)
    ws = _LatticeWorkspace(lattice3x10, energies)
    for i, e in enumerate(energies):
        assert ws.errors("direct")[i] is None
        taus = ws.dwell_times[ws.open[:, i], i]
        assert len(taus) == len(open_channels(lattice3x10, e))
        assert np.all(np.isfinite(taus)) and np.all(taus >= 0.0)


def test_matches_explicit_buffer_oracle(lattice3x10):
    # independent solve with 400 explicit lead columns per side
    (ch,) = [c for c in open_channels(lattice3x10, 0.3) if c == "left:2"]
    psi = scattering_state(lattice3x10, 0.3, ch)
    ref = buffer_scattering_state(lattice3x10, 0.3, "left", 2, buffer_cols=400)
    assert np.max(np.abs(psi - ref)) < 1e-6


# ------------------------------------------------------------- Green's function

def test_green_empty_chain_diagonal(chain4):
    (g_diag,) = _LatticeWorkspace(chain4, [0.0]).green_diagonal
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
    # the states psi = G[:, lead] q, with the sources q = i v_m chi_m on
    # the interface columns, and the diagonal of G
    v = 2.0 * np.sin(np.arccos((eps - e) / 2.0))
    q = np.zeros((4, 4), dtype=complex)
    q[:w, :w] = q[w:, w:] = 1j * v * chi
    ws = _LatticeWorkspace(uniform_lattice(2, 2), [e])
    assert np.max(np.abs(ws.psi[0].reshape(4, 4) - ref @ q)) < 1e-12
    assert np.max(np.abs(ws.green_diagonal[0] - np.diag(ref))) < 1e-12


@pytest.mark.parametrize("width,length", [(1, 1), (2, 1), (1, 5), (3, 2), (3, 10), (5, 20)])
def test_sweeps_match_dense_inverse(width, length):
    # L = 1 attaches both leads to the one column block
    sysm = random_lattice(5, width, length)
    energies = (-1.2, 0.3, 1.7)
    if width > 1:
        assert any((lead_modes(width, e)[1] == 0.0).any() for e in energies)
    ws = _LatticeWorkspace(sysm, energies)  # one stacked sweep for all three
    assert ws.green_diagonal.shape == (3, width * length)
    assert ws.psi.shape == (3, length, width, 2 * width)
    for i, e in enumerate(energies):
        psi, g = _dense_states(sysm, e)
        bound = 1e-12 * np.max(np.abs(g))
        assert np.max(np.abs(ws.green_diagonal[i] - np.diag(g))) < bound
        assert np.max(np.abs(ws.psi[i] - psi)) < bound


def test_smatrix_consistent_with_green_function(lattice3x10):
    # s_mn = -delta_mn + i sqrt(v_m v_n) chi_m^T G(c_m, c_n) chi_n with the
    # blocks of the dense Green's function between the interface columns
    e = 0.3
    g = dense_green_lattice(lattice3x10, e).reshape(10, 3, 10, 3)
    s, chans = scattering_matrix(lattice3x10, e)
    chi, _ = transverse_modes(3)
    _, velocity = lead_modes(3, e)
    interface = {"left": 0, "right": -1}
    modes = [(lead, int(mode) - 1) for lead, mode in (c.split(":") for c in chans)]
    ref = np.empty_like(s)
    for i, (lead_m, m) in enumerate(modes):
        for j, (lead_n, n) in enumerate(modes):
            gblk = g[interface[lead_m], :, interface[lead_n], :]
            val = 1j * np.sqrt(velocity[m] * velocity[n]) * (
                chi[:, m] @ gblk @ chi[:, n]
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
    e, system = 0.3, replace(lattice3x10, region=region)
    taus = [dwell_time_lattice(system, e, c) for c in open_channels(system, e)]
    dos = dos_region_lattice(system, e)
    assert abs(dos - sum(taus) / (2 * np.pi)) <= 1e-9 * dos


def test_evanescent_modes_matter_in_self_energy():
    # dropping evanescent lead modes from Sigma must visibly change G, and
    # the open channels' states psi = G[:, lead] q wherever the device mixes
    # the transverse modes; a barrier uniform across the strip keeps each
    # mode to itself, so there the open channels' states cannot change
    e = -1.2  # two open modes and one evanescent mode per lead
    chi, _ = transverse_modes(3)
    k, velocity = lead_modes(3, e)
    assert (velocity == 0.0).any()
    sigma_open = np.zeros((3, 3), dtype=complex)
    for m in range(3):
        if velocity[m] > 0.0:
            sigma_open += -np.exp(1j * k[m]) * np.outer(
                chi[:, m], chi[:, m]
            )
    q = 1j * velocity * chi
    for sysm, mixes in ((barrier_lattice(3, 6, [2, 3], 1.0), False), (random_lattice(5, 3, 6), True)):
        h = build_hamiltonian(sysm)
        n = sysm.n_sites
        a_trunc = (e * np.eye(n) - h).astype(complex)
        a_trunc[:3, :3] -= sigma_open
        a_trunc[n - 3:, n - 3:] -= sigma_open
        g_trunc = np.linalg.inv(a_trunc)
        ws = _LatticeWorkspace(sysm, [e])
        assert np.max(np.abs(ws.green_diagonal[0] - np.diag(g_trunc))) > 1e-6
        psi_trunc = (g_trunc[:, :3] @ q).reshape(6, 3, 3)  # the left lead's states
        assert (np.max(np.abs(ws.psi[0, ..., :3] - psi_trunc)) > 1e-6) == mixes


# ------------------------------------------------------------ sweep structure

@pytest.mark.parametrize("energy", [-3.95, 3.95])
def test_no_open_channel_is_skipped(energy):
    # outside the lead band [-2 - 2cos(pi/4), 2 + 2cos(pi/4)] nothing propagates
    rep = compute_report(random_lattice(3, 3, 6), energy)
    assert rep.skipped
    assert rep.skip_reason.startswith("NoOpenChannelError")


@pytest.mark.parametrize("length", [1, 2, 7])
def test_workspace_inverts_one_block_per_column(length, monkeypatch):
    # one left-connected sweep and a backward pass of matrix products:
    # one batched inverse of the chunk's W x W blocks per column
    shapes = []
    inv = dwelldos.lattice._inv

    def counting(blocks):
        shapes.append(np.shape(blocks))
        return inv(blocks)

    monkeypatch.setattr(dwelldos.lattice, "_inv", counting)
    _LatticeWorkspace(random_lattice(3, 3, length), [0.3, 0.7, 1.1, 1.5])
    assert shapes == [(4, 3, 3)] * length


def test_singular_block_fails_only_its_energy(monkeypatch):
    # a batched inverse raises for the whole stack when one block is
    # singular: that energy alone must skip, and the others must come out
    # as in a batch of their own
    system = random_lattice(3, 3, 6)
    energies = [0.3, 0.7, 1.1]
    clean = [_LatticeWorkspace(system, [e]) for e in energies]
    references = [compute_report(system, e, methods=("direct", "green", "vderiv"), dv=1e-5)
                  for e in energies]
    inv = dwelldos.lattice._inv

    def singular_middle(blocks):
        blocks = blocks.copy()
        if len(blocks) == 3:
            blocks[1] = 0.0
        return inv(blocks)

    monkeypatch.setattr(dwelldos.lattice, "_inv", singular_middle)
    ws = _LatticeWorkspace(system, energies)
    assert str(ws.errors("green")[1]) == "singular column block at E = 0.7"
    for i in (0, 2):
        one = clean[i]
        o = one.open[:, 0]
        assert ws.errors("direct")[i] is None and np.array_equal(ws.open[:, i], o)
        assert np.array_equal(ws.green_diagonal[i], one.green_diagonal[0])
        assert np.array_equal(ws.psi[i], one.psi[0])
        assert np.array_equal(ws.dwell_times[o, i], one.dwell_times[o, 0])
        assert ws.region_dos[i] == one.region_dos[0]
        assert np.array_equal(ws.smatrices[i][np.ix_(o, o)], one.smatrices[0][np.ix_(o, o)])
    reports = verify_identity(system, EnergyGrid(0.3, 1.1, 3),
                              methods=("direct", "green", "vderiv"), dv=1e-5)
    assert reports[1].skip_reason == "BoundStatePoleError: singular column block at E = 0.7"
    assert [reports[0], reports[2]] == [references[0], references[2]]


def test_smatrix_reads_lead_modes_once(monkeypatch, lattice3x10):
    # the labels come off the batch that gives S: no second lead solve
    calls = []
    modes = dwelldos.lattice._lead_modes

    def counting(eps, energies):
        calls.append(len(energies))
        return modes(eps, energies)

    monkeypatch.setattr(dwelldos.lattice, "_lead_modes", counting)
    s, labels = scattering_matrix(lattice3x10, 0.3)
    assert calls == [1]
    assert labels == ["left:1", "left:2", "left:3", "right:1", "right:2", "right:3"]
    assert s.shape == (6, 6)


def test_unknown_channel_label_is_validation_error():
    with pytest.raises(ValidationError, match="'left:99' not open at E = 0.3"):
        dwell_time_lattice(random_lattice(3, 3, 6), 0.3, "left:99")


def test_report_never_builds_dense_hamiltonian(monkeypatch, lattice3x10):
    def refuse(system):
        raise AssertionError("dense Hamiltonian built")

    monkeypatch.setattr(dwelldos.lattice, "build_hamiltonian", refuse)
    rep = compute_report(replace(lattice3x10, region=LatticeRegion(2, 7, 0, 2)), 0.3,
                         methods=("direct", "green", "vderiv"))
    assert not rep.skipped
    assert rep.residual_rel < 1e-9
    for c in rep.channels:
        assert abs(c.tau_vderiv - c.tau_direct) < 1e-5


def test_non_finite_energy_fails_alone(lattice3x10):
    ws = _LatticeWorkspace(lattice3x10, [0.3, np.nan, 0.7])
    for route in ("direct", "green", "vderiv"):
        assert isinstance(ws.errors(route)[1], NumericalFailureError)
        assert ws.errors(route)[0] is None and ws.errors(route)[2] is None
    for i in (0, 2):
        one = _LatticeWorkspace(lattice3x10, [ws.energies[i]])
        o = one.open[:, 0]
        assert np.array_equal(ws.open[:, i], o)
        assert np.array_equal(ws.psi[i], one.psi[0])
        assert np.array_equal(ws.green_diagonal[i], one.green_diagonal[0])
        assert np.array_equal(ws.smatrices[i][np.ix_(o, o)], one.smatrices[0][np.ix_(o, o)])


def test_green_errors_never_compute_residuals(lattice3x10):
    ws = _LatticeWorkspace(lattice3x10, [0.3, 0.5])
    assert ws.errors("green") == [None, None]
    assert "residuals" not in vars(ws)
    ws.errors("direct")
    assert "residuals" in vars(ws)


def test_corrupt_interface_columns_fail_residual_check(lattice3x10):
    # every state psi = G[:, lead] q of energy 0, on column 4
    ws = _LatticeWorkspace(lattice3x10, [0.3, 0.5])
    ws.psi[0, 4] *= 1.0 + 1e-6
    for route in ("direct", "vderiv"):
        assert isinstance(ws.errors(route)[0], NumericalFailureError)
        assert ws.errors(route)[1] is None
    assert ws.errors("green")[0] is None  # the Green route never reads the states


@pytest.mark.parametrize("column", [0, 4, -1], ids=["left-interface", "interior", "right-interface"])
@pytest.mark.parametrize("label", ["left:2", "right:2"])
def test_residual_stencil_catches_a_corrupt_state(lattice3x10, column, label):
    ws = _LatticeWorkspace(lattice3x10, [0.3, 0.5])
    n = ws.labels.index(label)
    row = np.argmax(np.abs(ws.psi[0, column, :, n]))
    ws.psi[0, column, row, n] *= 1.0 + 1e-6
    for route in ("direct", "vderiv"):
        assert isinstance(ws.errors(route)[0], NumericalFailureError)
        assert ws.errors(route)[1] is None
    assert ws.errors("green")[0] is None


def test_long_strip_identity():
    # 8000 sites: a dense operator would need about 1 GB
    sysm = random_lattice(13, 4, 2000)
    for e in (-0.7, 0.3, 1.1):
        rep = compute_report(sysm, e)
        assert not rep.skipped
        assert rep.residual_rel <= 1e-9
