import numpy as np
import pytest
from scipy import optimize

from dwelldos.errors import (
    ClosedChannelError,
    NoOpenChannelError,
    ThresholdProximityError,
    ValidationError,
)
from dwelldos.model import build_stack, free_stack, random_stack, rectangular_barrier
from dwelldos.oracles import quadrature_integral
from dwelldos.solver1d import (
    dos_region_1d,
    dwell_time_direct_1d,
    green_1d,
    greens_function_1d,
    layer_probability_integral,
    layer_wavevector,
    ldos_1d,
    ldos_mode_sum_1d,
    scattering_amplitudes,
)


# ---------------------------------------------------------------- wavevectors

def test_layer_wavevector_branches():
    assert layer_wavevector(1.0, 0.0) == 1.0 + 0.0j
    k = layer_wavevector(0.5, 1.0)
    assert k.real == 0.0 and abs(k.imag - np.sqrt(0.5)) < 1e-15
    assert layer_wavevector(1.0, 1.0) == 0.0


# ----------------------------------------------------------------- amplitudes

def test_empty_barrier_is_transparent(free2):
    sol = scattering_amplitudes(free2, 1.0)
    assert abs(sol.t - 1.0) < 1e-14
    assert abs(sol.r) < 1e-14
    assert abs(sol.t_prime - 1.0) < 1e-14


def test_rectangular_barrier_transmission(barrier):
    # textbook closed form T = [1 + ((k^2+q^2)/(2kq))^2 sinh^2(q d)]^-1
    sol = scattering_amplitudes(barrier, 0.5)
    k = np.sqrt(0.5)
    q = np.sqrt(0.5)
    t_exact = 1.0 / (1.0 + ((k**2 + q**2) / (2 * k * q)) ** 2 * np.sinh(q) ** 2)
    assert abs(abs(sol.t) ** 2 - t_exact) < 1e-5
    assert abs(abs(sol.t) ** 2 - 0.62929) < 1e-5


def test_double_barrier_has_unit_transmission_peak(dbarrier):
    def deficit(e):
        return 1.0 - abs(scattering_amplitudes(dbarrier, e).t) ** 2

    # bracket the first sharp resonance, then polish
    es = np.linspace(1.2, 1.7, 200)
    i = int(np.argmin([deficit(e) for e in es]))
    res = optimize.minimize_scalar(
        deficit, bounds=(es[i - 1], es[i + 1]), method="bounded",
        options={"xatol": 1e-13},
    )
    assert res.fun < 1e-8


def test_flux_conservation_and_unitarity(rng):
    for _ in range(25):
        stack = random_stack(int(rng.integers(1, 2**40)))
        e = float(rng.uniform(0.05, 4.0))
        sol = scattering_amplitudes(stack, e)
        ratio = sol.k_right.real / sol.k_left.real
        assert abs(abs(sol.r) ** 2 + ratio * abs(sol.t) ** 2 - 1.0) < 1e-12
        s = sol.smatrix()
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-12
        # reciprocity of the flux-normalized off-diagonals
        assert abs(s[0, 1] - s[1, 0]) < 1e-12


def test_asymmetric_levels_unitarity(rng):
    stack = build_stack([(1.0, 1.5), (0.7, 0.2)], v_left=0.0, v_right=0.4)
    for e in (0.9, 1.7, 3.3):
        s = scattering_amplitudes(stack, e).smatrix()
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-12


def test_interface_continuity(stack42):
    sol = scattering_amplitudes(stack42, 0.77)
    bounds = stack42.boundaries
    for wave in (sol.left_wave, sol.right_wave):
        for j, x in enumerate(bounds[1:-1]):
            end = np.array([bounds[j + 1] - bounds[j]])
            start = np.array([0.0])
            assert abs(wave.value_local(j, end)[0]
                       - wave.value_local(j + 1, start)[0]) < 1e-10
            assert abs(wave.derivative_local(j, end)[0]
                       - wave.derivative_local(j + 1, start)[0]) < 1e-10
        # asymptotic matching at the outer edges
        assert abs(wave.value(0.0) - wave.value(-1e-300)) < 1e-10
        assert abs(wave.value(bounds[-1]) - wave.value(bounds[-1] + 1e-300)) < 1e-10
        assert abs(wave.derivative(0.0) - wave.derivative(-1e-300)) < 1e-10


def test_opaque_stack_stays_finite():
    # kappa * d ~ 200: scaled representation must not overflow
    stack = build_stack([(20.0, 100.0)])
    sol = scattering_amplitudes(stack, 1.0)
    assert abs(abs(sol.r) - 1.0) < 1e-10
    assert np.isfinite(sol.left_wave.coeff_a).all()
    assert np.isfinite(sol.left_wave.coeff_b).all()
    tau = dwell_time_direct_1d(stack, 1.0, solution=sol)
    assert np.isfinite(tau) and tau > 0


def test_energy_domain_errors():
    stack = build_stack([(1.0, 1.0)], v_left=0.5, v_right=2.0)
    with pytest.raises(NoOpenChannelError):
        scattering_amplitudes(stack, 0.2)
    with pytest.raises(ThresholdProximityError):
        scattering_amplitudes(stack, 0.5 + 1e-9)
    sol = scattering_amplitudes(stack, 1.2)  # one-sided: only left open
    assert sol.open_left and not sol.open_right
    assert sol.r_prime is None and sol.t_prime is None
    assert abs(abs(sol.r) - 1.0) < 1e-12
    with pytest.raises(ClosedChannelError):
        dwell_time_direct_1d(stack, 1.2, side="right")


# ------------------------------------------------------- probability integral

def test_probability_integral_plane_wave():
    assert abs(layer_probability_integral(1.0, 0.0, 1.0, 2.0) - 2.0) < 1e-14


def test_probability_integral_cosine():
    # psi = cos(u) = (e^{iu} - e^{-i(u - pi)}) / 2 in the scaled basis:
    # integral over [0, pi] is pi/2
    val = layer_probability_integral(0.5, -0.5, 1.0, np.pi)
    assert abs(val - np.pi / 2) < 1e-12


def test_probability_integral_rejects_general_complex():
    with pytest.raises(ValidationError):
        layer_probability_integral(1.0, 0.0, 1.0 + 0.5j, 1.0)
    with pytest.raises(ValidationError):
        layer_probability_integral(1.0, 0.0, 1.0, -1.0)


def test_probability_integral_against_quadrature(rng):
    # 1000 random (A, B, k, d) tuples over all three branches, with B
    # referenced to the layer's right edge (scaled basis)
    for _ in range(1000):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        d = float(rng.uniform(0.1, 3.0))
        kind = rng.integers(0, 3)
        if kind == 0:
            k = complex(rng.uniform(0.05, 3.0), 0.0)
            psi = lambda x: a * np.exp(1j * k * x) + b * np.exp(-1j * k * (x - d))
        elif kind == 1:
            k = complex(0.0, rng.uniform(0.05, 2.5))
            psi = lambda x: a * np.exp(1j * k * x) + b * np.exp(-1j * k * (x - d))
        else:
            k = 0.0 + 0.0j
            psi = lambda x: a + b * x
        exact = layer_probability_integral(a, b, k, d)
        approx = quadrature_integral(psi, 0.0, d, 10_000)
        assert abs(exact - approx) <= 1e-9 * max(1.0, abs(approx))


# ----------------------------------------------------------------- dwell time

def test_dwell_time_free_is_ballistic(free2):
    assert abs(dwell_time_direct_1d(free2, 1.0) - 1.0) < 1e-13


def test_dwell_time_symmetric_sides(barrier):
    tl = dwell_time_direct_1d(barrier, 0.5, "left")
    tr = dwell_time_direct_1d(barrier, 0.5, "right")
    assert abs(tl - tr) < 1e-12


def test_dwell_time_matches_quadrature(barrier):
    sol = scattering_amplitudes(barrier, 0.5)
    tau = dwell_time_direct_1d(barrier, 0.5, solution=sol)
    v_in = 2.0 * sol.k_left.real
    ref = quadrature_integral(sol.left_wave.value, 0.0, 1.0, 20_000) / v_in
    assert abs(tau - ref) <= 1e-9 * ref


def test_dwell_time_grazing_layer():
    # E exactly at a layer potential: degenerate {1, u} basis in that layer
    stack = build_stack([(0.8, 0.3), (1.1, 1.0), (0.6, 0.0)])
    e = 1.0
    sol = scattering_amplitudes(stack, e)
    assert sol.k_layers[1] == 0.0
    tau = dwell_time_direct_1d(stack, e, solution=sol)
    ref = quadrature_integral(sol.left_wave.value, 0.0, stack.total_length, 40_000)
    ref /= 2.0 * sol.k_left.real
    assert abs(tau - ref) <= 1e-9 * ref


# ------------------------------------------------------------ Green's function

def test_green_free_diagonal(free2):
    g = greens_function_1d(free2, 1.0, 1.3, 1.3)
    assert abs(g - 1.0 / 2.0j) < 1e-13


def test_green_reciprocity(stack42, rng):
    gf = green_1d(stack42, 1.3)
    length = stack42.total_length
    for _ in range(10):
        x, xp = rng.uniform(0.0, length, size=2)
        assert abs(gf(x, xp) - gf(xp, x)) < 1e-10


def test_green_wronskian_constancy(stack42):
    gf = green_1d(stack42, 0.9)
    length = stack42.total_length
    w1 = gf.wronskian_at(length / 3.0)
    w2 = gf.wronskian_at(2.0 * length / 3.0)
    assert abs(w1 - w2) <= 1e-10 * abs(w1)
    assert abs(w1 - gf.wronskian) <= 1e-10 * abs(w1)


def test_green_positions_validated(free2):
    with pytest.raises(ValidationError):
        greens_function_1d(free2, 1.0, -0.1, 0.5)


# ------------------------------------------------------------------- LDOS/DOS

def test_ldos_free(free2):
    assert abs(ldos_1d(free2, 1.0, 0.4) - 1.0 / (2.0 * np.pi)) < 1e-13


def test_ldos_spectral_identity(stack42, rng):
    for _ in range(20):
        e = float(rng.uniform(0.1, 4.0))
        x = float(rng.uniform(0.0, stack42.total_length))
        sol = scattering_amplitudes(stack42, e)
        lhs = ldos_1d(stack42, e, x, solution=sol)
        rhs = ldos_mode_sum_1d(stack42, e, x, solution=sol)
        assert abs(lhs - rhs) < 1e-10


def test_ldos_decays_inside_opaque_barrier():
    stack = build_stack([(3.0, 30.0)])
    vals = [ldos_1d(stack, 1.0, x) for x in (0.3, 0.8, 1.5)]
    assert all(v > -1e-12 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


def test_dos_region_free(free2):
    assert abs(dos_region_1d(free2, 1.0) - 1.0 / np.pi) < 1e-12


def test_dos_region_identity(stack42, rng):
    for _ in range(15):
        e = float(rng.uniform(0.05, 4.0))
        sol = scattering_amplitudes(stack42, e)
        dos = dos_region_1d(stack42, e, solution=sol)
        tau_l = dwell_time_direct_1d(stack42, e, "left", solution=sol)
        tau_r = dwell_time_direct_1d(stack42, e, "right", solution=sol)
        assert tau_l >= 0.0 and tau_r >= 0.0
        assert abs(dos - (tau_l + tau_r) / (2.0 * np.pi)) <= 1e-8 * dos


def test_dos_region_identity_one_sided():
    stack = build_stack([(1.0, 0.5)], v_left=0.0, v_right=10.0)
    e = 1.0
    sol = scattering_amplitudes(stack, e)
    dos = dos_region_1d(stack, e, solution=sol)
    tau = dwell_time_direct_1d(stack, e, "left", solution=sol)
    assert abs(dos - tau / (2.0 * np.pi)) <= 1e-8 * dos
