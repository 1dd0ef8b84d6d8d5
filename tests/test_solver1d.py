import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from dwelldos.errors import (
    ClosedChannelError,
    NoOpenChannelError,
    NumericalFailureError,
    ThresholdProximityError,
    ValidationError,
)
from dwelldos.model import build_stack, free_stack, random_stack, rectangular_barrier
from dwelldos.oracles import quadrature_integral
from dwelldos import solver1d
from dwelldos.solver1d import (
    ScatterBatch,
    dos_region_1d,
    dwell_time_direct_1d,
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
    assert abs(sol.t[0] - 1.0) < 1e-14
    assert abs(sol.r[0]) < 1e-14
    assert abs(sol.t_prime[0] - 1.0) < 1e-14


def test_rectangular_barrier_transmission(barrier):
    # textbook closed form T = [1 + ((k^2+q^2)/(2kq))^2 sinh^2(q d)]^-1
    sol = scattering_amplitudes(barrier, 0.5)
    k = np.sqrt(0.5)
    q = np.sqrt(0.5)
    t_exact = 1.0 / (1.0 + ((k**2 + q**2) / (2 * k * q)) ** 2 * np.sinh(q) ** 2)
    assert abs(abs(sol.t[0]) ** 2 - t_exact) < 1e-5
    assert abs(abs(sol.t[0]) ** 2 - 0.62929) < 1e-5


def test_double_barrier_has_unit_transmission_peak(dbarrier):
    def deficit(e):
        return 1.0 - abs(scattering_amplitudes(dbarrier, e).t[0]) ** 2

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
        ratio = sol.k_right[0].real / sol.k_left[0].real
        assert abs(abs(sol.r[0]) ** 2 + ratio * abs(sol.t[0]) ** 2 - 1.0) < 1e-12
        s = sol.smatrices[0]  # both sides open
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-12
        # reciprocity of the flux-normalized off-diagonals
        assert abs(s[0, 1] - s[1, 0]) < 1e-12


def test_asymmetric_levels_unitarity(rng):
    stack = build_stack([(1.0, 1.5), (0.7, 0.2)], v_left=0.0, v_right=0.4)
    for e in (0.9, 1.7, 3.3):
        s = scattering_amplitudes(stack, e).smatrices[0]  # both sides open
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-12


def _assert_continuous(stack, energy):
    """psi and psi' of both incidence sides agree just left and just right
    of every interface x_j, the outer ones x = 0 and x = L included: the
    layer (or lead) below is read at nextafter(x_j, -inf), the one above
    at x_j itself (at x = L, at nextafter(L, +inf))."""
    sol = scattering_amplitudes(stack, energy)
    bounds = stack.boundaries
    below = np.nextafter(bounds, -np.inf)
    above = np.append(bounds[:-1], np.nextafter(bounds[-1], np.inf))
    for side in ("left", "right"):
        psi_below, dpsi_below = sol.wave(side, below)
        psi_above, dpsi_above = sol.wave(side, above)
        assert np.max(np.abs(psi_below - psi_above)) < 1e-10
        assert np.max(np.abs(dpsi_below - dpsi_above)) < 1e-10
    return sol


def test_interface_continuity(stack42):
    _assert_continuous(stack42, 0.77)


def test_interface_continuity_flat_layer():
    # E exactly at the middle layer's potential: the k = 0 branch {1, u}
    sol = _assert_continuous(build_stack([(0.8, 0.3), (1.1, 1.0), (0.6, 0.0)]), 1.0)
    assert sol.k_layers[0, 1] == 0.0


def test_opaque_stack_stays_finite():
    # kappa * d ~ 200: scaled representation must not overflow
    stack = build_stack([(20.0, 100.0)])
    sol = scattering_amplitudes(stack, 1.0)
    assert abs(abs(sol.r[0]) - 1.0) < 1e-10
    assert np.isfinite(sol.coeff_a).all()
    assert np.isfinite(sol.coeff_b).all()
    tau = dwell_time_direct_1d(stack, 1.0)
    assert np.isfinite(tau) and tau > 0


def test_energy_domain_errors():
    stack = build_stack([(1.0, 1.0)], v_left=0.5, v_right=2.0)
    with pytest.raises(NoOpenChannelError):
        scattering_amplitudes(stack, 0.2)
    with pytest.raises(ThresholdProximityError):
        scattering_amplitudes(stack, 0.5 + 1e-9)
    sol = scattering_amplitudes(stack, 1.2)  # one-sided: only left open
    assert sol.open[0, 0] and not sol.open[1, 0]
    assert np.isnan(sol.r_prime[0]) and np.isnan(sol.t_prime[0])
    assert abs(abs(sol.r[0]) - 1.0) < 1e-12
    with pytest.raises(ClosedChannelError):
        dwell_time_direct_1d(stack, 1.2, side="right")
    with pytest.raises(ValidationError):
        sol.wave("up", 0.5)


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



@pytest.mark.parametrize("kd", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("unit", [1j, 1.0], ids=["evanescent", "propagating"])
def test_probability_integral_at_small_kd(unit, kd):
    # 1 - e^{-2 kappa d} cancels as kappa d -> 0: the closed form must keep
    # full precision there, against a 50-digit quadrature
    mp = pytest.importorskip("mpmath")
    a, b, d = 0.7 + 0.2j, -0.3 + 0.9j, 1.3
    k = unit * kd / d
    with mp.workdps(50):
        am, bm, km, dm = mp.mpc(a), mp.mpc(b), mp.mpc(k), mp.mpf(d)
        psi = lambda u: am * mp.exp(1j * km * u) + bm * mp.exp(1j * km * (dm - u))
        ref = mp.quad(lambda u: abs(psi(u)) ** 2, [0, dm])
        assert float(abs(layer_probability_integral(a, b, k, d) - ref) / ref) < 1e-14


# ----------------------------------------------------------------- dwell time

def test_dwell_time_free_is_ballistic(free2):
    assert abs(dwell_time_direct_1d(free2, 1.0) - 1.0) < 1e-13


def test_dwell_time_symmetric_sides(barrier):
    tl = dwell_time_direct_1d(barrier, 0.5, "left")
    tr = dwell_time_direct_1d(barrier, 0.5, "right")
    assert abs(tl - tr) < 1e-12


def test_dwell_time_matches_quadrature(barrier):
    sol = scattering_amplitudes(barrier, 0.5)
    tau = dwell_time_direct_1d(barrier, 0.5)
    v_in = 2.0 * sol.k_left[0].real
    ref = quadrature_integral(lambda x: sol.wave("left", x)[0], 0.0, 1.0, 20_000) / v_in
    assert abs(tau - ref) <= 1e-9 * ref


def test_dwell_time_grazing_layer():
    # E exactly at a layer potential: degenerate {1, u} basis in that layer
    stack = build_stack([(0.8, 0.3), (1.1, 1.0), (0.6, 0.0)])
    e = 1.0
    sol = scattering_amplitudes(stack, e)
    assert sol.k_layers[0, 1] == 0.0
    tau = dwell_time_direct_1d(stack, e)
    ref = quadrature_integral(lambda x: sol.wave("left", x)[0], 0.0, stack.total_length, 40_000)
    ref /= 2.0 * sol.k_left[0].real
    assert abs(tau - ref) <= 1e-9 * ref


# ------------------------------------------------------------ Green's function

def test_green_free_diagonal(free2):
    g = greens_function_1d(free2, 1.0, 1.3, 1.3)
    assert abs(g - 1.0 / 2.0j) < 1e-13


def test_green_reciprocity(stack42, rng):
    x, xp = rng.uniform(0.0, stack42.total_length, size=(2, 10))
    g = greens_function_1d(stack42, 1.3, x, xp)
    assert np.max(np.abs(g - greens_function_1d(stack42, 1.3, xp, x))) < 1e-10


def test_green_wronskian_constancy(stack42):
    sol = scattering_amplitudes(stack42, 0.9)
    length = stack42.total_length
    x = np.array([length / 3.0, 2.0 * length / 3.0])
    # incidence from the right is the left-outgoing psi_L, from the left psi_R
    psi_l, dpsi_l = sol.wave("right", x)
    psi_r, dpsi_r = sol.wave("left", x)
    w1, w2 = psi_l * dpsi_r - dpsi_l * psi_r
    assert abs(w1 - w2) <= 1e-10 * abs(w1)
    assert abs(w1 - sol.wronskian[0]) <= 1e-10 * abs(w1)


def test_green_positions_validated(free2):
    with pytest.raises(ValidationError):
        greens_function_1d(free2, 1.0, -0.1, 0.5)
    with pytest.raises(ValidationError):
        greens_function_1d(free2, 1.0, np.array([0.5, 2.1]), 0.5)


# ------------------------------------------------------------------- LDOS/DOS

def test_ldos_free(free2):
    assert abs(ldos_1d(free2, 1.0, 0.4) - 1.0 / (2.0 * np.pi)) < 1e-13


def test_ldos_spectral_identity(stack42, rng):
    for _ in range(20):
        e = float(rng.uniform(0.1, 4.0))
        x = float(rng.uniform(0.0, stack42.total_length))
        lhs = ldos_1d(stack42, e, x)
        rhs = ldos_mode_sum_1d(stack42, e, x)
        assert abs(lhs - rhs) < 1e-10


def test_array_positions_match_scalar_calls(stack42):
    # grid points and every interface, x = 0 and x = L included
    x = np.concatenate([np.linspace(0.0, stack42.total_length, 9), stack42.boundaries])
    xp = x[::-1]
    g = greens_function_1d(stack42, 0.77, x, xp)
    rho = ldos_1d(stack42, 0.77, x)
    modes = ldos_mode_sum_1d(stack42, 0.77, x)
    assert g.shape == rho.shape == modes.shape == x.shape
    for i in range(x.size):
        scalar_g = greens_function_1d(stack42, 0.77, x[i], xp[i])
        scalar_rho = ldos_1d(stack42, 0.77, x[i])
        scalar_modes = ldos_mode_sum_1d(stack42, 0.77, x[i])
        assert type(scalar_g) is complex
        assert type(scalar_rho) is float and type(scalar_modes) is float
        assert (g[i], rho[i], modes[i]) == (scalar_g, scalar_rho, scalar_modes)


def test_ldos_decays_inside_opaque_barrier():
    stack = build_stack([(3.0, 30.0)])
    vals = [ldos_1d(stack, 1.0, x) for x in (0.3, 0.8, 1.5)]
    assert all(v > -1e-12 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


@pytest.mark.xfail(strict=True, reason="inside an opaque layer Im G+ is exponentially smaller "
                   "than Re G+, so -Im G+ / pi keeps only absolute accuracy (5.6e-8 relative)")
def test_ldos_inside_opaque_layer_is_relatively_accurate():
    # kappa d = 20; the mode sum adds positive terms and cancels nothing
    stack = build_stack([(2.0, 0.0), (2.0, 101.0), (0.5, 0.2)])
    ref = ldos_mode_sum_1d(stack, 1.0, 3.0)
    assert abs(ldos_1d(stack, 1.0, 3.0) - ref) <= 1e-10 * ref


def test_dos_region_free(free2):
    assert abs(dos_region_1d(free2, 1.0) - 1.0 / np.pi) < 1e-12


def test_dos_region_identity(stack42, rng):
    for _ in range(15):
        e = float(rng.uniform(0.05, 4.0))
        dos = dos_region_1d(stack42, e)
        tau_l = dwell_time_direct_1d(stack42, e, "left")
        tau_r = dwell_time_direct_1d(stack42, e, "right")
        assert tau_l >= 0.0 and tau_r >= 0.0
        assert abs(dos - (tau_l + tau_r) / (2.0 * np.pi)) <= 1e-8 * dos


def test_dos_region_identity_one_sided():
    stack = build_stack([(1.0, 0.5)], v_left=0.0, v_right=10.0)
    e = 1.0
    dos = dos_region_1d(stack, e)
    tau = dwell_time_direct_1d(stack, e, "left")
    assert abs(dos - tau / (2.0 * np.pi)) <= 1e-8 * dos


def _simpson_region_ldos(stack, energy):
    """Composite Simpson of -(1/pi) Im G+(x, x) per layer, fine enough
    for 1e-10 relative even at kappa d = 30."""
    sol = scattering_amplitudes(stack, energy)
    total = 0.0
    for lo, d, k in zip(stack.boundaries, stack.thicknesses, sol.k_layers[0]):
        panels = 2 * int(200 * (1.0 + abs(k) * d))
        y = ldos_1d(stack, energy, np.linspace(lo, lo + d, panels + 1))
        total += d / (3 * panels) * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())
    return total


@pytest.mark.parametrize("stack, energy", [
    (build_stack([(0.7, 0.5), (1.2, -0.3), (0.4, 1.0)]), 2.5),       # all propagating
    (build_stack([(1.0, 0.0), (3.0, 101.0), (0.5, 0.2)]), 1.0),      # kappa d = 30
    (build_stack([(0.8, 0.3), (1.1, 1.0), (0.6, 0.0)]), 1.0),        # exact k = 0 layer
    (build_stack([(1.0, 0.5)], v_left=0.0, v_right=10.0), 1.0),      # one-sided
    (random_stack(11, n_layers=40), 1.3),
], ids=["propagating", "evanescent", "flat", "one-sided", "forty-layers"])
def test_dos_region_matches_ldos_quadrature(stack, energy):
    ref = _simpson_region_ldos(stack, energy)
    assert abs(dos_region_1d(stack, energy) - ref) <= 1e-10 * ref


# ------------------------------------------------------- star-product tree solve

# 1e-12 of a scale below this is not a normal float: opaque stacks
# underflow there, and such a scale is taken as this floor
_FLOOR = np.finfo(float).tiny / 1e-12


def _interface_mismatch(batch, i, side):
    """psi and psi' of one incidence side on both sides of every interface,
    x = 0 and x = L included, from the batch's coefficients in the scaled
    basis, as the largest mismatch relative to the local scale: the
    largest term of psi (of psi') on either side of that interface."""
    stack = batch.stack
    k = np.concatenate(([batch.k_left[i]], batch.k_layers[i], [batch.k_right[i]]))
    d = np.concatenate(([0.0], stack.thicknesses, [0.0]))
    # each medium's pair: a at its left edge, b at its right edge (leads
    # have d = 0: a incoming, b outgoing on the left; a outgoing, b
    # incoming on the right)
    a = np.concatenate(([1.0 - side], batch.coeff_a[side, i], [batch.out_right[side, i]]))
    b = np.concatenate(([batch.out_left[side, i]], batch.coeff_b[side, i], [float(side)]))
    p = np.exp(1j * k * d)
    flat = k == 0
    # terms of psi and psi' at a medium's right edge (u = d) and left edge (u = 0)
    right_terms = np.where(flat, [a, b * d], [a * p, b])
    right_dterms = np.where(flat, [b, 0 * b], [1j * k * a * p, -1j * k * b])
    left_terms = np.where(flat, [a, 0 * a], [a, b * p])
    left_dterms = np.where(flat, [b, 0 * b], [1j * k * a, -1j * k * b * p])
    worst = 0.0
    for j in range(len(k) - 1):  # interface between media j and j + 1
        for below, above in ((right_terms, left_terms), (right_dterms, left_dterms)):
            scale = max(np.abs(below[:, j]).max(), np.abs(above[:, j + 1]).max(), _FLOOR)
            worst = max(worst, abs(below[:, j].sum() - above[:, j + 1].sum()) / scale)
    return worst


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    layers=st.lists(st.tuples(st.floats(0.05, 6.0), st.floats(-5.0, 60.0)),
                    min_size=1, max_size=60),
    energies=st.lists(st.floats(0.01, 70.0), min_size=1, max_size=6),
)
def test_tree_solve_matches_at_every_interface(layers, energies):
    # opaque energies come from V up to 60 over up to 60 layers of d up to 6
    batch = ScatterBatch(build_stack(layers), energies)
    assert not batch.failed.any()
    for i in range(len(energies)):
        for side in (0, 1):
            assert _interface_mismatch(batch, i, side) <= 1e-12


def _matching_system(stack, energy):
    """Dense interface-matching system of one energy, assembled here from
    the wave form alone: unknowns [c_L, a_1, b_1, ..., a_n, b_n, c_R],
    rows psi and psi' at each interface as (left side) - (right side),
    and right-hand sides for unit incidence from the left and the right."""
    n = len(stack.layers)
    k = np.sqrt(complex(energy) - stack.potentials)
    k = np.where(k.imag < 0, -k, k)
    k_l, k_r = np.sqrt(complex(energy - stack.v_left)), np.sqrt(complex(energy - stack.v_right))
    p = np.exp(1j * k * stack.thicknesses)
    mat = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    rhs = np.zeros((2 * n + 2, 2), dtype=complex)
    mat[0, 0], mat[1, 0] = 1.0, -1j * k_l  # left lead outgoing e^{-ik_L x}
    rhs[0, 0], rhs[1, 0] = -1.0, -1j * k_l
    for j in range(n):  # layer j at its left edge (interface j) and right edge (j + 1)
        col, row = 1 + 2 * j, 2 * j
        mat[row, col:col + 2] = -1.0, -p[j]
        mat[row + 1, col:col + 2] = -1j * k[j], 1j * k[j] * p[j]
        mat[row + 2, col:col + 2] = p[j], 1.0
        mat[row + 3, col:col + 2] = 1j * k[j] * p[j], -1j * k[j]
    mat[2 * n, 2 * n + 1], mat[2 * n + 1, 2 * n + 1] = -1.0, -1j * k_r  # right outgoing
    rhs[2 * n, 1], rhs[2 * n + 1, 1] = 1.0, -1j * k_r  # incident e^{-ik_R (x - L)}
    return mat, rhs


def test_tree_solve_matches_dense_solve():
    stack = random_stack(3, n_layers=300)
    e = np.linspace(0.05, 2.0, 7)
    batch = ScatterBatch(stack, e)
    assert (batch.k_layers != 0).all()
    for i in range(e.size):
        ref = np.linalg.solve(*_matching_system(stack, e[i]))
        for side in (0, 1):
            got = np.concatenate(([batch.out_left[side, i]],
                                  np.stack([batch.coeff_a[side, i], batch.coeff_b[side, i]],
                                           axis=1).reshape(-1),
                                  [batch.out_right[side, i]]))
            assert np.max(np.abs(got - ref[:, side])) <= 1e-12 * np.max(np.abs(ref[:, side]))


def test_non_finite_energy_fails_alone():
    stack = build_stack([(1.0, 1.0), (0.5, 0.3)])
    batch = ScatterBatch(stack, [0.5, np.nan, 2.5])
    assert batch.failed.tolist() == [False, True, False]
    for route in ("direct", "green", "vderiv"):
        assert isinstance(batch.errors(route)[1], NumericalFailureError)
        assert batch.errors(route)[0] is None and batch.errors(route)[2] is None
    for i in (0, 2):
        ref = ScatterBatch(stack, [batch.energies[i]])
        np.testing.assert_allclose(batch.coeff_a[:, i], ref.coeff_a[:, 0], rtol=1e-14)
        np.testing.assert_allclose(batch.coeff_b[:, i], ref.coeff_b[:, 0], rtol=1e-14)
        np.testing.assert_allclose(batch.smatrices[i], ref.smatrices[0], rtol=0, atol=1e-14)


def test_vderiv_errors_never_run_the_down_sweep():
    batch = ScatterBatch(build_stack([(1.0, 1.0), (0.5, 0.3)]), [0.5, 1.5])
    assert batch.errors("vderiv") == [None, None]
    assert "_coefficients" not in vars(batch)
    batch.errors("direct")
    assert "_coefficients" in vars(batch)


def test_non_finite_coefficients_fail_only_the_state_routes():
    # a finite S matrix whose down-sweep is not finite at the middle energy:
    # the V-derivative, which reads S only, keeps that energy
    stack = build_stack([(1.0, 1.0), (0.5, 0.3)])
    batch = ScatterBatch(stack, [0.5, 1.5, 2.5])
    _, top_join = batch._levels[-2]
    top_join[:, 1] = np.nan
    assert batch.failed.tolist() == [False, True, False]
    assert batch.errors("vderiv")[1] is None
    for route in ("direct", "green"):
        assert isinstance(batch.errors(route)[1], NumericalFailureError)
        assert batch.errors(route)[0] is None and batch.errors(route)[2] is None


def test_batch_matches_single_energy_solves(stack42):
    energies = [0.3, 0.77, 1.0, 2.9]
    batch = ScatterBatch(stack42, energies, v_shift=[0.0, 0.01, -0.02, 0.0])
    for i, (e, v) in enumerate(zip(energies, [0.0, 0.01, -0.02, 0.0])):
        ref = scattering_amplitudes(stack42.shifted(v) if v else stack42, e)
        assert batch.energies[i] == e and batch.errors("direct")[i] is None
        assert batch.open[:, i].all()
        np.testing.assert_allclose(batch.smatrices[i], ref.smatrices[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(batch.coeff_a[0, i], ref.coeff_a[0, 0],
                                   rtol=0, atol=1e-14)


def test_batch_solution_raises_like_single_solve():
    stack = build_stack([(1.0, 1.0)], v_left=0.5, v_right=2.0)
    batch = ScatterBatch(stack, [0.2, 0.5 + 1e-9, 1.2])
    for i, error in enumerate((NoOpenChannelError, ThresholdProximityError)):
        with pytest.raises(error) as single:
            scattering_amplitudes(stack, float(batch.energies[i]))
        got = batch.errors("direct")[i]
        assert type(got) is error and str(got) == str(single.value)
    assert batch.errors("direct")[2] is None and batch.open[0, 2]


def test_probability_integral_over_layer_arrays(rng):
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    k = np.array([0.7, 0.0, 1.3j, 2.0, 0.2j, 0.0], dtype=complex)
    d = rng.uniform(0.1, 2.0, size=6)
    per_layer = layer_probability_integral(a, b, k, d)
    assert per_layer.shape == (6,)
    for j in range(6):
        assert per_layer[j] == pytest.approx(
            layer_probability_integral(a[j], b[j], k[j], d[j]), rel=1e-14)
    with pytest.raises(ValidationError):
        layer_probability_integral(a, b, k, np.where(np.arange(6) == 3, -1.0, d))
    with pytest.raises(ValidationError):
        layer_probability_integral(a, b, k + np.array([0, 0, 0, 0.5j, 0, 0]), d)
