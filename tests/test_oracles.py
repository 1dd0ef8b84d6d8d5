from fractions import Fraction

import numpy as np
import pytest

from dwelldos.errors import NumericalFailureError, ValidationError
from dwelldos.model import (EnergyGrid, build_stack, double_barrier, free_stack,
                            rectangular_barrier)
from dwelldos.oracles import BoxSpec, box_dos, fd_green, quadrature_integral
from dwelldos.solver1d import dos_region_1d, greens_function_1d


# --------------------------------------------------------------------- simpson

def test_simpson_constant_exact():
    val = quadrature_integral(lambda x: np.ones_like(x, dtype=complex), 0.0, 2.0, 100)
    assert val == pytest.approx(2.0, abs=1e-15)


def test_simpson_sine():
    val = quadrature_integral(np.sin, 0.0, np.pi, 10_000)
    assert abs(val - np.pi / 2.0) < 1e-10


def test_simpson_fourth_order():
    f = lambda x: np.exp(np.sin(3.0 * x))
    exact = quadrature_integral(f, 0.0, 1.0, 2**16)
    e1 = abs(quadrature_integral(f, 0.0, 1.0, 64) - exact)
    e2 = abs(quadrature_integral(f, 0.0, 1.0, 128) - exact)
    assert 10.0 < e1 / e2 < 22.0  # ~16x per halving


def test_simpson_validates_panels():
    with pytest.raises(ValidationError):
        quadrature_integral(np.sin, 0.0, 1.0, 3)


# ------------------------------------------------------------------ box specs

def test_box_spec_validation():
    with pytest.raises(ValidationError, match="paddings"):
        BoxSpec(pad_left=0.0, pad_right=1.0, grid_step=0.1, eta=0.1)
    with pytest.raises(ValidationError, match="grid_step"):
        BoxSpec(pad_left=1.0, pad_right=1.0, grid_step=0.0, eta=0.1)
    with pytest.raises(ValidationError, match="eta"):
        BoxSpec(pad_left=1.0, pad_right=1.0, grid_step=0.1, eta=-0.1)


def test_box_spec_keeps_the_floats_it_reads():
    # the fields are kept as floats, so a Fraction padding gives the float DOS
    grid, stack = EnergyGrid(1.0, 2.0, 3), double_barrier()
    box = BoxSpec(Fraction(20), 20.0, 0.01, 0.05)
    assert {type(value) for value in (box.pad_left, box.pad_right, box.grid_step, box.eta)} == {
        float}
    dos = box_dos(stack, box, grid)
    assert dos.dtype == np.float64 and dos.min() > 0.1
    assert np.array_equal(dos, box_dos(stack, BoxSpec(20.0, 20.0, 0.01, 0.05), grid))


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: BoxSpec(np.nan, 1.0, 0.01, 0.01), "pad_left must be finite and > 0",
                 id="box-pad-nan"),
    pytest.param(lambda: BoxSpec("a", 1.0, 0.01, 0.01), "pad_left must be a number",
                 id="box-pad-text"),
    pytest.param(lambda: BoxSpec(1.0, 1.0, 0.01, np.inf), "eta must be finite and > 0",
                 id="box-eta-inf"),
    pytest.param(lambda: quadrature_integral(np.sin, 0.0, 1.0, 4.0),
                 "panels must be an integer >= 2, got 4.0", id="panels-float"),
    pytest.param(lambda: quadrature_integral(np.sin, 0.0, 1.0, True),
                 "panels must be an integer", id="panels-bool"),
    pytest.param(lambda: quadrature_integral(np.sin, np.nan, 1.0, 4), "a must be finite, got nan",
                 id="quadrature-a-nan"),
    pytest.param(lambda: quadrature_integral(np.sin, "a", 1.0, 4), "a must be a number, got 'a'",
                 id="quadrature-a-text"),
    pytest.param(lambda: quadrature_integral(np.sin, 0.0, np.inf, 4), "b must be finite",
                 id="quadrature-b-inf"),
])
def test_oracles_refuse_bad_input(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_box_invariants_enforced():
    barrier = rectangular_barrier(1.0, 1.0)
    # decay length at e_min = 0.5 is 1/sqrt(0.5) ~ 1.41; pads must be >= ~28
    small = BoxSpec(pad_left=5.0, pad_right=5.0, grid_step=0.05, eta=0.1)
    with pytest.raises(ValidationError, match="decay length"):
        box_dos(barrier, small, EnergyGrid(0.5, 1.0, 2))
    # coarse grid violates the 40-points-per-wavelength rule at e_max = 3
    coarse = BoxSpec(pad_left=50.0, pad_right=50.0, grid_step=0.5, eta=0.1)
    with pytest.raises(ValidationError, match="wavelength"):
        box_dos(free_stack(2.0), coarse, EnergyGrid(0.5, 3.0, 2))


# -------------------------------------------------------------------- box DOS

@pytest.fixture(scope="module")
def free_box():
    length = 402.0
    eta = 3.0 * 2.0 * np.pi * np.sqrt(2.0) / length
    return BoxSpec(pad_left=200.0, pad_right=200.0, grid_step=0.08, eta=eta)


def test_box_dos_free_within_two_percent(free2, free_box):
    grid = EnergyGrid(0.8, 3.0, 10)
    rho_box = box_dos(free2, free_box, grid)
    rho_ref = np.array([dos_region_1d(free2, float(e)) for e in grid.points])
    assert np.max(np.abs(rho_box - rho_ref) / rho_ref) < 0.02


def test_box_dos_barrier_within_two_percent(barrier, free_box):
    grid = EnergyGrid(1.4, 3.0, 9)
    rho_box = box_dos(barrier, free_box, grid)
    rho_ref = np.array([dos_region_1d(barrier, float(e)) for e in grid.points])
    assert np.max(np.abs(rho_box - rho_ref) / rho_ref) < 0.02


# -------------------------------------------------------------------- fd_green

@pytest.fixture(scope="module")
def green_box():
    return BoxSpec(pad_left=300.0, pad_right=300.0, grid_step=0.01, eta=1e-8)


def test_fd_green_free(free2, green_box):
    for e in (0.5, 1.0, 3.0):
        ref = greens_function_1d(free2, e, 1.0, 1.0)
        val = fd_green(free2, green_box, e, 1.0)
        assert abs(val - ref) / abs(ref) < 1e-4


def test_fd_green_mid_barrier(barrier, green_box):
    ref = greens_function_1d(barrier, 0.5, 0.5, 0.5)
    val = fd_green(barrier, green_box, 0.5, 0.5)
    assert abs(val - ref) / abs(ref) < 1e-4


def test_fd_green_second_order_in_h(free2):
    ref = greens_function_1d(free2, 1.0, 1.0, 1.0)
    errs = []
    for h in (0.04, 0.02):
        box = BoxSpec(pad_left=300.0, pad_right=300.0, grid_step=h, eta=1e-8)
        errs.append(abs(fd_green(free2, box, 1.0, 1.0) - ref))
    assert 2.5 < errs[0] / errs[1] < 6.0  # ~4x per halving


def test_fd_green_nan_energy_is_a_numerical_failure(free2, green_box):
    with pytest.raises(NumericalFailureError, match="E = nan"):
        fd_green(free2, green_box, float("nan"), 1.0)


def test_fd_green_multilayer(stack42, green_box):
    # layer boundaries at irrational positions are staircased onto the
    # grid, an O(h) interface shift the aligned fixtures above do not see
    e, x = 1.1, 2.0
    ref = greens_function_1d(stack42, e, x, x)
    val = fd_green(stack42, green_box, e, x)
    assert abs(val - ref) / abs(ref) < 2e-3
