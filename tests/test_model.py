import json
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwelldos.analysis import shifted_smatrix, verify_identity, wavepacket_dwell_time
from dwelldos.errors import ValidationError
from dwelldos.solver1d import dos_region_1d, greens_function_1d, ldos_1d
from dwelldos.model import (
    EnergyGrid,
    LatticeRegion,
    LatticeSystem,
    LayerStack,
    SpectralWeight,
    Xorshift64Star,
    barrier_lattice,
    build_stack,
    channel_thresholds,
    double_barrier,
    gaussian_spectral_weight,
    palindromic_stack,
    random_lattice,
    random_stack,
    transverse_modes,
    uniform_lattice,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_build_stack_basic():
    st2 = build_stack([(2.0, 0.0)])
    assert st2.total_length == 2.0


def test_build_stack_rejects_bad_thickness():
    with pytest.raises(ValidationError, match="layer 1"):
        build_stack([(1.0, 0.0), (-0.5, 1.0)])
    with pytest.raises(ValidationError, match="layer 0"):
        build_stack([(0.0, 0.0)])
    with pytest.raises(ValidationError):
        build_stack([])


def test_build_stack_names_the_first_bad_layer():
    # layers are checked in order, each thickness before its potential
    with pytest.raises(ValidationError, match="layer 1: potential must be finite, got inf"):
        build_stack([(1.0, 0.0), (1.0, np.inf), (-1.0, 0.0)])
    for d in (0.0, -1.0, np.nan):
        with pytest.raises(ValidationError, match="layer 0: thickness must be finite and > 0"):
            build_stack([(d, np.nan)])
    with pytest.raises(ValidationError, match="layer 0: thickness must be finite and > 0"):
        build_stack([(np.inf, 0.0)])


def test_stack_layers_are_float_pairs():
    st = build_stack([(1, 2), (0.5, -1.0)])
    assert st.layers == ((1.0, 2.0), (0.5, -1.0))
    assert all(type(value) is float for layer in st.layers for value in layer)
    assert repr(st) == "LayerStack(layers=((1.0, 2.0), (0.5, -1.0)), v_left=0.0, v_right=0.0)"
    assert st.shifted(0.25).layers == ((1.0, 2.25), (0.5, -0.75))
    # a stack built directly keeps the float pairs it read, from any sequence
    direct = LayerStack([[1, np.float64(2.0)], np.array([0.5, -1.0])])
    assert direct == st and all(type(value) is float for layer in direct.layers for value in layer)
    assert build_stack(iter([(1, 2), (0.5, -1.0)])) == st


def test_build_stack_is_the_stack_reader():
    # build_stack is LayerStack's exported name, so a stack built directly
    # keeps the lead floats _number reads as a built one does: a Fraction
    # lead solves, and a float32 lead is no mirror of its float64 neighbour
    assert build_stack is LayerStack
    stack = LayerStack(((1.0, 1.0),), v_left=Fraction(1, 10))
    assert type(stack.v_left) is float and stack.v_left == 0.1
    assert dos_region_1d(stack, 1.5) == 0.1503293652040775
    assert not LayerStack(((1.0, 1.0),), v_left=np.float32(0.1), v_right=0.1).is_palindromic()


def _as(kind, x: float):
    """x as a value of `kind`, one that model._number reads (an integer kind rounds it)."""
    if kind in (int, np.int64):
        return kind(round(x))
    if kind is Fraction:
        return Fraction(x).limit_denominator(1000)
    return Decimal(repr(x)) if kind is Decimal else kind(x)


def _numbers(lo: float, hi: float):
    kinds = st.sampled_from([int, float, np.float32, np.float64, np.int64, Fraction, Decimal])
    return st.builds(_as, kinds, st.floats(lo, hi))


@settings(max_examples=40, deadline=None)
@given(d=_numbers(0.6, 3.0), v=_numbers(-2.0, 2.0), a=_numbers(-1.0, 1.0),
       b=_numbers(-1.0, 1.0), lo=_numbers(-3.0, 0.0), hi=_numbers(1.0, 4.0))
def test_model_types_keep_the_floats_their_readers_return(d, v, a, b, lo, hi):
    # each number kind _number reads is kept as its float, so a stack or a
    # grid built from it is the one built from the floats, and solves alike
    stack = LayerStack([(d, v)], a, b)
    floats = LayerStack([(float(d), float(v))], float(a), float(b))
    held = (*stack.layers[0], stack.v_left, stack.v_right)
    assert all(type(x) is float for x in held) and held == tuple(map(float, (d, v, a, b)))
    assert stack == floats and dos_region_1d(stack, 1.5) == dos_region_1d(floats, 1.5)
    points = EnergyGrid(lo, hi, 3).points
    assert points.dtype == np.float64
    assert np.array_equal(points, EnergyGrid(float(lo), float(hi), 3).points)


def test_grid_and_region_keep_the_numbers_their_readers_return():
    # bounds are kept as floats and sizes as ints, so the points are float64
    # whatever number kinds the bounds and the count are given as
    for lo in (np.float32(0.1), np.float16(0.1), Fraction(1, 10), Decimal("0.1")):
        grid = EnergyGrid(lo, 1, np.int64(3))
        assert (type(grid.e_min), type(grid.e_max), type(grid.count)) == (float, float, int)
        assert grid.points.dtype == np.float64
        assert np.array_equal(grid.points, EnergyGrid(float(lo), 1.0, 3).points)
    region = LatticeRegion(np.int64(0), 1, np.int32(0), 1)
    bounds = (region.col_min, region.col_max, region.row_min, region.row_max)
    assert {type(bound) for bound in bounds} == {int}
    lattice = LatticeSystem(np.int64(2), np.int64(3))
    assert (type(lattice.width), type(lattice.length)) == (int, int)


def test_total_length_is_the_last_boundary():
    # bit for bit on the stack-scan stacks of seeds 1-200: a second sum of
    # the thicknesses may round differently (Python's sum compensates from 3.12)
    for seed in range(1, 201):
        st = random_stack(seed, 40, (5.5, 6.5), (0.55, 0.65))
        assert st.total_length == st.boundaries[-1]


def test_stack_is_immutable():
    st = build_stack([(1.0, 1.0)])
    with pytest.raises(AttributeError):
        st.v_left = 2.0


def test_stack_arrays_are_built_once_and_read_only():
    from dwelldos.model import LayerStack

    st = build_stack([(0.5, 1.0), (1.5, -2.0), (1.0, 0.0)])
    assert st.thicknesses is st.thicknesses  # built in __post_init__, not per access
    np.testing.assert_array_equal(st.thicknesses, [0.5, 1.5, 1.0])
    np.testing.assert_array_equal(st.potentials, [1.0, -2.0, 0.0])
    np.testing.assert_array_equal(st.boundaries, [0.0, 0.5, 2.0, 3.0])
    assert st.total_length == 3.0
    for arr in (st.thicknesses, st.potentials, st.boundaries):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    for name in ("thicknesses", "potentials", "boundaries", "total_length"):
        assert isinstance(vars(LayerStack)[name], property)


def test_random_stack_reproducible():
    a = random_stack(42)
    b = random_stack(42)
    assert a == b
    assert random_stack(43) != a


def test_random_stack_matches_pinned_fixture():
    doc = json.loads((FIXTURES / "random_stack_seed42.json").read_text())
    st = random_stack(
        doc["seed"], doc["n_layers"],
        tuple(doc["v_range"]), tuple(doc["d_range"]),
        doc["v_left"], doc["v_right"],
    )
    for (d, v), ref in zip(st.layers, doc["layers"]):
        assert d == float(ref["d"])  # bit-identical
        assert v == float(ref["V"])


def test_xorshift_stream_is_stable():
    rng = Xorshift64Star(1)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = Xorshift64Star(1)
    assert first == [rng2.next_u64() for _ in range(3)]
    assert all(0.0 <= Xorshift64Star(9).next_float() < 1.0 for _ in range(50))
    # both ends of the seed range are taken, and give different streams
    assert Xorshift64Star(0).next_u64() != Xorshift64Star(2**64 - 1).next_u64()


def test_palindromic_stack_detection():
    assert palindromic_stack(3).is_palindromic()
    assert build_stack([(1, 1)]).is_palindromic()
    assert not build_stack([(1, 1), (1, 2)]).is_palindromic()
    assert not build_stack([(1, 1)], v_left=0.0, v_right=0.5).is_palindromic()


def test_channel_thresholds_stack():
    st = build_stack([(1, 1)], v_left=0.0, v_right=0.5)
    assert np.allclose(channel_thresholds(st), [0.0, 0.5])


def test_channel_thresholds_lattice():
    assert np.allclose(channel_thresholds(uniform_lattice(1, 4)), [-2.0, 2.0])
    # eps_m = -2 cos(m pi / 3) = -+1, edges at eps -+ 2
    assert np.allclose(channel_thresholds(uniform_lattice(2, 4)), [-3.0, -1.0, 1.0, 3.0])


def test_lattice_onsite_forms():
    # absent, one number or an array per site, as a config's `onsite` is
    assert LatticeSystem(2, 3).onsite.tolist() == [[0.0, 0.0]] * 3
    uniform = LatticeSystem(2, 3, 0.5).onsite
    assert uniform.shape == (3, 2) and not uniform.flags.writeable
    assert np.array_equal(uniform, np.full((3, 2), 0.5))
    assert np.array_equal(uniform, uniform_lattice(2, 3, 0.5).onsite)
    assert np.array_equal(LatticeSystem(2, 3, np.int64(-1)).onsite, np.full((3, 2), -1.0))
    for onsite, match in ((True, "onsite must be an array of numbers"),
                          ("0.5", "onsite must be an array of numbers"),
                          ([0.5], r"onsite must have shape \(length, width\) = \(3, 2\), "
                                   r"got \(1,\)"),
                          (np.nan, "onsite must have no non-finite entry")):
        with pytest.raises(ValidationError, match=match):
            LatticeSystem(2, 3, onsite)


def test_lattice_validation():
    with pytest.raises(ValidationError):
        LatticeSystem(width=2, length=3, onsite=np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        uniform_lattice(0, 4)
    sysm = uniform_lattice(2, 3)
    with pytest.raises(ValueError):
        sysm.onsite[0, 0] = 1.0  # frozen array


def test_lattice_regions():
    sysm = uniform_lattice(3, 5)
    assert sysm.region_sites().size == 15
    sites = replace(sysm, region=LatticeRegion(1, 3, 0, 1)).region_sites()
    assert sites.size == 6
    assert 1 * sysm.width + 0 in sites  # col * width + row
    assert np.all(np.diff(sites) > 0) and not sites.flags.writeable
    numpy_bounds = LatticeRegion(np.int64(1), np.int64(3), np.int32(0), np.int32(1))
    assert np.array_equal(replace(sysm, region=numpy_bounds).region_sites(), sites)
    with pytest.raises(ValidationError):
        replace(sysm, region=LatticeRegion(0, 5, 0, 2))
    with pytest.raises(ValidationError):
        LatticeRegion(2, 1, 0, 0)


def test_random_lattice_reproducible():
    a = random_lattice(7, 3, 10)
    b = random_lattice(7, 3, 10)
    assert np.array_equal(a.onsite, b.onsite)
    assert a.onsite.min() >= -0.5 and a.onsite.max() <= 0.5


def test_lattice_shifted_region_only():
    sysm = replace(uniform_lattice(2, 4), region=LatticeRegion(1, 2, 0, 1))
    shifted = sysm.shifted(0.25)
    assert shifted.region == sysm.region
    assert shifted.onsite[1, 0] == 0.25
    assert shifted.onsite[0, 0] == 0.0


@pytest.mark.parametrize("build", [lambda: uniform_lattice(2, 3),
                                   lambda: gaussian_spectral_weight(1.5, 0.1, 1.0, 2.0)],
                         ids=["lattice", "spectral-weight"])
def test_array_holders_compare_by_identity(build):
    # their fields are arrays, on which a field-wise == or hash raises
    a, b = build(), build()
    assert a == a and a != b
    assert {a: 1}[a] == 1 and hash(a) != hash(b)


def test_energy_grid():
    grid = EnergyGrid(0.0, 1.0, 11)
    assert grid.points.size == 11
    mask = grid.admissible_mask(np.array([0.5]))
    assert not mask[5] and mask[4]
    with pytest.raises(ValidationError):
        EnergyGrid(1.0, 0.0, 5)
    with pytest.raises(ValidationError):
        EnergyGrid(0.0, 1.0, 0)
    # the most points a grid holds, 2**51 + 1 on [-1, 1], build: they are made
    # only when read, and every check on count is O(1)
    assert EnergyGrid(-1.0, 1.0, 2**51 + 1).count == 2**51 + 1
    with pytest.raises(ValidationError, match=f"count must be <= {2**51 + 1} "):
        EnergyGrid(-1.0, 1.0, 2**51 + 2)


def test_energy_grid_steps_at_the_spacing_limit_increase():
    # 5 points 4 float spacings apart load and strictly increase; 6 points
    # over the same span would be 3.2 spacings apart and are refused
    lo, hi = 1.0, 1.0 + 16 * np.spacing(1.0)
    points = EnergyGrid(lo, hi, 5).points
    assert np.all(np.diff(points) > 0) and points[0] == lo and points[-1] == hi
    with pytest.raises(ValidationError, match="count must be <= 5 "):
        EnergyGrid(lo, hi, 6)
    # the bound that sets the spacing is the larger in magnitude
    assert np.all(np.diff(EnergyGrid(-hi, -lo, 5).points) > 0)
    with pytest.raises(ValidationError, match="count must be <= 5 "):
        EnergyGrid(-hi, -lo, 6)


@pytest.mark.parametrize("v_left, v_right", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_stack_rejects_non_finite_lead_potential(v_left, v_right):
    name = "v_right" if np.isfinite(v_left) else "v_left"
    with pytest.raises(ValidationError, match=f"{name} must be finite, got"):
        build_stack([(1.0, 0.0)], v_left=v_left, v_right=v_right)


@pytest.mark.parametrize("e_min, e_max", [
    (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
    # finite bounds whose span overflows, as Python and as numpy floats
    (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))])
def test_energy_grid_rejects_non_finite_bounds(e_min, e_max):
    with pytest.raises(ValidationError, match="finite"):
        EnergyGrid(e_min, e_max, 5)


def test_spectral_weight_normalization():
    e = np.linspace(1.0, 2.0, 101)
    w = 2.0 * np.ones_like(e)
    with pytest.raises(ValidationError):
        SpectralWeight(e, w)  # integrates to 2
    SpectralWeight(e, w / np.trapezoid(w, e))
    SpectralWeight(np.array([1.5]), np.array([1.0]))  # exact delta
    with pytest.raises(ValidationError):
        SpectralWeight(np.array([1.5]), np.array([0.9]))


_DELTA = SpectralWeight(np.array([1.5]), np.array([1.0]))


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: build_stack([(1.0, np.nan)]), "layer 0: potential must be finite",
                 id="layer-V-nan"),
    pytest.param(lambda: build_stack([(np.inf, 1.0)]),
                 "layer 0: thickness must be finite and > 0", id="layer-d-inf"),
    # each malformed layer, lead potential, grid bound or on-site array is named
    pytest.param(lambda: build_stack([(1.0,)]), r"layer 0: must be a \(thickness, potential\) pair",
                 id="layer-one-value"),
    pytest.param(lambda: build_stack([(1.0, 0.0), 1.0]), "layer 1: must be a", id="layer-number"),
    pytest.param(lambda: build_stack([(1.0, "x")]), "layer 0: potential must be a number",
                 id="layer-V-text"),
    pytest.param(lambda: build_stack([(1.0, 0.0)], v_left="a"), "v_left must be a number",
                 id="v_left-text"),
    # build_stack is LayerStack, so a numeric string is refused as everywhere
    pytest.param(lambda: build_stack([("1", 2)]), "layer 0: thickness must be a number, got '1'",
                 id="layer-d-numeric-string"),
    pytest.param(lambda: build_stack([(1.0, 2.0)], v_left="0.0"),
                 "v_left must be a number, got '0.0'", id="v_left-numeric-string"),
    pytest.param(lambda: random_stack(1, v_left="0.5"), "v_left must be a number, got '0.5'",
                 id="random-v_left-numeric-string"),
    pytest.param(lambda: LayerStack(((1.0, "2"),)), "layer 0: potential must be a number",
                 id="stack-layer-V-string"),
    pytest.param(lambda: LayerStack((("1", 2.0),)), "layer 0: thickness must be a number",
                 id="stack-layer-d-string"),
    pytest.param(lambda: LayerStack(((1.0, 2.0),), v_left=None), "v_left must be a number",
                 id="stack-v_left-None"),
    pytest.param(lambda: LayerStack(((1.0, 2.0),), v_right="0"), "v_right must be a number",
                 id="stack-v_right-string"),
    pytest.param(lambda: EnergyGrid(None, 1, 3), "e_min must be a number", id="grid-e_min-None"),
    pytest.param(lambda: EnergyGrid("0", "1", 3), "e_min must be a number",
                 id="grid-bounds-strings"),
    pytest.param(lambda: EnergyGrid(0.0, 10**400, 3), "e_max must be a number",
                 id="grid-e_max-past-float"),
    pytest.param(lambda: LatticeSystem(2, 2, "ab"), "onsite must be an array of numbers",
                 id="onsite-text"),
    pytest.param(lambda: random_stack(1, n_layers=0), "n_layers", id="n_layers-0"),
    # sizes and counts are integers, never bools, floats or inf
    pytest.param(lambda: random_stack(1, n_layers=2.5), "n_layers must be an integer",
                 id="n_layers-fraction"),
    pytest.param(lambda: palindromic_stack(1, n_half=True), "n_layers must be an integer",
                 id="n_half-bool"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, True), "count must be an integer",
                 id="grid-count-bool"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, 2.5), "count must be an integer",
                 id="grid-count-fraction"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, np.inf), "count must be an integer",
                 id="grid-count-inf"),
    # a count whose float64 points numpy cannot index is refused before any allocation:
    # it is far more points than the span resolves
    pytest.param(lambda: EnergyGrid(0.0, 1.0, np.iinfo(np.intp).max // 8 + 1),
                 "count must be <=", id="grid-count-past-index-limit"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, 2**62), "count must be <=", id="grid-count-2**62"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, 2**63 - 1), "count must be <=",
                 id="grid-count-2**63-1"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, np.int64(2**62)), "count must be <=",
                 id="grid-count-int64-2**62"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, 2**64), "count must be <=", id="grid-count-2**64"),
    # more points than the span resolves: linspace would repeat some
    pytest.param(lambda: EnergyGrid(1.0, 1.0 + 2.2e-16, 5), "count must be <=",
                 id="grid-count-repeats-points"),
    pytest.param(lambda: EnergyGrid(2**60, 2**60 + 1, 3), "count must be <=",
                 id="grid-bounds-one-float"),
    # finite layers whose total length overflows
    pytest.param(lambda: build_stack([(1e308, 0.0), (1e308, 0.0)]), "total length",
                 id="stack-length-overflow"),
    pytest.param(lambda: uniform_lattice(2.0, 3), "width must be an integer",
                 id="lattice-width-float"),
    pytest.param(lambda: random_lattice(1, 2, 3.0), "length must be an integer",
                 id="lattice-length-float"),
    pytest.param(lambda: barrier_lattice(2, False, [0], 1.0), "length must be an integer",
                 id="lattice-length-bool"),
    pytest.param(lambda: LatticeSystem(2.5, 3, np.zeros((3, 2))), "width must be an integer",
                 id="system-width-fraction"),
    pytest.param(lambda: LatticeSystem(2, 0, np.zeros((0, 2))), "length must be an integer",
                 id="system-length-0"),
    pytest.param(lambda: transverse_modes(1.5), "width must be an integer",
                 id="modes-width-fraction"),
    # the Gaussian weight checks its parameters before computing anything
    pytest.param(lambda: gaussian_spectral_weight(1.0, 0.0, 0.0, 2.0), "sigma",
                 id="gaussian-sigma-0"),
    pytest.param(lambda: gaussian_spectral_weight(1.0, np.nan, 0.0, 2.0), "sigma",
                 id="gaussian-sigma-nan"),
    pytest.param(lambda: gaussian_spectral_weight(1.0, 0.1, 0.0, 2.0, count=1),
                 "count must be an integer >= 2", id="gaussian-count-1"),
    pytest.param(lambda: gaussian_spectral_weight(1.0, 0.1, 0.0, 2.0, count=10.0),
                 "count must be an integer", id="gaussian-count-float"),
    pytest.param(lambda: gaussian_spectral_weight(1.0, 0.1, 0.0, np.inf), "must be finite",
                 id="gaussian-e_max-inf"),
    # no sample within reach of e0: refused for that, without a RuntimeWarning
    pytest.param(lambda: gaussian_spectral_weight(100.0, 0.1, 0.0, 1.0), "no weight on",
                 id="gaussian-e0-off-grid"),
    pytest.param(lambda: gaussian_spectral_weight(0.3001, 1e-300, 0.0, 1.0), "no weight on",
                 id="gaussian-sigma-1e-300-between-points"),
    # the generator keeps 64 bits: seed 2**64 + 1 would build random_stack(1)
    pytest.param(lambda: random_stack(2**64 + 1), "seed", id="seed-2**64+1"),
    pytest.param(lambda: random_stack(-1), "seed", id="seed-negative"),
    pytest.param(lambda: random_stack(1.0), "seed", id="seed-float"),
    pytest.param(lambda: random_stack(True), "seed", id="seed-bool"),
    pytest.param(lambda: random_lattice(2**70, 2, 3), "seed", id="lattice-seed-2**70"),
    pytest.param(lambda: random_stack(1, v_range=(0.0, 1.0, 2.0)), "v_range", id="v_range-3"),
    pytest.param(lambda: random_stack(1, v_range="ab"), "v_range", id="v_range-text"),
    pytest.param(lambda: random_stack(1, d_range=(0.5, np.inf)), "d_range", id="d_range-inf"),
    pytest.param(lambda: random_stack(1, d_range=1.0), "d_range", id="d_range-number"),
    pytest.param(lambda: random_lattice(1, 2, 3, (np.nan, 0.5)), "v_range",
                 id="lattice-v_range-nan"),
    pytest.param(lambda: LatticeRegion(-1, 0, 0, 0), "col_min must be an integer >= 0, got -1",
                 id="region-col"),
    pytest.param(lambda: LatticeRegion(0, 0, -1, 0), "row_min must be an integer >= 0, got -1",
                 id="region-row"),
    pytest.param(lambda: LatticeRegion(0, 1.5, 0, 1), "col_max must be an integer >= 0, got 1.5",
                 id="region-fraction"),
    pytest.param(lambda: LatticeRegion(0, True, 0, 1),
                 "col_max must be an integer >= 0, got True", id="region-bool"),
    pytest.param(lambda: LatticeSystem(2, 1, [[np.nan, 0.0]]), "non-finite", id="onsite-nan"),
    pytest.param(lambda: LatticeSystem(2, 1, [[0.0, -np.inf]]), "non-finite", id="onsite-inf"),
    pytest.param(lambda: transverse_modes(0), "width", id="modes-width-0"),
    pytest.param(lambda: channel_thresholds(object()), "unsupported system type object",
                 id="thresholds-no-system"),
    pytest.param(lambda: verify_identity(object(), EnergyGrid(0.0, 1.0, 3)),
                 "unsupported system type object", id="verify-no-system"),
    pytest.param(lambda: SpectralWeight([0.0, 1.0], [1.0]), "matching", id="weight-shape"),
    pytest.param(lambda: SpectralWeight([[1.0]], [[1.0]]), "matching", id="weight-2d"),
    pytest.param(lambda: SpectralWeight([], []), "matching", id="weight-empty"),
    pytest.param(lambda: SpectralWeight([0.0, 0.0], [1.0, 1.0]), "increasing",
                 id="weight-not-increasing"),
    pytest.param(lambda: SpectralWeight([0, 1, 2], [0.5, np.nan, 0.5]), "finite",
                 id="weight-nan"),
    pytest.param(lambda: SpectralWeight([0, 1, 2], [0.5, np.inf, 0.5]), "finite",
                 id="weight-inf"),
    pytest.param(lambda: SpectralWeight([0, np.nan, 2], [0.5, 0.5, 0.5]), "finite",
                 id="weight-energy-nan"),
    pytest.param(lambda: SpectralWeight([0, 1, 2], [1.5, -0.5, 0.5]), "nonnegative",
                 id="weight-negative"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, [1.0, 2.0], [1.0]), "matching",
                 id="tau-shape"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, [], []), "matching", id="tau-empty"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, [2.0, 1.0], [1.0, 1.0]), "increasing",
                 id="tau-not-increasing"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, [1.0, 2.0], [1.0, np.nan]), "finite",
                 id="tau-nan"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, [1.0, 2.0], [np.inf, 1.0]), "finite",
                 id="tau-inf"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, [1.0, np.nan], [1.0, 1.0]), "finite",
                 id="tau-energy-nan"),
    # a column index out of the strip, or no integer, would raise the wrong
    # column (-1: the last) or every site (True), or escape as an IndexError
    pytest.param(lambda: barrier_lattice(2, 10, [-1], 1.0),
                 r"barrier_cols\[0\] must be an integer in \[0, 10\), got -1",
                 id="barrier-column-negative"),
    pytest.param(lambda: barrier_lattice(2, 10, [10], 1.0),
                 r"barrier_cols\[0\] must be an integer in \[0, 10\), got 10",
                 id="barrier-column-length"),
    pytest.param(lambda: barrier_lattice(2, 10, [3, 10], 1.0), r"barrier_cols\[1\] .*got 10",
                 id="barrier-second-column-length"),
    pytest.param(lambda: barrier_lattice(2, 10, [True], 1.0), r"barrier_cols\[0\] .*got True",
                 id="barrier-column-bool"),
    pytest.param(lambda: barrier_lattice(2, 10, [2.5], 1.0), r"barrier_cols\[0\] .*got 2.5",
                 id="barrier-column-fraction"),
    pytest.param(lambda: barrier_lattice(2, 10, [3], "x"), "barrier_height must be a number",
                 id="barrier-height-text"),
    pytest.param(lambda: uniform_lattice(2, 3, "a"), "v must be a number", id="uniform-v-text"),
    # every scalar a caller passes is read by model._number or model._size, which
    # refuse a bool, a string, a non-scalar, NaN and inf by the argument's name
    pytest.param(lambda: gaussian_spectral_weight(1, "a", 0, 2), "sigma must be a number, got 'a'",
                 id="gaussian-sigma-text"),
    pytest.param(lambda: barrier_lattice(2, 10, 3, 1.0),
                 "barrier_cols must be a sequence of columns, got 3", id="barrier-cols-number"),
    pytest.param(lambda: shifted_smatrix(double_barrier(), 1.0, "a"),
                 "v_shift must be a number, got 'a'", id="smatrix-shift-text"),
    pytest.param(lambda: shifted_smatrix(double_barrier(), 1.0, np.nan),
                 "v_shift must be finite, got nan", id="smatrix-shift-nan"),
    pytest.param(lambda: shifted_smatrix(double_barrier(), 1.0, None),
                 "v_shift must be a number, got None", id="smatrix-shift-None"),
    # an integer past float range is shown by its size: Python prints none
    # past 4300 digits
    pytest.param(lambda: uniform_lattice(2, 3, 10**5000),
                 "v must be a number, got an integer of 16610 bits", id="uniform-v-10**5000"),
    pytest.param(lambda: random_stack(10**5000),
                 r"seed must be an integer in \[0, 18446744073709551616\), "
                 "got an integer of 16610 bits", id="seed-10**5000"),
    pytest.param(lambda: EnergyGrid(0.0, 1.0, 10**5000),
                 "count must be <= .* got an integer of 16610 bits", id="grid-count-10**5000"),
    pytest.param(lambda: uniform_lattice(2, 3, [10**5000]),
                 "v must be a number, got a list too long to print", id="uniform-v-list-10**5000"),
    # a bool is no number, as the CLI refuses JSON's true
    pytest.param(lambda: LayerStack(((1.0, 2.0),), v_left=True),
                 "v_left must be a number, got True", id="stack-v_left-True"),
    pytest.param(lambda: EnergyGrid(0.0, True, 3), "e_max must be a number, got True",
                 id="grid-e_max-True"),
    pytest.param(lambda: uniform_lattice(2, 3, True), "v must be a number, got True",
                 id="uniform-v-True"),
    pytest.param(lambda: uniform_lattice(2, 3, np.True_), "v must be a number",
                 id="uniform-v-numpy-True"),
    pytest.param(lambda: build_stack([(True, 1.0)]),
                 "layer 0: thickness must be a number, got True", id="layer-d-True"),
    pytest.param(lambda: random_stack(1, v_range=(0.0, True)),
                 r"v_range\[1\] must be a number, got True", id="v_range-True"),
    pytest.param(lambda: uniform_lattice(2, 3, np.array([1.0])), "v must be a number",
                 id="uniform-v-array"),
    # an argument of the wrong type is named with the type it must have
    pytest.param(lambda: LatticeSystem(2, 3, np.zeros((3, 2)), region=(0, 1, 0, 1)),
                 "region must be a LatticeRegion or None, got tuple", id="system-region-tuple"),
    pytest.param(lambda: verify_identity(double_barrier(), (1, 2, 3)),
                 "grid must be an EnergyGrid, got tuple", id="verify-grid-tuple"),
    # a shift is read as every number: no string, and no bool read as 1
    pytest.param(lambda: double_barrier().shifted("a"), "dv must be a number, got 'a'",
                 id="stack-shift-text"),
    pytest.param(lambda: uniform_lattice(2, 3).shifted(True), "dv must be a number, got True",
                 id="lattice-shift-True"),
    # numpy reads these on-site arrays as bools, strings or objects, never as numbers
    pytest.param(lambda: LatticeSystem(2, 2, np.full((2, 2), True)),
                 "onsite must be an array of numbers", id="onsite-bools"),
    pytest.param(lambda: LatticeSystem(2, 2, [["0", "1"], ["2", "3"]]),
                 "onsite must be an array of numbers", id="onsite-strings"),
    pytest.param(lambda: LatticeSystem(2, 2, [[True, "1.5"], [0, 0]]),
                 "onsite must be an array of numbers", id="onsite-mixed"),
    pytest.param(lambda: LatticeSystem(2, 2, [[0.0, None], [0.0, 0.0]]),
                 "onsite must be an array of numbers", id="onsite-None"),
    # the method list has one reader, analysis._methods
    pytest.param(lambda: verify_identity(double_barrier(), EnergyGrid(1.0, 2.0, 3), methods=3),
                 "methods must be a non-empty list", id="methods-number"),
    pytest.param(lambda: verify_identity(double_barrier(), EnergyGrid(1.0, 2.0, 3),
                                         methods=[["direct"]]),
                 "methods must be a non-empty list", id="methods-nested"),
    pytest.param(lambda: verify_identity(double_barrier(), EnergyGrid(1.0, 2.0, 3),
                                         methods={"direct": False, "green": False}),
                 "methods must be a non-empty list", id="methods-dict"),
    # every array a caller passes is read by model._array, which refuses one
    # that numpy reads as bools, strings or objects
    pytest.param(lambda: ldos_1d(double_barrier(), 1.0, "0.5"),
                 "x must be an array of numbers", id="ldos-x-string"),
    pytest.param(lambda: ldos_1d(double_barrier(), 1.0, True),
                 "x must be an array of numbers", id="ldos-x-True"),
    pytest.param(lambda: greens_function_1d(double_barrier(), 1.0, 0.5, [None]),
                 "x' must be an array of numbers", id="green-xp-None"),
    pytest.param(lambda: wavepacket_dwell_time(_DELTA, ["1", "2"], [1.0, 1.0]),
                 "tau curve: energies must be an array of numbers", id="tau-energies-strings"),
    pytest.param(lambda: SpectralWeight(np.array([1.5]), [True]),
                 "spectral weight: values must be an array of numbers", id="weight-bools"),
    # every pair and list is read by model._sequence, which refuses text, a
    # mapping, a set (read in hash order) and what does not iterate, where
    # unpacking read "12" as (1, 2) and a mapping or a set by its keys
    pytest.param(lambda: build_stack(["12"]), r"layer 0: must be a \(thickness, potential\) pair",
                 id="layer-text"),
    pytest.param(lambda: build_stack([{1.0: "a", 2.0: "b"}]),
                 r"layer 0: must be a \(thickness, potential\) pair", id="layer-mapping"),
    pytest.param(lambda: build_stack({(1.0, 2.0): "x"}),
                 r"layers must be a sequence of \(thickness, potential\) pairs",
                 id="layers-mapping"),
    pytest.param(lambda: LayerStack(layers=({1.0: 0, 2.0: 0},)),
                 r"layer 0: must be a \(thickness, potential\) pair", id="stack-layer-mapping"),
    pytest.param(lambda: LayerStack(5), r"layers must be a sequence of \(thickness, potential\)",
                 id="stack-layers-number"),
    pytest.param(lambda: random_stack(1, v_range={0.0: 1, 2.0: 2}),
                 r"v_range must be a \(lo, hi\) pair", id="v_range-mapping"),
    pytest.param(lambda: random_stack(1, d_range={0.5, 1.5}), r"d_range must be a \(lo, hi\) pair",
                 id="d_range-set"),
    pytest.param(lambda: barrier_lattice(2, 10, {3: "x"}, 1.0),
                 "barrier_cols must be a sequence of columns", id="barrier-cols-mapping"),
])
def test_model_refuses_bad_input(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_gaussian_weight_normalized():
    sw = gaussian_spectral_weight(1.5, 0.1, 1.0, 2.0)
    assert abs(np.trapezoid(sw.weights, sw.energies) - 1.0) < 1e-12


def test_narrowest_gaussian_on_a_grid_point_is_valid():
    # sigma = 1e-300 overflows the square at every other point, whose
    # weight is then 0: all of it sits on the point e0 = 0.5 of 801
    sw = gaussian_spectral_weight(0.5, 1e-300, 0.0, 1.0)
    assert np.flatnonzero(sw.weights).tolist() == [400] and sw.energies[400] == 0.5
    assert abs(np.trapezoid(sw.weights, sw.energies) - 1.0) < 1e-12
