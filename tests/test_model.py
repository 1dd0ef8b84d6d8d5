import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dwelldos.analysis import shifted_smatrix, verify_identity, wavepacket_dwell_time
from dwelldos.errors import ValidationError
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
    # build_stack reads every value with float(), a numeric string too
    assert build_stack([("1", 2), (0.5, "-1")], v_left="0.0") == st
    assert all(type(value) is float for layer in st.layers for value in layer)
    assert repr(st) == "LayerStack(layers=((1.0, 2.0), (0.5, -1.0)), v_left=0.0, v_right=0.0)"
    assert st.shifted(0.25).layers == ((1.0, 2.25), (0.5, -0.75))


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
