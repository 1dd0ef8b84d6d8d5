"""Domain types and unit conventions shared by all solvers.

Units: hbar = 1 everywhere.  The continuum backend uses 2m = 1, so
E = k^2 and the group velocity is v = dE/dk = 2k.  The lattice backend
uses hopping t = 1 (bond value -1) and spacing a = 1, so a transverse
mode (chi_m, eps_m from transverse_modes, their one source) disperses as
E = eps_m - 2 cos k with v = 2 sin k.  A channel is its label: "left" and
"right" on a stack, "left:m" and "right:m" (m = 1 .. W) on a lattice.
Times are in units of hbar/energy, densities of states in states per unit energy.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ClosedChannelError,
    NoOpenChannelError,
    NumericalFailureError,
    ThresholdProximityError,
    ValidationError,
)

Array = np.ndarray

HBAR = 1.0
FLUX_FACTOR = 2.0 * np.pi * HBAR  # ratio of unit-amplitude to energy-normalized flux


# ----------------------------------------------------------------------------
# Reproducible PRNG for seeded fixtures
# ----------------------------------------------------------------------------

_XS_MULT = 0x2545F4914F6CDD1D
_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* generator (shifts 12/25/27, multiplier 0x2545F4914F6CDD1D).

    Used for every seeded builder so fixtures are bit-identical on all
    platforms.  The state has 64 bits, so a seed outside [0, 2**64) is
    refused rather than folded onto another; a zero seed is remapped to a
    fixed nonzero state.
    """

    def __init__(self, seed: int):
        self.state = _size("seed", seed, minimum=0, below=_MASK64 + 1) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _XS_MULT) & _MASK64

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def _refused(name: str, rule: str, value) -> ValidationError:
    """The error "{name} must be {rule}, got {value!r}", showing an integer past float
    range by its size, and a value whose repr passes Python's 4300 digits by its type."""
    shown = f"a {type(value).__name__} too long to print"
    with suppress(ValueError):
        shown = repr(value)
    if isinstance(value, int) and abs(value) >= 2**1024:
        shown = f"an integer of {value.bit_length()} bits"
    return ValidationError(f"{name} must be {rule}, got {shown}")


def _number(name: str, value, *, text=False, minimum=None, above=None) -> float:
    """The one reader of a real number a caller passes, by float(); refused, naming `name`:
    a bool, a string unless `text` (a field kept as given would compare as one), a non-scalar,
    what float() cannot read, NaN, +-inf, a value below `minimum` or not above `above`."""
    number = None
    if not isinstance(value, (bool, np.bool_) if text else (bool, np.bool_, str, bytes)):
        with suppress(TypeError, ValueError, OverflowError):
            number = float(value) if getattr(value, "ndim", 0) == 0 else None
    if number is None:
        raise _refused(name, "a number", value)
    if not (np.isfinite(number) and (minimum is None or number >= minimum)
            and (above is None or number > above)):
        raise _refused(name, "finite" + ("" if minimum is None else f" and >= {minimum:g}")
                       + ("" if above is None else f" and > {above:g}"), value)
    return number


def _size(name: str, value, minimum: int = 1, below: int | None = None) -> int:
    """The one reader of a size, count, index or seed: an int in [minimum, below), no bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum or (below is not None and value >= below)):
        raise _refused(name, f"an integer >= {minimum}" if below is None
                       else f"an integer in [{minimum}, {below})", value)
    return int(value)


def _range(name: str, pair) -> tuple[float, float]:
    """A seeded builder's (lo, hi) range as two _number floats."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise _refused(name, "a (lo, hi) pair", pair) from None
    return _number(f"{name}[0]", lo), _number(f"{name}[1]", hi)


def _layer(i: int, layer, text: bool = False) -> tuple[float, float]:
    """Layer i as a (thickness, potential) pair of _number floats, the thickness > 0."""
    try:
        d, v = layer
    except (TypeError, ValueError):
        raise _refused(f"layer {i}:", "a (thickness, potential) pair", layer) from None
    return (_number(f"layer {i}: thickness", d, text=text, above=0.0),
            _number(f"layer {i}: potential", v, text=text))


# ----------------------------------------------------------------------------
# 1D layer stacks
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerStack:
    """Piecewise-constant 1D potential with semi-infinite asymptotic regions.

    `layers` holds one (thickness, potential) float pair per layer, left
    to right.  The scattering region Omega is exactly the union of the
    layers, occupying [0, L] with L the last of the `boundaries`.
    """

    layers: tuple[tuple[float, float], ...]
    v_left: float = 0.0
    v_right: float = 0.0

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValidationError("a stack needs at least one layer")
        _number("v_left", self.v_left), _number("v_right", self.v_right)
        # the layer arrays are built once here and handed out read-only
        thick, pots = np.array([_layer(i, layer) for i, layer in enumerate(self.layers)]).T.copy()
        with np.errstate(over="ignore"):  # inf where the total length overflows
            bounds = np.concatenate(([0.0], np.cumsum(thick)))
        if not np.isfinite(bounds[-1]):
            raise ValidationError("the total length of the layers must be finite")
        for name, arr in (("_thicknesses", thick), ("_potentials", pots), ("_boundaries", bounds)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def total_length(self) -> float:
        return float(self._boundaries[-1])

    @property
    def boundaries(self) -> Array:
        """Interface positions x_0 = 0, ..., x_n = L."""
        return self._boundaries

    @property
    def thicknesses(self) -> Array:
        return self._thicknesses

    @property
    def potentials(self) -> Array:
        return self._potentials

    def is_palindromic(self) -> bool:
        """Exact mirror symmetry (a modeling input, so no tolerance)."""
        if self.v_left != self.v_right:
            return False
        return self.layers == tuple(reversed(self.layers))

    def shifted(self, dv: float) -> "LayerStack":
        """Same stack with dv added to every layer potential (Omega only)."""
        return LayerStack(
            layers=tuple((d, v + dv) for d, v in self.layers),
            v_left=self.v_left,
            v_right=self.v_right,
        )


def build_stack(
    layers: Iterable[tuple[float, float]],
    v_left: float = 0.0,
    v_right: float = 0.0,
) -> LayerStack:
    """Build a validated stack from (thickness, potential) pairs, each value
    read by float(), a numeric string too."""
    return LayerStack(layers=tuple(_layer(i, layer, True) for i, layer in enumerate(layers)),
                      v_left=_number("v_left", v_left, text=True),
                      v_right=_number("v_right", v_right, text=True))


def free_stack(length: float = 2.0) -> LayerStack:
    return build_stack([(length, 0.0)])


def rectangular_barrier(thickness: float = 1.0, height: float = 1.0) -> LayerStack:
    return build_stack([(thickness, height)])


def double_barrier(
    barrier_thickness: float = 0.5,
    barrier_height: float = 12.0,
    well_width: float = 2.0,
    well_depth: float = 0.0,
) -> LayerStack:
    """Symmetric double barrier: barrier / well / barrier."""
    return build_stack(
        [
            (barrier_thickness, barrier_height),
            (well_width, well_depth),
            (barrier_thickness, barrier_height),
        ]
    )


def random_stack(
    seed: int,
    n_layers: int = 5,
    v_range: tuple[float, float] = (0.0, 2.0),
    d_range: tuple[float, float] = (0.5, 1.5),
    v_left: float = 0.0,
    v_right: float = 0.0,
) -> LayerStack:
    """Seeded random stack; identical on every platform.

    Draws thickness then potential for each layer in order from one
    Xorshift64Star stream.
    """
    n_layers = _size("n_layers", n_layers)
    rng = Xorshift64Star(seed)
    d_range, v_range = _range("d_range", d_range), _range("v_range", v_range)
    layers = []
    for _ in range(n_layers):
        d = rng.uniform(*d_range)
        v = rng.uniform(*v_range)
        layers.append((d, v))
    return build_stack(layers, v_left=v_left, v_right=v_right)


def palindromic_stack(seed: int, n_half: int = 3, **kwargs) -> LayerStack:
    """Seeded mirror-symmetric stack: half + reversed half."""
    half = random_stack(seed, n_layers=n_half, **kwargs)
    layers = half.layers + tuple(reversed(half.layers))
    return LayerStack(layers=layers, v_left=half.v_left, v_right=half.v_right)


# ----------------------------------------------------------------------------
# Quasi-1D lattices
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeRegion:
    """Rectangular site subset [col_min, col_max] x [row_min, row_max], inclusive."""

    col_min: int
    col_max: int
    row_min: int
    row_max: int

    def __post_init__(self):
        for name in ("col_min", "col_max", "row_min", "row_max"):
            _size(name, getattr(self, name), minimum=0)
        if self.col_min > self.col_max or self.row_min > self.row_max:
            raise ValidationError("empty lattice region")


@dataclass(frozen=True, eq=False)
class LatticeSystem:
    """Tight-binding scattering region with two semi-infinite leads.

    Device sites live on a width x length grid with on-site energies
    ``onsite[col, row]``; every nearest-neighbor bond carries hopping -1.
    Ideal leads of the same width (zero on-site) attach at columns 0 and
    length - 1.  Omega is `region`, checked to lie inside the device, or
    the whole device when it is None.  Equality and hash are identity
    (a field is an array).
    """

    width: int
    length: int
    onsite: Array
    region: LatticeRegion | None = None

    def __post_init__(self):
        _size("width", self.width)
        _size("length", self.length)
        try:
            arr = np.asarray(self.onsite, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("onsite must be an array of numbers") from None
        if arr.shape != (self.length, self.width):
            raise ValidationError(
                f"onsite must have shape (length, width) = "
                f"({self.length}, {self.width}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("non-finite on-site energy")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "onsite", arr)
        if not isinstance(self.region, (LatticeRegion, type(None))):
            raise ValidationError(
                f"region must be a LatticeRegion or None, got {type(self.region).__name__}")
        r = self.region or LatticeRegion(0, self.length - 1, 0, self.width - 1)
        if r.col_max >= self.length or r.row_max >= self.width:
            raise ValidationError("region exceeds device bounds")
        cols, rows = np.arange(r.col_min, r.col_max + 1), np.arange(r.row_min, r.row_max + 1)
        sites = (cols[:, None] * self.width + rows[None, :]).ravel()
        sites.setflags(write=False)
        object.__setattr__(self, "_sites", sites)

    @property
    def n_sites(self) -> int:
        return self.width * self.length

    def region_sites(self) -> Array:
        """Flat site indices of Omega, ascending and read-only."""
        return self._sites

    def is_palindromic(self) -> bool:
        """Exact mirror symmetry of the device and of Omega."""
        r = self.region
        return ((r is None or r.col_min + r.col_max == self.length - 1)
                and bool(np.array_equal(self.onsite, self.onsite[::-1, :])))

    def shifted(self, dv: float) -> "LatticeSystem":
        """Same system and Omega with dv added on the Omega sites only."""
        arr = np.array(self.onsite, dtype=float)
        arr.reshape(-1)[self.region_sites()] += dv
        return LatticeSystem(self.width, self.length, arr, self.region)


def transverse_modes(width: int) -> tuple[Array, Array]:
    """Orthonormal transverse profiles of a strip of this width (columns of
    chi, chi_m(j) = sqrt(2/(W+1)) sin(m pi j / (W+1))) and their energies
    eps_m = -2 cos(m pi / (W+1)), m = 1 .. W."""
    width = _size("width", width)
    j = m = np.arange(1, width + 1)  # site rows and mode numbers
    chi = np.sqrt(2.0 / (width + 1)) * np.sin(np.outer(j, m) * np.pi / (width + 1))
    eps = -2.0 * np.cos(m * np.pi / (width + 1))
    return chi, eps


def _blank(width: int, length: int) -> Array:
    """Zero on-site energies (length, width), the sizes checked first."""
    return np.zeros((_size("length", length), _size("width", width)))


def uniform_lattice(width: int, length: int, v: float = 0.0) -> LatticeSystem:
    return LatticeSystem(width, length, _blank(width, length) + _number("v", v))


def random_lattice(
    seed: int,
    width: int,
    length: int,
    v_range: tuple[float, float] = (-0.5, 0.5),
) -> LatticeSystem:
    """Seeded on-site disorder, drawn column by column, row within column."""
    rng = Xorshift64Star(seed)
    v_range = _range("v_range", v_range)
    arr = _blank(width, length)
    for c in range(length):
        for r in range(width):
            arr[c, r] = rng.uniform(*v_range)
    return LatticeSystem(width, length, arr)


def barrier_lattice(
    width: int,
    length: int,
    barrier_cols: Sequence[int],
    barrier_height: float,
) -> LatticeSystem:
    """Uniform device with raised on-site energy on selected columns, each an
    integer (not a bool) in [0, length)."""
    arr, height = _blank(width, length), _number("barrier_height", barrier_height)
    if not np.iterable(barrier_cols):
        raise _refused("barrier_cols", "a sequence of columns", barrier_cols)
    for i, c in enumerate(barrier_cols):
        arr[_size(f"barrier_cols[{i}]", c, minimum=0, below=len(arr)), :] = height
    return LatticeSystem(width, length, arr)


# ----------------------------------------------------------------------------
# Energy grids and spectral weights
# ----------------------------------------------------------------------------

# Energies within this margin of a channel threshold are refused: the
# incident velocity vanishes there.  The skip rule of both solvers,
# energy_errors, and EnergyGrid.admissible_mask share one compare with it.
THRESHOLD_MARGIN = 1e-6


def channel_thresholds(system: LayerStack | LatticeSystem) -> Array:
    """Sorted channel-opening energies, each once.

    Stacks open a channel at each asymptotic potential; lattice leads open
    and close one per transverse mode at the band edges eps_m -+ 2.
    """
    if isinstance(system, LayerStack):  # not np.unique, whose first call imports numpy.ma
        return np.array(sorted({system.v_left, system.v_right}))
    if isinstance(system, LatticeSystem):
        _, eps = transverse_modes(system.width)
        return np.sort(np.concatenate([eps - 2.0, eps + 2.0]))  # distinct: |eps_m| < 2
    raise ValidationError(f"unsupported system type {type(system).__name__}")


def _near_threshold(energies: Array, thresholds: Array) -> Array:
    """(energy, threshold) mask, True within THRESHOLD_MARGIN."""
    return np.abs(np.subtract.outer(energies, thresholds)) <= THRESHOLD_MARGIN


def first_errors(rows, **values) -> list:
    """Per energy, None or the error of its first failing row.  A row is one
    check: a mask over the energies, True where it fails, an error class and
    a message template.  An energy's error is built from its first row only,
    the template formatted with each of the `values` arrays at that energy."""
    errors: list = [None] * len(rows[0][0])
    for mask, cls, template in rows:
        for i in np.flatnonzero(mask):
            errors[i] = errors[i] or cls(template.format(**{k: v[i] for k, v in values.items()}))
    return errors


def energy_errors(system: LayerStack | LatticeSystem, energies, opened: Array,
                  *rows, **values) -> list:
    """first_errors of the skip rule of both solvers (a non-finite energy, a
    threshold within THRESHOLD_MARGIN, no open channel in the (channel,
    energy) mask `opened`), then of a batch's own `rows` and `values`; E is
    the energy.  The identity sums over open channels, so a threshold or no
    open channel leaves nothing to check."""
    thresholds = channel_thresholds(system)
    energies = np.asarray(energies, dtype=float)
    near = _near_threshold(energies, thresholds)
    return first_errors([
        (~np.isfinite(energies), NumericalFailureError, "non-finite energy E = {E}"),
        (near.any(axis=1), ThresholdProximityError,
         f"E = {{E}} within {THRESHOLD_MARGIN} of channel threshold {{threshold}}"),
        (~opened.any(axis=0), NoOpenChannelError, "no open lead channel at E = {E}"),
        *rows], E=energies.tolist(), threshold=thresholds[near.argmax(axis=1)], **values)


def channel_index(labels: Sequence[str], opened: Array, label: str, energy: float,
                  error: Exception | None = None) -> int:
    """Position of channel `label` among a batch's `labels`, by the rule of every
    single-energy route: an unknown label is a ValidationError, then the energy's
    own `error` is raised, then a channel False in `opened` is a ClosedChannelError."""
    if label not in labels:
        raise ValidationError(f"channel {label!r} not open at E = {energy}: no such channel")
    if error is not None:
        raise error
    if not opened[labels.index(label)]:
        raise ClosedChannelError(f"channel {label!r} closed at E = {energy}")
    return labels.index(label)


def single_energy(batch, route: str = "direct", channel: str | None = None) -> int | None:
    """The rule of every single-energy function on `batch`, a batch of either backend
    at one energy, judged by batch.errors(route) alone: with a `channel`,
    channel_index's rule gives the channel's position; without one, the error is raised."""
    (error,) = batch.errors(route)
    if channel is not None:
        return channel_index(batch.labels, batch.open[:, 0], channel, batch.energies[0], error)
    if error is not None:
        raise error


@dataclass(frozen=True)
class EnergyGrid:
    e_min: float
    e_max: float
    count: int

    def __post_init__(self):
        lo, hi = _number("e_min", self.e_min), _number("e_max", self.e_max)
        if not np.isfinite(hi - lo):  # inf where the span overflows
            raise ValidationError("e_min, e_max and their span must be finite")
        if not self.e_min < self.e_max:
            raise ValidationError("e_min must be < e_max")
        # points 4 float spacings of the larger bound apart keep linspace strictly
        # increasing; there are at most 2**51 + 1, far below what numpy can index
        most = int((hi - lo) / (4 * np.spacing(max(-lo, hi)))) + 1
        if _size("count", self.count) > most:
            raise _refused("count", f"<= {most} for points 4 float spacings apart in "
                           f"[{lo!r}, {hi!r}]", self.count)

    @property
    def points(self) -> Array:
        return np.linspace(self.e_min, self.e_max, self.count)

    def admissible_mask(self, thresholds: Array) -> Array:
        """True where a grid point is farther than THRESHOLD_MARGIN from every
        threshold: the points the solvers do not refuse."""
        return ~_near_threshold(self.points, np.atleast_1d(thresholds)).any(axis=1)


def sampled_curve(energies, values, what: str) -> tuple[Array, Array]:
    """A curve sampled at `energies` as two new float arrays, refused unless
    they are matching non-empty 1D arrays of finite numbers with strictly
    increasing energies; `what` names the curve in the error."""
    e = np.array(energies, dtype=float)
    v = np.array(values, dtype=float)
    if e.ndim != 1 or e.shape != v.shape or e.size == 0:
        raise ValidationError(f"{what}: energies and values must be matching non-empty 1D arrays")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v))):
        raise ValidationError(f"{what}: energies and values must be finite")
    if np.any(np.diff(e) <= 0):
        raise ValidationError(f"{what}: energies must be strictly increasing")
    return e, v


@dataclass(frozen=True, eq=False)
class SpectralWeight:
    """Sampled |alpha(E)|^2 of a wave packet, trapezoid-normalized to one.

    A single sample with weight 1 stands for an exact energy delta.
    Equality and hash are identity (the fields are arrays).
    """

    energies: Array
    weights: Array

    def __post_init__(self):
        e, w = sampled_curve(self.energies, self.weights, "spectral weight")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        total = w[0] if e.size == 1 else np.trapezoid(w, e)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"spectral weight must integrate to 1 within 1e-9, got {total!r}"
            )
        for name, arr in (("energies", e), ("weights", w)):  # copies, so read-only is safe
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def gaussian_spectral_weight(
    e0: float, sigma: float, e_min: float, e_max: float, count: int = 801
) -> SpectralWeight:
    """Gaussian |alpha(E)|^2 on a uniform grid of count >= 2 points,
    renormalized by trapezoid rule; sigma must be > 0, e0, e_min and e_max
    finite, and the Gaussian must have weight on the grid."""
    e0, sigma = _number("e0", e0), _number("sigma", sigma, above=0.0)
    e_min, e_max = _number("e_min", e_min), _number("e_max", e_max)
    e = np.linspace(e_min, e_max, _size("count", count, minimum=2))
    with np.errstate(over="ignore", under="ignore"):  # far from e0 the weight is 0
        w = np.exp(-0.5 * ((e - e0) / sigma) ** 2)
    total = np.trapezoid(w, e)
    if not total > 0.0:
        raise ValidationError(f"Gaussian at e0 = {e0!r} with sigma = {sigma!r} has no weight "
                              f"on [{e_min!r}, {e_max!r}]")
    return SpectralWeight(e, w / total)
