"""Backend-agnostic estimators: V-derivative dwell times, wave-packet
averages, the identity verifier, and the resonance/peak matcher.

The V-derivative route perturbs the potential inside Omega only and reads
per-channel dwell times off the diagonal of the Smith-type matrix
Q = i hbar S^dag dS/dV at V = 0:

    tau_n = Re[ i sum_m s*_mn ds_mn/dV ] = - sum_m |s_mn|^2 d(arg s_mn)/dV,

with the amplitude-derivative part purely imaginary (unitarity) and kept
only as a consistency residual.  Derivatives are central differences with
per-element phase differences taken on the principal branch.
Every solve goes through one chunk loop, _solve, over the batches of
_batches, each freed before the next is solved: a grid's routes and
S(0), each V-derivative round and shifted_smatrix.  Single-energy calls
read the one-row ReportTable of a grid of one.  _batches imports the
backend of the system it is given, so a run loads one backend only.
One errors(*routes) call per batch and the V-derivative's step checks are
ordered rows (mask, error class, message template) that model.first_errors
turns into each energy's first failure; a refused grid point is a skip with it.

A grid's reports are one ReportTable: columns filled straight from each
chunk's batch arrays, and DwellReport rows built only when indexed,
sliced or iterated.  summarize_reports, find_resonances and the CLI's
scan.csv writer take a ReportTable and compute from its columns, with
no Python work per energy.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    InsufficientDataError,
    NumericalFailureError,
    StepTooLargeError,
    ValidationError,
)
from .model import (
    Array,
    EnergyGrid,
    LatticeSystem,
    LayerStack,
    SpectralWeight,
    _energy,
    _number,
    _refused,
    channel_index,
    first_errors,
    sampled_curve,
)

__all__ = [
    "METHODS",
    "ChannelRecord",
    "DwellReport",
    "ReportTable",
    "Peak",
    "PeakMatch",
    "ResonanceTable",
    "shifted_smatrix",
    "dwell_time_vderiv",
    "dwell_times_vderiv_all",
    "wavepacket_dwell_time",
    "verify_identity",
    "summarize_reports",
    "find_resonances",
]

_IMAG_RESIDUAL_TOL = 1e-6
_WEIGHT_EPS = 1e-12  # |s|^2 below this cannot contribute above noise
_MAX_HALVINGS = 12  # V-derivative step halvings before a point is skipped
# the routes a report can run: batch array, axis its chunks join on, report column
_ROUTES = {"direct": ("dwell_times", 1, "tau_direct"), "green": ("region_dos", 0, "dos_green"),
           "vderiv": ("smatrices", 0, "tau_vderiv")}
METHODS = tuple(_ROUTES)


def _methods(name: str, methods) -> tuple[str, ...]:
    """The one reader of a method list: a non-empty list or tuple of METHODS names."""
    if not (isinstance(methods, (list, tuple)) and methods
            and all(isinstance(m, str) and m in METHODS for m in methods)):
        raise _refused(name, f"a non-empty list of {'/'.join(METHODS)} names", methods)
    return tuple(methods)


# ----------------------------------------------------------------------------
# Report records
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelRecord:
    channel: str
    tau_direct: float | None = None
    tau_vderiv: float | None = None


@dataclass(frozen=True)
class DwellReport:
    """All estimators at one energy, plus the identity residual."""

    energy: float
    channels: tuple[ChannelRecord, ...] = ()
    dos_green: float | None = None
    dos_sum: float | None = None
    residual_rel: float | None = None
    skipped: bool = False
    skip_reason: str | None = None


_CHANNEL_COLUMNS = ("tau_direct", "tau_vderiv")  # (channel, energy)


def _channel_sum(values: Array, given: Array) -> Array:
    """Per energy, the sum of the (channel, energy) values where given, in
    channel order, left to right from 0.0 as a plain loop adds them: numpy's
    pairwise sum rounds differently from 8 channels on."""
    total = np.zeros(values.shape[1])
    for row, has in zip(values, given):
        total += np.where(has, row, 0.0)
    return total


def _skip_reason(error: Exception | None) -> str | None:
    """A skipped row's reason, "ClassName: message"; None without an error."""
    return None if error is None else f"{type(error).__name__}: {error}"


class ReportTable(Sequence):
    """The reports of a grid as columns, and a read-only Sequence of
    DwellReport whose rows are built from the columns each time they are
    indexed, sliced or iterated.

    `energies` (N,), kept as a float array, ascending (decreasing ones are
    refused); the channel `labels`, the left lead's and then the right
    lead's in the same mode order, as both batch classes build them, with
    the `open` mask (m, N); `errors`, per row None or the exception that
    skipped it, which gives `skipped` (N,) (a skipped row lists no channel)
    and `skip_reasons`; the per-channel columns `tau_direct` and
    `tau_vderiv` (m, N) and the per-energy columns `dos_green`, `dos_sum`
    and `residual_rel` (N,); another length or shape is refused.  A column
    is None when its route was not run; otherwise it holds a value, NaN
    included, on every listed channel (per-channel) or every row not
    skipped (per-energy), and nothing elsewhere.
    """

    def __init__(self, energies, labels, open, errors, *, tau_direct=None,
                 tau_vderiv=None, dos_green=None, dos_sum=None, residual_rel=None):
        self.energies = np.asarray(energies, dtype=float)
        if not np.all(np.diff(self.energies) >= 0.0):  # a NaN step is refused too
            raise ValidationError("report energies must not decrease")
        self.labels, self.errors = tuple(labels), list(errors)
        m, n = len(self.labels), len(self.energies)
        if len(self.errors) != n or not all(isinstance(e, (Exception, type(None)))
                                            for e in self.errors):
            raise ValidationError(f"errors must be {n} entries, each None or an exception")
        arrays = {"open": open, "tau_direct": tau_direct, "tau_vderiv": tau_vderiv,
                  "dos_green": dos_green, "dos_sum": dos_sum, "residual_rel": residual_rel}
        for name, value in arrays.items():  # a column not run is None; open is required
            shape = (m, n) if name == "open" or name in _CHANNEL_COLUMNS else (n,)
            if (value is not None or name == "open") and np.shape(value) != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {np.shape(value)}")
        self.skipped = np.array([error is not None for error in self.errors], dtype=bool)
        self.open = open & ~self.skipped
        self.tau_direct, self.tau_vderiv = tau_direct, tau_vderiv
        self.dos_green, self.dos_sum, self.residual_rel = dos_green, dos_sum, residual_rel

    skip_reasons = property(lambda self: list(map(_skip_reason, self.errors)))

    def column(self, name: str) -> tuple[Array, Array]:
        """Column `name` and where it holds a value (all False for a column
        that is None)."""
        values = getattr(self, name)
        where = self.open if name in _CHANNEL_COLUMNS else ~self.skipped
        if values is None:
            return np.full(where.shape, np.nan), np.zeros(where.shape, dtype=bool)
        return values, where

    def channel_sum(self, name: str) -> tuple[Array, Array]:
        """Per energy, the sum of per-channel column `name` over the values it
        holds, in label order (_channel_sum), and how many it adds."""
        values, given = self.column(name)
        return _channel_sum(values, given), np.count_nonzero(given, axis=0)

    def _cell(self, name: str, i: int):
        """Column `name` at row i as Python values, None where it holds none."""
        values = getattr(self, name)
        where = self.open[:, i] if name in _CHANNEL_COLUMNS else ~self.skipped[i]
        return np.where(where, None if values is None else values[..., i], None).tolist()

    def _row(self, i: int) -> DwellReport:
        """Row i, read from the columns on every call, so it never disagrees
        with them."""
        tau_direct, tau_vderiv = self._cell("tau_direct", i), self._cell("tau_vderiv", i)
        channels = tuple(ChannelRecord(label, tau_direct[j], tau_vderiv[j])
                         for j, (label, listed) in enumerate(zip(self.labels, self.open[:, i]))
                         if listed)
        return DwellReport(self.energies[i].item(), channels, self._cell("dos_green", i),
                           self._cell("dos_sum", i), self._cell("residual_rel", i),
                           bool(self.skipped[i]), _skip_reason(self.errors[i]))

    def __len__(self) -> int:
        return len(self.energies)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(len(self))[index]]
        return self._row(range(len(self))[index])

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (ReportTable, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


# ----------------------------------------------------------------------------
# Shifted scattering matrices and the V-derivative dwell time
# ----------------------------------------------------------------------------


# Bytes per chunk; bytes_per_energy of the batch class says how many energies fit:
# 414 of the 40-layer stack, 16 of the 10 x 80 strip and 4 of a 4 x 2000 strip.
_BATCH_BYTES = 7 * 2**20


def _batches(system: LayerStack | LatticeSystem, energies: list[float], v_shifts: list[float]):
    """energies[i] with v_shifts[i] added inside the system's Omega only (the
    whole stack in 1D, the system's region on a lattice), as one
    solver1d.ScatterBatch or lattice._LatticeWorkspace per chunk of
    _BATCH_BYTES, not kept.  Both expose channel `labels`, the `open` mask
    and `velocities` (m, E), the direct `dwell_times` over Omega (m, E),
    `region_dos` (E,) and `smatrices` (E, m, m), read-only and meaningful
    on the open block; and errors(*routes), per energy."""
    if isinstance(system, LatticeSystem):
        from .lattice import _LatticeWorkspace as batch
    elif isinstance(system, LayerStack):
        from .solver1d import ScatterBatch as batch
    else:
        raise ValidationError(f"unsupported system type {type(system).__name__}")
    size = max(1, _BATCH_BYTES // batch.bytes_per_energy(system))
    for start in range(0, len(energies), size):
        chunk, shifts = energies[start:start + size], v_shifts[start:start + size]
        yield batch(system, chunk, shifts)


def _solve(system, energies, v_shifts, routes) -> tuple:
    """Each route of `routes` at energies[i] with v_shifts[i], one chunk of
    _batches at a time, each freed before the next is solved.  Returns the
    channel labels, the open mask (m, N), per energy None or its first
    failure on any of the routes (one batch.errors(*routes) per chunk),
    and per route its batch array joined over the chunks (`dwell_times`
    (m, N), `region_dos` (N,) or `smatrices` (N, m, m))."""
    opened, errors, arrays = [], [], [[] for _ in routes]
    for batch in _batches(system, energies, v_shifts):
        labels = batch.labels
        opened.append(batch.open)
        for route, array in zip(routes, arrays):
            array.append(getattr(batch, _ROUTES[route][0]))
        errors += batch.errors(*routes)
        del batch  # free this chunk's states before the next is solved
    joined = (np.concatenate(a, axis=_ROUTES[route][1]) for route, a in zip(routes, arrays))
    return (labels, np.concatenate(opened, axis=1), errors, *joined)


def shifted_smatrix(
    system: LayerStack | LatticeSystem,
    energy: float,
    v_shift: float,
) -> tuple[Array, list[str]]:
    """Flux-normalized S matrix with v_shift added inside Omega only.

    Returns the matrix and the channel labels of its rows/columns, and
    raises the solver error of this energy.  The shift never touches the
    leads or asymptotic regions, so the labels are those of the
    unshifted problem.
    """
    labels, opened, (error,), s = _solve(system, [_energy(energy)],
                                         [_number("v_shift", v_shift)], ("vderiv",))
    if error is not None:
        raise error
    o = np.flatnonzero(opened[:, 0])
    return s[0][np.ix_(o, o)], [labels[j] for j in o]


def default_dv(energies) -> Array:
    """The V-derivative's first step at each energy, 1e-5 max(1, |E|)."""
    return 1e-5 * np.maximum(1.0, np.abs(np.asarray(energies, dtype=float)))


def _vderiv_from_matrices(s0, s_plus, s_minus, opened, dv) -> tuple:
    """Per-channel dwell times from S(0), S(+dv) and S(-dv) of several energies.

    The matrices are stacked (G, m, m) over energies, with their (m, G)
    open mask `opened` and steps dv (G,).  Only entries between two open
    channels are read; the others count as zero.  Returns the (G, m)
    dwell times and, per energy, None or the error that makes its step
    unusable.
    """
    pair = opened.T[:, :, None] & opened.T[:, None, :]
    step = 2.0 * dv[:, None, None]
    with np.errstate(invalid="ignore"):  # a closed channel's entries may be inf or NaN
        magnitude = np.where(pair, np.abs(s0), 0.0)
        # principal branch; np.multiply: see the solver1d docstring
        dphase = np.where(pair, np.angle(np.multiply(s_plus, np.conj(s_minus))), 0.0)
        dmag = np.where(pair, (np.abs(s_plus) - np.abs(s_minus)) / step, 0.0)
    weight = magnitude**2
    bad = np.count_nonzero((np.abs(dphase) > 0.5 * np.pi) & (weight >= _WEIGHT_EPS), axis=(1, 2))
    taus = -np.sum(weight * dphase / step, axis=1)
    imag_resid = np.abs(np.sum(magnitude * dmag, axis=1))
    return taus, first_errors([
        (bad > 0, StepTooLargeError, "phase step exceeds pi/2 for {bad} S elements at dv = {dv}"),
        (np.any(imag_resid > _IMAG_RESIDUAL_TOL, axis=1), NumericalFailureError,
         "imaginary residual of the delay matrix diagonal reached {imag:.3e} "
         f"(> {_IMAG_RESIDUAL_TOL}) at dv = {{dv}}")], bad=bad, dv=dv, imag=imag_resid.max(axis=1))


def _vderiv_steps(system, energies, opened, s0, errors, dv) -> tuple[Array, list]:
    """The V-derivative step loop for several energies at once.

    opened is their open channels (m, N), s0 the stack of their
    unshifted S matrices (N, m, m), and errors per energy None or the
    error of its unshifted solve on any route, which ends it.  The step is dv,
    finite and > 0, or default_dv(E) when dv is None.  Each round solves
    S(+step) and then S(-step) of every pending energy in one _solve
    call, and takes all their derivatives in one _vderiv_from_matrices
    call, masked by the open channels of S(0): a shift inside Omega never
    reaches the leads.  With dv None, an energy whose round fails with
    StepTooLargeError or NumericalFailureError halves its step and goes
    again, at most _MAX_HALVINGS times; any other error ends it.
    Returns the dwell times (m, N), meaningful on the open channels of
    an energy without an error, and per energy None or the error.
    """
    dv = None if dv is None else _number("dv", dv, above=0.0)
    energies = np.asarray(energies, dtype=float)
    out = np.empty(len(errors), dtype=object)
    out[:] = errors
    taus = np.full(opened.shape, np.nan)
    steps = default_dv(energies) if dv is None else np.full(energies.size, dv)
    attempts = _MAX_HALVINGS if dv is None else 0
    pending = np.flatnonzero([error is None for error in errors])
    while pending.size:
        n, shifts = pending.size, steps[pending]
        _, _, solve_errors, shifted = _solve(system, np.tile(energies[pending], 2),
                                             np.concatenate([shifts, -shifts]), ("vderiv",))
        round_taus, step_errors = _vderiv_from_matrices(s0[pending], shifted[:n], shifted[n:],
                                                        opened[:, pending], shifts)
        # a retried energy's results are replaced in its next round
        taus[:, pending] = round_taus.T
        out[pending] = [a or b or c for a, b, c in zip(solve_errors[:n], solve_errors[n:],
                                                       step_errors)]
        retry = [isinstance(e, (StepTooLargeError, NumericalFailureError)) for e in out[pending]]
        pending = pending[retry] if attempts > 0 else pending[:0]
        steps[pending] *= 0.5
        attempts -= 1
    return taus, out.tolist()


def dwell_times_vderiv_all(
    system: LayerStack | LatticeSystem,
    energy: float,
    dv: float | None = None,
) -> dict[str, float]:
    """V-derivative dwell times for every open channel at once.

    S(0), S(+dv) and S(-dv) are solved once each, through the same
    chunk loop and step loop as the grid.  When dv is not given the step
    starts at default_dv(E) and is halved, at most _MAX_HALVINGS times,
    when the phase difference cannot be unwrapped or the unitarity
    residual check fails (both symptoms of too large a step near sharp
    resonances) before giving up.
    """
    table = _chunk_reports(system, [_energy(energy)], ("vderiv",), dv)
    (error,) = table.errors
    if error is not None:
        raise error
    o = np.flatnonzero(table.open[:, 0])
    return dict(zip([table.labels[j] for j in o], table.tau_vderiv[o, 0].tolist()))


def dwell_time_vderiv(
    system: LayerStack | LatticeSystem,
    energy: float,
    channel: str,
    dv: float | None = None,
) -> float:
    """Dwell time of one channel, given by its label (checked by
    model.channel_index), from the S-matrix potential derivative."""
    energy = _energy(energy)
    table = _chunk_reports(system, [energy], ("vderiv",), dv)
    j = channel_index(table.labels, table.open[:, 0], channel, energy, table.errors[0])
    return table.tau_vderiv[j, 0].item()


# ----------------------------------------------------------------------------
# Wave-packet averaging
# ----------------------------------------------------------------------------


def wavepacket_dwell_time(
    weights: SpectralWeight,
    tau_energies: Array,
    tau_values: Array,
) -> float:
    """Spectral average of a per-channel dwell-time curve.

    Trapezoid integral of |alpha(E)|^2 tau(E); a single-sample weight is
    an exact energy delta and returns tau at that energy.
    """
    e_tau, t_tau = sampled_curve(tau_energies, tau_values, "tau curve")
    e_w = weights.energies
    if e_w[0] < e_tau[0] or e_w[-1] > e_tau[-1]:
        raise CoverageError(
            f"weight support [{e_w[0]}, {e_w[-1]}] exceeds sampled tau grid "
            f"[{e_tau[0]}, {e_tau[-1]}]"
        )
    tau_on_w = np.interp(e_w, e_tau, t_tau)
    if e_w.size == 1:
        return float(weights.weights[0] * tau_on_w[0])
    return float(np.trapezoid(weights.weights * tau_on_w, e_w))


# ----------------------------------------------------------------------------
# Identity verification
# ----------------------------------------------------------------------------


def compute_report(
    system: LayerStack | LatticeSystem,
    energy: float,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
) -> DwellReport:
    """One energy on its own, the same report verify_identity gives it: the
    one row of a grid of one through _chunk_reports; solver errors become a
    skip."""
    return _chunk_reports(system, [_energy(energy)], methods, dv)[0]


def _chunk_reports(
    system: LayerStack | LatticeSystem,
    energies: list[float],
    methods: tuple[str, ...],
    dv: float | None,
) -> ReportTable:
    """compute_report at every energy of a grid, with solves shared, as one
    ReportTable.

    One _solve gives the open mask, each energy's first failure on any
    route and each route's joined array, S(0) for the V-derivative, whose
    step loop (_vderiv_steps) goes on from it for the energies no route
    failed.  The channel sum and the residual are numpy expressions over
    the columns that add and round as the Python float arithmetic of one
    report would.
    """
    routes = tuple(m for m in METHODS if m in _methods("methods", methods))
    labels, opened, errors, *arrays = _solve(system, energies, [0.0] * len(energies), routes)
    columns = {_ROUTES[m][2]: array for m, array in zip(routes, arrays)}
    if "vderiv" in methods:  # S(0), which starts the step loop
        columns["tau_vderiv"], errors = _vderiv_steps(system, energies, opened,
                                                      columns["tau_vderiv"], errors, dv)
    if "direct" in methods:
        columns["dos_sum"] = _channel_sum(columns["tau_direct"], opened) / (2.0 * np.pi)
    if "direct" in methods and "green" in methods:
        green, total = columns["dos_green"], columns["dos_sum"]
        # a row not skipped has dos_green > 0 (the green route's errors); a skipped one may not
        with np.errstate(all="ignore"):
            columns["residual_rel"] = np.abs(green - total) / green
    return ReportTable(energies, labels, opened, errors, **columns)


def verify_identity(
    system: LayerStack | LatticeSystem,
    grid: EnergyGrid,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
) -> ReportTable:
    """Evaluate every estimator on the grid and record identity residuals.

    Every grid point is solved, in chunks (_chunk_reports); one that the
    solver refuses (within model.THRESHOLD_MARGIN of a channel threshold,
    no open channel, or a failure) is reported as skipped with the
    solver's error, never silently dropped.  Returns the ReportTable of
    the grid, in grid order, which is by energy.
    """
    if not isinstance(grid, EnergyGrid):
        raise ValidationError(f"grid must be an EnergyGrid, got {type(grid).__name__}")
    energies = [float(e) for e in grid.points]
    return _chunk_reports(system, energies, methods, dv)


# Skip classes that say the point has nothing to check: a threshold too
# close or no open channel.  Every other skip is a point that failed.
EXPECTED_SKIPS = ("ThresholdProximityError", "NoOpenChannelError")


def summarize_reports(
    table: ReportTable,
    system: LayerStack | LatticeSystem | None = None,
) -> dict:
    """A run's outcome, the summary every command starts from.

    Reads the table's columns.  `skip_reasons` counts the skipped points
    by the class name of their error, and `failed` those of a class
    outside EXPECTED_SKIPS.  `warnings` names the failed skips, and the
    skip classes when every point was skipped.  `worst` ranks the
    residuals, NaN first so that it becomes the maximum and fails verify,
    then largest first, ties in report order.

    A palindromic system (its Omega mirror-symmetric too) has equal dwell
    times in mirror channels: the two halves of the channel axis, the left
    lead's and the right lead's.  The identity then reads
    rho_Omega * pi * hbar = the left lead's dwell-time sum, on either
    backend; `symmetric_max_dev` is the largest deviation from both, over
    every point not skipped whose left-lead sum is positive and every
    mirror pair open on both sides, verified or not, and NaN when any
    deviation is NaN.
    """
    residual, has = table.column("residual_rel")
    rows = np.flatnonzero(has)
    ranked = rows[np.lexsort((-residual[rows], ~np.isnan(residual[rows])))][:5]
    worst = list(zip(table.energies[ranked].tolist(), residual[ranked].tolist()))
    reasons = dict(sorted(Counter(
        type(error).__name__ for error in table.errors if error is not None).items()))
    failed = {name: n for name, n in reasons.items() if name not in EXPECTED_SKIPS}
    skipped = int(np.count_nonzero(table.skipped))
    warnings = [f"{sum(failed.values())} grid points were skipped as failures "
                f"({', '.join(failed)})"] if failed else []
    if skipped == len(table):
        warnings.append(f"all grid points were skipped ({', '.join(reasons)})")
    summary = {"points": len(table), "skipped": skipped, "skip_reasons": reasons,
               "failed": sum(failed.values()), "warnings": warnings,
               "max_residual_rel": worst[0][1] if worst else None, "worst": worst,
               "palindromic": system is not None and system.is_palindromic()}
    if summary["palindromic"]:
        tau, has = table.column("tau_direct")
        green, has_green = table.column("dos_green")
        half = len(table.labels) // 2
        left = _channel_sum(tau[:half], has[:half])
        both = has[:half] & has[half:]
        with np.errstate(invalid="ignore"):  # entries without a value may be NaN
            rows = has_green & (left > 0)
        devs = np.concatenate([np.abs(green[rows] * np.pi / left[rows] - 1.0),
                               np.abs(tau[:half][both] - tau[half:][both])])
        summary["symmetric_max_dev"] = float(np.max(devs)) if devs.size else None
    return summary


# ----------------------------------------------------------------------------
# Resonance search
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Peak:
    energy: float
    height: float
    width: float


@dataclass(frozen=True)
class PeakMatch:
    dos_peak: Peak
    channel: str | None
    dwell_peak: Peak | None
    distance: float | None
    matched: bool


@dataclass(frozen=True)
class ResonanceTable:
    dos_peaks: tuple[Peak, ...]
    dwell_peaks: dict[str, tuple[Peak, ...]]
    matches: tuple[PeakMatch, ...]
    grid_resolution: float


def _refine_peak(x: Array, y: Array, i: int) -> float:
    """Vertex of the parabola through the samples around a discrete max at an interior
    index i, as an offset within half a step of x[i]; x[i] itself on a flat top."""
    d0, d2, h0, h2 = y[i] - y[i - 1], y[i] - y[i + 1], x[i] - x[i - 1], x[i + 1] - x[i]
    w = d0 * h2 + d2 * h0
    return float(x[i] if w == 0 else x[i] + (d0 * h2 * (h0 + h2) / w - h0) / 2.0)


def _base(side: Array) -> int:
    """Offset of the base along `side`, a peak's samples walked outward: the
    lowest sample before a higher one or the edge, the nearest on a tie."""
    return int(np.argmin(side[:int(np.argmax(side > side[0])) or side.size]))


def _crossing(side: Array, base: int, level: float) -> tuple[int, float]:
    """Offset of the first sample along `side` at or below `level`, or of the
    base, and the linear interpolation from it back towards the peak."""
    k = int(np.argmax(np.r_[side[:base] <= level, True]))
    return k, (level - side[k]) / (side[k - 1] - side[k]) if side[k] < level else 0.0


def _find_peaks_1d(x: Array, y: Array, min_prominence: float) -> tuple[Peak, ...]:
    """Peaks with prominence >= min_prominence * max(y), and their widths at
    half prominence, by the arithmetic of scipy.signal's find_peaks and
    peak_widths in the same order: strict local maxima, the middle of a flat
    top that touches no edge; prominence is height less the higher base."""
    ymax = float(np.max(y)) if y.size else 0.0
    if ymax <= 0.0:
        return ()
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])  # runs of equal samples
    ends = np.r_[starts[1:], y.size] - 1
    runs = y[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    peaks = []
    for i in (starts[top] + ends[top]) // 2:
        left, right = y[i::-1], y[i:]
        lb, rb = _base(left), _base(right)
        prominence = y[i] - max(left[lb], right[rb])
        if prominence < min_prominence * ymax:
            continue
        level = y[i] - prominence * 0.5
        (kl, fl), (kr, fr) = _crossing(left, lb, level), _crossing(right, rb, level)
        width = ((i + kr) - fr) - ((i - kl) + fl)
        spacing = (x[i + 1] - x[i - 1]) / 2.0  # np.gradient(x)[i]; a peak is never at an edge
        peaks.append(Peak(_refine_peak(x, y, int(i)), float(y[i]), float(width * spacing)))
    return tuple(peaks)  # by index, so ascending: each vertex stays between its neighbours


def find_resonances(
    table: ReportTable,
    min_prominence: float = 0.05,
) -> ResonanceTable:
    """Locate DOS and dwell-time peaks and pair each DOS peak with the
    nearest dwell peak over all channels (plus the channel sum, "ALL").

    Reads the table's columns, its points not skipped in table order (by energy); the
    green and direct routes must have been run.  The dwell curves are "ALL", then the
    channels in the table's order; on a tie for the nearest dwell peak, within 1e-9 grid
    steps so that rounding decides none, the earlier one wins.  A pair counts as matched
    when the refined peak energies agree within one grid step; otherwise the DOS peak is
    flagged unmatched.
    """
    min_prominence = _number("min_prominence", min_prominence, minimum=0.0)
    if table.dos_green is None or table.tau_direct is None:
        raise InsufficientDataError("resonance search needs the green and direct routes")
    live = np.flatnonzero(~table.skipped)
    if live.size < 4:
        raise InsufficientDataError(
            f"resonance search needs at least 4 non-skipped points, got {live.size}"
        )
    resolution = float(np.max(np.diff(table.energies[live])))

    def peaks_of(values, given):
        """Peaks of a curve over the live points where it holds a finite
        value: a NaN sample drops out as a skipped point does."""
        rows = live[given[live] & np.isfinite(values[live])]
        return () if rows.size < 3 else _find_peaks_1d(table.energies[rows], values[rows],
                                                        min_prominence)

    dos_peaks = peaks_of(*table.column("dos_green"))
    total, count = table.channel_sum("tau_direct")
    tau, has = table.column("tau_direct")
    curves = zip(("ALL", *table.labels), ((total, count > 0), *zip(tau, has)))
    dwell_peaks = {name: found for name, curve in curves if (found := peaks_of(*curve))}
    candidates = [(name, peak) for name, peaks in dwell_peaks.items() for peak in peaks]

    matches = []
    for dp in dos_peaks:
        dists = [abs(peak.energy - dp.energy) for _, peak in candidates]
        tied = min(dists, default=0.0) + 1e-9 * resolution
        dist, name, peak = next(((d, *candidate) for d, candidate in zip(dists, candidates)
                                 if d <= tied), (None, None, None))
        matches.append(PeakMatch(dp, name, peak, dist, name is not None and dist <= resolution))
    return ResonanceTable(dos_peaks, dwell_peaks, tuple(matches), resolution)
