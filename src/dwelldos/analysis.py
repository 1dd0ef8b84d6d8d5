"""Backend-agnostic estimators: V-derivative dwell times, wave-packet
averages, the identity verifier, and the resonance/peak matcher.

The V-derivative route perturbs the potential inside Omega only and reads
per-channel dwell times off the diagonal of the Smith-type matrix
Q = i hbar S^dag dS/dV at V = 0:

    tau_n = Re[ i sum_m s*_mn ds_mn/dV ] = - sum_m |s_mn|^2 d(arg s_mn)/dV,

with the amplitude-derivative part purely imaginary (unitarity) and kept
only as a consistency residual.  Derivatives are central differences with
per-element phase differences taken on the principal branch.
Every route reads the batches of one chunk loop, _batches, each freed
before the next is solved, and single-energy calls are a grid of one.
Both backends start their per-route errors from one skip rule,
model.energy_errors, and a grid point a batch refuses is a skip with its
error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    DwellDosError,
    InsufficientDataError,
    NumericalFailureError,
    StepTooLargeError,
    ValidationError,
)
from . import lattice as lat
from . import solver1d as s1d
from .model import (
    Array,
    EnergyGrid,
    LatticeSystem,
    LayerStack,
    SpectralWeight,
    channel_index,
    sampled_curve,
)

__all__ = [
    "METHODS",
    "ChannelRecord",
    "DwellReport",
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

RESIDUAL_FLOOR = 1e-30
_IMAG_RESIDUAL_TOL = 1e-6
_WEIGHT_EPS = 1e-12  # |s|^2 below this cannot contribute above noise
_MAX_HALVINGS = 12  # V-derivative step halvings before a point is skipped
METHODS = ("direct", "green", "vderiv")  # the routes a report can run


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


# ----------------------------------------------------------------------------
# Shifted scattering matrices and the V-derivative dwell time
# ----------------------------------------------------------------------------


# Bytes per chunk; bytes_per_energy of the batch class says how many energies fit:
# 430 of the 40-layer stack, 16 of the 10 x 80 strip and 4 of a 4 x 2000 strip.
_BATCH_BYTES = 7 * 2**20


def _batches(system: LayerStack | LatticeSystem, energies: list[float], v_shifts: list[float]):
    """energies[i] with v_shifts[i] added inside the system's Omega only (the
    whole stack in 1D, the system's region on a lattice), as one
    solver1d.ScatterBatch or lattice._LatticeWorkspace per chunk of
    _BATCH_BYTES, not kept.  Both expose channel `labels`, the `open` mask
    and `velocities` (m, E), the direct `dwell_times` over Omega (m, E),
    `region_dos` (E,) and `smatrices` (E, m, m), read-only and meaningful
    on the open block; and errors(route), per energy."""
    if not isinstance(system, (LayerStack, LatticeSystem)):
        raise ValidationError(f"unsupported system type {type(system).__name__}")
    batch = lat._LatticeWorkspace if isinstance(system, LatticeSystem) else s1d.ScatterBatch
    size = max(1, _BATCH_BYTES // batch.bytes_per_energy(system))
    for start in range(0, len(energies), size):
        chunk, shifts = energies[start:start + size], v_shifts[start:start + size]
        yield batch(system, chunk, shifts)


def _smatrices(system, energies, v_shifts) -> tuple:
    """S matrices at energies[i] with v_shifts[i], one chunk of _batches
    at a time; only the matrices outlive a chunk.  Returns the channel
    labels, the S stack (N, m, m), the open mask (m, N) and per energy
    None or the error that leaves it without an S matrix."""
    stacks, opened, errors = [], [], []
    for batch in _batches(system, energies, v_shifts):
        labels = batch.labels
        stacks.append(batch.smatrices)
        opened.append(batch.open)
        errors += batch.errors("vderiv")
        del batch  # free this chunk's states before the next is solved
    return labels, np.concatenate(stacks), np.concatenate(opened, axis=1), errors


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
    labels, s, opened, (error,) = _smatrices(system, [energy], [v_shift])
    if error is not None:
        raise error
    o = np.flatnonzero(opened[:, 0])
    return s[0][np.ix_(o, o)], [labels[j] for j in o]


def default_dv(energy: float) -> float:
    return 1e-5 * max(1.0, abs(energy))


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
    errors: list = [None] * len(dv)
    for g in np.flatnonzero(bad | np.any(imag_resid > _IMAG_RESIDUAL_TOL, axis=1)):
        if bad[g]:
            errors[g] = StepTooLargeError(
                f"phase step exceeds pi/2 for {bad[g]} S elements at dv = {dv[g]}")
        else:
            errors[g] = NumericalFailureError(
                f"imaginary residual of the delay matrix diagonal reached "
                f"{imag_resid[g].max():.3e} (> {_IMAG_RESIDUAL_TOL}) at dv = {dv[g]}")
    return taus, errors


def _vderiv_steps(system, energies, s0, opened, errors, dv) -> list:
    """The V-derivative step loop for several energies at once.

    s0 is the stack of their unshifted S matrices (N, m, m), opened
    their open channels (m, N), and errors per energy None or the error
    that left it without S(0), which ends it.  The step is dv, finite and
    > 0, or default_dv(E) when dv is None.  Each round solves S(+step) and then
    S(-step) of every pending energy in one _smatrices call, and takes
    all their derivatives in one _vderiv_from_matrices call, masked by
    the open channels of S(0): a shift inside Omega never reaches the
    leads.  With dv None, an energy whose round fails with
    StepTooLargeError or NumericalFailureError halves its step and goes
    again, at most _MAX_HALVINGS times; any other error ends it.
    Returns per energy the dwell times of its open channels, in channel
    order, or the error.
    """
    if dv is not None and not (np.isfinite(dv) and dv > 0.0):
        raise ValidationError(f"dv must be finite and > 0, got {dv!r}")
    out: list = list(errors)
    steps = [default_dv(e) if dv is None else float(dv) for e in energies]
    attempts = _MAX_HALVINGS if dv is None else 0
    pending = [i for i, error in enumerate(errors) if error is None]
    while pending:
        n = len(pending)
        shifts = [steps[i] for i in pending]
        _, shifted, _, solve_errors = _smatrices(system, [energies[i] for i in pending] * 2,
                                                 shifts + [-v for v in shifts])
        taus, step_errors = _vderiv_from_matrices(s0[pending], shifted[:n], shifted[n:],
                                                  opened[:, pending], np.array(shifts))
        retry = []
        for j, i in enumerate(pending):
            result = (solve_errors[j] or solve_errors[n + j] or step_errors[j]
                      or taus[j][opened[:, i]].tolist())
            if isinstance(result, (StepTooLargeError, NumericalFailureError)) and attempts > 0:
                retry.append(i)
                steps[i] *= 0.5
            else:
                out[i] = result
        attempts -= 1
        pending = retry
    return out


def _vderiv_at(system, energy: float, dv, channel: str | None = None) -> dict:
    """Open channel label -> V-derivative dwell time at one energy."""
    labels, s0, opened, errors = _smatrices(system, [energy], [0.0])
    if channel is not None:
        channel_index(labels, opened[:, 0], channel, energy, errors[0])
    (result,) = _vderiv_steps(system, [energy], s0, opened, errors, dv)
    if isinstance(result, DwellDosError):
        raise result
    return dict(zip([labels[j] for j in np.flatnonzero(opened[:, 0])], result))


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
    return _vderiv_at(system, energy, dv)


def dwell_time_vderiv(
    system: LayerStack | LatticeSystem,
    energy: float,
    channel: str,
    dv: float | None = None,
) -> float:
    """Dwell time of one channel, given by its label (checked by
    model.channel_index), from the S-matrix potential derivative."""
    return _vderiv_at(system, energy, dv, channel)[channel]


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
    """One energy on its own, the same report verify_identity gives it: a
    grid of one through _chunk_reports; solver errors become a skip."""
    return _chunk_reports(system, [energy], methods, dv)[0]


def _chunk_reports(
    system: LayerStack | LatticeSystem,
    energies: list[float],
    methods: tuple[str, ...],
    dv: float | None,
) -> list[DwellReport]:
    """compute_report at every energy of a grid, with solves shared.

    Solves go one chunk of _batches at a time, whose direct and Green
    routes are numpy expressions over its batch's arrays; only each
    point's route values and S(0) outlive a chunk.  The V-derivative
    reuses S(0), and each of its rounds solves S(+step) and S(-step) of
    every pending energy of the grid together.  Each report is built once,
    after its V-derivative, and errors keep compute_report's order: S(0),
    then the V-derivative, then the direct and Green routes.
    """
    if not methods or set(methods) - set(METHODS):
        raise ValidationError(f"methods must be some of {', '.join(METHODS)}: {methods!r}")
    routes = [m for m in ("direct", "green") if m in methods]
    points, s0, opened, s0_errors = [], [], [], []
    for batch in _batches(system, energies, [0.0] * len(energies)):
        n = batch.energies.size
        # per energy, as Python lists (None for a route not asked for)
        taus = (batch.dwell_times.T.tolist() if "direct" in methods
                else [[None] * len(batch.labels)] * n)
        dos = batch.region_dos.tolist() if "green" in methods else [None] * n
        for i, (row, *errors) in enumerate(zip(batch.open.T.tolist(), *map(batch.errors, routes))):
            error = next(filter(None, errors), None)  # that of the first route with one
            ch = [c for c, o in enumerate(row) if o]  # the open channels
            points.append(error or ([batch.labels[c] for c in ch], [taus[i][c] for c in ch],
                                    dos[i]))
        if "vderiv" in methods:
            s0.append(batch.smatrices)
            opened.append(batch.open)
            s0_errors += batch.errors("vderiv")
        del batch  # free this chunk's states before the next is solved
    vderiv = [None] * len(energies)
    if "vderiv" in methods:
        vderiv = _vderiv_steps(system, energies, np.concatenate(s0),
                               np.concatenate(opened, axis=1), s0_errors, dv)
    reports = []
    for energy, point, vd in zip(energies, points, vderiv):
        error = vd if isinstance(vd, DwellDosError) else point
        if isinstance(error, DwellDosError):
            reports.append(DwellReport(energy, skipped=True,
                                       skip_reason=f"{type(error).__name__}: {error}"))
            continue
        labels, taus, dos_green = point
        dos_sum = sum(taus) / (2.0 * np.pi) if "direct" in methods else None
        channels = map(ChannelRecord, labels, taus, [None] * len(labels) if vd is None else vd)
        reports.append(DwellReport(energy, tuple(channels), dos_green, dos_sum, (
            abs(dos_green - dos_sum) / max(dos_green, RESIDUAL_FLOOR)
            if dos_green is not None and dos_sum is not None else None)))
    return reports


def verify_identity(
    system: LayerStack | LatticeSystem,
    grid: EnergyGrid,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
) -> list[DwellReport]:
    """Evaluate every estimator on the grid and record identity residuals.

    Every grid point is solved, in chunks (_chunk_reports); one that the
    solver refuses (within model.THRESHOLD_MARGIN of a channel threshold,
    no open channel, or a failure) is reported as skipped with the
    solver's error, never silently dropped.  Output order is by energy.
    """
    energies = [float(e) for e in grid.points]
    return _chunk_reports(system, energies, methods, dv)


# Skip classes that say the point has nothing to check: a threshold too
# close or no open channel.  Every other skip is a point that failed.
EXPECTED_SKIPS = ("ThresholdProximityError", "NoOpenChannelError")


def _skip_class(reason: str | None) -> str:
    """Exception class name of a skip reason ("ThresholdProximityError:
    ..." gives "ThresholdProximityError")."""
    return (reason or "").split(":", 1)[0]


def summarize_reports(
    reports: list[DwellReport],
    system: LayerStack | LatticeSystem | None = None,
) -> dict:
    """Aggregate residuals; adds the symmetric-system check when it applies.

    `skip_reasons` counts the skipped points by exception class name.

    A palindromic system (its Omega mirror-symmetric too) has equal dwell
    times in mirror channels, "left" and "right" on a stack, "left:m" and
    "right:m" on a lattice.  On a stack the two-channel identity then
    collapses to rho_Omega * pi * hbar / tau = 1, which is checked too.
    """
    live = [r for r in reports if not r.skipped]
    # NaN ranks first so that it becomes the maximum and fails verify
    ranked = sorted(
        ((r.energy, r.residual_rel) for r in live if r.residual_rel is not None),
        key=lambda t: (not np.isnan(t[1]), -t[1]),
    )
    summary = {
        "points": len(reports),
        "skipped": len(reports) - len(live),
        "skip_reasons": dict(sorted(Counter(
            _skip_class(r.skip_reason) for r in reports if r.skipped).items())),
        "max_residual_rel": ranked[0][1] if ranked else None,
        "worst": ranked[:5],
    }
    if system is not None and system.is_palindromic():
        devs = []
        for r in live:
            taus = {c.channel: c.tau_direct for c in r.channels
                    if c.tau_direct is not None}
            # only a stack has a channel named "left"; its check goes first,
            # so that a NaN deviation stays the maximum
            if r.dos_green is not None and taus.get("left", 0.0) > 0:
                devs.append(abs(r.dos_green * np.pi / taus["left"] - 1.0))
            devs += [abs(tau - taus["right" + name[4:]]) for name, tau in taus.items()
                     if name.startswith("left") and "right" + name[4:] in taus]
        summary["palindromic"] = True
        summary["symmetric_max_dev"] = max(devs) if devs else None
    else:
        summary["palindromic"] = False
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
    """Parabolic vertex through the three samples around a discrete max."""
    if i == 0 or i == len(x) - 1:
        return float(x[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    if a >= 0:
        return float(x1)
    return float(-b / (2.0 * a))


def _find_peaks_1d(x: Array, y: Array, min_prominence: float) -> tuple[Peak, ...]:
    from scipy import signal  # about 1 s to import; only peak searches need it

    ymax = float(np.max(y)) if y.size else 0.0
    if ymax <= 0.0:
        return ()
    idx, props = signal.find_peaks(y, prominence=min_prominence * ymax)
    if idx.size == 0:
        return ()
    widths_idx = signal.peak_widths(y, idx, rel_height=0.5)[0]
    spacing = np.gradient(x)
    peaks = (Peak(_refine_peak(x, y, int(i)), float(y[i]), float(w * spacing[i]))
             for i, w in zip(idx, widths_idx))
    return tuple(sorted(peaks, key=lambda p: p.energy))


def find_resonances(
    reports: list[DwellReport],
    min_prominence: float = 0.05,
) -> ResonanceTable:
    """Locate DOS and dwell-time peaks and pair each DOS peak with the
    nearest dwell peak over all channels (plus the channel sum, "ALL").

    A pair counts as matched when the refined peak energies agree within
    one grid step; otherwise the DOS peak is flagged unmatched.
    """
    live = sorted((r for r in reports if not r.skipped), key=lambda r: r.energy)
    if len(live) < 4:
        raise InsufficientDataError(
            f"resonance search needs at least 4 non-skipped points, got {len(live)}"
        )
    energies = np.array([r.energy for r in live])
    resolution = float(np.max(np.diff(energies)))

    dos_peaks: tuple[Peak, ...] = ()
    dos_pts = [(r.energy, r.dos_green) for r in live if r.dos_green is not None]
    if len(dos_pts) >= 3:
        xe, ye = map(np.array, zip(*dos_pts))
        dos_peaks = _find_peaks_1d(xe, ye, min_prominence)

    curves: dict[str, list[tuple[float, float]]] = {}
    for r in live:
        taus = [(c.channel, c.tau_direct) for c in r.channels if c.tau_direct is not None]
        for name, tau in taus:
            curves.setdefault(name, []).append((r.energy, tau))
        if taus:
            curves.setdefault("ALL", []).append((r.energy, sum(tau for _, tau in taus)))

    def order(item):  # "ALL", then by lead, then by mode: "left:2" before "left:10"
        lead, _, mode = item[0].partition(":")
        return item[0] != "ALL", lead, int(mode or 0)

    dwell_peaks = {}
    for name, pts in sorted(curves.items(), key=order):
        if len(pts) < 3:
            continue
        xe, ye = map(np.array, zip(*pts))
        found = _find_peaks_1d(xe, ye, min_prominence)
        if found:
            dwell_peaks[name] = found

    matches = []
    for dp in dos_peaks:
        best: tuple[float, str, Peak] | None = None
        for name, peaks in dwell_peaks.items():
            for peak in peaks:
                dist = abs(peak.energy - dp.energy)
                if best is None or dist < best[0]:
                    best = (dist, name, peak)
        if best is None:
            matches.append(PeakMatch(dp, None, None, None, False))
        else:
            dist, name, peak = best
            matches.append(PeakMatch(dp, name, peak, dist, dist <= resolution))
    return ResonanceTable(
        dos_peaks=dos_peaks,
        dwell_peaks=dwell_peaks,
        matches=tuple(matches),
        grid_resolution=resolution,
    )
