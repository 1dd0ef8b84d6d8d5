"""Backend-agnostic estimators: V-derivative dwell times, wave-packet
averages, the identity verifier, and the resonance/peak matcher.

The V-derivative route perturbs the potential inside Omega only and reads
per-channel dwell times off the diagonal of the Smith-type matrix
Q = i hbar S^dag dS/dV at V = 0:

    tau_n = Re[ i sum_m s*_mn ds_mn/dV ] = - sum_m |s_mn|^2 d(arg s_mn)/dV,

with the amplitude-derivative part purely imaginary (unitarity) and kept
only as a consistency residual.  Derivatives are central differences with
per-element phase differences taken on the principal branch.
Every route reads the states of one dispatch, _scatter_chunk, and
single-energy calls are a grid of one.  Which channels are open, and
whether an energy is too close to a threshold, is decided by the
solvers alone: a grid point they refuse is a skip with their error.
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
    LatticeRegion,
    LatticeSystem,
    LayerStack,
    SpectralWeight,
)

__all__ = [
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


# ----------------------------------------------------------------------------
# Report records
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelRecord:
    channel: str
    velocity: float
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


def _residual(dos_green: float, dos_sum: float) -> float:
    return abs(dos_green - dos_sum) / max(dos_green, RESIDUAL_FLOOR)


# ----------------------------------------------------------------------------
# Shifted scattering matrices and the V-derivative dwell time
# ----------------------------------------------------------------------------


def _attempt(solve, *args):
    """solve(*args), or the solver error it raised (a ValidationError is
    a caller error and propagates)."""
    try:
        return solve(*args)
    except ValidationError:
        raise
    except DwellDosError as err:
        return err


def _scatter_chunk(
    system: LayerStack | LatticeSystem,
    energies: list[float],
    v_shifts: list[float],
    region: LatticeRegion | None = None,
) -> list:
    """The state, or the error, of energies[i] with v_shifts[i] added
    inside Omega only (the whole stack in 1D, `region` on a lattice).

    Both backends' states have channels() as (label, velocity),
    smatrix(), dwell_times(region) in channel order and dos(region).  A
    stack chunk is one batched band solve; a lattice goes energy by
    energy.
    """
    if isinstance(system, LayerStack):
        batch = s1d.ScatterBatch(system, energies, v_shifts)
        return [_attempt(batch.solution, i) for i in range(len(energies))]
    if isinstance(system, LatticeSystem):
        return [_attempt(lat._LatticeWorkspace, system.shifted(v, region) if v else system, e)
                for e, v in zip(energies, v_shifts)]
    raise ValidationError(f"unsupported system type {type(system).__name__}")


def _smatrix(state) -> tuple[Array, list[str]] | DwellDosError:
    """(S, labels) of a solved state, or its error: the solver's or the
    one its S matrix raised."""
    if isinstance(state, DwellDosError):
        return state
    return _attempt(lambda: (state.smatrix(), [label for label, _ in state.channels()]))


def _smatrices(system, energies, v_shifts, region) -> list:
    """_smatrix at energies[i] with v_shifts[i], solved in chunks of
    _chunk_size energies; only the matrices outlive a chunk."""
    size = _chunk_size(system)
    return [_smatrix(state) for start in range(0, len(energies), size)
            for state in _scatter_chunk(system, energies[start:start + size],
                                        v_shifts[start:start + size], region)]


def shifted_smatrix(
    system: LayerStack | LatticeSystem,
    energy: float,
    v_shift: float,
    region: LatticeRegion | None = None,
) -> tuple[Array, list[str]]:
    """Flux-normalized S matrix with v_shift added inside Omega only.

    Returns the matrix and the channel labels of its rows/columns, and
    raises the solver error of this energy.  The shift never touches the
    leads or asymptotic regions, so the labels are those of the
    unshifted problem.
    """
    (result,) = _smatrices(system, [energy], [v_shift], region)
    if isinstance(result, DwellDosError):
        raise result
    return result


def default_dv(energy: float) -> float:
    return 1e-5 * max(1.0, abs(energy))


def _vderiv_from_matrices(s0: Array, s_plus: Array, s_minus: Array, dv: Array) -> tuple:
    """Per-channel dwell times from S(0), S(+dv), S(-dv) of several energies.

    The matrices are stacked (G, m, m) over energies with the same open
    channels, and dv is (G,).  Returns the (G, m) dwell times and, per
    energy, None or the error that makes its step unusable.
    """
    weight = np.abs(s0) ** 2
    dphase = np.angle(s_plus * np.conj(s_minus))  # principal branch
    bad = np.count_nonzero((np.abs(dphase) > 0.5 * np.pi) & (weight >= _WEIGHT_EPS), axis=(1, 2))
    step = 2.0 * dv[:, None, None]
    taus = -np.sum(weight * dphase / step, axis=1)
    dmag = (np.abs(s_plus) - np.abs(s_minus)) / step
    imag_resid = np.abs(np.sum(np.abs(s0) * dmag, axis=1))
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


def _vderiv_steps(system, region, energies, s0s, dv) -> list:
    """The V-derivative step loop for several energies at once.

    s0s holds each energy's unshifted (S, labels).  The step is dv, or
    default_dv(E) when dv is None.  Each round is one _smatrices call,
    S(+step) and then S(-step) of every pending energy; the energies
    whose both solves succeeded are grouped by open channels (the
    labels of S(0): a shift inside Omega never reaches the leads) and go
    through _vderiv_from_matrices together.  With dv None, an energy
    whose round fails with StepTooLargeError or NumericalFailureError
    halves its step and goes again, at most _MAX_HALVINGS times; any
    other error ends it.  Returns per energy the {label: tau} dict or
    the error.
    """
    out: list = [None] * len(energies)
    steps = [default_dv(e) if dv is None else float(dv) for e in energies]
    attempts = _MAX_HALVINGS if dv is None else 0
    pending = list(range(len(energies)))
    while pending:
        shifts = [steps[i] for i in pending]
        shifted = _smatrices(system, [energies[i] for i in pending] * 2,
                             shifts + [-v for v in shifts], region)
        errors, groups = {}, {}
        for i, plus, minus in zip(pending, shifted, shifted[len(pending):]):
            err = next((res for res in (plus, minus) if isinstance(res, DwellDosError)), None)
            if err is None:
                groups.setdefault(tuple(s0s[i][1]), []).append((i, plus[0], minus[0]))
            else:
                errors[i] = err
        for labels, members in groups.items():
            index, s_plus, s_minus = zip(*members)
            taus, failed = _vderiv_from_matrices(
                np.stack([s0s[i][0] for i in index]), np.stack(s_plus), np.stack(s_minus),
                np.array([steps[i] for i in index]))
            for i, row, err in zip(index, taus, failed):
                if err is None:
                    out[i] = dict(zip(labels, row))
                else:
                    errors[i] = err
        retry = []
        for i in pending:
            err = errors.get(i)
            if isinstance(err, (StepTooLargeError, NumericalFailureError)) and attempts > 0:
                retry.append(i)
                steps[i] *= 0.5
            elif err is not None:
                out[i] = err
        attempts -= 1
        pending = retry
    return out


def dwell_times_vderiv_all(
    system: LayerStack | LatticeSystem,
    energy: float,
    dv: float | None = None,
    region: LatticeRegion | None = None,
) -> dict[str, float]:
    """V-derivative dwell times for every open channel at once.

    S(0), S(+dv) and S(-dv) are solved once each, through the same
    dispatch and step loop as the grid.  When dv is not given the step
    starts at default_dv(E) and is halved, at most _MAX_HALVINGS times,
    when the phase difference cannot be unwrapped or the unitarity
    residual check fails (both symptoms of too large a step near sharp
    resonances) before giving up.
    """
    s0 = shifted_smatrix(system, energy, 0.0, region)
    (result,) = _vderiv_steps(system, region, [energy], [s0], dv)
    if isinstance(result, DwellDosError):
        raise result
    return result


def dwell_time_vderiv(
    system: LayerStack | LatticeSystem,
    energy: float,
    channel: str | lat.ChannelInfo,
    dv: float | None = None,
    region: LatticeRegion | None = None,
) -> float:
    """Dwell time of one channel from the S-matrix potential derivative."""
    label = channel.label if isinstance(channel, lat.ChannelInfo) else channel
    taus = dwell_times_vderiv_all(system, energy, dv, region)
    if label not in taus:
        raise ValidationError(f"channel {label!r} not open at E = {energy}")
    return taus[label]


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
    e_tau = np.asarray(tau_energies, dtype=float)
    t_tau = np.asarray(tau_values, dtype=float)
    if e_tau.ndim != 1 or e_tau.shape != t_tau.shape or e_tau.size < 1:
        raise ValidationError("tau grid and values must be matching 1D arrays")
    if np.any(np.diff(e_tau) <= 0):
        raise ValidationError("tau energies must be strictly increasing")
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


def _routes(state, region: LatticeRegion | None, methods: tuple[str, ...]) -> tuple:
    """The direct and Green routes of one solved energy: (label, velocity,
    tau_direct) per open channel, dos_green and dos_sum (None for a route
    not in `methods`)."""
    opened = state.channels()
    if "direct" in methods:
        taus = state.dwell_times(region).tolist()
        dos_sum = sum(taus) / (2.0 * np.pi)
    else:
        taus, dos_sum = [None] * len(opened), None
    channels = [(label, velocity, tau) for (label, velocity), tau in zip(opened, taus)]
    dos_green = state.dos(region) if "green" in methods else None
    return channels, dos_green, dos_sum


def _report(energy: float, routes, vd) -> DwellReport:
    """The report of one energy from its routes and V-derivative dwell
    times; either may be the solver error that ends the point in a skip,
    `vd` first (an S(0) error comes as `vd` too, or as `routes` when the
    V-derivative is not wanted)."""
    for err in (vd, routes):
        if isinstance(err, DwellDosError):
            return DwellReport(energy=energy, skipped=True,
                               skip_reason=f"{type(err).__name__}: {err}")
    channels, dos_green, dos_sum = routes
    records = tuple(ChannelRecord(channel=label, velocity=velocity,
                                  tau_direct=tau, tau_vderiv=vd.get(label))
                    for label, velocity, tau in channels)
    residual = (_residual(dos_green, dos_sum)
                if dos_green is not None and dos_sum is not None else None)
    return DwellReport(energy=energy, channels=records,
                       dos_green=dos_green, dos_sum=dos_sum, residual_rel=residual)


def compute_report(
    system: LayerStack | LatticeSystem,
    energy: float,
    region: LatticeRegion | None = None,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
) -> DwellReport:
    """One energy on its own, the same report verify_identity gives it: a
    grid of one through _chunk_reports; solver errors become a skip."""
    return _chunk_reports(system, [energy], region, methods, dv)[0]


# Energies per chunk of a stack grid: the band storage of one chunk holds
# about this many unknowns (2n + 2 per energy, 7 complex slots each:
# about 4 MB), however many layers the stack has.
_BATCH_UNKNOWNS = 2**15


def _chunk_size(system: LayerStack | LatticeSystem) -> int:
    """Energies solved together: one band solve per stack chunk; a lattice
    workspace is large already, so lattices go one energy at a time."""
    if isinstance(system, LayerStack):
        return max(1, _BATCH_UNKNOWNS // (2 * len(system.layers) + 2))
    return 1


def _chunk_reports(
    system: LayerStack | LatticeSystem,
    energies: list[float],
    region: LatticeRegion | None,
    methods: tuple[str, ...],
    dv: float | None,
) -> list[DwellReport]:
    """compute_report at every energy of a grid, with solves shared.

    Solves go in chunks of _chunk_size energies: one band solve per stack
    chunk, whose direct and Green routes are numpy expressions over its
    (energy, layer) arrays; a lattice goes one energy at a time.  Only
    the route results and S(0) outlive a chunk.  The V-derivative reuses
    S(0), and each of its rounds solves S(+step) and S(-step) of every
    pending energy of the grid together, so the retries of all chunks
    share a band solve.  Errors keep compute_report's order: S(0), then
    the V-derivative, then the direct and Green routes.
    """
    size = _chunk_size(system)
    routes, s0s = [], []
    for start in range(0, len(energies), size):
        chunk = energies[start:start + size]
        states = _scatter_chunk(system, chunk, [0.0] * len(chunk), region)
        routes += [state if isinstance(state, DwellDosError)
                   else _attempt(_routes, state, region, methods) for state in states]
        if "vderiv" in methods:
            s0s += [_smatrix(state) for state in states]
        del states  # free this chunk's solution before the next is solved
    if "vderiv" not in methods:
        return [_report(e, r, {}) for e, r in zip(energies, routes)]
    live = [i for i, s0 in enumerate(s0s) if not isinstance(s0, DwellDosError)]
    results = _vderiv_steps(system, region, [energies[i] for i in live],
                            [s0s[i] for i in live], dv)
    vds = s0s  # an S(0) error ends its point
    for i, res in zip(live, results):
        vds[i] = res
    return [_report(e, r, vd) for e, r, vd in zip(energies, routes, vds)]


def verify_identity(
    system: LayerStack | LatticeSystem,
    grid: EnergyGrid,
    region: LatticeRegion | None = None,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
) -> list[DwellReport]:
    """Evaluate every estimator on the grid and record identity residuals.

    Every grid point is solved, in chunks (_chunk_reports); one that the
    solver refuses (within model.THRESHOLD_MARGIN of a channel threshold,
    no open channel, or a failure) is reported as skipped with the
    solver's error, never silently dropped.  Output order is by energy.
    """
    bad = set(methods) - {"direct", "green", "vderiv"}
    if bad:
        raise ValidationError(f"unknown methods: {sorted(bad)}")
    if not methods:
        raise ValidationError("methods must be non-empty")
    energies = [float(e) for e in grid.points]
    return _chunk_reports(system, energies, region, methods, dv)


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

    A palindromic 1D stack has equal dwell times from both sides, so the
    two-channel identity collapses to rho_Omega * pi * hbar / tau = 1; on
    a palindromic lattice the check is the left/right equality of
    per-mode dwell times.
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
            if isinstance(system, LayerStack):
                if r.dos_green is not None and "left" in taus and taus["left"] > 0:
                    devs.append(abs(r.dos_green * np.pi / taus["left"] - 1.0))
                if "left" in taus and "right" in taus:
                    devs.append(abs(taus["left"] - taus["right"]))
            else:
                for name, tau in taus.items():
                    lead, mode = name.split(":")
                    twin = f"{'right' if lead == 'left' else 'left'}:{mode}"
                    if twin in taus:
                        devs.append(abs(tau - taus[twin]))
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
    peaks = []
    for i, w in zip(idx, widths_idx):
        peaks.append(Peak(
            energy=_refine_peak(x, y, int(i)),
            height=float(y[i]),
            width=float(w * spacing[i]),
        ))
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
        total = 0.0
        any_tau = False
        for c in r.channels:
            if c.tau_direct is None:
                continue
            curves.setdefault(c.channel, []).append((r.energy, c.tau_direct))
            total += c.tau_direct
            any_tau = True
        if any_tau:
            curves.setdefault("ALL", []).append((r.energy, total))

    dwell_peaks = {}
    for name, pts in sorted(curves.items()):
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
