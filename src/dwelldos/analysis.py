"""Backend-agnostic estimators: V-derivative dwell times, wave-packet
averages, the identity verifier, and the resonance/peak matcher.

The V-derivative route perturbs the potential inside Omega only and reads
per-channel dwell times off the diagonal of the Smith-type matrix
Q = i hbar S^dag dS/dV at V = 0:

    tau_n = Re[ i sum_m s*_mn ds_mn/dV ] = - sum_m |s_mn|^2 d(arg s_mn)/dV,

with the amplitude-derivative part purely imaginary (unitarity) and kept
only as a consistency residual.  Derivatives are central differences with
per-element phase differences taken on the principal branch.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CoverageError,
    DwellDosError,
    InsufficientDataError,
    NumericalFailureError,
    StepTooLargeError,
    ThresholdCrossingError,
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
    channel_thresholds,
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


def _scatter(
    system: LayerStack | LatticeSystem,
    energy: float,
    threshold_margin: float,
    v_shift: float = 0.0,
    region: LatticeRegion | None = None,
) -> s1d.ScatterSolution1D | lat._LatticeWorkspace:
    """Solve one energy; the only dispatch on the backend type.

    Both backends return their per-energy object with the same methods:
    channels() as (label, velocity), smatrix(), dwell_time(label, region)
    and dos(region).  A nonzero v_shift is added inside Omega only: the
    whole stack in 1D, `region` on a lattice.
    """
    if isinstance(system, LayerStack):
        if v_shift:
            system = system.shifted(v_shift)
        return s1d.scattering_amplitudes(system, energy, threshold_margin)
    if isinstance(system, LatticeSystem):
        if v_shift:
            system = system.shifted(v_shift, region)
        return lat._LatticeWorkspace(system, energy, threshold_margin)
    raise ValidationError(f"unsupported system type {type(system).__name__}")


def shifted_smatrix(
    system: LayerStack | LatticeSystem,
    energy: float,
    v_shift: float,
    region: LatticeRegion | None = None,
    threshold_margin: float = 1e-6,
) -> tuple[Array, list[str]]:
    """Flux-normalized S matrix with v_shift added inside Omega only.

    Returns the matrix and the channel labels of its rows/columns.  The
    shift never touches the leads or asymptotic regions, so callers can
    compare the labels against the unshifted problem.
    """
    state = _scatter(system, energy, threshold_margin, v_shift, region)
    return state.smatrix(), [label for label, _ in state.channels()]


def default_dv(energy: float) -> float:
    return 1e-5 * max(1.0, abs(energy))


def _vderiv_from_matrices(s0: Array, s_plus: Array, s_minus: Array, dv: float) -> Array:
    """Per-channel dwell times from S(0), S(+dv), S(-dv)."""
    weight = np.abs(s0) ** 2
    dphase = np.angle(s_plus * np.conj(s_minus))  # principal branch
    bad = (np.abs(dphase) > 0.5 * np.pi) & (weight >= _WEIGHT_EPS)
    if np.any(bad):
        raise StepTooLargeError(
            f"phase step exceeds pi/2 for {int(bad.sum())} S elements at dv = {dv}"
        )
    taus = -np.sum(weight * dphase / (2.0 * dv), axis=0)
    dmag = (np.abs(s_plus) - np.abs(s_minus)) / (2.0 * dv)
    imag_resid = np.abs(np.sum(np.abs(s0) * dmag, axis=0))
    if np.any(imag_resid > _IMAG_RESIDUAL_TOL):
        raise NumericalFailureError(
            f"imaginary residual of the delay matrix diagonal reached "
            f"{imag_resid.max():.3e} (> {_IMAG_RESIDUAL_TOL}) at dv = {dv}"
        )
    return taus


def dwell_times_vderiv_all(
    system: LayerStack | LatticeSystem,
    energy: float,
    dv: float | None = None,
    region: LatticeRegion | None = None,
    threshold_margin: float = 1e-6,
    auto_adjust: bool | None = None,
    max_halvings: int = 12,
) -> dict[str, float]:
    """V-derivative dwell times for every open channel at once.

    With auto_adjust (default when dv is not given) the step is halved
    when the phase difference cannot be unwrapped or the unitarity
    residual check fails (both symptoms of too large a step near sharp
    resonances) before giving up.
    """
    if auto_adjust is None:
        auto_adjust = dv is None
    step = default_dv(energy) if dv is None else float(dv)
    s0, labels = shifted_smatrix(system, energy, 0.0, region, threshold_margin)

    def shifted(v_shift: float) -> Array:
        s, shifted_labels = shifted_smatrix(system, energy, v_shift, region, threshold_margin)
        if shifted_labels != labels:
            raise ThresholdCrossingError(
                f"potential shift {v_shift} changed the open-channel set at E = {energy}"
            )
        return s

    attempts = max_halvings if auto_adjust else 0
    while True:
        try:
            taus = _vderiv_from_matrices(s0, shifted(+step), shifted(-step), step)
            return dict(zip(labels, taus))
        except (StepTooLargeError, NumericalFailureError):
            if attempts <= 0:
                raise
            attempts -= 1
            step *= 0.5


def dwell_time_vderiv(
    system: LayerStack | LatticeSystem,
    energy: float,
    channel: str | lat.ChannelInfo,
    dv: float | None = None,
    region: LatticeRegion | None = None,
    threshold_margin: float = 1e-6,
    auto_adjust: bool | None = None,
) -> float:
    """Dwell time of one channel from the S-matrix potential derivative."""
    label = channel.label if isinstance(channel, lat.ChannelInfo) else channel
    taus = dwell_times_vderiv_all(
        system, energy, dv, region, threshold_margin, auto_adjust
    )
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


def compute_report(
    system: LayerStack | LatticeSystem,
    energy: float,
    region: LatticeRegion | None = None,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
    threshold_margin: float = 1e-6,
) -> DwellReport:
    """One energy point of verify_identity; solver errors become a skip."""
    want_direct = "direct" in methods
    try:
        state = _scatter(system, energy, threshold_margin)
        vd = {}
        if "vderiv" in methods:
            vd = dwell_times_vderiv_all(system, energy, dv, region, threshold_margin)
        records = []
        for label, velocity in state.channels():
            tau = state.dwell_time(label, region) if want_direct else None
            records.append(ChannelRecord(
                channel=label, velocity=velocity,
                tau_direct=tau, tau_vderiv=vd.get(label),
            ))
        dos_green = state.dos(region) if "green" in methods else None
    except DwellDosError as err:
        if isinstance(err, ValidationError):
            raise
        return DwellReport(energy=energy, skipped=True,
                           skip_reason=f"{type(err).__name__}: {err}")
    dos_sum = None
    if want_direct:
        dos_sum = sum(r.tau_direct for r in records) / (2.0 * np.pi)
    residual = (_residual(dos_green, dos_sum)
                if dos_green is not None and dos_sum is not None else None)
    return DwellReport(energy=energy, channels=tuple(records),
                       dos_green=dos_green, dos_sum=dos_sum, residual_rel=residual)


def verify_identity(
    system: LayerStack | LatticeSystem,
    grid: EnergyGrid,
    region: LatticeRegion | None = None,
    methods: tuple[str, ...] = ("direct", "green"),
    dv: float | None = None,
    workers: int = 1,
) -> list[DwellReport]:
    """Evaluate every estimator on the grid and record identity residuals.

    Grid points too close to a channel threshold (or with no open channel)
    are reported as skipped, never silently dropped.  With workers > 1 the
    admissible points are spread over a process pool; output order is by
    energy either way.
    """
    bad = set(methods) - {"direct", "green", "vderiv"}
    if bad:
        raise ValidationError(f"unknown methods: {sorted(bad)}")
    if not methods:
        raise ValidationError("methods must be non-empty")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    margin = grid.threshold_margin
    energies = [float(e) for e in grid.points]
    admissible = grid.admissible_mask(channel_thresholds(system))
    todo = [e for e, ok in zip(energies, admissible) if ok]
    point = partial(compute_report, system, region=region, methods=methods,
                    dv=dv, threshold_margin=margin)
    if workers == 1 or len(todo) < 2:
        computed = [point(e) for e in todo]
    else:
        chunk = max(1, len(todo) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(point, todo, chunksize=chunk))
    done = iter(computed)
    return [next(done) if ok
            else DwellReport(energy=e, skipped=True, skip_reason="threshold proximity")
            for e, ok in zip(energies, admissible)]


def summarize_reports(
    reports: list[DwellReport],
    system: LayerStack | LatticeSystem | None = None,
) -> dict:
    """Aggregate residuals; adds the symmetric-system check when it applies.

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
