"""Quasi-1D tight-binding scattering with W transverse modes per lead.

Dispersion convention (hopping -1, zero on-site in the leads): transverse
profiles chi_m(j) = sqrt(2/(W+1)) sin(m pi j / (W+1)) with transverse
energy eps_m = -2 cos(m pi / (W+1)), and per-mode longitudinal dispersion
E = eps_m - 2 cos k, group velocity v = 2 sin k.

The two semi-infinite leads are folded into self-energies
Sigma(E) = sum_m (-e^{i k_m}) chi_m chi_m^T acting on the interface
columns (the retarded branch keeps |e^{i k_m}| <= 1 for evanescent
modes).  Scattering states solve (E - H - Sigma_L - Sigma_R) psi = q with
the source q = i v_n chi_n on the incident interface column, which
normalizes the incoming Bloch wave to unit amplitude at that column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BoundStatePoleError,
    ClosedChannelError,
    NumericalFailureError,
    ThresholdProximityError,
    ValidationError,
)
from .model import (
    DEFAULT_THRESHOLD_MARGIN,
    Array,
    LatticeRegion,
    LatticeSystem,
)

__all__ = [
    "ChannelInfo",
    "LatticeScatterState",
    "transverse_modes",
    "lead_modes",
    "open_channels",
    "lead_self_energy",
    "build_hamiltonian",
    "scattering_state",
    "scattering_matrix",
    "dwell_time_lattice",
    "greens_function_lattice",
    "dos_region_lattice",
]

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ChannelInfo:
    """One lead mode: transverse profile plus longitudinal propagation data."""

    lead: str                 # "left" | "right"
    mode: int                 # 1-based transverse index
    transverse_profile: Array
    transverse_energy: float
    k: complex
    velocity: float           # 2 sin k for open modes, 0.0 otherwise
    status: str               # "open" | "evanescent"

    @property
    def is_open(self) -> bool:
        return self.status == "open"

    @property
    def label(self) -> str:
        return f"{self.lead}:{self.mode}"


@dataclass(frozen=True)
class LatticeScatterState:
    energy: float
    channel: ChannelInfo
    psi: Array  # shape (length, width), unit incident amplitude


def transverse_modes(width: int) -> tuple[Array, Array]:
    """Orthonormal transverse profiles (columns of chi) and energies eps_m."""
    if width < 1:
        raise ValidationError("width must be >= 1")
    j = np.arange(1, width + 1)
    m = np.arange(1, width + 1)
    chi = np.sqrt(2.0 / (width + 1)) * np.sin(np.outer(j, m) * np.pi / (width + 1))
    eps = -2.0 * np.cos(m * np.pi / (width + 1))
    return chi, eps


def _longitudinal(eps_m: float, energy: float) -> tuple[complex, float, str]:
    """Solve E = eps_m - 2 cos k on the retarded branch (Im k >= 0)."""
    c = (eps_m - energy) / 2.0
    if abs(c) < 1.0:
        k = complex(np.arccos(c), 0.0)
        return k, 2.0 * np.sin(k.real), "open"
    if c >= 1.0:
        k = complex(0.0, np.arccosh(c))
    else:
        k = complex(np.pi, np.arccosh(-c))
    return k, 0.0, "evanescent"


def lead_modes(
    width: int,
    energy: float,
    lead: str = "left",
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> list[ChannelInfo]:
    """All W channels of one lead at this energy, open and evanescent."""
    if lead not in ("left", "right"):
        raise ValidationError("lead must be 'left' or 'right'")
    chi, eps = transverse_modes(width)
    for edge in np.concatenate([eps - 2.0, eps + 2.0]):
        if abs(energy - edge) <= threshold_margin:
            raise ThresholdProximityError(
                f"E = {energy} within {threshold_margin} of band edge {edge}"
            )
    out = []
    for m in range(1, width + 1):
        k, v, status = _longitudinal(eps[m - 1], energy)
        out.append(ChannelInfo(
            lead=lead, mode=m, transverse_profile=chi[:, m - 1],
            transverse_energy=float(eps[m - 1]), k=k, velocity=v, status=status,
        ))
    return out


def open_channels(
    system: LatticeSystem,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> list[ChannelInfo]:
    """Open channels of both leads, left lead first, modes ascending."""
    chans = []
    for lead in ("left", "right"):
        chans.extend(
            c for c in lead_modes(system.width, energy, lead, threshold_margin)
            if c.is_open
        )
    return chans


def lead_self_energy(
    width: int,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> Array:
    """Retarded self-energy of one ideal lead on its interface column."""
    modes = lead_modes(width, energy, "left", threshold_margin)
    sigma = np.zeros((width, width), dtype=complex)
    for ch in modes:
        g = -np.exp(1j * ch.k)  # semi-infinite chain surface Green's function
        sigma += g * np.outer(ch.transverse_profile, ch.transverse_profile)
    return sigma


def build_hamiltonian(system: LatticeSystem) -> Array:
    """Dense device Hamiltonian, site index = column * width + row."""
    w, lx = system.width, system.length
    t_col = np.zeros((w, w))
    idx = np.arange(w - 1)
    t_col[idx, idx + 1] = -1.0
    t_col[idx + 1, idx] = -1.0
    h = np.kron(np.eye(lx), t_col)
    hop = np.zeros((lx, lx))
    jdx = np.arange(lx - 1)
    hop[jdx, jdx + 1] = 1.0
    hop[jdx + 1, jdx] = 1.0
    h += np.kron(hop, -np.eye(w))
    h += np.diag(system.onsite.reshape(-1))
    return h


class _LatticeWorkspace:
    """One energy's factorized open-system operator, shared by all solves."""

    def __init__(self, system: LatticeSystem, energy: float,
                 threshold_margin: float = DEFAULT_THRESHOLD_MARGIN):
        self.system = system
        self.energy = energy
        self.modes_left = lead_modes(system.width, energy, "left", threshold_margin)
        self.modes_right = lead_modes(system.width, energy, "right", threshold_margin)
        sigma = lead_self_energy(system.width, energy, threshold_margin)
        n = system.n_sites
        w = system.width
        a = (energy * np.eye(n) - build_hamiltonian(system)).astype(complex)
        a[:w, :w] -= sigma
        a[n - w:, n - w:] -= sigma
        self.operator = a
        try:
            self.lu = sla.lu_factor(a)
        except sla.LinAlgError as exc:  # pragma: no cover - singular at poles
            raise BoundStatePoleError(f"singular operator at E = {energy}") from exc

    @property
    def open_modes(self) -> list[ChannelInfo]:
        """Open channels of both leads, in S-matrix order."""
        return [c for c in self.modes_left + self.modes_right if c.is_open]

    def channels(self) -> list[tuple[str, float]]:
        """Open channels as (label, velocity), in S-matrix order."""
        return [(c.label, c.velocity) for c in self.open_modes]

    def dwell_time(self, label: str, region: LatticeRegion | None = None) -> float:
        """Direct dwell time in Omega of the open channel with this label."""
        channel = next(c for c in self.open_modes if c.label == label)
        return dwell_time_lattice(self.system, self.energy, channel, region, workspace=self)

    def dos(self, region: LatticeRegion | None = None) -> float:
        """Green-trace DOS of Omega."""
        return dos_region_lattice(self.system, self.energy, region, workspace=self)

    def smatrix(self) -> Array:
        """Flux-normalized S matrix over the open channels."""
        return scattering_matrix(self.system, self.energy, workspace=self)[0]

    def interface_slice(self, lead: str) -> slice:
        n, w = self.system.n_sites, self.system.width
        return slice(0, w) if lead == "left" else slice(n - w, n)

    def solve_channel(self, channel: ChannelInfo) -> Array:
        if not channel.is_open:
            raise ClosedChannelError(f"channel {channel.label} closed at E = {self.energy}")
        n = self.system.n_sites
        q = np.zeros(n, dtype=complex)
        q[self.interface_slice(channel.lead)] = (
            1j * channel.velocity * channel.transverse_profile
        )
        psi = sla.lu_solve(self.lu, q)
        resid = np.max(np.abs(self.operator @ psi - q))
        if resid > _RESIDUAL_TOL:
            raise NumericalFailureError(
                f"scattering solve residual {resid:.3e} at E = {self.energy}"
            )
        return psi

    def outgoing_amplitudes(self, psi: Array, incident: ChannelInfo) -> dict[str, complex]:
        """Flux-normalized outgoing amplitudes over open channels, by label.

        On the interface columns the state decomposes into lead modes;
        projecting out the incident term leaves the outgoing amplitude at
        the interface plane.
        """
        out = {}
        for lead, modes in (("left", self.modes_left), ("right", self.modes_right)):
            block = psi[self.interface_slice(lead)]
            for ch in modes:
                if not ch.is_open:
                    continue
                amp = complex(ch.transverse_profile @ block)
                if lead == incident.lead and ch.mode == incident.mode:
                    amp -= 1.0
                out[ch.label] = amp * np.sqrt(ch.velocity / incident.velocity)
        return out


def scattering_state(
    system: LatticeSystem,
    energy: float,
    channel: ChannelInfo,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> LatticeScatterState:
    """Stationary state for unit incidence in one open channel."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    psi = ws.solve_channel(channel)
    return LatticeScatterState(
        energy=energy, channel=channel,
        psi=psi.reshape(system.length, system.width),
    )


def scattering_matrix(
    system: LatticeSystem,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> tuple[Array, list[ChannelInfo]]:
    """Full flux-normalized S matrix over the open channels of both leads."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    chans = ws.open_modes
    n = len(chans)
    s = np.zeros((n, n), dtype=complex)
    for col, cin in enumerate(chans):
        psi = ws.solve_channel(cin)
        amps = ws.outgoing_amplitudes(psi, cin)
        for row, cout in enumerate(chans):
            s[row, col] = amps[cout.label]
    return s, chans


def dwell_time_lattice(
    system: LatticeSystem,
    energy: float,
    channel: ChannelInfo,
    region: LatticeRegion | None = None,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> float:
    """Dwell time in Omega: sum of |psi|^2 over Omega sites divided by v_n.

    Unit-amplitude normalization absorbs the 2 pi hbar factor of the
    energy-normalized definition, exactly as in the 1D continuum case.
    """
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    psi = ws.solve_channel(channel)
    sites = system.region_sites(region)
    return float(np.sum(np.abs(psi[sites]) ** 2) / channel.velocity)


def greens_function_lattice(
    system: LatticeSystem,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> Array:
    """Retarded device Green's function by dense inversion of the factorized operator."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    try:
        return sla.lu_solve(ws.lu, np.eye(system.n_sites, dtype=complex))
    except sla.LinAlgError as exc:  # pragma: no cover
        raise BoundStatePoleError(f"singular operator at E = {energy}") from exc


def dos_region_lattice(
    system: LatticeSystem,
    energy: float,
    region: LatticeRegion | None = None,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> float:
    """Region DOS: sum over Omega sites of -(1/pi) Im G(r, r; E)."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    diag = np.diag(greens_function_lattice(system, energy, workspace=ws))
    sites = system.region_sites(region)
    return float(-np.sum(diag[sites].imag) / np.pi)
