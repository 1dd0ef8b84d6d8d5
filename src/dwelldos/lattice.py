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

The open-system operator is block tridiagonal in the L device columns:
W x W diagonal blocks E - H_col(c) (minus Sigma on the interface columns)
and identity blocks between neighbouring columns.  Its inverse, the
retarded Green's function G, is computed by recursive Green's-function
sweeps (MacKinnon, Z. Phys. B 59, 385 (1985); Lake et al., J. Appl.
Phys. 81, 7845 (1997)): one left-connected Dyson sweep and a backward
pass that connects it, L block inverses and O(L W^3) work per energy.
Only the site diagonal of G (Green-trace DOS)
and the two interface column blocks G[:, left] and G[:, right]
(scattering states psi = G[:, lead] q and, through them, the S matrix)
are formed, so storage is O(L W^2); nothing of size (LW)^2 is built.
The scattering states of all open channels are one (channel, column,
row) array, which the S matrix and the direct dwell times read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    BoundStatePoleError,
    ClosedChannelError,
    NoOpenChannelError,
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
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> list[ChannelInfo]:
    """All W channels of the left lead at this energy, open and evanescent
    (the right lead's are the same with lead = "right")."""
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
            lead="left", mode=m, transverse_profile=chi[:, m - 1],
            transverse_energy=float(eps[m - 1]), k=k, velocity=v, status=status,
        ))
    return out


def open_channels(
    system: LatticeSystem,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> list[ChannelInfo]:
    """Open channels of both leads, left lead first, modes ascending."""
    return _both_leads(lead_modes(system.width, energy, threshold_margin))


def _both_leads(modes: list[ChannelInfo]) -> list[ChannelInfo]:
    """Open channels of both leads from the left lead's modes (the leads
    are the same ideal strip)."""
    opened = [c for c in modes if c.is_open]
    return opened + [replace(c, lead="right") for c in opened]


def lead_self_energy(
    width: int,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> Array:
    """Retarded self-energy of one ideal lead on its interface column."""
    return _self_energy(lead_modes(width, energy, threshold_margin))


def _self_energy(modes: list[ChannelInfo]) -> Array:
    """Sigma = sum_m (-e^{i k_m}) chi_m chi_m^T over all W modes of a lead."""
    width = len(modes)
    sigma = np.zeros((width, width), dtype=complex)
    for ch in modes:
        g = -np.exp(1j * ch.k)  # semi-infinite chain surface Green's function
        sigma += g * np.outer(ch.transverse_profile, ch.transverse_profile)
    return sigma


def _column_hamiltonian(width: int) -> Array:
    """Hopping inside one device column (rows j and j + 1 coupled by -1)."""
    t_col = np.zeros((width, width))
    idx = np.arange(width - 1)
    t_col[idx, idx + 1] = -1.0
    t_col[idx + 1, idx] = -1.0
    return t_col


def build_hamiltonian(system: LatticeSystem) -> Array:
    """Dense device Hamiltonian, site index = column * width + row.

    The scattering routes never build it; it serves the dense reference
    Green's function in `dwelldos.oracles` and the tests.
    """
    w, lx = system.width, system.length
    h = np.kron(np.eye(lx), _column_hamiltonian(w))
    hop = np.zeros((lx, lx))
    jdx = np.arange(lx - 1)
    hop[jdx, jdx + 1] = 1.0
    hop[jdx + 1, jdx] = 1.0
    h += np.kron(hop, -np.eye(w))
    h += np.diag(system.onsite.reshape(-1))
    return h


def _inv(blocks: Array, energy: float) -> Array:
    """Inverse of one W x W block or a stack of them."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - singular at poles
        raise BoundStatePoleError(f"singular column block at E = {energy}") from exc


class _LatticeWorkspace:
    """One energy's recursive Green's-function sweeps, shared by all solves.

    Keeps the column blocks of the open-system operator (`blocks`, shape
    (L, W, W)), the site diagonal of G (`green_diagonal`, flat site
    order) and the interface column blocks `green_columns[lead][c] =
    G[c, interface column of lead]`, each of shape (L, W, W).  The
    states of all open channels (`psi`) are solved on first use.
    """

    def __init__(self, system: LatticeSystem, energy: float,
                 threshold_margin: float = DEFAULT_THRESHOLD_MARGIN):
        self.system = system
        self.energy = energy
        modes = lead_modes(system.width, energy, threshold_margin)
        self.open_modes = _both_leads(modes)
        if not self.open_modes:
            raise NoOpenChannelError(f"no open lead channel at E = {energy}")
        self.velocities = np.array([c.velocity for c in self.open_modes])
        # transverse profiles of one lead's open modes, (W, n_open / 2)
        half = self.open_modes[:len(self.open_modes) // 2]
        self._profiles = np.stack([c.transverse_profile for c in half], axis=1)
        sigma = _self_energy(modes)
        lx, w = system.length, system.width
        # diagonal blocks E - H_col(c) - Sigma; the blocks between
        # neighbouring columns are the identity (hopping -1)
        d = np.empty((lx, w, w), dtype=complex)
        d[:] = energy * np.eye(w) - _column_hamiltonian(w)
        d[:, np.arange(w), np.arange(w)] -= system.onsite
        d[0] -= sigma
        d[-1] -= sigma  # the same block again when L = 1: both leads attach
        self.blocks = d
        # forward: left-connected Green's functions of the device cut after
        # column c, g[c] = (D_c - g[c-1])^-1, and their first-column
        # blocks col_left[c] = -g[c] col_left[c-1], col_left[0] = g[0]
        g = np.empty_like(d)
        col_left = np.empty_like(d)
        g[0] = col_left[0] = _inv(d[0], energy)
        for c in range(1, lx):
            g[c] = _inv(d[c] - g[c - 1], energy)
            col_left[c] = -g[c] @ col_left[c - 1]
        # backward: G[c, c] = g[c] + g[c] G[c+1, c+1] g[c], G[c, L-1] =
        # -g[c] G[c+1, L-1] and G[c, 0] = -G[c, c] col_left[c-1], which
        # overwrites col_left[c] once it has been read
        g_diag = np.empty_like(d)
        col_right = np.empty_like(d)
        g_diag[-1] = col_right[-1] = g[-1]
        for c in range(lx - 2, -1, -1):
            g_diag[c] = g[c] + g[c] @ g_diag[c + 1] @ g[c]
            col_right[c] = -g[c] @ col_right[c + 1]
            col_left[c + 1] = -g_diag[c + 1] @ col_left[c]
        col_left[0] = g_diag[0]
        self.green_diagonal = np.diagonal(g_diag, axis1=1, axis2=2).reshape(-1)
        self.green_columns = {"left": col_left, "right": col_right}

    def channels(self) -> list[tuple[str, float]]:
        """Open channels as (label, velocity), in S-matrix order."""
        return [(c.label, c.velocity) for c in self.open_modes]

    def index(self, channel: ChannelInfo | str) -> int:
        """Position of an open channel, given by its ChannelInfo or label,
        in S-matrix order (the first axis of `psi`)."""
        if isinstance(channel, ChannelInfo) and not channel.is_open:
            raise ClosedChannelError(f"channel {channel.label} closed at E = {self.energy}")
        label = channel.label if isinstance(channel, ChannelInfo) else channel
        for j, c in enumerate(self.open_modes):
            if c.label == label:
                return j
        raise ValidationError(f"channel {label!r} not open at E = {self.energy}")

    @cached_property
    def psi(self) -> Array:
        """Scattering states psi = G[:, lead] (i v_n chi_n) of all open
        channels, (n_open, L, W) in S-matrix order, checked by applying
        E - H - Sigma column by column.  One matrix-vector product per
        channel and column keeps each state bit-identical to a solve of
        that channel alone."""
        half = self._profiles.shape[1]
        sources = (1j * self.velocities[:half] * self._profiles).T
        psi = np.concatenate([self.green_columns[lead] @ sources[:, None, :, None]
                              for lead in ("left", "right")])[..., 0]
        r = (self.blocks @ psi[..., None])[..., 0]
        r[:, 1:] += psi[:, :-1]
        r[:, :-1] += psi[:, 1:]
        r[:half, 0] -= sources
        r[half:, -1] -= sources
        resid = np.max(np.abs(r))
        if not resid <= _RESIDUAL_TOL:  # a NaN residual fails too
            raise NumericalFailureError(
                f"scattering solve residual {resid:.3e} at E = {self.energy}"
            )
        return psi

    def smatrix(self) -> Array:
        """Flux-normalized S matrix over the open channels.

        On the interface columns the states decompose into lead modes:
        projecting them onto the open profiles and subtracting the
        incident term leaves the outgoing amplitudes at the interface
        plane, scaled by sqrt(v_out / v_in).
        """
        # one dot product per entry, as for one channel alone (the
        # profiles are real, so vecdot's conjugate changes nothing)
        amps = np.concatenate([np.vecdot(self._profiles.T[:, None, :], self.psi[:, c])
                               for c in (0, -1)])
        v = self.velocities
        return (amps - np.eye(v.size)) * np.sqrt(v[:, None] / v[None, :])

    def dwell_times(self, region: LatticeRegion | None = None) -> Array:
        """Direct dwell times in Omega of all open channels, S-matrix order:
        the sum of |psi|^2 over the Omega sites divided by v_n."""
        sites = self.system.region_sites(region)
        # take() keeps each channel's sites contiguous, so each row sums
        # in the same order as one channel's state alone
        psi = self.psi.reshape(self.velocities.size, -1).take(sites, axis=1)
        return np.sum(np.abs(psi) ** 2, axis=-1) / self.velocities

    def dwell_time(self, channel: ChannelInfo | str,
                   region: LatticeRegion | None = None) -> float:
        """Direct dwell time in Omega of one open channel (or its label)."""
        return float(self.dwell_times(region)[self.index(channel)])

    def dos(self, region: LatticeRegion | None = None) -> float:
        """Green-trace DOS of Omega."""
        return dos_region_lattice(self.system, self.energy, region, workspace=self)


def scattering_state(
    system: LatticeSystem,
    energy: float,
    channel: ChannelInfo,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> LatticeScatterState:
    """Stationary state for unit incidence in one open channel."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    return LatticeScatterState(energy=energy, channel=channel,
                               psi=ws.psi[ws.index(channel)].copy())


def scattering_matrix(
    system: LatticeSystem,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> tuple[Array, list[ChannelInfo]]:
    """Full flux-normalized S matrix over the open channels of both leads."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    return ws.smatrix(), ws.open_modes


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
    return ws.dwell_time(channel, region)


def dos_region_lattice(
    system: LatticeSystem,
    energy: float,
    region: LatticeRegion | None = None,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    workspace: _LatticeWorkspace | None = None,
) -> float:
    """Region DOS: sum over Omega sites of -(1/pi) Im G(r, r; E)."""
    ws = workspace or _LatticeWorkspace(system, energy, threshold_margin)
    sites = system.region_sites(region)
    return float(-np.sum(ws.green_diagonal[sites].imag) / np.pi)
