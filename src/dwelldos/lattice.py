"""Quasi-1D tight-binding scattering with W transverse modes per lead.

Dispersion convention (hopping -1, zero on-site in the leads): transverse
profiles chi_m(j) = sqrt(2/(W+1)) sin(m pi j / (W+1)) with transverse
energy eps_m = -2 cos(m pi / (W+1)), both from model.transverse_modes,
and per-mode longitudinal dispersion E = eps_m - 2 cos k, group velocity
v = 2 sin k.  _lead_modes solves it for k and v at an array of energies;
lead_modes is its gated single-energy form.

The two semi-infinite leads are folded into self-energies
Sigma(E) = sum_m (-e^{i k_m}) chi_m chi_m^T acting on the interface
columns (the retarded branch keeps |e^{i k_m}| <= 1 for evanescent
modes).  Scattering states solve (E - H - Sigma_L - Sigma_R) psi = q with
the source q = i v_n chi_n on the incident interface column, which
normalizes the incoming Bloch wave to unit amplitude at that column.

The open-system operator is block tridiagonal in the L device columns:
W x W diagonal blocks E - H_col(c) (minus Sigma on the interface columns)
and identity blocks between neighbouring columns.  _LatticeWorkspace
solves it for a chunk of energies at once, with the blocks stacked over
energy, by recursive Green's-function sweeps (MacKinnon, Z. Phys. B 59,
385 (1985); Lake et al., J. Appl. Phys. 81, 7845 (1997)): a
left-connected Dyson sweep that inverts the blocks in place and a
backward pass, L batched block inverses per chunk and O(L W^3) work per
energy.  The same two loops solve the scattering states of all 2W lead
channels by block substitution, and the backward pass gives the site
diagonal of G (Green-trace DOS).  Storage is the blocks g, inverted into
the left-connected ones, and the states, 3 L W^2 complex values per
energy, of which only the states outlive the sweep; no block of G off
its diagonal and nothing of size (LW)^2 is built.  The S matrices and the
direct dwell times read the states, and errors(*routes) says why an energy
has no result: its checks are rows after the skip rule it shares with
the 1D solver (model.energy_errors).  scattering_state, dwell_time_lattice
and dos_region_lattice are a batch of one energy; scattering_matrix is
shifted_smatrix at zero shift, the one single-energy S of both backends.
Channels are labels ("left:m", "right:m"), returned by open_channels and
scattering_matrix and taken by scattering_state and dwell_time_lattice.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cached_property

import numpy as np

from .errors import BoundStatePoleError, NumericalFailureError
from .model import (Array, LatticeSystem, _energy, energy_errors, single_energy,
                    transverse_modes)

__all__ = [
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
_SLAB_COLUMNS = 8  # columns per slab of the residual and dwell-time sums


def _lead_modes(eps: Array, energies: Array) -> tuple[Array, Array]:
    """Longitudinal data of the W lead modes at every energy.

    Solves E = eps_m - 2 cos k on the retarded branch (Im k >= 0): k and
    the velocity 2 sin k (0 for an evanescent mode), both (E, W).
    """
    c = (eps - energies[:, None]) / 2.0
    opened = np.abs(c) < 1.0
    k = np.empty(c.shape, dtype=complex)
    k.real = np.where(opened, np.arccos(np.clip(c, -1.0, 1.0)), np.where(c >= 1.0, 0.0, np.pi))
    k.imag = np.where(opened, 0.0, np.arccosh(np.maximum(np.abs(c), 1.0)))
    return k, np.where(opened, 2.0 * np.sin(k.real), 0.0)


def lead_modes(width: int, energy: float) -> tuple[Array, Array]:
    """k and velocity (0 for an evanescent mode) of the W modes of a lead
    at this energy, (W,) each, in transverse_modes order; both leads have
    the same.  An energy the skip rule refuses raises its error."""
    energies = np.array([_energy(energy)])
    # a lead has the thresholds of any strip of its width
    (error,) = energy_errors(LatticeSystem(width, 1), energies, np.ones((1, 1), dtype=bool))
    if error is not None:
        raise error
    k, velocity = _lead_modes(transverse_modes(width)[1], energies)
    return k[0], velocity[0]


def open_channels(system: LatticeSystem, energy: float) -> list[str]:
    """Labels of the open channels of both leads, left lead first, modes
    ascending (the leads are the same ideal strip)."""
    modes = np.flatnonzero(lead_modes(system.width, energy)[1] > 0.0) + 1
    return [f"{lead}:{m}" for lead in ("left", "right") for m in modes]


def _self_energies(chi: Array, k: Array) -> Array:
    """Sigma = sum_m (-e^{i k_m}) chi_m chi_m^T over all W modes of a lead,
    added mode by mode, at every energy: (E, W, W) from k (E, W)."""
    g = -np.exp(1j * k)  # semi-infinite chain surface Green's functions
    sigma = np.zeros(k.shape + k.shape[-1:], dtype=complex)
    for m in range(k.shape[-1]):
        sigma += g[:, m, None, None] * np.outer(chi[:, m], chi[:, m])
    return sigma


def lead_self_energy(width: int, energy: float) -> Array:
    """Retarded self-energy of one ideal lead on its interface column."""
    chi, _ = transverse_modes(width)
    return _self_energies(chi, lead_modes(width, energy)[0][None])[0]


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


def _inv(blocks: Array) -> Array:
    """Inverses of a stack of W x W blocks, one per energy.  A singular
    block fails only its own energy: its inverse is NaN."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        out = np.full_like(blocks, np.nan)
        for e, block in enumerate(blocks):
            with suppress(np.linalg.LinAlgError):
                out[e] = np.linalg.inv(block)
        return out


class _LatticeWorkspace:
    """The recursive sweeps at an array of energies, stacked over energy:
    the lattice counterpart of solver1d.ScatterBatch.

    `v_shift` (scalar or per energy) is added on the system's Omega
    sites, which are also the Omega of the routes.  The channel axis
    holds all 2W lead modes, "left:1" .. "right:W", with the `open` mask
    and `velocities` (2W, E); a closed channel's entries are never read.
    The sweep leaves the site diagonal of G (`green_diagonal`, (E, L W))
    and the states psi = G[:, lead] (i v_n chi_n) of all 2W channels,
    solved by block substitution: `psi` (E, L, W, 2W), psi[e, c, :, n] on
    column c.  As in ScatterBatch, the routes are numpy expressions
    evaluated on first use, and `errors(*routes)` fails each energy alone.
    """

    @staticmethod
    def bytes_per_energy(system: LatticeSystem) -> int:
        """Peak bytes per energy, all routes read: complex values for g and the
        states (3 L W^2), the site diagonals (2 L W) and a residual slab."""
        w = system.width
        return 16 * w * ((3 * w + 2) * system.length + 2 * (_SLAB_COLUMNS + 1) * w)

    def __init__(self, system: LatticeSystem, energies, v_shift=0.0):
        energies = np.asarray(energies, dtype=float).reshape(-1)
        shift = np.broadcast_to(np.asarray(v_shift, dtype=float), energies.shape)
        lx, w = system.length, system.width
        self.system, self.energies = system, energies
        self.sites = system.region_sites()
        self._chi, eps = transverse_modes(w)
        k, velocity = _lead_modes(eps, energies)
        self.labels = tuple(f"{lead}:{m}" for lead in ("left", "right") for m in range(1, w + 1))
        self.velocities = np.concatenate([velocity, velocity], axis=1).T
        self.open = self.velocities > 0.0
        # sources Q[:, :, m] = i v_m chi_m of the W modes of one lead, (E, W, W)
        self._sources = (1j * velocity[:, None, :]) * self._chi
        onsite = np.repeat(system.onsite.reshape(1, -1), energies.size, axis=0)
        onsite[:, self.sites] += shift[:, None]
        self._diagonal = (energies[:, None] - onsite).reshape(-1, lx, w)  # E - V per site
        # the column blocks D_c = E - H_col - onsite(c), with v_shift on Omega,
        # minus Sigma on both interface columns (twice when L = 1): -H_col off
        # the diagonal and E - V on it
        with np.errstate(all="ignore"):  # a non-finite energy is failed by `errors`
            self._sigma = _self_energies(self._chi, k)
        g = np.empty((energies.size, lx, w, w), dtype=complex)
        g[:] = -_column_hamiltonian(w)
        g[:, :, np.arange(w), np.arange(w)] = self._diagonal
        g[:, 0] -= self._sigma
        g[:, -1] -= self._sigma
        # forward, in place: left-connected Green's functions of the device cut
        # after column c, g[c] = (D_c - g[c-1])^-1, and the left sources'
        # forward substitution y[c] = -g[c] y[c-1], y[0] = g[0] Q, kept in psi
        psi = np.zeros((energies.size, lx, w, 2 * w), dtype=complex)
        g[:, 0] = _inv(g[:, 0])
        psi[:, 0, :, :w] = g[:, 0] @ self._sources
        for c in range(1, lx):
            g[:, c] = _inv(g[:, c] - g[:, c - 1])
            psi[:, c, :, :w] = -g[:, c] @ psi[:, c - 1, :, :w]
        self._singular = np.isnan(g[..., 0, 0]).any(axis=1)  # _inv's NaN blocks
        # backward, with g_diag = G[c+1, c+1] on entry: G[c, c] = g[c] +
        # g[c] G[c+1, c+1] g[c], and the states of both leads psi[c] =
        # y[c] - g[c] psi[c+1] (the right sources' y is g[L-1] Q on the
        # last column and zero elsewhere)
        psi[:, -1, :, w:] = g[:, -1] @ self._sources
        diagonal = np.empty((energies.size, lx, w), dtype=complex)
        g_diag = g[:, -1]
        diagonal[:, -1] = np.diagonal(g_diag, axis1=1, axis2=2)
        for c in range(lx - 2, -1, -1):
            psi[:, c] -= g[:, c] @ psi[:, c + 1]
            g_diag = g[:, c] + g[:, c] @ g_diag @ g[:, c]
            diagonal[:, c] = np.diagonal(g_diag, axis1=1, axis2=2)
        self.green_diagonal = diagonal.reshape(energies.size, -1)
        self.psi = psi

    @cached_property
    def residuals(self) -> Array:
        """Largest entry of (E - H - Sigma) psi - q over the open channels
        of each energy, (E,), applying the operator as a stencil slab by
        slab of columns."""
        psi, w, lx = self.psi, self.system.width, self.system.length
        worst = np.zeros(self.open.shape[::-1])
        with np.errstate(all="ignore"):  # a failed energy's entries are NaN
            for a in range(0, lx, _SLAB_COLUMNS):
                b = min(a + _SLAB_COLUMNS, lx)
                p = psi[:, a:b]
                r = self._diagonal[:, a:b, :, None] * p
                r[:, :, 1:] += p[:, :, :-1]
                r[:, :, :-1] += p[:, :, 1:]
                lo, hi = max(a - 1, 0), min(b + 1, lx)  # the column neighbours
                r[:, lo + 1 - a:] += psi[:, lo:b - 1]
                r[:, :hi - 1 - a] += psi[:, a + 1:hi]
                for edge, c, half in ((a == 0, 0, slice(w)), (b == lx, -1, slice(w, None))):
                    if edge:  # a lead's self-energy and sources on its interface column
                        r[:, c] -= self._sigma @ psi[:, c]
                        r[:, c, :, half] -= self._sources
                worst = np.maximum(worst, np.max(np.abs(r), axis=(1, 2)))
        return np.max(np.where(self.open.T, worst, 0.0), axis=1)

    @cached_property
    def smatrices(self) -> Array:
        """Flux-normalized S over the 2W channels, (E, 2W, 2W), read-only;
        only the block of the open channels is meaningful.

        On the interface columns the states decompose into lead modes:
        projecting them onto the profiles and subtracting the incident
        term leaves the outgoing amplitudes at the interface plane, scaled
        by sqrt(v_out / v_in).
        """
        amps = np.concatenate([self._chi.T @ self.psi[:, c] for c in (0, -1)], axis=1)
        v = self.velocities.T
        with np.errstate(all="ignore"):  # closed channels: v = 0
            s = (amps - np.eye(v.shape[1])) * np.sqrt(v[:, :, None] / v[:, None, :])
        s.flags.writeable = False
        return s

    @cached_property
    def dwell_times(self) -> Array:
        """Direct route, (2W, E): the sum of |psi|^2 over the Omega sites
        divided by v_n, summed slab by slab of columns."""
        w, sites = self.system.width, self.sites
        flat = self.psi.reshape(self.energies.size, -1, 2 * w)
        total = np.zeros(self.open.shape[::-1])
        with np.errstate(all="ignore"):  # closed channels: v = 0
            for a in range(0, sites.size, _SLAB_COLUMNS * w):
                total += np.sum(np.abs(flat[:, sites[a:a + _SLAB_COLUMNS * w]]) ** 2, axis=1)
            return total.T / self.velocities

    @cached_property
    def region_dos(self) -> Array:
        """Green route, (E,): sum over the Omega sites of -(1/pi) Im G(r, r)."""
        # contiguous rows: each sums in the same order as one energy alone
        diagonal = np.ascontiguousarray(self.green_diagonal[:, self.sites].imag)
        return -np.sum(diagonal, axis=-1) / np.pi

    def errors(self, *routes: str) -> list:
        """Per energy, None or the error that leaves it without one of `routes`
        ("direct", "green", "vderiv"), from one row list: energy_errors's, then
        a singular column block, then a region DOS that is not positive ("green"),
        then, when "direct" or "vderiv" is read, a solve residual above
        _RESIDUAL_TOL (Green alone never computes them)."""
        # a retarded G has rho_Omega > 0; 1 and 0 stand in for a route that is not read
        dos = self.region_dos if "green" in routes else np.ones(self.energies.size)
        residual = np.zeros(self.energies.size) if set(routes) <= {"green"} else self.residuals
        return energy_errors(
            self.system, self.energies, self.open,
            (self._singular, BoundStatePoleError, "singular column block at E = {E}"),
            (~(dos > 0), NumericalFailureError, "region DOS {dos} at E = {E} is not positive"),
            (~(residual <= _RESIDUAL_TOL), NumericalFailureError,  # NaN fails too
             "scattering solve residual {residual:.3e} at E = {E}"), dos=dos, residual=residual)


def scattering_state(system: LatticeSystem, energy: float, channel: str) -> Array:
    """Stationary state, (length, width), for unit incidence in one open
    channel."""
    batch, j = single_energy(_LatticeWorkspace, system, energy, "direct", channel)
    return batch.psi[0, ..., j].copy()


def scattering_matrix(system: LatticeSystem, energy: float) -> tuple[Array, list[str]]:
    """Flux-normalized S matrix over the open channels of both leads, and
    their labels."""
    from .analysis import shifted_smatrix
    return shifted_smatrix(system, energy, 0.0)


def dwell_time_lattice(system: LatticeSystem, energy: float, channel: str) -> float:
    """Dwell time in Omega of one open channel: sum of |psi|^2 over Omega
    sites divided by v_n.

    Unit-amplitude normalization absorbs the 2 pi hbar factor of the
    energy-normalized definition, exactly as in the 1D continuum case.
    """
    batch, j = single_energy(_LatticeWorkspace, system, energy, "direct", channel)
    return float(batch.dwell_times[j, 0])


def dos_region_lattice(system: LatticeSystem, energy: float) -> float:
    """Region DOS: sum over Omega sites of -(1/pi) Im G(r, r; E)."""
    return float(single_energy(_LatticeWorkspace, system, energy, "green")[0].region_dos[0])
