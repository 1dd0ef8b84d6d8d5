"""Independent brute-force references used only by tests and acceptance runs.

Everything here is deliberately simple and separately coded from the
closed-form solvers it checks: composite Simpson quadrature, a hard-wall
finite-difference box with Lorentzian level broadening, a
finite-difference resolvent with an absorbing layer in the padding, and
the dense inverse of the open lattice operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import NumericalFailureError, ValidationError
from .lattice import build_hamiltonian, lead_self_energy
from .model import DEFAULT_THRESHOLD_MARGIN, Array, EnergyGrid, LatticeSystem, LayerStack

__all__ = [
    "BoxSpec", "quadrature_integral", "box_levels", "box_dos", "fd_green",
    "dense_green_lattice",
]


def quadrature_integral(
    psi: Callable[[Array], Array], a: float, b: float, panels: int
) -> float:
    """Composite-Simpson integral of |psi(x)|^2 over [a, b]."""
    if panels < 2 or panels % 2 != 0:
        raise ValidationError("panels must be even and >= 2")
    x = np.linspace(a, b, panels + 1)
    y = np.abs(np.asarray(psi(x), dtype=complex)) ** 2
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


@dataclass(frozen=True)
class BoxSpec:
    """Closed-box discretization: free padding on both sides of Omega,
    grid step, and Lorentzian broadening."""

    pad_left: float
    pad_right: float
    grid_step: float
    eta: float

    def __post_init__(self):
        if self.pad_left <= 0 or self.pad_right <= 0:
            raise ValidationError("paddings must be positive")
        if self.grid_step <= 0:
            raise ValidationError("grid_step must be positive")
        if self.eta <= 0:
            raise ValidationError("eta must be positive")


def _validate_box(stack: LayerStack, box: BoxSpec, e_min: float, e_max: float) -> None:
    pots = np.concatenate([stack.potentials, [stack.v_left, stack.v_right]])
    deep = pots[pots > e_min]
    if deep.size:
        max_decay = float(np.max(1.0 / np.sqrt(deep - e_min)))
        if min(box.pad_left, box.pad_right) < 20.0 * max_decay:
            raise ValidationError(
                f"paddings must be >= 20 x largest decay length "
                f"({20.0 * max_decay:.3g}) at e_min = {e_min}"
            )
    k_max = np.sqrt(e_max - float(np.min(pots)))
    if k_max > 0:
        shortest = 2.0 * np.pi / k_max
        if box.grid_step > shortest / 40.0:
            raise ValidationError(
                f"grid_step must be <= shortest wavelength / 40 = {shortest / 40.0:.3g}"
            )


def _box_grid(stack: LayerStack, box: BoxSpec) -> tuple[Array, Array]:
    """Interior grid points and potential of the hard-wall box."""
    length = stack.total_length
    x0, x1 = -box.pad_left, length + box.pad_right
    n = int(round((x1 - x0) / box.grid_step))
    h = (x1 - x0) / n
    x = x0 + h * np.arange(1, n)
    pot = np.where(x < 0.0, stack.v_left, stack.v_right)
    bounds = stack.boundaries
    for j, layer in enumerate(stack.layers):
        inside = (x >= bounds[j]) & (x < bounds[j + 1])
        pot[inside] = layer.potential
    return x, pot


def box_levels(
    stack: LayerStack, box: BoxSpec, e_min: float, e_max: float
) -> tuple[Array, Array]:
    """All hard-wall eigenvalues and their Omega weights int_Omega |chi_k|^2.

    Eigenvectors are normalized to one over the box, so summing the
    weights with Omega = box counts the states exactly.
    """
    _validate_box(stack, box, e_min, e_max)
    x, pot = _box_grid(stack, box)
    h = x[1] - x[0]
    diag = 2.0 / h**2 + pot
    off = np.full(x.size - 1, -1.0 / h**2)
    try:
        energies, vecs = sla.eigh_tridiagonal(diag, off)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError("box eigensolve failed") from exc
    # overlap of each grid cell [x - h/2, x + h/2] with Omega, so the
    # integration window is exactly [0, L] rather than off by O(h)
    overlap = (np.minimum(x + 0.5 * h, stack.total_length)
               - np.maximum(x - 0.5 * h, 0.0)).clip(0.0, h) / h
    weights = (overlap[:, None] * vecs**2).sum(axis=0)
    return energies, weights


def box_dos(stack: LayerStack, box: BoxSpec, grid: EnergyGrid) -> Array:
    """Broadened closed-box DOS of Omega on the energy grid.

    rho_Omega(E) ~= sum_k w_k * Lorentzian_eta(E - E_k); in the closed-box
    limit the DOS is a set of delta functions, and the Lorentzian matches
    the i*eta regularization of the resolvent.
    """
    energies, weights = box_levels(stack, box, grid.e_min, grid.e_max)
    pts = grid.points
    lor = (box.eta / np.pi) / ((pts[:, None] - energies[None, :]) ** 2 + box.eta**2)
    return lor @ weights


def fd_green(
    stack: LayerStack,
    box: BoxSpec,
    energy: float,
    x: float,
    cap_fraction: float = 0.9,
    absorption_exponent: float = 16.0,
    cap_power: int = 2,
) -> complex:
    """Diagonal of (E + i eta - H_fd)^(-1) at the grid point nearest x.

    The outer cap_fraction of each padding carries a polynomial absorbing
    potential sized for a fixed round-trip absorption exponent, so
    outgoing waves are damped imperfectly: the result is an O(reflection)
    approximation of the exact resolvent, good to ~1e-4 relative for the
    default settings, with the O(h^2) stencil error on top.
    """
    _validate_box(stack, box, energy, energy)
    xs, pot = _box_grid(stack, box)
    h = xs[1] - xs[0]
    length = stack.total_length

    cap = np.zeros_like(xs)
    for side, pad, v_asym in (("left", box.pad_left, stack.v_left),
                              ("right", box.pad_right, stack.v_right)):
        cap_len = cap_fraction * pad
        v_ref = 2.0 * np.sqrt(max(energy - v_asym, 1e-12))
        w0 = absorption_exponent * (cap_power + 1) * v_ref / (2.0 * cap_len)
        if side == "left":
            edge = -box.pad_left + cap_len
            ramp = (edge - xs) / cap_len
        else:
            edge = length + box.pad_right - cap_len
            ramp = (xs - edge) / cap_len
        sel = ramp > 0.0
        cap[sel] += w0 * ramp[sel] ** cap_power

    diag = (energy + 1j * box.eta) - (2.0 / h**2 + pot) + 1j * cap
    band = np.zeros((3, xs.size), dtype=complex)
    band[0, 1:] = 1.0 / h**2
    band[1, :] = diag
    band[2, :-1] = 1.0 / h**2
    j = int(np.argmin(np.abs(xs - x)))
    rhs = np.zeros(xs.size, dtype=complex)
    rhs[j] = 1.0
    try:
        sol = sla.solve_banded((1, 1), band, rhs)
    except sla.LinAlgError as exc:
        raise NumericalFailureError(f"resolvent solve failed at E = {energy}") from exc
    # discrete delta is 1/h, so the continuum kernel is the solution / h
    return complex(sol[j] / h)


def dense_green_lattice(
    system: LatticeSystem,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> Array:
    """Full retarded device Green's function (E - H - Sigma_L - Sigma_R)^-1.

    Dense O((LW)^3) inversion of the whole open-system operator, site
    index = column * width + row; the reference for the recursive sweeps
    of `dwelldos.lattice`.
    """
    n, w = system.n_sites, system.width
    sigma = lead_self_energy(w, energy, threshold_margin)
    a = (energy * np.eye(n) - build_hamiltonian(system)).astype(complex)
    a[:w, :w] -= sigma
    a[n - w:, n - w:] -= sigma
    try:
        return sla.inv(a)
    except sla.LinAlgError as exc:  # pragma: no cover - singular at poles
        raise NumericalFailureError(f"singular lattice operator at E = {energy}") from exc
