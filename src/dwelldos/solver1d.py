"""Exact transfer-matrix solver for piecewise-constant 1D potentials.

Scattering states are obtained from one interface-matching linear system
whose entries stay bounded for arbitrarily opaque layers: inside layer j
the wavefunction is stored as

    psi_j(u) = A_j exp(i k_j u) + B_j exp(-i k_j (u - d_j)),   u in [0, d_j],

i.e. the rightward component is referenced to the layer's left edge and
the leftward component to its right edge, so every exponential that
appears has modulus <= 1 even for evanescent k_j.  This is equivalent to
composing transfer matrices in scaled form but also yields the interior
coefficients directly, without unstable forward propagation.  Grazing
layers (k_j = 0 exactly) use the degenerate basis {1, u}.

Amplitude convention: for left incidence psi = exp(ikx) + r exp(-ikx) for
x < 0 and psi = t exp(ikx) for x > L, so an empty stack gives t = 1; the
right-incidence amplitudes r', t' are defined mirror-symmetrically.

Green's function: with H = -d^2/dx^2 + V (E = k^2), the retarded kernel
is G+(x, x') = psi_L(x<) psi_R(x>) / W[psi_L, psi_R], where psi_L / psi_R
are the solutions purely outgoing to the left / right and
W = psi_L psi_R' - psi_L' psi_R, giving the jump condition [dG/dx] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BoundStatePoleError,
    ClosedChannelError,
    NoOpenChannelError,
    NumericalFailureError,
    ThresholdProximityError,
    ValidationError,
)
from .model import DEFAULT_THRESHOLD_MARGIN, FLUX_FACTOR, Array, LayerStack

__all__ = [
    "layer_wavevector",
    "scattering_amplitudes",
    "layer_probability_integral",
    "dwell_time_direct_1d",
    "greens_function_1d",
    "green_1d",
    "ldos_1d",
    "ldos_mode_sum_1d",
    "dos_region_1d",
    "ScatterSolution1D",
    "Green1D",
    "InteriorWave",
]

_POLE_TOL = 1e-12


def layer_wavevector(energy: float, potential: float) -> complex:
    """Wavevector k = sqrt(E - V) with E = k^2 units.

    Branch: real nonnegative for E > V, +i sqrt(V - E) for E < V, and
    exactly 0 for E = V (the caller switches to the {1, u} basis).
    """
    diff = energy - potential
    if diff > 0.0:
        return complex(np.sqrt(diff), 0.0)
    if diff < 0.0:
        return complex(0.0, np.sqrt(-diff))
    return 0.0 + 0.0j


class InteriorWave:
    """One solution of the stack ODE in the scaled per-layer representation.

    Asymptotics: a_in_left / a_out_left are the coefficients of
    exp(+ik_L x) / exp(-ik_L x) for x < 0; a_in_right / a_out_right those
    of exp(-ik_R (x - L)) / exp(+ik_R (x - L)) for x > L.
    """

    def __init__(self, stack, k_left, k_right, k_layers, coeff_a, coeff_b,
                 a_in_left, a_out_left, a_in_right, a_out_right):
        self.stack = stack
        self.k_left = k_left
        self.k_right = k_right
        self.k_layers = k_layers
        self.coeff_a = coeff_a          # scaled: multiplies exp(+ik u)
        self.coeff_b = coeff_b          # scaled: multiplies exp(-ik (u - d))
        self.a_in_left = a_in_left
        self.a_out_left = a_out_left
        self.a_in_right = a_in_right
        self.a_out_right = a_out_right
        self._bounds = stack.boundaries
        self._thick = stack.thicknesses

    def value_local(self, j: int, u: Array) -> Array:
        """psi inside layer j at local coordinates u (array, in [0, d_j])."""
        k = self.k_layers[j]
        a, b = self.coeff_a[j], self.coeff_b[j]
        if k == 0:
            return a + b * u
        return a * np.exp(1j * k * u) + b * np.exp(1j * k * (self._thick[j] - u))

    def derivative_local(self, j: int, u: Array) -> Array:
        k = self.k_layers[j]
        a, b = self.coeff_a[j], self.coeff_b[j]
        if k == 0:
            return b * np.ones_like(np.asarray(u, dtype=complex))
        ik = 1j * k
        return ik * a * np.exp(ik * u) - ik * b * np.exp(ik * (self._thick[j] - u))

    def _layer_of(self, x: Array) -> Array:
        idx = np.searchsorted(self._bounds, x, side="right") - 1
        return np.clip(idx, 0, len(self.k_layers) - 1)

    def value(self, x) -> Array:
        """psi(x) anywhere on the line (vectorized)."""
        return self._on_line(x, derivative=False)

    def derivative(self, x) -> Array:
        """dpsi/dx anywhere on the line (vectorized)."""
        return self._on_line(x, derivative=True)

    def _on_line(self, x, derivative: bool) -> Array:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty(x.shape, dtype=complex)
        length = self._bounds[-1]
        left = x < 0.0
        right = x > length
        inside = ~(left | right)
        # outside Omega psi = c_up e^{iks} + c_down e^{-iks}, s from the nearest edge
        for sel, k, s, c_up, c_down in (
            (left, self.k_left, x[left], self.a_in_left, self.a_out_left),
            (right, self.k_right, x[right] - length, self.a_out_right, self.a_in_right),
        ):
            if sel.any():
                ik = 1j * k
                up, down = c_up * np.exp(ik * s), c_down * np.exp(-ik * s)
                out[sel] = ik * (up - down) if derivative else up + down
        if inside.any():
            local = self.derivative_local if derivative else self.value_local
            xi = x[inside]
            idx = self._layer_of(xi)
            vals = np.empty(xi.shape, dtype=complex)
            for j in np.unique(idx):
                sel = idx == j
                vals[sel] = local(j, xi[sel] - self._bounds[j])
            out[inside] = vals
        return out[0] if scalar else out

    def region_probability(self) -> float:
        """Integral of |psi|^2 over Omega = [0, L], by per-layer closed forms."""
        total = 0.0
        for j, k in enumerate(self.k_layers):
            total += layer_probability_integral(
                self.coeff_a[j], self.coeff_b[j], k, self._thick[j]
            )
        return total


@dataclass(frozen=True)
class ScatterSolution1D:
    """Both scattering solutions of a stack at one energy.

    ``left_wave`` carries unit incidence from the left; ``right_wave``
    unit incidence from the right (amplitude measured at the x = L plane).
    When a side is evanescent the corresponding amplitudes are None but
    the formal wave is still stored for Green's-function use.
    """

    stack: LayerStack
    energy: float
    k_left: complex
    k_right: complex
    k_layers: Array
    r: complex | None
    t: complex | None
    r_prime: complex | None
    t_prime: complex | None
    left_wave: InteriorWave
    right_wave: InteriorWave

    @property
    def open_left(self) -> bool:
        return self.k_left.imag == 0.0 and self.k_left.real > 0.0

    @property
    def open_right(self) -> bool:
        return self.k_right.imag == 0.0 and self.k_right.real > 0.0

    def channels(self) -> list[tuple[str, float]]:
        """Open channels as (label, velocity), in S-matrix order."""
        out = []
        if self.open_left:
            out.append(("left", 2.0 * self.k_left.real))
        if self.open_right:
            out.append(("right", 2.0 * self.k_right.real))
        return out

    def dwell_time(self, label: str, region=None) -> float:
        """Direct dwell time of one open channel; Omega is always [0, L],
        so `region` (a lattice notion) is ignored."""
        return dwell_time_direct_1d(self.stack, self.energy, label, solution=self)

    def dos(self, region=None) -> float:
        """Green-trace region DOS of [0, L]; `region` is ignored."""
        return dos_region_1d(self.stack, self.energy, solution=self)

    def smatrix(self) -> Array:
        """Flux-normalized S matrix over the open channels.

        Ordering [left, right]; 1x1 when only one side propagates.  Built
        from the global-phase amplitude convention, so it differs from
        the plane-referenced matrix by a unitary diagonal phase only.
        """
        if self.open_left and self.open_right:
            ratio = np.sqrt(self.k_right.real / self.k_left.real)
            return np.array(
                [[self.r, self.t_prime / ratio],
                 [self.t * ratio, self.r_prime]], dtype=complex,
            )
        if self.open_left:
            return np.array([[self.r]], dtype=complex)
        if self.open_right:
            return np.array([[self.r_prime]], dtype=complex)
        raise NoOpenChannelError("no open channel at this energy")


def _check_energy(stack: LayerStack, energy: float, margin: float) -> None:
    for v in (stack.v_left, stack.v_right):
        if abs(energy - v) <= margin:
            raise ThresholdProximityError(
                f"E = {energy} within {margin} of channel threshold {v}"
            )
    if energy < stack.v_left and energy < stack.v_right:
        raise NoOpenChannelError(
            f"E = {energy} below both channel thresholds "
            f"({stack.v_left}, {stack.v_right})"
        )


def scattering_amplitudes(
    stack: LayerStack,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
) -> ScatterSolution1D:
    """Solve the scattering problem at one energy for both incidence sides."""
    _check_energy(stack, energy, threshold_margin)
    k_left = layer_wavevector(energy, stack.v_left)
    k_right = layer_wavevector(energy, stack.v_right)
    k_layers = np.array([layer_wavevector(energy, l.potential) for l in stack.layers])
    d = stack.thicknesses
    n = len(k_layers)

    # Unknowns: [c_L, A_1, B_1, ..., A_n, B_n, c_R] with c_L / c_R the
    # outgoing amplitudes at the x = 0 / x = L planes.
    size = 2 * n + 2
    mat = np.zeros((size, size), dtype=complex)
    rhs = np.zeros((size, 2), dtype=complex)

    def basis_at(j: int, edge: str) -> tuple[complex, complex, complex, complex]:
        # (value_A, value_B, deriv_A, deriv_B) of the layer basis at an edge
        k = k_layers[j]
        if k == 0:
            if edge == "left":
                return 1.0, 0.0, 0.0, 1.0
            return 1.0, d[j], 0.0, 1.0
        p = np.exp(1j * k * d[j])
        if edge == "left":
            return 1.0, p, 1j * k, -1j * k * p
        return p, 1.0, 1j * k * p, -1j * k

    # x = 0 interface
    va, vb, da, db = basis_at(0, "left")
    mat[0, 0] = -1.0
    mat[0, 1], mat[0, 2] = va, vb
    mat[1, 0] = 1j * k_left
    mat[1, 1], mat[1, 2] = da, db
    rhs[0, 0] = 1.0
    rhs[1, 0] = 1j * k_left

    # interior interfaces
    for j in range(n - 1):
        row = 2 + 2 * j
        va, vb, da, db = basis_at(j, "right")
        wa, wb, ea, eb = basis_at(j + 1, "left")
        cj = 1 + 2 * j
        mat[row, cj], mat[row, cj + 1] = va, vb
        mat[row, cj + 2], mat[row, cj + 3] = -wa, -wb
        mat[row + 1, cj], mat[row + 1, cj + 1] = da, db
        mat[row + 1, cj + 2], mat[row + 1, cj + 3] = -ea, -eb

    # x = L interface
    va, vb, da, db = basis_at(n - 1, "right")
    row = 2 * n
    cj = 2 * n - 1
    mat[row, cj], mat[row, cj + 1] = va, vb
    mat[row, size - 1] = -1.0
    mat[row + 1, cj], mat[row + 1, cj + 1] = da, db
    mat[row + 1, size - 1] = -1j * k_right
    rhs[row, 1] = 1.0
    rhs[row + 1, 1] = -1j * k_right

    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"interface solve failed at E = {energy}") from exc

    L = stack.total_length
    waves = []
    for col, (a_in_l, a_in_r) in enumerate([(1.0, 0.0), (0.0, 1.0)]):
        u = sol[:, col]
        waves.append(InteriorWave(
            stack, k_left, k_right, k_layers,
            coeff_a=u[1:-1:2].copy(), coeff_b=u[2:-1:2].copy(),
            a_in_left=a_in_l, a_out_left=u[0],
            a_in_right=a_in_r, a_out_right=u[-1],
        ))
    left_wave, right_wave = waves

    open_left = k_left.imag == 0.0 and k_left.real > 0.0
    open_right = k_right.imag == 0.0 and k_right.real > 0.0
    phase_r = np.exp(-1j * k_right * L)  # plane-L amplitude -> global x = 0 reference
    r = left_wave.a_out_left if open_left else None
    t = left_wave.a_out_right * phase_r if open_left else None
    r_prime = right_wave.a_out_right * phase_r**2 if open_right else None
    t_prime = right_wave.a_out_left * phase_r if open_right else None

    return ScatterSolution1D(
        stack=stack, energy=energy, k_left=k_left, k_right=k_right,
        k_layers=k_layers, r=r, t=t, r_prime=r_prime, t_prime=t_prime,
        left_wave=left_wave, right_wave=right_wave,
    )


# ----------------------------------------------------------------------------
# Probability integrals and dwell times
# ----------------------------------------------------------------------------


def layer_probability_integral(a: complex, b: complex, k: complex, d: float) -> float:
    """Integral of |a e^{iku} + b e^{-ik(u-d)}|^2 over [0, d] in closed form.

    Scaled basis: a is referenced to the layer's left edge and b to its
    right edge, so every exponential evaluated here has modulus <= 1 for
    the physical branches of k and opaque layers cannot overflow.  For
    k = 0 the pair means psi = a + b u (degenerate basis {1, u}), giving
    |a|^2 d + Re(a b*) d^2 + |b|^2 d^3 / 3.  Only real, purely imaginary,
    or zero k are meaningful for real potentials.
    """
    if d <= 0:
        raise ValidationError("d must be positive")
    if k.real != 0.0 and k.imag != 0.0:
        raise ValidationError("k must be real, purely imaginary, or zero")
    if k == 0:
        return (abs(a) ** 2) * d + (a * np.conj(b)).real * d**2 + (abs(b) ** 2) * d**3 / 3.0
    if k.imag == 0.0:
        kk = k.real
        # cross term carries e^{ik(2u-d)}, whose integral is sin(kd)/k
        return float(
            (abs(a) ** 2 + abs(b) ** 2) * d
            + 2.0 * (a * np.conj(b)).real * np.sin(kk * d) / kk
        )
    kappa = k.imag
    decay = np.exp(-2.0 * kappa * d)
    flat = (1.0 - decay) / (2.0 * kappa)
    return float(
        (abs(a) ** 2 + abs(b) ** 2) * flat
        + 2.0 * (a * np.conj(b)).real * np.exp(-kappa * d) * d
    )


def dwell_time_direct_1d(
    stack: LayerStack,
    energy: float,
    side: str = "left",
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    solution: ScatterSolution1D | None = None,
) -> float:
    """Stationary-state dwell time in Omega for unit incidence from one side.

    tau = (integral of |psi|^2 over the layers) / v_in with v_in = 2 k_in,
    which equals 2 pi hbar <phi|P_Omega|phi> for the energy-normalized
    state (the incident flux of the unit-amplitude state is v_in, that of
    the energy-normalized state 1 / 2 pi hbar).
    """
    if side not in ("left", "right"):
        raise ValidationError("side must be 'left' or 'right'")
    sol = solution or scattering_amplitudes(stack, energy, threshold_margin)
    if side == "left":
        if not sol.open_left:
            raise ClosedChannelError("left channel closed at this energy")
        wave, v_in = sol.left_wave, 2.0 * sol.k_left.real
    else:
        if not sol.open_right:
            raise ClosedChannelError("right channel closed at this energy")
        wave, v_in = sol.right_wave, 2.0 * sol.k_right.real
    return wave.region_probability() / v_in


# ----------------------------------------------------------------------------
# Green's function, LDOS, region DOS
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Green1D:
    """Retarded Green's function of a stack at one energy.

    left_solution is outgoing (or decaying) to the left, right_solution to
    the right; wronskian = psi_L psi_R' - psi_L' psi_R is x-independent.
    """

    energy: float
    left_solution: InteriorWave
    right_solution: InteriorWave
    wronskian: complex

    def wronskian_at(self, x: float) -> complex:
        """Recompute the Wronskian at x (constancy is a solve invariant)."""
        return complex(
            self.left_solution.value(x) * self.right_solution.derivative(x)
            - self.left_solution.derivative(x) * self.right_solution.value(x)
        )

    def __call__(self, x: float, xp: float) -> complex:
        lo, hi = (x, xp) if x <= xp else (xp, x)
        return complex(
            self.left_solution.value(lo) * self.right_solution.value(hi) / self.wronskian
        )

    def diagonal(self, x: Array) -> Array:
        return self.left_solution.value(x) * self.right_solution.value(x) / self.wronskian


def green_1d(
    stack: LayerStack,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    solution: ScatterSolution1D | None = None,
) -> Green1D:
    """Assemble G+ from the two outgoing solutions of the stack."""
    sol = solution or scattering_amplitudes(stack, energy, threshold_margin)
    # right_wave has no incoming component on the left, so it is the
    # left-outgoing solution; left_wave is the right-outgoing one.
    wronskian = 2j * sol.k_left * sol.right_wave.a_out_left
    if abs(wronskian) < _POLE_TOL:
        raise BoundStatePoleError(
            f"Wronskian ~ 0 at E = {energy}: bound state at this energy"
        )
    return Green1D(
        energy=energy,
        left_solution=sol.right_wave,
        right_solution=sol.left_wave,
        wronskian=complex(wronskian),
    )


def greens_function_1d(
    stack: LayerStack,
    energy: float,
    x: float,
    xp: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    solution: ScatterSolution1D | None = None,
) -> complex:
    L = stack.total_length
    if not (0.0 <= x <= L and 0.0 <= xp <= L):
        raise ValidationError("x and x' must lie in [0, L]")
    return green_1d(stack, energy, threshold_margin, solution)(x, xp)


def ldos_1d(
    stack: LayerStack,
    energy: float,
    x: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    solution: ScatterSolution1D | None = None,
) -> float:
    """Local density of states rho(x, E) = -(1/pi) Im G+(x, x; E)."""
    g = greens_function_1d(stack, energy, x, x, threshold_margin, solution)
    return -g.imag / np.pi


def ldos_mode_sum_1d(
    stack: LayerStack,
    energy: float,
    x: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    solution: ScatterSolution1D | None = None,
) -> float:
    """LDOS as sum of |phi_n(x)|^2 over energy-normalized scattering states.

    Independent combination of the same solves used by ldos_1d; equality
    of the two is the spectral identity Im G+ = -pi sum |phi><phi|.
    """
    sol = solution or scattering_amplitudes(stack, energy, threshold_margin)
    total = 0.0
    if sol.open_left:
        v = 2.0 * sol.k_left.real
        total += abs(sol.left_wave.value(x)) ** 2 / (FLUX_FACTOR * v)
    if sol.open_right:
        v = 2.0 * sol.k_right.real
        total += abs(sol.right_wave.value(x)) ** 2 / (FLUX_FACTOR * v)
    return total


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[Array, Array]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0, 1]


def dos_region_1d(
    stack: LayerStack,
    energy: float,
    threshold_margin: float = DEFAULT_THRESHOLD_MARGIN,
    solution: ScatterSolution1D | None = None,
    rel_tol: float = 1e-11,
    base_order: int = 20,
    max_order: int = 320,
) -> float:
    """Density of states of Omega: integral of the LDOS over [0, L].

    Fixed-order Gauss-Legendre per layer, order doubled until the
    relative change drops below rel_tol.
    """
    sol = solution or scattering_amplitudes(stack, energy, threshold_margin)
    g = green_1d(stack, energy, threshold_margin, sol)
    thick = stack.thicknesses

    def integrate(order: int) -> float:
        nodes, weights = _gauss_nodes(order)
        total = 0.0
        for j, d in enumerate(thick):
            u = nodes * d
            prod = g.left_solution.value_local(j, u) * g.right_solution.value_local(j, u)
            rho = -(prod / g.wronskian).imag / np.pi
            total += d * float(np.dot(weights, rho))
        return total

    order = base_order
    value = integrate(order)
    while order < max_order:
        order *= 2
        refined = integrate(order)
        if abs(refined - value) <= rel_tol * max(abs(refined), 1e-300):
            return refined
        value = refined
    raise NumericalFailureError(
        f"region DOS quadrature did not converge by order {max_order} at E = {energy}"
    )
