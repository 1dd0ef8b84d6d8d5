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
layers (|k_j| d_j <= 1e-6, including k_j = 0 exactly) use the degenerate
basis {1, u}.

The matching system has 2n + 2 unknowns and is banded: row r couples
columns r - 2 .. r + 2 only.  ScatterBatch assembles it for a whole
array of energies at once, straight into band storage with energy on the
last axis, and solves all of them by one Gaussian elimination with
partial pivoting (LAPACK's xGBTRF pivot rule; Golub & Van Loan, Matrix
Computations, sec. 4.3) whose Python loop runs over the rows only:
O(n) work per energy, and a zero or non-finite pivot fails that energy
alone.  The direct route (ScatterBatch.dwell_times), the Green route
(ScatterBatch.region_dos) and the S matrices are numpy expressions over
the batch's (energy, layer) arrays, with no Python loop over energies or
layers; ScatterBatch.error(i, route) says why an energy has no result.
scattering_amplitudes, dwell_time_direct_1d and dos_region_1d are a
batch of one energy.  Pointwise quantities (psi and psi', G+(x, x'),
the LDOS) read the same arrays through ScatterSolution1D.wave, which
gathers each position's layer coefficients and evaluates any number of
positions in one numpy expression.

Amplitude convention: for left incidence psi = exp(ikx) + r exp(-ikx) for
x < 0 and psi = t exp(ikx) for x > L, so an empty stack gives t = 1; the
right-incidence amplitudes r', t' are defined mirror-symmetrically.

Green's function: with H = -d^2/dx^2 + V (E = k^2), the retarded kernel
is G+(x, x') = psi_L(x<) psi_R(x>) / W[psi_L, psi_R], where psi_L / psi_R
are the solutions purely outgoing to the left / right and
W = psi_L psi_R' - psi_L' psi_R, giving the jump condition [dG/dx] = 1.
With an open channel W = 2 i k_L times the outgoing amplitude of psi_L,
which is never zero on the real axis, so no energy is skipped as a pole;
only an underflow of that amplitude (W zero or subnormal) is a
NumericalFailureError.  The region DOS integrates psi_L psi_R / W over
each layer in closed form in the same scaled basis.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ClosedChannelError,
    DwellDosError,
    NoOpenChannelError,
    NumericalFailureError,
    ThresholdProximityError,
    ValidationError,
)
from .model import FLUX_FACTOR, THRESHOLD_MARGIN, Array, LayerStack

__all__ = [
    "layer_wavevector",
    "scattering_amplitudes",
    "layer_probability_integral",
    "dwell_time_direct_1d",
    "greens_function_1d",
    "ldos_1d",
    "ldos_mode_sum_1d",
    "dos_region_1d",
    "ScatterBatch",
    "ScatterSolution1D",
]

# A layer with |k| d at or below this is solved in the exact k = 0 basis
# {1, u}: the scaled basis degenerates there, while the {1, u} solution
# differs from the true one by (k d)^2 / 2 relative.
_GRAZING_KD = 1e-6
_TINY = np.finfo(float).tiny  # the smallest normal float


def layer_wavevector(energy, potential):
    """Wavevector k = sqrt(E - V) with E = k^2 units.

    Branch: real nonnegative for E > V, +i sqrt(V - E) for E < V, and
    exactly 0 for E = V (the caller switches to the {1, u} basis).
    Broadcasts over arrays; scalars give a complex.
    """
    diff = np.subtract(energy, potential)
    root = np.sqrt(np.abs(diff))
    k = np.where(diff < 0.0, 1j * root, root + 0j)
    return k if k.ndim else complex(k)


class ScatterSolution1D:
    """Both scattering solutions of a stack at one energy: energy `index`
    of a ScatterBatch, whose arrays every method reads.

    `wave("left", x)` is the solution with unit incidence from the left,
    `wave("right", x)` the one with unit incidence from the right
    (amplitude measured at the x = L plane).  When a side is evanescent
    its amplitudes are None, but its formal wave is still defined for
    Green's-function use.
    """

    def __init__(self, batch: "ScatterBatch", index: int):
        self.batch, self.index = batch, index
        self.stack = batch.stack
        self.energy = float(batch.energies[index])
        self.k_left = complex(batch.k_left[index])
        self.k_right = complex(batch.k_right[index])
        self.open_left, self.open_right = (bool(opened) for opened in batch.open[:, index])
        self.k_layers = batch.k_layers[index]
        self.r, self.t = (batch.r[index], batch.t[index]) if self.open_left else (None, None)
        self.r_prime, self.t_prime = ((batch.r_prime[index], batch.t_prime[index])
                                      if self.open_right else (None, None))

    def wave(self, side: str, x) -> tuple[Array, Array]:
        """psi(x) and dpsi/dx of the solution with unit incidence from
        `side` ("left" or "right"), at scalar or array positions anywhere
        on the line.

        Each point reads the coefficients of its layer from the batch
        arrays, in psi = a e^{iku} + b e^{ik(d - u)} with u measured from
        the layer's left edge; the leads are two more "layers" of d = 0
        with origin x = 0 (a = incoming, b = outgoing) and x = L
        (a = outgoing, b = incoming), and a k = 0 layer is a + b u.
        x = L belongs to the last layer.  Returns arrays of x's shape (0-d
        for a scalar); a scalar goes through the same array arithmetic as
        an array, so both give the same values.
        """
        s, b, i = _incidence(side), self.batch, self.index
        bounds = self.stack.boundaries
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).reshape(-1)
        j = np.searchsorted(bounds[:-1], x, side="right") + (x > bounds[-1])
        k = np.concatenate(([self.k_left], self.k_layers, [self.k_right]))[j]
        a = np.concatenate(([1.0 - s], b.coeff_a[s, i], [b.out_right[s, i]]))[j]
        c = np.concatenate(([b.out_left[s, i]], b.coeff_b[s, i], [float(s)]))[j]
        u = x - np.concatenate(([0.0], bounds))[j]
        d = np.concatenate(([0.0], self.stack.thicknesses, [0.0]))[j]
        ik = 1j * k
        up, down = np.exp(ik * u), np.exp(ik * (d - u))
        flat = k == 0
        psi = np.where(flat, a + c * u, a * up + c * down)
        dpsi = np.where(flat, c, ik * a * up - ik * c * down)
        return psi.reshape(shape), dpsi.reshape(shape)


def _interface_system(
    stack: LayerStack, energies: Array, v_shift: Array
) -> tuple[Array, Array, Array, Array, Array]:
    """Interface-matching systems of a stack at every energy, in band storage.

    Unknowns [c_L, A_1, B_1, ..., A_n, B_n, c_R], with c_L / c_R the
    outgoing amplitudes at the x = 0 / x = L planes.  Rows 2i and 2i + 1
    match psi and psi' at interface i, as (left side) - (right side).  Row
    r touches columns r - 2 .. r + 2 only and is stored as
    band[r, s, e] = M_e[r, r - 2 + s]; slots 5 and 6, and two rows below
    the last, are zero room for _band_solve.  The two right-hand sides are unit
    incidence from the left and from the right.  v_shift[e] is added to
    every layer potential (Omega only).  Energy is the last axis: returns
    band (2n+4, 7, nE), rhs (2n+4, 2, nE), k_left, k_right (nE,) and
    k_layers (n, nE).
    """
    n, n_e = len(stack.layers), energies.size
    d = stack.thicknesses[:, None]
    k_left = layer_wavevector(energies, stack.v_left)
    k_right = layer_wavevector(energies, stack.v_right)
    k = layer_wavevector(energies, stack.potentials[:, None] + v_shift)
    k[np.abs(k) * d <= _GRAZING_KD] = 0.0
    flat = k == 0
    ik = 1j * k
    p = np.exp(ik * d)

    band = np.zeros((2 * n + 4, 7, n_e), dtype=complex)
    val, der = band[0:-2:2], band[1:-2:2]  # psi and psi' rows of interfaces 0 .. n
    # left of interface i: layer i-1 at its right edge ({1, u} if flat); c_L
    val[0, 2], der[0, 1] = 1.0, -1j * k_left
    val[1:, 1], val[1:, 2] = p, np.where(flat, d, 1.0)
    der[1:, 0], der[1:, 1] = ik * p, np.where(flat, 1.0, -ik)
    # minus the right of interface i: layer i at its left edge; c_R
    val[:-1, 3], val[:-1, 4] = -1.0, -np.where(flat, 0.0, p)
    der[:-1, 2], der[:-1, 3] = -ik, -np.where(flat, 1.0, -ik * p)
    val[-1, 3], der[-1, 2] = -1.0, -1j * k_right

    rhs = np.zeros((2 * n + 4, 2, n_e), dtype=complex)
    rhs[0, 0], rhs[1, 0] = -1.0, -1j * k_left  # incident e^{ik_L x}
    rhs[2 * n, 1], rhs[2 * n + 1, 1] = 1.0, -1j * k_right  # incident e^{-ik_R (x - L)}
    return band, rhs, k_left, k_right, k


def _band_solve(band: Array, rhs: Array) -> tuple[Array, Array]:
    """Solve every system of _interface_system at once, in place.

    Gaussian elimination with partial pivoting, one Python step per row
    and every step vectorized over the energy axis.  The pivot of column
    c is the first of rows c .. c+2 with the largest |Re| + |Im| (the
    rule of LAPACK's xGBTRF on the same matrix).  Row c + i keeps column
    c + j in slot 2 - i + j, so the candidate rows over columns c .. c+4
    form one strided view; swaps exchange those five entries, the fill of
    row c lands in slots 5 and 6, and row c of U ends up in band[c, 2:7].
    The two zero rows at the bottom of `band` and `rhs` keep the view in
    bounds.  The rhs rows are eliminated alongside and then
    back-substituted.  Cost O(n) per energy.  Returns the solutions
    (2n+2, 2, nE), stored over `rhs`, and a mask of the energies whose
    pivots or solution are zero or not finite.
    """
    size, _, n_e = band.shape
    size -= 2
    rows, slots, energies = band.strides
    windows = as_strided(band[0, 2:], shape=(size, 3, 5, n_e),
                         strides=(rows, rows - slots, slots, energies))
    with np.errstate(all="ignore"):  # a singular energy is flagged below
        for c in range(size):
            win, side = windows[c], rhs[c:c + 3]
            head = win[:, 0]
            mag = np.abs(head.real) + np.abs(head.imag)
            one = (mag[1] > mag[0]) & (mag[1] >= mag[2])
            two = (mag[2] > mag[0]) & (mag[2] > mag[1])
            for i, take in ((1, one), (2, two)):
                if np.count_nonzero(take):
                    for group in (win, side):
                        top = np.where(take, group[i], group[0])
                        group[i] = np.where(take, group[0], group[i])
                        group[0] = top
            factors = (win[1:, 0] / win[0, 0])[:, None]
            win[1:, 1:] -= factors * win[0, 1:]
            side[1:] -= factors * side[0]
        x = rhs[:size]
        for c in range(size - 1, -1, -1):
            m = min(4, size - 1 - c)
            if m:
                x[c] -= np.sum(band[c, 3:3 + m, None] * x[c + 1:c + 1 + m], axis=0)
            x[c] /= band[c, 2]
    pivots = band[:size, 2]
    failed = (np.any(pivots == 0, axis=0) | ~np.all(np.isfinite(pivots), axis=0)
              | ~np.all(np.isfinite(x), axis=(0, 1)))
    return x, failed


class ScatterBatch:
    """Both scattering solutions of one stack at an array of energies.

    One band elimination (_band_solve) solves every energy.  Arrays run
    over energy (E,) or (energy, layer) (E, n), with a leading incidence
    axis [left, right] on the interior coefficients coeff_a, coeff_b
    (2, E, n) and the outgoing amplitudes out_left, out_right (2, E) at
    the x = 0 and x = L planes.  The channel axis is `labels` ("left",
    "right"), with the `open` mask and `velocities` (2, E).  The direct
    route (dwell_times), the Green route (region_dos) and the S matrices
    are numpy expressions over the whole batch, evaluated on first use.
    `error(i, route)` says why energy i has no result on a route, and one
    energy's failure never touches another (the entries of a failed
    energy or a closed side are never read).  `v_shift` (scalar or per
    energy) is added to every layer potential.
    """

    labels = ("left", "right")

    def __init__(self, stack: LayerStack, energies, v_shift=0.0):
        energies = np.asarray(energies, dtype=float).reshape(-1)
        shift = np.broadcast_to(np.asarray(v_shift, dtype=float), energies.shape)
        band, rhs, k_left, k_right, k_layers = _interface_system(stack, energies, shift)
        coeffs, self.failed = _band_solve(band, rhs)
        self.stack = stack
        self.energies = energies
        self.k_left, self.k_right = k_left, k_right
        # energy-major copies: each energy's layers are contiguous, so a
        # sum over layers adds in the same order as for a single energy
        self.k_layers = np.ascontiguousarray(k_layers.T)
        self.coeff_a, self.coeff_b = (np.ascontiguousarray(coeffs[first:-1:2].transpose(1, 2, 0))
                                      for first in (1, 2))
        self.out_left, self.out_right = coeffs[0].copy(), coeffs[-1].copy()
        self.velocities = 2.0 * np.stack([k_left.real, k_right.real])
        self.open = self.velocities > 0.0
        # plane-L amplitudes -> global x = 0 reference
        phase_r = np.exp(-1j * k_right * stack.total_length)
        self.r = self.out_left[0]
        self.t = self.out_right[0] * phase_r
        self.r_prime = self.out_right[1] * phase_r**2
        self.t_prime = self.out_left[1] * phase_r

    @cached_property
    def dwell_times(self) -> Array:
        """Direct route, (2, E): per incidence side, the |psi|^2 integral
        over the layers divided by v_in = 2 k_in."""
        with np.errstate(all="ignore"):
            per_layer = layer_probability_integral(self.coeff_a, self.coeff_b, self.k_layers,
                                                   self.stack.thicknesses)
            return per_layer.sum(axis=-1) / self.velocities

    @cached_property
    def wronskian(self) -> Array:
        """W = psi_L psi_R' - psi_L' psi_R, (E,): right incidence is the
        left-outgoing psi_L, and W = 2 i k_L times its outgoing amplitude."""
        return 2j * self.k_left * self.out_left[1]

    @cached_property
    def region_dos(self) -> Array:
        """Green route, (E,): -(1/pi) Im of the integral of psi_L psi_R / W
        = G+(x, x) over [0, L]; it never uses the direct route's |psi|^2."""
        a, b = self.coeff_a, self.coeff_b
        with np.errstate(all="ignore"):
            per_layer = _green_layer_integral(a[1], b[1], a[0], b[0], self.k_layers,
                                              self.stack.thicknesses)
            return -(per_layer.sum(axis=-1) / self.wronskian).imag / np.pi

    @cached_property
    def smatrices(self) -> Array:
        """Flux-normalized S over [left, right], (E, 2, 2), read-only; only
        the block of the open channels is meaningful.  Built from the
        global-phase amplitude convention, so it differs from the
        plane-referenced matrix by a unitary diagonal phase only."""
        s = np.empty((self.energies.size, 2, 2), dtype=complex)
        with np.errstate(all="ignore"):
            ratio = np.sqrt(self.k_right.real / self.k_left.real)
            s[:, 0, 0], s[:, 0, 1] = self.r, self.t_prime / ratio
            s[:, 1, 0], s[:, 1, 1] = self.t * ratio, self.r_prime
        s.flags.writeable = False
        return s

    def error(self, i: int, route: str = "direct") -> DwellDosError | None:
        """Why energy i has no result on `route` ("direct", "green" or
        "vderiv"), or None.  A threshold within THRESHOLD_MARGIN, no open
        channel and a failed solve fail every route; the Green route also
        fails on an underflowing Wronskian."""
        energy, stack = float(self.energies[i]), self.stack
        for v in (stack.v_left, stack.v_right):
            if abs(energy - v) <= THRESHOLD_MARGIN:
                return ThresholdProximityError(
                    f"E = {energy} within {THRESHOLD_MARGIN} of channel threshold {v}")
        if energy < stack.v_left and energy < stack.v_right:
            return NoOpenChannelError(f"E = {energy} below both channel thresholds "
                                      f"({stack.v_left}, {stack.v_right})")
        if self.failed[i]:
            return NumericalFailureError(f"interface solve failed at E = {energy}")
        # With an open channel G+ has no pole on the real axis, however
        # small |t| is; W leaves the normal floats only when the outgoing
        # amplitude underflows (a subnormal W has lost the digits of 1/W).
        if route == "green" and not _TINY <= abs(self.wronskian[i]) < np.inf:
            return NumericalFailureError(
                f"Wronskian {self.wronskian[i]} at E = {energy}: the outgoing amplitude "
                "of the left-outgoing solution underflowed")
        return None


def _solve_one(stack: LayerStack, energy: float, route: str = "direct") -> ScatterSolution1D:
    """A ScatterBatch of one energy, or the error that leaves it without `route`."""
    batch = ScatterBatch(stack, [energy])
    error = batch.error(0, route)
    if error is not None:
        raise error
    return ScatterSolution1D(batch, 0)


def scattering_amplitudes(stack: LayerStack, energy: float) -> ScatterSolution1D:
    """Solve the scattering problem at one energy for both incidence sides
    (a ScatterBatch of one energy)."""
    return _solve_one(stack, energy)


# ----------------------------------------------------------------------------
# Probability integrals and dwell times
# ----------------------------------------------------------------------------


def layer_probability_integral(a, b, k, d):
    """Integral of |a e^{iku} + b e^{-ik(u-d)}|^2 over [0, d] in closed form.

    Scaled basis: a is referenced to the layer's left edge and b to its
    right edge, so every exponential evaluated here has modulus <= 1 for
    the physical branches of k and opaque layers cannot overflow.  For
    k = 0 the pair means psi = a + b u (degenerate basis {1, u}), giving
    |a|^2 d + Re(a b*) d^2 + |b|^2 d^3 / 3.  Only real, purely imaginary,
    or zero k are meaningful for real potentials.  Arguments broadcast
    over layers: arrays give one integral per layer, scalars a float.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    k, d = np.asarray(k, dtype=complex), np.asarray(d, dtype=float)
    if np.count_nonzero(d <= 0):
        raise ValidationError("d must be positive")
    kk, kappa = k.real, k.imag
    if np.count_nonzero((kk != 0.0) & (kappa != 0.0)):
        raise ValidationError("k must be real, purely imaginary, or zero")
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    cross = (a * np.conj(b)).real
    propagating = kappa == 0.0
    # evanescent closed form everywhere first; the divisor is made nonzero
    # where kappa = 0, and those layers are overwritten below
    safe_kappa = kappa + propagating
    out = np.asarray((aa + bb) * ((1.0 - np.exp(-2.0 * kappa * d)) / (2.0 * safe_kappa))
                     + 2.0 * cross * np.exp(-kappa * d) * d)
    if np.count_nonzero(propagating):
        # the cross term carries e^{ik(2u-d)}, whose integral is sin(kd)/k
        safe_k = kk + (kk == 0.0)
        np.copyto(out, (aa + bb) * d + 2.0 * cross * np.sin(kk * d) / safe_k,
                  where=propagating)
        flat = propagating & (kk == 0.0)
        if np.count_nonzero(flat):
            np.copyto(out, aa * d + cross * d**2 + bb * d**3 / 3.0, where=flat)
    return out if out.ndim else float(out)


def _incidence(side: str) -> int:
    """Incidence index of `side`: 0 for "left", 1 for "right"."""
    if side not in ("left", "right"):
        raise ValidationError("side must be 'left' or 'right'")
    return int(side == "right")


def dwell_time_direct_1d(
    stack: LayerStack,
    energy: float,
    side: str = "left",
) -> float:
    """Stationary-state dwell time in Omega for unit incidence from one side.

    tau = (integral of |psi|^2 over the layers) / v_in with v_in = 2 k_in,
    which equals 2 pi hbar <phi|P_Omega|phi> for the energy-normalized
    state (the incident flux of the unit-amplitude state is v_in, that of
    the energy-normalized state 1 / 2 pi hbar).
    """
    s = _incidence(side)
    sol = scattering_amplitudes(stack, energy)
    if not (sol.open_left if side == "left" else sol.open_right):
        raise ClosedChannelError(f"{side} channel closed at this energy")
    return float(sol.batch.dwell_times[s, sol.index])


# ----------------------------------------------------------------------------
# Green's function, LDOS, region DOS
# ----------------------------------------------------------------------------


def greens_function_1d(
    stack: LayerStack,
    energy: float,
    x,
    xp,
) -> complex | Array:
    """Retarded G+(x, x'; E) = psi_L(x<) psi_R(x>) / W for x, x' in
    [0, L]; scalars or arrays that broadcast, and scalars give a complex."""
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    L = stack.total_length
    if not np.all((0.0 <= x) & (x <= L) & (0.0 <= xp) & (xp <= L)):
        raise ValidationError("x and x' must lie in [0, L]")
    sol = _solve_one(stack, energy, "green")
    # unit incidence from the right has no incoming part on the left, so
    # it is the left-outgoing psi_L; incidence from the left is psi_R
    psi_l, _ = sol.wave("right", np.minimum(x, xp))
    psi_r, _ = sol.wave("left", np.maximum(x, xp))
    g = psi_l * psi_r / complex(sol.batch.wronskian[0])
    return g if g.ndim else complex(g)


def ldos_1d(
    stack: LayerStack,
    energy: float,
    x,
) -> float | Array:
    """Local density of states rho(x, E) = -(1/pi) Im G+(x, x; E), at
    scalar or array positions x in [0, L]."""
    g = greens_function_1d(stack, energy, x, x)
    return -g.imag / np.pi


def ldos_mode_sum_1d(
    stack: LayerStack,
    energy: float,
    x,
) -> float | Array:
    """LDOS as sum of |phi_n(x)|^2 over energy-normalized scattering states,
    at scalar or array positions x.

    Independent combination of the same solves used by ldos_1d; equality
    of the two is the spectral identity Im G+ = -pi sum |phi><phi|.
    """
    sol = scattering_amplitudes(stack, energy)
    total = 0.0
    for s, side in enumerate(sol.batch.labels):
        if sol.batch.open[s, 0]:
            psi, _ = sol.wave(side, x)
            total = total + np.square(np.abs(psi)) / (FLUX_FACTOR * sol.batch.velocities[s, 0])
    return total if np.ndim(total) else float(total)


def dos_region_1d(
    stack: LayerStack,
    energy: float,
) -> float:
    """Density of states of Omega: -(1/pi) Im of the integral of G+(x, x)
    over [0, L], in closed form per layer (ScatterBatch.region_dos)."""
    return float(_solve_one(stack, energy, "green").batch.region_dos[0])


def _green_layer_integral(a_l, b_l, a_r, b_r, k, d):
    """Integral of psi_L psi_R over each layer; layers on the last axis.

    With psi = a e^{iku} + b e^{-ik(u-d)} for both Green solutions,

        int_0^d psi_L psi_R du = (a_L a_R + b_L b_R) (e^{2ikd} - 1) / 2ik
                                 + (a_L b_R + b_L a_R) d e^{ikd},

    and a_L a_R d + (a_L b_R + b_L a_R) d^2/2 + b_L b_R d^3/3 in the k = 0
    basis {1, u}.  Every exponential has modulus <= 1.  The integrand is
    the bilinear psi_L psi_R, not the |psi|^2 of the direct route, so the
    two sides of the identity share no integral.
    """
    cross = a_l * b_r + b_l * a_r
    flat = k == 0
    ik = 1j * (k + flat)  # any nonzero k on flat layers; overwritten below
    per_layer = ((a_l * a_r + b_l * b_r) * np.expm1(2.0 * ik * d) / (2.0 * ik)
                 + cross * d * np.exp(ik * d))
    if np.count_nonzero(flat):
        np.copyto(per_layer, a_l * a_r * d + cross * d**2 / 2.0 + b_l * b_r * d**3 / 3.0,
                  where=flat)
    return per_layer
