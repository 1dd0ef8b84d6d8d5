"""Exact scattering solver for piecewise-constant 1D potentials.

Inside layer j the wavefunction is stored as

    psi_j(u) = A_j exp(i k_j u) + B_j exp(-i k_j (u - d_j)),   u in [0, d_j],

i.e. the rightward component is referenced to the layer's left edge and
the leftward component to its right edge, so every exponential that
appears has modulus <= 1 even for evanescent k_j.  Grazing layers
(|k_j| d_j <= 1e-4, including k_j = 0 exactly) use the degenerate basis
{1, u}.

The stack is a chain of n + 1 two-port scattering matrices, one per
layer (the interface into it, then the layer) and one for the interface
into the right lead, bounded in the same scaled basis.  ScatterBatch
builds them for a whole array of energies and joins neighbours pairwise
by the Redheffer star product, level by level, so the S matrix takes
O(log n) numpy steps over (element, energy) arrays; a down-sweep of the
same tree gives the interior coefficients when a route reads them.  Every
step is elementwise in energy, so a non-finite energy fails alone.  The
direct route (ScatterBatch.dwell_times), the Green route
(ScatterBatch.region_dos) and the S matrices are numpy expressions over
the batch's (energy, layer) arrays, with no Python loop over energies or
layers; ScatterBatch.errors(*routes) gives each energy's first failing check.
numpy evaluates x * y as y * x in a temporary y of x's shape and 256 KiB
or more, which rounds a complex product differently, so such products are
written np.multiply(x, y): no value depends on the batch size.
scattering_amplitudes, dwell_time_direct_1d and dos_region_1d are a
batch of one energy, and scattering_amplitudes returns that batch.
Pointwise quantities (psi and psi', G+(x, x'), the LDOS) read the same
arrays through ScatterBatch.wave(side, x, index), which gathers each
position's layer coefficients and evaluates any number of positions in
one numpy expression.

Amplitude convention: for left incidence psi = exp(ikx) + r exp(-ikx) for
x < 0 and psi = t exp(ikx) for x > L, so an empty stack gives t = 1; the
right-incidence amplitudes r', t' are defined mirror-symmetrically.  A
closed side's amplitudes are NaN.

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

from .errors import NumericalFailureError, ValidationError
from .model import FLUX_FACTOR, Array, LayerStack, _array, energy_errors, single_energy

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
]

# A layer with |k| d at or below this is solved in the exact k = 0 basis
# {1, u}: the scaled basis loses about eps / (k d)^2 there, while the
# {1, u} solution differs from the true one by (k d)^2 / 2 relative; the
# two errors meet near 1e-4.
_GRAZING_KD = 1e-4


def layer_wavevector(energy, potential):
    """Wavevector k = sqrt(E - V) with E = k^2 units.

    Branch: real nonnegative for E > V, +i sqrt(V - E) for E < V, and
    exactly 0 for E = V (the caller switches to the {1, u} basis).
    Broadcasts over arrays; scalars give a complex.
    """
    diff = np.subtract(energy, potential)
    root = np.sqrt(np.abs(diff))
    k = np.empty(np.shape(diff), dtype=complex)  # by part: 1j * inf is nan + i inf
    k.real, k.imag = np.where(diff < 0.0, 0.0, root), np.where(diff < 0.0, root, 0.0)
    return k if k.ndim else complex(k)


def _elements(k_left: Array, k_layers: Array, k_right: Array, d: Array) -> tuple:
    """Two-port S matrices [r, t, r', t'] (4, n + 1, E) of a stack's elements.

    Element j < n is the interface into layer j, then layer j; element n
    the interface into the right lead.  Its ports sit at the right edges
    of the medium before it and of its own, where psi = f + g and psi' =
    i kappa (f - g), with kappa the medium's k or, for a flat layer (k =
    0), that of the nearest non-flat medium to its right.  Incoming f
    (left) and g (right) leave as r f + t' g (left) and t f + r' g
    (right); r = (k_a - k) / (k_a + k), t' = 2 p k / (k_a + k), t = p t_a
    and r' = -p^2 r with p = e^{ikd}, t_a = 2 k_a / (k_a + k) are bounded,
    and a flat layer is the exact {1, u} transfer [[1, d], [0, 1]].  Also
    returns the phases p of the layers (n, E), the map to layer j's (a, b)
    = (alpha f + beta g, g) (E, n), and None or the flat mask and gamma of
    (alpha f + beta g, gamma (f - g)) = (psi, psi') at a flat layer's left
    edge.
    """
    # media 0 .. n, (n + 1, E), C-ordered like s: concatenating k_layers.T
    # would give Fortran order, and the elementwise work below would run strided
    k = np.empty((len(d) + 1, k_right.size), dtype=complex)
    k[:-1], k[-1] = k_layers.T, k_right
    d = np.append(d, 0.0)[:, None]
    flat = k == 0  # the right lead's k is 0 only at its threshold
    kappa = k
    if np.count_nonzero(flat):
        index = np.where(flat, len(k) - 1, np.arange(len(k))[:, None])
        kappa = np.take_along_axis(k, np.minimum.accumulate(index[::-1])[::-1], axis=0)
    k_a = np.concatenate([k_left[None], kappa[:-1]])  # each element's left port
    p = np.exp(1j * k * d)
    inv = 1.0 / (k_a + k)  # one division: a complex division costs many products
    t_a = 2.0 * k_a * inv
    s = np.empty((4, *k.shape), dtype=complex)  # each product written in place: no copy
    r = np.multiply(k_a - k, inv, out=s[0])
    np.multiply(p, t_a, out=s[1])
    np.multiply(-p * p, r, out=s[2])
    np.multiply(p, 2.0 * k * inv, out=s[3])
    alpha, beta = t_a[:-1], -(r * p)[:-1]
    if not np.count_nonzero(flat):
        return s, p[:-1], alpha, beta, None
    rho, z = k_a / kappa, 1j * k_a * d
    tau = 2.0 / (1.0 + rho - z)
    np.copyto(s, [-0.5 * (1.0 - rho + z) * tau, rho * tau, 0.5 * (1.0 - rho - z) * tau, tau],
              where=flat)
    flat = flat[:-1]
    np.copyto(alpha, ((rho - z) * tau)[:-1], where=flat)
    np.copyto(beta, tau[:-1], where=flat)
    return s, p[:-1], alpha, beta, (flat, (1j * k_a * tau)[:-1])


def _up_sweep(s: Array) -> list:
    """Redheffer star products (Redheffer 1961; Ko & Inkson, PRB 38, 9945
    (1988)) of a chain of two-ports s = [r, t, r', t'] (4, m, E), level by
    level: nodes 2q and 2q + 1 join by D = 1 / (1 - r'_1 r_2), r = r_1 +
    t'_1 r_2 D t_1, t = t_2 D t_1, t' = t'_1 D t'_2, r' = r'_2 + t_2 D r'_1
    t'_2, and an odd last node moves up.  Returns each level's (s, D)."""
    levels = []
    while s.shape[1] > 1:
        h, odd = divmod(s.shape[1], 2)
        r1, t1, rp1, tp1 = s[:, 0:2 * h:2]
        r2, t2, rp2, tp2 = s[:, 1:2 * h:2]
        dd = 1.0 / (1.0 - rp1 * r2)
        left, right = dd * t1, dd * tp2
        up = np.empty((4, h + odd, s.shape[2]), dtype=complex)
        up[:, :h] = r1 + tp1 * r2 * left, t2 * left, rp2 + t2 * rp1 * right, tp1 * right
        up[:, h:] = s[:, 2 * h:]
        levels.append((s, dd))
        s = up
    levels.append((s, None))
    return levels


class ScatterBatch:
    """Both scattering solutions of one stack at an array of energies.

    The stack's n + 1 two-ports (_elements) are joined by one Redheffer
    star-product tree over all energies (_up_sweep).  Arrays run over
    energy (E,) or (energy, layer) (E, n), with a leading incidence axis
    [left, right] on the outgoing amplitudes out_left, out_right (2, E)
    at the x = 0 and x = L planes and on the interior coefficients
    coeff_a, coeff_b (2, E, n); the channel axis is `labels`, with the
    `open` mask and `velocities` (2, E).  The amplitudes r, t (left
    incidence) and r_prime, t_prime (right incidence), (E,), are NaN where
    their side is closed.  The coefficients (the tree's down-sweep), the
    routes and the S matrices are evaluated on first use, so a batch read
    for its S matrices never runs the down-sweep; `wave(side, x, index)`
    reads psi and psi' at any positions.  `errors(*routes)` says per energy
    why it has no result on a route, and one energy's failure never
    touches another.  `v_shift` (scalar or per energy) is added to every
    layer potential.
    """

    labels = ("left", "right")

    @staticmethod
    def bytes_per_energy(stack: LayerStack) -> int:
        """Peak bytes per energy, all routes read: 27 complex values per
        two-port, one of them the phases e^{ikd} that the batch keeps for
        the Green route."""
        return 16 * 27 * (len(stack.layers) + 1)

    def __init__(self, stack: LayerStack, energies, v_shift=0.0):
        energies = np.asarray(energies, dtype=float).reshape(-1)
        shift = np.broadcast_to(np.asarray(v_shift, dtype=float), energies.shape)
        self.stack, self.energies = stack, energies
        self.k_left = layer_wavevector(energies, stack.v_left)
        self.k_right = layer_wavevector(energies, stack.v_right)
        # energy-major: each energy's layers are contiguous, so a sum over
        # layers adds in the same order as for a single energy
        self.k_layers = k = layer_wavevector(energies[:, None], stack.potentials + shift[:, None])
        k[np.abs(k) * stack.thicknesses <= _GRAZING_KD] = 0.0
        with np.errstate(all="ignore"):  # a failed energy is flagged by `errors`
            s, self._phase, *self._layer_map = _elements(self.k_left, k, self.k_right,
                                                         stack.thicknesses)
            self._levels = _up_sweep(s)
            root = self._levels[-1][0][:, 0]  # r, t, r', t' of the x = 0 and x = L planes
            # W = psi_L psi_R' - psi_L' psi_R, (E,), read by `errors` on every
            # route: right incidence is the left-outgoing psi_L, and W = 2 i k_L
            # times its outgoing amplitude
            self.wronskian = 2j * self.k_left * root[3]
            # plane-L amplitudes -> global x = 0 reference
            phase = np.exp(-1j * self.k_right * stack.total_length)
        self._s_failed = ~np.isfinite(root).all(axis=0)
        self.out_left, self.out_right = root[[0, 3]], root[[1, 2]]
        self.velocities = 2.0 * np.stack([self.k_left.real, self.k_right.real])
        self.open = self.velocities > 0.0
        self.r, self.t = np.where(self.open[0], [root[0], root[1] * phase], np.nan)
        self.r_prime, self.t_prime = np.where(self.open[1], [np.multiply(root[2], phase**2),
                                                                 root[3] * phase], np.nan)

    @cached_property
    def _coefficients(self) -> tuple[Array, Array]:
        """coeff_a and coeff_b, (2, E, n): from unit incidence on either side
        of the root, each join passes its incoming (f, g) to its nodes by
        their shared port's f_m = D (t_1 f + r'_1 t'_2 g), g_m = r_2 f_m + t'_2 g."""
        f, g = np.zeros((2, 2, 1, self.energies.size), dtype=complex)
        f[0], g[1] = 1.0, 1.0
        with np.errstate(all="ignore"):  # a failed energy is flagged by `errors`
            for s, dd in reversed(self._levels[:-1]):
                h = s.shape[1] // 2
                one, two = slice(0, 2 * h, 2), slice(1, 2 * h, 2)  # the nodes of each join
                f_in, g_in = f[:, :h], g[:, :h]
                f_m = dd * (s[1, one] * f_in + s[2, one] * s[3, two] * g_in)
                g_m = s[0, two] * f_m + s[3, two] * g_in
                below = np.empty((2, 2, s.shape[1], self.energies.size), dtype=complex)
                below[0, :, one], below[0, :, two], below[0, :, 2 * h:] = f_in, f_m, f[:, h:]
                below[1, :, one], below[1, :, two], below[1, :, 2 * h:] = g_m, g_in, g[:, h:]
                f, g = below
            alpha, beta, flat = self._layer_map
            f, g = f[:, :len(alpha)], g[:, :len(alpha)]  # the layers' elements
            a = alpha * f + beta * g
            b = g if flat is None else np.where(flat[0], flat[1] * (f - g), g)
        return tuple(np.ascontiguousarray(c.transpose(0, 2, 1)) for c in (a, b))

    coeff_a = property(lambda self: self._coefficients[0])
    coeff_b = property(lambda self: self._coefficients[1])

    @cached_property
    def failed(self) -> Array:
        """Energies whose S matrix or interior coefficients are not finite, (E,)."""
        finite = [np.isfinite(c).all(axis=(0, 2)) for c in self._coefficients]
        return self._s_failed | ~finite[0] | ~finite[1]

    @cached_property
    def dwell_times(self) -> Array:
        """Direct route, (2, E): per incidence side, the |psi|^2 integral
        over the layers divided by v_in = 2 k_in."""
        with np.errstate(all="ignore"):
            per_layer = layer_probability_integral(self.coeff_a, self.coeff_b, self.k_layers,
                                                   self.stack.thicknesses)
            return per_layer.sum(axis=-1) / self.velocities

    @cached_property
    def region_dos(self) -> Array:
        """Green route, (E,): -(1/pi) Im of the integral of psi_L psi_R / W
        = G+(x, x) over [0, L]; it never uses the direct route's |psi|^2."""
        a, b = self.coeff_a, self.coeff_b
        with np.errstate(all="ignore"):
            per_layer = _green_layer_integral(a[1], b[1], a[0], b[0], self.k_layers,
                                              self.stack.thicknesses, self._phase.T)
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

    def wave(self, side: str, x, index: int = 0) -> tuple[Array, Array]:
        """psi(x) and dpsi/dx at energy `index` of the solution with unit
        incidence from `side` ("left" or "right"), at scalar or array
        positions anywhere on the line.  A closed side's formal wave is
        still defined, for Green's-function use.

        Each point reads the coefficients of its layer from the batch
        arrays, in psi = a e^{iku} + b e^{ik(d - u)} with u measured from
        the layer's left edge; the leads are two more "layers" of d = 0
        with origin x = 0 (a = incoming, b = outgoing) and x = L
        (a = outgoing, b = incoming), and a k = 0 layer is a + b u (a lead
        at k = 0 is its plane wave, the constant a + b).
        x = L belongs to the last layer.  Returns arrays of x's shape (0-d
        for a scalar); a scalar goes through the same array arithmetic as
        an array, so both give the same values.
        """
        if side not in self.labels:
            raise ValidationError("side must be 'left' or 'right'")
        s = self.labels.index(side)
        bounds = self.stack.boundaries
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).reshape(-1)
        j = np.searchsorted(bounds[:-1], x, side="right") + (x > bounds[-1])
        k = np.concatenate(([self.k_left[index]], self.k_layers[index], [self.k_right[index]]))[j]
        a = np.concatenate(([1.0 - s], self.coeff_a[s, index], [self.out_right[s, index]]))[j]
        c = np.concatenate(([self.out_left[s, index]], self.coeff_b[s, index], [float(s)]))[j]
        u = x - np.concatenate(([0.0], bounds))[j]
        d = np.concatenate(([0.0], self.stack.thicknesses, [0.0]))[j]
        ik = 1j * k
        up, down = np.exp(ik * u), np.exp(ik * (d - u))
        flat = (k == 0) & (d > 0)  # a layer's {1, u} rule, never a lead's
        psi = np.where(flat, a + c * u, a * up + c * down)
        dpsi = np.where(flat, c, ik * a * up - ik * c * down)
        return psi.reshape(shape), dpsi.reshape(shape)

    def errors(self, *routes: str) -> list:
        """Per energy, None or the error that leaves it without one of `routes`
        ("direct", "green", "vderiv"), from one row list: energy_errors's, then
        a non-finite S or, when "direct" or "green" is read, non-finite interior
        coefficients (the down-sweep's), then an underflowing W and a region DOS
        that is not positive ("green")."""
        failed = self.failed if {"direct", "green"} & set(routes) else self._s_failed
        # With an open channel G+ has no pole on the real axis, however
        # small |t| is; W leaves the normal floats only when the outgoing
        # amplitude underflows (a subnormal W has lost the digits of 1/W).
        w = np.abs(self.wronskian)
        underflow = ~((np.finfo(float).tiny <= w) & (w < np.inf)) & ("green" in routes)
        # a retarded G has rho_Omega > 0; 1 stands in where the route is not read
        dos = self.region_dos if "green" in routes else np.ones(self.energies.size)
        return energy_errors(
            self.stack, self.energies, self.open,
            (failed, NumericalFailureError, "interface solve failed at E = {E}"),
            (underflow, NumericalFailureError, "Wronskian {W} at E = {E}: the outgoing "
             "amplitude of the left-outgoing solution underflowed"),
            (~(dos > 0), NumericalFailureError,  # NaN fails too
             "region DOS {dos} at E = {E} is not positive"), W=self.wronskian, dos=dos)


def scattering_amplitudes(stack: LayerStack, energy: float) -> ScatterBatch:
    """Solve the scattering problem at one energy for both incidence sides:
    the ScatterBatch of that one energy, once its skip rule has passed."""
    return single_energy(ScatterBatch, stack, energy)[0]


# ----------------------------------------------------------------------------
# Probability integrals and dwell times
# ----------------------------------------------------------------------------


def _exprel(z):
    """(e^z - 1) / z, 1 at z = 0; expm1 keeps it exact for small real or imaginary z."""
    zero = z == 0
    return np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))


def layer_probability_integral(a, b, k, d):
    """Integral of |a e^{iku} + b e^{-ik(u-d)}|^2 over [0, d] in closed form.

    Scaled basis: a is referenced to the layer's left edge and b to its
    right edge, so every exponential evaluated here has modulus <= 1 for
    the physical branches of k and opaque layers cannot overflow.  With
    exprel(z) = (e^z - 1) / z and sinc(x) = sin(x) / x, one form holds for
    real and imaginary k and stays exact as k d goes to 0:

        d [(|a|^2 + |b|^2) exprel(-2 Im(k) d) + 2 Re(a b*) e^{-Im(k) d} sinc(Re(k) d)],

    the cross factor being e^{-i conj(k) d} exprel(2i Re(k) d), which is real.
    For k = 0 the pair means psi = a + b u (degenerate basis {1, u}),
    giving |a|^2 d + Re(a b*) d^2 + |b|^2 d^3 / 3.  Only real, purely
    imaginary, or zero k are meaningful for real potentials.  Arguments
    broadcast over layers (one integral each); scalars give a float.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    k, d = np.asarray(k, dtype=complex), np.asarray(d, dtype=float)
    if np.count_nonzero(d <= 0):
        raise ValidationError("d must be positive")
    if np.count_nonzero((k.real != 0.0) & (k.imag != 0.0)):
        raise ValidationError("k must be real, purely imaginary, or zero")
    aa, bb, ab = np.abs(a) ** 2, np.abs(b) ** 2, (a * np.conj(b)).real
    cross = np.exp(-k.imag * d) * np.sinc(k.real * d / np.pi)
    out = np.asarray(d * ((aa + bb) * _exprel(-2.0 * k.imag * d) + 2.0 * ab * cross))
    flat = k == 0
    if np.count_nonzero(flat):
        np.copyto(out, aa * d + ab * d**2 + bb * d**3 / 3.0, where=flat)
    return out if out.ndim else float(out)


def dwell_time_direct_1d(
    stack: LayerStack,
    energy: float,
    side: str = "left",
) -> float:
    """Stationary-state dwell time in Omega for unit incidence from one side.

    tau = (integral of |psi|^2 over the layers) / v_in with v_in = 2 k_in,
    which equals 2 pi hbar <phi|P_Omega|phi> for the energy-normalized
    state (the incident flux of the unit-amplitude state is v_in, that of
    the energy-normalized state 1 / 2 pi hbar).  `side` is the channel
    label, "left" or "right", checked by model.channel_index.
    """
    batch, j = single_energy(ScatterBatch, stack, energy, "direct", side)
    return float(batch.dwell_times[j, 0])


# ----------------------------------------------------------------------------
# Green's function, LDOS, region DOS
# ----------------------------------------------------------------------------


def _positions(stack: LayerStack, *xs) -> list[Array]:
    """x, then x', as finite float arrays by model._array, refused unless every
    entry lies in [0, L] and their shapes broadcast: the one check of the
    pointwise functions."""
    xs = [_array(name, x) for name, x in zip(("x", "x'"), xs)]
    if not all(np.all((0.0 <= x) & (x <= stack.total_length)) for x in xs):
        raise ValidationError("x and x' must lie in [0, L]")
    try:
        np.broadcast_shapes(*(x.shape for x in xs))
    except ValueError:
        raise ValidationError(f"x and x' must broadcast, got shapes {xs[0].shape} and "
                              f"{xs[1].shape}") from None
    return xs


def greens_function_1d(
    stack: LayerStack,
    energy: float,
    x,
    xp,
) -> complex | Array:
    """Retarded G+(x, x'; E) = psi_L(x<) psi_R(x>) / W for x, x' in
    [0, L]; scalars or arrays that broadcast, and scalars give a complex."""
    x, xp = _positions(stack, x, xp)
    batch, _ = single_energy(ScatterBatch, stack, energy, "green")
    # unit incidence from the right has no incoming part on the left, so
    # it is the left-outgoing psi_L; incidence from the left is psi_R
    psi_l, _ = batch.wave("right", np.minimum(x, xp))
    psi_r, _ = batch.wave("left", np.maximum(x, xp))
    g = psi_l * psi_r / complex(batch.wronskian[0])
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
    at scalar or array positions x in [0, L].

    Independent combination of the same solves used by ldos_1d; equality
    of the two is the spectral identity Im G+ = -pi sum |phi><phi|.
    """
    (x,) = _positions(stack, x)
    batch = scattering_amplitudes(stack, energy)
    total = 0.0
    for s, side in enumerate(batch.labels):
        if batch.open[s, 0]:
            psi, _ = batch.wave(side, x)
            total = total + np.square(np.abs(psi)) / (FLUX_FACTOR * batch.velocities[s, 0])
    return total if np.ndim(total) else float(total)


def dos_region_1d(
    stack: LayerStack,
    energy: float,
) -> float:
    """Density of states of Omega: -(1/pi) Im of the integral of G+(x, x)
    over [0, L], in closed form per layer (ScatterBatch.region_dos)."""
    return float(single_energy(ScatterBatch, stack, energy, "green")[0].region_dos[0])


def _green_layer_integral(a_l, b_l, a_r, b_r, k, d, phase):
    """Integral of psi_L psi_R over each layer; layers on the last axis,
    and phase = e^{ikd}, the batch's own (_elements).

    With psi = a e^{iku} + b e^{-ik(u-d)} for both Green solutions,

        int_0^d psi_L psi_R du = (a_L a_R + b_L b_R) d exprel(2ikd)
                                 + (a_L b_R + b_L a_R) d e^{ikd},

    and a_L a_R d + (a_L b_R + b_L a_R) d^2/2 + b_L b_R d^3/3 in the k = 0
    basis {1, u}.  Every exponential has modulus <= 1.  The integrand is
    the bilinear psi_L psi_R, not the |psi|^2 of the direct route, so the
    two sides of the identity share no integral.
    """
    cross = a_l * b_r + b_l * a_r
    flat = k == 0
    per_layer = d * ((a_l * a_r + b_l * b_r) * _exprel(2j * k * d)
                     + np.multiply(cross, phase))
    if np.count_nonzero(flat):
        np.copyto(per_layer, a_l * a_r * d + cross * d**2 / 2.0 + b_l * b_r * d**3 / 3.0,
                  where=flat)
    return per_layer
