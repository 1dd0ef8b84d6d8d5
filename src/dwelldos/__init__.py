"""Dwell times and region density of states for open quantum systems.

Two backends: exact transfer-matrix scattering for 1D multilayer
potentials (continuum, E = k^2) and quasi-1D tight-binding lattices with
semi-infinite leads (E = eps_m - 2 cos k).  Both expose three dwell-time
estimators (direct probability integral, S-matrix potential derivative,
wave-packet average) and two region-DOS estimators (Green's-function
trace and dwell-time sum), tied together by the identity

    rho_Omega(E) = (1 / 2 pi hbar) * sum_n tau_n(E).
"""

from .errors import (
    BoundStatePoleError,
    ClosedChannelError,
    ConfigError,
    CoverageError,
    DwellDosError,
    InsufficientDataError,
    NoOpenChannelError,
    NumericalFailureError,
    StepTooLargeError,
    ThresholdCrossingError,
    ThresholdProximityError,
    ValidationError,
)
from .model import (
    EnergyGrid,
    LatticeRegion,
    LatticeSystem,
    Layer,
    LayerStack,
    SpectralWeight,
    barrier_lattice,
    build_stack,
    channel_thresholds,
    double_barrier,
    free_stack,
    gaussian_spectral_weight,
    palindromic_stack,
    random_lattice,
    random_stack,
    rectangular_barrier,
    uniform_lattice,
)
from .solver1d import (
    Green1D,
    ScatterSolution1D,
    dos_region_1d,
    dwell_time_direct_1d,
    green_1d,
    greens_function_1d,
    layer_probability_integral,
    layer_wavevector,
    ldos_1d,
    ldos_mode_sum_1d,
    scattering_amplitudes,
)
from .lattice import (
    ChannelInfo,
    LatticeScatterState,
    dos_region_lattice,
    dwell_time_lattice,
    greens_function_lattice,
    lead_modes,
    lead_self_energy,
    open_channels,
    scattering_matrix,
    scattering_state,
)
from .analysis import (
    DwellReport,
    ResonanceTable,
    dwell_time_vderiv,
    dwell_times_vderiv_all,
    find_resonances,
    shifted_smatrix,
    summarize_reports,
    verify_identity,
    wavepacket_dwell_time,
)
from .oracles import BoxSpec, box_dos, box_levels, fd_green, quadrature_integral

__version__ = "0.1.0"
