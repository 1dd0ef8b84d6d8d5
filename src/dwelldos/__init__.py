"""Dwell times and region density of states for open quantum systems.

Two backends: exact star-product scattering for 1D multilayer
potentials (continuum, E = k^2) and quasi-1D tight-binding lattices with
semi-infinite leads (E = eps_m - 2 cos k).  Both expose two independent
dwell-time estimators (direct probability integral, S-matrix potential
derivative) and two region-DOS estimators (Green's-function trace and
dwell-time sum), tied together by the identity

    rho_Omega(E) = (1 / 2 pi hbar) * sum_n tau_n(E).

wavepacket_dwell_time is a spectral average of a dwell-time curve that
the caller supplies, not an independent estimator.

Every public name in __all__ is resolved on first use: `import dwelldos`
loads no submodule, and `dwelldos.verify_identity` (or `from dwelldos
import verify_identity`) loads the submodule that defines it.
"""

# public name -> the submodule that defines it, resolved on first use
# (PEP 562), so that importing the package, or one submodule through it,
# loads no backend it does not need
_EXPORTS = {
    "errors": (
        "BoundStatePoleError", "ClosedChannelError", "ConfigError", "CoverageError",
        "DwellDosError", "InsufficientDataError", "NoOpenChannelError",
        "NumericalFailureError", "StepTooLargeError", "ThresholdProximityError",
        "ValidationError",
    ),
    "model": (
        "EnergyGrid", "LatticeRegion", "LatticeSystem", "LayerStack",
        "SpectralWeight", "barrier_lattice", "build_stack", "channel_thresholds",
        "double_barrier", "free_stack", "gaussian_spectral_weight", "palindromic_stack",
        "random_lattice", "random_stack", "rectangular_barrier", "uniform_lattice",
    ),
    "solver1d": (
        "ScatterBatch", "dos_region_1d", "dwell_time_direct_1d", "greens_function_1d",
        "layer_probability_integral", "layer_wavevector", "ldos_1d", "ldos_mode_sum_1d",
        "scattering_amplitudes",
    ),
    "lattice": (
        "dos_region_lattice", "dwell_time_lattice", "lead_modes", "lead_self_energy",
        "open_channels", "scattering_matrix", "scattering_state",
    ),
    "analysis": (
        "DwellReport", "ReportTable", "ResonanceTable", "dwell_time_vderiv",
        "dwell_times_vderiv_all", "find_resonances", "shifted_smatrix",
        "summarize_reports", "verify_identity", "wavepacket_dwell_time",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule in this namespace; unlike
    # importlib.import_module, `python -X importtime` lists it on its own line
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _let_blas_workers_sleep() -> None:
    """Default the spin of OpenBLAS' idle workers, read once as numpy loads, to
    2**20 cycles: its 2**28 (about 90 ms, on every core but one) outlasts a
    short run.  A value the user set, or GOTO_THREAD_TIMEOUT, is kept."""
    import os

    if "GOTO_THREAD_TIMEOUT" not in os.environ:
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")


def script() -> None:
    """The `dwelldos` console script: the BLAS default, then cli.entry."""
    _let_blas_workers_sleep()
    from .cli import entry

    entry()
