"""Exact simulator and spectral toolkit for qubit networks driven by a
random partial-swap channel: late-time attractor structure, dynamical
symmetries, persistent oscillations and their robustness to disorder."""

__version__ = "0.1.0"

from .core import (
    DimensionCapError,
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    build_network_hamiltonian,
    magnetization_values,
    make_initial_state,
    pair_list,
    single_site_expectations,
    swap_commutation_residual,
    total_magnetization_expectation,
    validate_density_matrix,
)
from .channel import (
    Channel,
    ChannelInvariantError,
    ChannelSpec,
    InvariantReport,
    Trajectory,
    apply_channel,
    build_channel,
    channel_superoperator,
    iterate_channel,
    unitality_error,
)
from .attractor import (
    AttractorSpectrum,
    ClassIndex,
    asymptotic_state,
    build_gamma,
    commutant_distance,
    enumerate_classes,
    general_attractor_spectrum,
    ising_attractor_spectrum,
    reduce_gamma,
    single_site_frequencies,
)
from .symmetry import (
    DynamicalSymmetry,
    SymmetricSectorBasis,
    clean_tc_state,
    find_dynamical_symmetries,
    predict_observable_series,
    symmetric_sector_basis,
    verify_dynamical_symmetry,
)
from .analysis import (
    Spectrum,
    TimeSeries,
    autocorrelation_at_lag,
    best_commensurate_lag,
    fit_decay_envelope,
    loschmidt_echo,
    spectrum_of_series,
)
from .noise import (
    DisorderSpec,
    build_disordered_hamiltonian,
    disordered_coefficients,
    first_order_eigenvalue_shift,
    lifetime_scan,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    load_config,
    load_preset,
    run_experiment,
)

__all__ = [
    "__version__",
    "DimensionCapError", "HamiltonianSpec", "StateSpec",
    "build_hamiltonian", "build_network_hamiltonian",
    "magnetization_values", "make_initial_state", "pair_list",
    "single_site_expectations",
    "swap_commutation_residual", "total_magnetization_expectation",
    "validate_density_matrix",
    "Channel", "ChannelInvariantError", "ChannelSpec", "InvariantReport",
    "Trajectory", "apply_channel", "build_channel", "channel_superoperator",
    "iterate_channel", "unitality_error",
    "AttractorSpectrum", "ClassIndex", "asymptotic_state",
    "build_gamma", "commutant_distance",
    "enumerate_classes", "general_attractor_spectrum",
    "ising_attractor_spectrum", "reduce_gamma", "single_site_frequencies",
    "DynamicalSymmetry", "SymmetricSectorBasis", "clean_tc_state",
    "find_dynamical_symmetries", "predict_observable_series",
    "symmetric_sector_basis", "verify_dynamical_symmetry",
    "Spectrum", "TimeSeries", "autocorrelation_at_lag",
    "best_commensurate_lag", "fit_decay_envelope", "loschmidt_echo",
    "spectrum_of_series",
    "DisorderSpec", "build_disordered_hamiltonian",
    "disordered_coefficients", "first_order_eigenvalue_shift",
    "lifetime_scan",
    "ConfigError", "ExperimentConfig", "RunManifest",
    "load_config", "load_preset", "run_experiment",
]
