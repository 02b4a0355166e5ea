"""Disordered Hamiltonians, first-order mode-frequency shifts, lifetime scans.

Site- and bond-resolved Gaussian disorder breaks the exact decoupling between
the network Hamiltonian and the pair swaps; the oscillating channel modes then
acquire a finite lifetime. The first-order shift of a mode eigenvalue under
H -> H + eps H' is purely imaginary (a frequency shift), so decay rates grow
quadratically in eps and are measured from direct simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import TimeSeries, fit_decay_envelope
from .channel import ChannelSpec, build_channel, channel_superoperator, iterate_channel
from .core import (
    ACTIVE_COUPLINGS,
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    build_network_hamiltonian,
    make_initial_state,
    pair_list,
)


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian disorder on the active couplings of a base Hamiltonian.

    Each active bond coupling and site field receives an independent
    standard-normal draw scaled by epsilon. Draw order is fixed
    (ACTIVE_COUPLINGS order: bond components first, pair-lexicographic
    within each; then site fields), so a seed pins the Hamiltonian bitwise.
    epsilon = 0 reproduces the base exactly.
    """

    base: HamiltonianSpec
    epsilon: float
    seed: int

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


def disordered_coefficients(spec: DisorderSpec) -> dict:
    """Per-bond/per-site coefficient arrays for build_network_hamiltonian."""
    base = spec.base
    n_pairs = len(pair_list(base.n))
    rng = np.random.default_rng(spec.seed)
    coeffs = base.couplings()
    out = {}
    for key in ACTIVE_COUPLINGS[base.family]:
        if base.family == "xx" and key == "jy":
            out["jy"] = out["jx"].copy()  # one draw per bond, applied to both axes
            continue
        size = n_pairs if key.startswith("j") else base.n
        out[key] = coeffs[key] + spec.epsilon * rng.standard_normal(size)
    return out


def build_disordered_hamiltonian(spec: DisorderSpec) -> np.ndarray:
    return build_network_hamiltonian(spec.base.n, **disordered_coefficients(spec))


@dataclass
class PerturbationResult:
    """First-order data for one oscillating mode under H -> H + eps H'.

    lambda0 = i omega is the unperturbed generator eigenvalue of the mode
    A rho_st; correction = Tr(eta^dag L1 rho_mode) with L1(X) = i[H', X] and
    eta the Hilbert-Schmidt-normalized left mode (Tr(eta^dag rho_mode) = 1);
    lambda1 = lambda0 + correction, i.e. the first-order value at unit
    epsilon. Oracle fields compare against the exact channel superoperator
    eigenvalue nearest e^{i omega dt} at a small finite epsilon.
    """

    lambda0: complex
    correction: complex
    lambda1: complex
    eta_normalization: float
    oracle_epsilon: float | None = None
    oracle_decay_rate: float | None = None
    oracle_phase_shift: float | None = None


def first_order_eigenvalue_shift(sym, h_prime: np.ndarray,
                                 spec: ChannelSpec | None = None,
                                 oracle_epsilon: float | None = None) -> PerturbationResult:
    """Evaluate the first-order eigenvalue formula for one dynamical symmetry.

    With the channel's sign convention (one step multiplies the mode by
    e^{+i omega dt}), the matching generator is L(X) = +i[H_eff, X], giving
    lambda0 = +i omega and a purely imaginary first-order correction
    +i(<E_a|H'|E_a> - <E_b|H'|E_b>): a frequency shift, no decay at this
    order.
    """
    spec = spec or ChannelSpec()
    dim = sym.vec_a.shape[0]
    mode = sym.operator / dim                       # A rho_st with rho_st = I/dim
    mode_norm_sq = float(np.real(np.vdot(mode, mode)))
    eta = mode / mode_norm_sq
    eta_normalization = float(np.real(np.vdot(eta, mode)))

    lambda0 = 1j * sym.omega
    l1_mode = 1j * (h_prime @ mode - mode @ h_prime)
    correction = complex(np.vdot(eta, l1_mode))
    result = PerturbationResult(lambda0=lambda0, correction=correction,
                                lambda1=lambda0 + correction,
                                eta_normalization=eta_normalization)

    if oracle_epsilon is not None:
        n_sites = int(round(np.log2(dim)))
        if n_sites > 3:
            raise ValueError("superoperator oracle limited to 3 qubits")
        ch = build_channel(sym.hamiltonian + oracle_epsilon * h_prime, spec)
        evals = np.linalg.eigvals(channel_superoperator(ch))
        target = np.exp(1j * sym.omega * spec.dt)
        nearest = evals[np.argmin(np.abs(evals - target))]
        result.oracle_epsilon = float(oracle_epsilon)
        result.oracle_decay_rate = float(-np.log(np.abs(nearest)) / spec.dt)
        result.oracle_phase_shift = float(np.angle(nearest * np.conj(target)))
    return result


@dataclass
class LifetimeScanResult:
    """Fitted decay rates per disorder strength."""

    epsilons: np.ndarray
    rates: list                 # per-epsilon list of per-seed gamma values
    mean_rates: np.ndarray
    fit_failures: list          # per-epsilon count of unusable fits
    loglog_slope: float | None
    loglog_stderr: float | None

    def table(self) -> list:
        return [(float(e), float(g)) for e, g in zip(self.epsilons, self.mean_rates)]


def lifetime_scan(base: HamiltonianSpec, epsilons, seeds, *,
                  channel_spec: ChannelSpec | None = None,
                  pair: tuple[int, int] = (62, 63), steps: int = 4608,
                  burn_in: int = 512, site: int = 0) -> LifetimeScanResult:
    """Fit oscillation decay rates across disorder strengths and seeds.

    Every run starts from the clean-Hamiltonian eigenpair superposition and
    evolves under the disordered channel; gamma comes from the log-envelope
    fit of the site transverse spin after burn-in. The log-log slope of mean
    gamma vs epsilon is reported with its standard error (epsilon = 0 rows
    are excluded from the slope fit).
    """
    channel_spec = channel_spec or ChannelSpec()
    h_clean = build_hamiltonian(base)
    rho0 = make_initial_state(StateSpec(kind="eigenpair_superposition", pair=pair),
                              base.n, hamiltonian=h_clean)

    epsilons = np.asarray(list(epsilons), dtype=float)
    rates, failures = [], []
    for eps in epsilons:
        row, failed = [], 0
        for seed in seeds:
            h_run = build_disordered_hamiltonian(
                DisorderSpec(base=base, epsilon=float(eps), seed=int(seed)))
            ch = build_channel(h_run, channel_spec)
            traj = iterate_channel(ch, rho0, steps, record=("sx",), sites=(site,))
            series = TimeSeries(traj.series("sx", site=site), burn_in=burn_in)
            try:
                fit = fit_decay_envelope(series)
                row.append(float(fit.rate))
            except ValueError:
                failed += 1
        rates.append(row)
        failures.append(failed)

    mean_rates = np.array([np.mean(r) if r else np.nan for r in rates])

    slope = stderr = None
    usable = [(e, g) for e, g in zip(epsilons, mean_rates)
              if e > 0 and np.isfinite(g) and g > 0]
    if len(usable) >= 2:
        x = np.log([e for e, _ in usable])
        y = np.log([g for _, g in usable])
        coeffs = np.polyfit(x, y, 1)
        slope = float(coeffs[0])
        fitted = np.polyval(coeffs, x)
        dof = max(len(x) - 2, 1)
        var = np.sum((y - fitted) ** 2) / dof
        stderr = float(np.sqrt(var / np.sum((x - x.mean()) ** 2)))
    return LifetimeScanResult(epsilons=epsilons, rates=rates,
                              mean_rates=mean_rates, fit_failures=failures,
                              loglog_slope=slope, loglog_stderr=stderr)
