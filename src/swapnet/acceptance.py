"""End-to-end acceptance checks for the simulator and spectral toolkit.

Eleven numbered criteria cover channel laws, the commutation condition for
swap-invariant pairs, the attractor-subspace census, cross-validation of the
projected one-step map against the dense superoperator, asymptotic-state
prediction, single-site frequency content, dynamical-symmetry verification,
amplitude scaling, disorder robustness, insensitivity to mixture weights, and
bytewise determinism of persisted runs. Each criterion returns a
CriterionResult; run_all prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

from .analysis import (
    TimeSeries,
    autocorrelation_at_lag,
    best_commensurate_lag,
    fit_decay_envelope,
    spectrum_of_series,
)
from .attractor import (
    _from_class_coordinates,
    enumerate_classes,
    general_attractor_spectrum,
    ising_attractor_spectrum,
    asymptotic_state,
    single_site_frequencies,
)
from .channel import (
    ChannelSpec,
    build_channel,
    channel_superoperator,
    iterate_channel,
    unitality_error,
)
from .core import (
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    build_network_hamiltonian,
    make_initial_state,
    pair_list,
    swap_commutation_residual,
)
from .noise import DisorderSpec, build_disordered_hamiltonian, lifetime_scan
from .experiment import PRESET_NAMES, load_preset, run_experiment
from .symmetry import (
    clean_tc_state,
    find_dynamical_symmetries,
    symmetric_sector_basis,
    verify_dynamical_symmetry,
)

BURN_IN = 512
LONG_STEPS = 4608          # 512 burn-in + 4096-sample window
SHORT_STEPS = 1536         # 512 burn-in + 1024-sample window for n >= 8


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  criterion {self.index:02d} {self.title}: {self.detail}"


def _family_specs(n: int) -> dict:
    return {
        "ising": HamiltonianSpec(family="ising", n=n, j_z=0.4, h=0.1),
        "tfi": HamiltonianSpec(family="tfi", n=n, j_z=0.4, t=0.1),
        "xx": HamiltonianSpec(family="xx", n=n, j_x=0.4, h=0.1),
        "xyz": HamiltonianSpec(family="xyz", n=n, j_x=0.1, j_y=0.2, j_z=0.3, h=0.1),
    }


def _haar_rho(n: int, seed: int) -> np.ndarray:
    return make_initial_state(StateSpec(kind="haar_random_pure", seed=seed), n)


def _site_series(h: np.ndarray, rho0: np.ndarray, steps: int) -> np.ndarray:
    """sx trajectory of site 0, no invariant overhead."""
    ch = build_channel(h)
    traj = iterate_channel(ch, rho0, steps, record=("sx",), sites=(0,))
    return traj.series("sx", site=0)


def _folded(frequencies: np.ndarray) -> np.ndarray:
    """Map real frequencies to the DFT-visible band [0, pi]."""
    return np.abs(np.angle(np.exp(1j * np.asarray(frequencies, dtype=float))))


def _match_multisets(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest-neighbour matching; returns the worst pair distance."""
    a = np.asarray(a, dtype=complex).copy()
    b = list(np.asarray(b, dtype=complex))
    worst = 0.0
    for val in a:
        dists = [abs(val - x) for x in b]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        b.pop(j)
    return worst


def criterion_01_channel_laws(quick: bool = False) -> CriterionResult:
    sizes = (2, 3, 4) if quick else (2, 3, 4, 5, 6)
    steps = 2000
    worst_trace = worst_herm = worst_unital = 0.0
    min_eig = 0.0
    min_ds = np.inf
    ok = True
    for n in sizes:
        for i, spec in enumerate(_family_specs(n).values()):
            ch = build_channel(build_hamiltonian(spec))
            rho0 = _haar_rho(n, seed=100 * n + i)
            traj = iterate_channel(ch, rho0, steps, record=("entropy",),
                                   sites=(0,), validate_stride=1)
            rep = traj.invariants
            rep.unitality_error = unitality_error(ch)
            ok = ok and rep.passed()
            worst_trace = max(worst_trace, rep.max_trace_error)
            worst_herm = max(worst_herm, rep.max_hermiticity_error)
            worst_unital = max(worst_unital, rep.unitality_error)
            min_eig = min(min_eig, rep.min_eigenvalue)
            min_ds = min(min_ds, rep.min_entropy_increment)
    detail = (f"sizes {sizes}, 4 families, {steps} steps: "
              f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, "
              f"min eig {min_eig:.1e}, min dS {min_ds:.1e}, "
              f"unitality {worst_unital:.1e}")
    return CriterionResult(1, "channel laws", ok, detail)


def criterion_02_commutation(quick: bool = False) -> CriterionResult:
    del quick
    worst_uniform = 0.0
    for n in (2, 3, 4):
        for spec in _family_specs(n).values():
            h = build_hamiltonian(spec)
            for m, k in pair_list(n):
                worst_uniform = max(worst_uniform,
                                    swap_commutation_residual(h, m, k))
    best_broken = np.inf
    for n in (2, 3, 4):
        ramp = 0.1 * (1.0 + np.arange(n))
        for h in (build_network_hamiltonian(n, jz=0.4, hz=ramp),
                  build_network_hamiltonian(n, jz=0.4, hx=ramp)):
            for m, k in pair_list(n):
                best_broken = min(best_broken,
                                  swap_commutation_residual(h, m, k))
    ok = worst_uniform <= 1e-12 and best_broken > 1e-8
    detail = (f"uniform fields residual {worst_uniform:.1e} (<= 1e-12), "
              f"site-dependent fields residual {best_broken:.1e} (> 1e-8)")
    return CriterionResult(2, "swap commutation", ok, detail)


def criterion_03_attractor_count(quick: bool = False) -> CriterionResult:
    del quick
    counts = {n: len(enumerate_classes(n)) for n in (3, 6, 9)}
    expected = {n: comb(n + 3, 3) for n in (3, 6, 9)}
    stack = _from_class_coordinates(np.eye(counts[3], dtype=complex), 3)
    gram = np.tensordot(stack.conj(), stack, axes=[[1, 2], [1, 2]])
    ortho = float(np.max(np.abs(gram - np.eye(len(stack)))))
    ok = counts == expected and ortho <= 1e-10
    detail = (f"counts {counts} vs binomial {expected}, "
              f"n=3 orthonormality defect {ortho:.1e}")
    return CriterionResult(3, "attractor census", ok, detail)


def criterion_04_oracle_equivalence(quick: bool = False) -> CriterionResult:
    sizes = (2,) if quick else (2, 3)
    worst = 0.0
    worst_ising = 0.0
    counts_ok = True
    for n in sizes:
        for name, spec in _family_specs(n).items():
            h = build_hamiltonian(spec)
            projected = general_attractor_spectrum(h)
            s_mat = channel_superoperator(build_channel(h))
            evals = np.linalg.eigvals(s_mat)
            unimodular = evals[np.abs(np.abs(evals) - 1.0) <= 1e-8]
            counts_ok = counts_ok and len(unimodular) == comb(n + 3, 3)
            worst = max(worst, _match_multisets(projected.eigenvalues,
                                                unimodular))
            if name == "ising":
                analytic = ising_attractor_spectrum(n, 0.4, 0.1)
                worst_ising = max(
                    worst_ising,
                    _match_multisets(analytic.eigenvalues,
                                     projected.eigenvalues),
                    _match_multisets(analytic.eigenvalues, unimodular))
    ok = counts_ok and worst <= 1e-8 and worst_ising <= 1e-8
    detail = (f"sizes {sizes}: projected vs superoperator multiset distance "
              f"{worst:.1e}, analytic vs both {worst_ising:.1e}, "
              f"peripheral counts {'match' if counts_ok else 'MISMATCH'}")
    return CriterionResult(4, "spectrum oracle equivalence", ok, detail)


def criterion_05_asymptotics(quick: bool = False) -> CriterionResult:
    del quick
    n, steps = 3, 2000
    h = build_network_hamiltonian(n, jz=0.4, hz=0.1)
    rho0 = make_initial_state(StateSpec(kind="plus_zero_product"), n)
    ch = build_channel(h)
    traj = iterate_channel(ch, rho0, steps, record=())
    predicted = asymptotic_state(ising_attractor_spectrum(n, 0.4, 0.1),
                                 rho0, steps)
    dist = float(np.linalg.norm(traj.final_state - predicted))
    ok = dist <= 1e-6
    detail = f"direct vs expansion at step {steps}: HS distance {dist:.2e}"
    return CriterionResult(5, "asymptotic expansion", ok, detail)


def criterion_06_frequencies(quick: bool = False) -> CriterionResult:
    jz, hz = 0.4, 0.1
    issues = []
    details = []

    def peaks_for(n, rho0, steps):
        h = build_network_hamiltonian(n, jz=jz, hz=hz)
        series = TimeSeries(_site_series(h, rho0, steps), burn_in=BURN_IN)
        spec = spectrum_of_series(series)
        return np.array(spec.peak_frequencies), spec.resolution

    def check_subset(peaks, n, bin_width, label):
        allowed = _folded(single_site_frequencies(n, jz, hz))
        stray = [f for f in peaks
                 if np.min(np.abs(allowed - f)) > bin_width]
        if len(peaks) > n:
            issues.append(f"{label}: {len(peaks)} peaks > {n}")
        if stray:
            issues.append(f"{label}: stray peaks {stray}")

    rho0 = make_initial_state(StateSpec(kind="plus_zero_product"), 3)
    peaks, bin_width = peaks_for(3, rho0, LONG_STEPS)
    expected = 4.0 * jz + 2.0 * hz   # lone excited class at n=3
    if len(peaks) != 1:
        issues.append(f"one-site start: {len(peaks)} peaks, expected 1")
    elif abs(peaks[0] - expected) > bin_width:
        issues.append(f"one-site start: peak {peaks[0]:.4f} "
                      f"not at {expected}")
    check_subset(peaks, 3, bin_width, "one-site start")
    details.append(f"n=3 one-site peak {peaks[0]:.4f} "
                   f"(analytic {expected:.1f})" if len(peaks) else "no peak")

    peaks, bin_width = peaks_for(3, _haar_rho(3, seed=17), LONG_STEPS)
    check_subset(peaks, 3, bin_width, "n=3 random")
    details.append(f"n=3 random {len(peaks)} peaks")

    peaks, bin_width = peaks_for(6, _haar_rho(6, seed=18), LONG_STEPS)
    check_subset(peaks, 6, bin_width, "n=6 random")
    details.append(f"n=6 random {len(peaks)} peaks (<= 6)")

    if not quick:
        peaks, bin_width = peaks_for(9, _haar_rho(9, seed=19), SHORT_STEPS)
        check_subset(peaks, 9, bin_width, "n=9 random")
        details.append(f"n=9 random {len(peaks)} peaks (<= 9)")

    ok = not issues
    detail = "; ".join(details if ok else issues)
    return CriterionResult(6, "single-site frequencies", ok, detail)


CLEAN_TC_PAIRS = {"tfi": (0, 49), "xx": (62, 63), "xyz": (61, 62)}


def criterion_07_dynamical_symmetries(quick: bool = False) -> CriterionResult:
    worst_residual = 0.0
    issues = []
    details = []
    for n in (3, 6):
        for name, spec in _family_specs(n).items():
            if name == "ising":
                continue
            h = build_hamiltonian(spec)
            sector = symmetric_sector_basis(h)
            syms = find_dynamical_symmetries(h, sector)
            ch = build_channel(h)
            worst_residual = max(
                worst_residual,
                max(verify_dynamical_symmetry(ch, s) for s in syms))
    if worst_residual > 1e-10:
        issues.append(f"one-step residual {worst_residual:.1e} > 1e-10")
    details.append(f"all symmetries verified, worst residual "
                   f"{worst_residual:.1e}")

    families = ("xx",) if quick else ("tfi", "xx", "xyz")
    for name in families:
        spec = _family_specs(6)[name]
        h = build_hamiltonian(spec)
        sector = symmetric_sector_basis(h)
        a, b = sector.pair_from_full(*CLEAN_TC_PAIRS[name])
        omega = abs(sector.energies[b] - sector.energies[a])
        rho0 = clean_tc_state(sector, a, b)
        ch = build_channel(h)
        traj = iterate_channel(ch, rho0, LONG_STEPS,
                               record=("sx", "loschmidt"), sites=(0,))
        spec_x = spectrum_of_series(
            TimeSeries(traj.series("sx", site=0), burn_in=BURN_IN))
        peaks = spec_x.peak_frequencies
        target = _folded([omega])[0]
        if len(peaks) != 1 or abs(peaks[0] - target) > spec_x.resolution:
            issues.append(f"{name}: peaks {list(peaks)} vs predicted "
                          f"{target:.4f}")
        le = traj.series("loschmidt")[BURN_IN:]
        lag, phase_err = best_commensurate_lag(omega, 200)
        if phase_err <= 0.14:
            corr = autocorrelation_at_lag(le, lag)
            if corr <= 0.99:
                issues.append(f"{name}: echo autocorrelation {corr:.4f} "
                              f"at lag {lag}")
            else:
                details.append(f"{name} echo corr {corr:.4f} at lag {lag}")
        else:
            details.append(f"{name}: no commensurate lag <= 200")
    ok = not issues
    detail = "; ".join(details if ok else issues)
    return CriterionResult(7, "dynamical symmetries", ok, detail)


def _oscillation_amplitude(series: np.ndarray) -> float:
    tail = series[BURN_IN:]
    return float(tail.max() - tail.min()) / 2.0


def criterion_08_amplitude_scaling(quick: bool = False) -> CriterionResult:
    del quick
    jz, hz = 0.4, 0.1
    amps = {}
    for n in (3, 6):
        h = build_network_hamiltonian(n, jz=jz, hz=hz)
        rho0 = make_initial_state(StateSpec(kind="plus_zero_product"), n)
        amps[n] = _oscillation_amplitude(_site_series(h, rho0, LONG_STEPS))
    ratio = amps[3] / amps[6]
    ok = 1.5 <= ratio <= 2.5

    w_amps = {}
    for n in (3, 6):
        h = build_network_hamiltonian(n, jz=jz, hz=hz)
        rho0 = make_initial_state(StateSpec(kind="w_plus_superposition"), n)
        ch = build_channel(h)
        traj = iterate_channel(ch, rho0, LONG_STEPS, record=("sx",))
        collective = traj.records["sx"].sum(axis=1)
        w_amps[n] = _oscillation_amplitude(collective)
    w_ratio = w_amps[3] / w_amps[6]
    ok = ok and 0.75 <= w_ratio <= 1.25
    detail = (f"one-site amp ratio n3/n6 = {ratio:.3f} (target 2 +- 25%); "
              f"collective w amp ratio {w_ratio:.3f} (target 1 +- 25%)")
    return CriterionResult(8, "amplitude scaling", ok, detail)


def criterion_09_robustness(quick: bool = False) -> CriterionResult:
    base = HamiltonianSpec(family="xx", n=6, j_x=0.4, h=1.0)
    issues = []
    dspec = DisorderSpec(base=base, epsilon=0.1, seed=5)
    h_run = build_disordered_hamiltonian(dspec)
    rho0 = make_initial_state(
        StateSpec(kind="eigenpair_superposition", pair=(62, 63)), 6,
        hamiltonian=build_hamiltonian(base))
    series = TimeSeries(_site_series(h_run, rho0, LONG_STEPS),
                        burn_in=BURN_IN)
    fit = fit_decay_envelope(series)
    if not 0.0 < fit.rate < 0.01:
        issues.append(f"decay rate {fit.rate:.2e} outside (0, 0.01)")
    n_peaks = len(spectrum_of_series(series).peak_frequencies)
    if n_peaks != 1:
        issues.append(f"{n_peaks} spectral peaks under disorder")

    # 8 disorder draws per epsilon: the scan targets the disorder-mean rate,
    # and fewer seeds leave the heavy-tailed per-seed spread dominating it.
    seeds = (5, 6) if quick else tuple(range(5, 13))
    scan = lifetime_scan(base, epsilons=(0.025, 0.05, 0.1), seeds=seeds)
    if not np.all(np.diff(scan.mean_rates) > 0):
        issues.append(f"mean rates not monotone: {scan.mean_rates}")
    if not 0.8 <= scan.loglog_slope <= 2.2:
        issues.append(f"log-log slope {scan.loglog_slope:.2f} "
                      "outside [0.8, 2.2]")
    ok = not issues
    summary = (f"gamma(eps=0.1) = {fit.rate:.2e}, {n_peaks} peak(s), "
               f"mean rates {[f'{r:.1e}' for r in scan.mean_rates]}, "
               f"slope {scan.loglog_slope:.2f} +- {scan.loglog_stderr:.2f}")
    detail = "; ".join(issues) + "; " + summary if issues else summary
    return CriterionResult(9, "disorder robustness", ok, detail)


def criterion_10_mixture_insensitivity(quick: bool = False) -> CriterionResult:
    del quick
    spec = HamiltonianSpec(family="xx", n=6, j_x=0.4, h=0.1)
    h = build_hamiltonian(spec)
    sector = symmetric_sector_basis(h)
    a, b = sector.pair_from_full(62, 63)
    rho0 = clean_tc_state(sector, a, b)
    n_pairs = len(pair_list(6))
    weights = np.arange(1.0, n_pairs + 1.0)
    variants = {
        "uniform": ChannelSpec(),
        "ramped probabilities": ChannelSpec(
            pair_probabilities=0.8 * weights / weights.sum()),
        "varied kappas": ChannelSpec(
            kappa=0.4 + 2.2 * np.arange(n_pairs) / (n_pairs - 1)),
    }
    peaks = {}
    resolution = None
    for label, ch_spec in variants.items():
        ch = build_channel(h, ch_spec)
        traj = iterate_channel(ch, rho0, LONG_STEPS, record=("sx",),
                               sites=(0,))
        spectrum = spectrum_of_series(
            TimeSeries(traj.series("sx", site=0), burn_in=BURN_IN))
        peaks[label] = spectrum.peak_frequencies
        resolution = spectrum.resolution
    ok = all(len(p) == 1 for p in peaks.values())
    if ok:
        ref = peaks["uniform"][0]
        ok = all(abs(p[0] - ref) <= resolution for p in peaks.values())
    detail = ", ".join(f"{k}: {[f'{f:.4f}' for f in v]}"
                       for k, v in peaks.items())
    return CriterionResult(10, "mixture insensitivity", ok, detail)


def criterion_11_determinism(quick: bool = False) -> CriterionResult:
    names = ("fig3", "fig5") if quick else PRESET_NAMES
    mismatches = []
    for name in names:
        digests = []
        for _ in range(2):
            cfg = load_preset(name)
            with tempfile.TemporaryDirectory() as tmp:
                manifest = run_experiment(cfg, out_dir=Path(tmp) / name)
                digests.append(manifest.outputs)
        if digests[0] != digests[1]:
            mismatches.append(name)
    ok = not mismatches
    detail = (f"presets {names}: byte-identical CSVs" if ok else
              f"checksum mismatch in {mismatches}")
    return CriterionResult(11, "determinism", ok, detail)


CRITERIA = (
    criterion_01_channel_laws,
    criterion_02_commutation,
    criterion_03_attractor_count,
    criterion_04_oracle_equivalence,
    criterion_05_asymptotics,
    criterion_06_frequencies,
    criterion_07_dynamical_symmetries,
    criterion_08_amplitude_scaling,
    criterion_09_robustness,
    criterion_10_mixture_insensitivity,
    criterion_11_determinism,
)


def run_all(quick: bool = False) -> list:
    """Run all criteria in order, printing one line each with its wall time."""
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        result = fn(quick=quick)
        seconds = time.perf_counter() - t0
        print(f"{result.line()}  [{seconds:.1f} s]", flush=True)
        results.append(result)
    return results
