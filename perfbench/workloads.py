"""The four benchmark workloads.

A workload is one or more jobs; each job runs in a fresh process, as one CLI
invocation would. A job has a set-up (the inputs: configs, or the
Hamiltonians, channels and states that a caller of the channel layer builds
itself), a run (the public swapnet calls it measures) and a check of the
run's outputs against references from `checks`, made after the timed part.
Nothing is built twice: run_experiment and lifetime_scan build their own
Hamiltonians and channels, so those workloads set up configs only. Every call
into swapnet goes through the `swapnet` package attribute at call time, so
the probes of spans.py see it. Inputs depend only on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path

import numpy as np

import checks
import swapnet


class Workload:
    name = ""
    jobs = ("all",)
    ops_per_job = 1

    def setup(self, seed: int, job: str):
        raise NotImplementedError

    def run(self, inputs):
        """Returns (outputs, one message per failed operation)."""
        raise NotImplementedError

    def check(self, inputs, outputs) -> list:
        """Problems found in the outputs of the operations that did not fail."""
        raise NotImplementedError

    @staticmethod
    def attempt(what, errors, call, *args, **kwargs):
        """One operation: its result, or None after noting in `errors` why it failed."""
        try:
            return call(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{what}: {exc!r}")
            return None


def magnetisation_of(rho: np.ndarray) -> float:
    n_sites = int(np.log2(rho.shape[0]))
    return float(np.sum((n_sites - 2 * checks.popcounts(n_sites)) * np.diag(rho).real))


# ------------------------------------------------------------ paper_presets


class PaperPresets(Workload):
    """fig2-fig6 through run_experiment, shortened to (steps, burn_in) below.

    The n=3 runs keep a 512-record spectrum window after the presets' 512-step
    burn-in; the n=6 runs start from two symmetric-sector eigenvectors, whose
    oscillation needs no burn-in to settle, and keep a 256-record window.
    """

    name = "paper_presets"
    LENGTHS = {"fig2": (1024, 512), "fig3": (1024, 512), "fig4": (1024, 512),
               "fig5": (512, 256), "fig6": (512, 256)}
    ops_per_job = len(LENGTHS)

    def __init__(self, out_root: Path):
        self.out_root = out_root

    def setup(self, seed, job="all"):
        configs = []
        for name, (steps, burn_in) in self.LENGTHS.items():
            # The seed replaces fig2's and fig4's state seeds and fig6's draws.
            cfg = swapnet.load_preset(name, seed=seed)
            configs.append(replace(cfg, steps=steps, burn_in=burn_in,
                                   output_dir=str(self.out_root / name)))
        return configs

    def run(self, inputs):
        errors = []
        done = [self.attempt(cfg.name, errors, swapnet.run_experiment, cfg) is not None
                for cfg in inputs]
        return done, errors

    def check(self, inputs, outputs):
        problems = []
        for cfg, done in zip(inputs, outputs):
            if done:
                problems += [f"{cfg.name}: {p}" for p in self.check_one(cfg)]
        return problems

    @staticmethod
    def read_run(out_dir: Path):
        series = np.loadtxt(out_dir / "series.csv", delimiter=",", skiprows=1, ndmin=2)
        spectrum = np.loadtxt(out_dir / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return series, spectrum, manifest

    def check_one(self, cfg) -> list:
        series, spectrum, manifest = self.read_run(Path(cfg.output_dir))
        first_site = series[:, 1] == cfg.resolved_sites()[0]
        problems = checks.entropy_non_decreasing(series[first_site, 6])
        problems += checks.bloch_in_unit_ball(series[:, 2], series[:, 3], series[:, 4])
        if len(series) != (cfg.steps + 1) * len(cfg.resolved_sites()):
            problems.append(f"series.csv has {len(series)} rows")
        ham = cfg.hamiltonian
        if ham["family"] in ("ising", "xx"):
            rho0 = swapnet.make_initial_state(
                cfg.state_spec(), cfg.n,
                hamiltonian=swapnet.build_hamiltonian(cfg.hamiltonian_spec()))
            problems += checks.magnetisation_conserved(series[first_site, 7],
                                                       magnetisation_of(rho0))
        peaks = spectrum[spectrum[:, 3] == 1, 1]
        resolution = spectrum[1, 1] - spectrum[0, 1]
        predicted = self.predicted_frequencies(cfg, manifest)
        if predicted is not None:
            problems += checks.peaks_near(peaks, predicted, resolution)
        return problems

    @staticmethod
    def predicted_frequencies(cfg, manifest):
        """Closed-form single-site frequencies (Ising), or E_b - E_a of the two
        prepared eigenvectors (XX). Under disorder, the eigenvectors of the
        disordered Hamiltonian (rebuilt from the recorded draws) that continue
        the prepared pair: on fig6 the first-order shift alone misses the peak
        by more than a bin on some seeds, the exact levels do not."""
        ham, n = cfg.hamiltonian, cfg.n
        if ham["family"] == "ising":
            a = np.arange(n)
            return ham["j_z"] * (4 * a + 2 - 2 * n) + 2 * ham["h"]
        if ham["family"] != "xx":
            return None
        energies, vectors = np.linalg.eigh(
            checks.pauli_hamiltonian(n, jx=ham["j_x"], jy=ham["j_x"], hz=ham["h"]))
        a, b = cfg.initial_state["pair"]
        if cfg.disorder is not None:
            draws = manifest["disorder_draws"]
            clean_a, clean_b = vectors[:, a], vectors[:, b]
            energies, vectors = np.linalg.eigh(
                checks.pauli_hamiltonian(n, jx=draws["jx"], jy=draws["jy"], hz=draws["hz"]))
            a = int(np.argmax(np.abs(vectors.conj().T @ clean_a)))
            b = int(np.argmax(np.abs(vectors.conj().T @ clean_b)))
        return [energies[b] - energies[a]]


# -------------------------------------------------------------- large_clean


@dataclass
class CleanNetwork:
    family: str
    coupling: float
    h: float
    channel: object


class LargeClean(Workload):
    """Uniform Ising and XX networks at n=9, one job each: build, compile, iterate.

    Eight steps per model keep a round (both jobs) near 12 CPU seconds, so two
    rounds fit in a run of the benchmark's length.

    Recording and validate_stride follow run_experiment for n > 6 (every
    observable at sites 0-2, invariant checks every 16 steps). The initial
    state is a seeded pure state with half its weight in the symmetric sector,
    so the sector coherences checked below are of order one. Each model gets
    its own process: how many pages the mixer's temporaries fault in depends
    on what the process allocated before (see README).
    """

    name = "large_clean"
    N = 9
    STEPS = 8
    jobs = ("ising", "xx")

    def setup(self, seed, job):
        rng = np.random.default_rng(seed)
        couplings = rng.uniform(0.2, 0.6, size=2)
        fields = rng.uniform(0.05, 0.3, size=2)
        k = self.jobs.index(job)
        key = "j_z" if job == "ising" else "j_x"
        spec = swapnet.HamiltonianSpec(family=job, n=self.N, h=float(fields[k]),
                                       **{key: float(couplings[k])})
        ch = swapnet.build_channel(swapnet.build_hamiltonian(spec))
        net = CleanNetwork(job, float(couplings[k]), float(fields[k]), ch)
        rho0 = swapnet.make_initial_state(
            swapnet.StateSpec(kind="explicit_matrix", matrix=self.mixed_sector_state(rng)),
            self.N)
        return net, rho0

    def mixed_sector_state(self, rng) -> np.ndarray:
        dim = 2**self.N
        pc = checks.popcounts(self.N)
        amps = rng.standard_normal(self.N + 1) + 1j * rng.standard_normal(self.N + 1)
        sector = amps[pc] / np.sqrt([comb(self.N, int(k)) for k in pc])
        rest = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = sector / np.linalg.norm(sector) + rest / np.linalg.norm(rest)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    def run(self, inputs):
        net, rho0 = inputs
        errors = []
        traj = self.attempt(f"{net.family} iterate_channel", errors, swapnet.iterate_channel,
                            net.channel, rho0, self.STEPS, sites=(0, 1, 2),
                            validate_stride=16)
        return traj, errors

    def check(self, inputs, traj):
        if traj is None:
            return []
        net, rho0 = inputs
        final = traj.final_state
        problems = checks.magnetisation_conserved(traj.records["total_mz"],
                                                  magnetisation_of(rho0))
        energies = checks.sector_energies(net.family, self.N, net.coupling, net.h)
        problems += checks.coherences_advance(
            checks.dicke_coherences(rho0), checks.dicke_coherences(final),
            checks.sector_phases(energies, self.STEPS), what="sector coherence")
        if net.family == "ising":
            problems += self.check_class_sums(net, rho0, final)
        problems += checks.density_matrix(final)
        return [f"{net.family}: {p}" for p in problems]

    def check_class_sums(self, net, rho0, final):
        labels = checks.class_labels(self.N)
        base = self.N + 1
        codes = np.arange(base**3)
        b11, b10, b01 = codes // base**2, (codes // base) % base, codes % base
        phase = np.exp(1j * self.STEPS * (
            checks.ising_energy(self.N, b11 + b10, net.coupling, net.h)
            - checks.ising_energy(self.N, b11 + b01, net.coupling, net.h)))
        return checks.coherences_advance(
            checks.class_sums(rho0, labels), checks.class_sums(final, labels),
            phase[:labels.max() + 1], what="class sum")


# ------------------------------------------------------------ disorder_scan


class DisorderScan(Workload):
    """lifetime_scan of the disordered n=6 XX network (fig6's model).

    Two disorder strengths over the same three seeded draws, sx recorded at
    site 0 only and no invariant checks (lifetime_scan's own settings). The
    start is the superposition of sector eigenvectors 61 and 63 (E = 7.2 and
    8.4, a 1.2 rad/step line): fig6's pair 62/63 oscillates at 0.4 rad/step,
    which disorder of this size pushes to near zero on some draws, and the
    envelope fit then finds too few extrema. With this pair and these
    strengths every fit on 60 draws returned a positive rate that grew with
    the strength.
    """

    name = "disorder_scan"
    BASE = dict(family="xx", n=6, j_x=0.4, h=1.0)
    PAIR = (61, 63)
    EPSILONS = (0.15, 0.3)
    SEEDS = 3
    STEPS = 512
    BURN_IN = 128
    ops_per_job = len(EPSILONS) * SEEDS

    def setup(self, seed, job="all"):
        base = swapnet.HamiltonianSpec(**self.BASE)
        seeds = tuple(int(s) for s in np.random.default_rng(seed).integers(0, 2**31, self.SEEDS))
        return base, seeds

    def run(self, inputs):
        base, seeds = inputs
        try:
            result = swapnet.lifetime_scan(base, self.EPSILONS, seeds, pair=self.PAIR,
                                           steps=self.STEPS, burn_in=self.BURN_IN)
        except Exception as exc:  # every fit of the scan is lost
            return None, [f"lifetime_scan: {exc!r}"] * self.ops_per_job
        errors = [f"envelope fit failed at epsilon={eps}"
                  for eps, failures in zip(self.EPSILONS, result.fit_failures)
                  for _ in range(failures)]
        return result, errors

    def check(self, inputs, outputs):
        if outputs is None:
            return []
        base, seeds = inputs
        modes = {swapnet.build_channel(swapnet.build_disordered_hamiltonian(
                     swapnet.DisorderSpec(base=base, epsilon=eps, seed=s))).mode
                 for eps in self.EPSILONS for s in seeds}
        problems = [] if modes == {"dense"} else [f"channel modes {modes}, expected dense"]
        problems += checks.rates_positive(zip(self.EPSILONS, outputs.rates))
        if not any(outputs.fit_failures):
            problems += checks.mean_rate_grows(outputs.epsilons, outputs.mean_rates)
        return problems


# ---------------------------------------------------------------- attractor


@dataclass
class AttractorModel:
    family: str
    coupling: float
    h: float
    hamiltonian: np.ndarray
    channel: object


class Attractor(Workload):
    """Attractor spectra, asymptotic states and sector symmetries at n=7.

    One process per round, so the class-operator stack (an lru_cache in
    swapnet.attractor) is built cold once, for the Ising spectrum, and reused
    by the XX spectrum and the commutant distances, as in one CLI invocation.
    The predicted late-time state is iterated by the channel for a few steps
    and compared with the prediction further on.
    """

    name = "attractor"
    N = 7
    LATE = 1000
    STEPS = 48
    ops_per_job = 2

    def setup(self, seed, job="all"):
        rng = np.random.default_rng(seed)
        models = []
        for family in ("ising", "xx"):
            j, h = float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.05, 0.3))
            key = "j_z" if family == "ising" else "j_x"
            ham = swapnet.build_hamiltonian(
                swapnet.HamiltonianSpec(family=family, n=self.N, h=h, **{key: j}))
            models.append(AttractorModel(family, j, h, ham, swapnet.build_channel(ham)))
        rho0 = swapnet.make_initial_state(
            swapnet.StateSpec(kind="haar_random_pure", seed=int(rng.integers(2**31))), self.N)
        return models, rho0

    def run(self, inputs):
        models, rho0 = inputs
        errors = []
        return [self.attempt(model.family, errors, self.one_model, model, rho0)
                for model in models], errors

    def one_model(self, model, rho0):
        spectrum = swapnet.general_attractor_spectrum(model.hamiltonian)
        sector = swapnet.symmetric_sector_basis(model.hamiltonian)
        symmetries = swapnet.find_dynamical_symmetries(model.hamiltonian, sector)
        late = swapnet.asymptotic_state(spectrum, rho0, self.LATE)
        traj = swapnet.iterate_channel(model.channel, late, self.STEPS,
                                       record=("sx",), sites=(0,))
        return dict(
            spectrum=spectrum, sector=sector, symmetries=symmetries,
            evolved=traj.final_state,
            later=swapnet.asymptotic_state(spectrum, rho0, self.LATE + self.STEPS),
            haar_distance=swapnet.commutant_distance(rho0),
            late_distance=swapnet.commutant_distance(late))

    def check(self, inputs, outputs):
        models, rho0 = inputs
        haar_distance = checks.class_projection_distance(rho0)
        problems = []
        for model, out in zip(models, outputs):
            if out is None:
                continue
            spectrum = out["spectrum"]
            found = []
            if len(spectrum) != comb(self.N + 3, 3):
                found.append(f"{len(spectrum)} attractor eigenvalues, "
                             f"expected {comb(self.N + 3, 3)}")
            if model.family == "ising":
                found += checks.same_multiset(
                    spectrum.eigenvalues,
                    checks.ising_class_phases(self.N, model.coupling, model.h),
                    what="eigenphase")
            found += checks.unimodular(spectrum.eigenvalues)
            found += checks.orthonormal(spectrum.operators)
            found += checks.close(out["haar_distance"], haar_distance,
                                  1e-10 * max(haar_distance, 1.0), "commutant distance")
            found += checks.close(out["late_distance"], 0.0, 1e-10,
                                  "commutant distance of the predicted state")
            found += checks.close(float(np.linalg.norm(out["evolved"] - out["later"])),
                                  0.0, 1e-9, "iterated vs predicted late-time state")
            energies = checks.sector_energies(model.family, self.N, model.coupling, model.h)
            found += checks.same_values(out["sector"].energies, energies,
                                        what="sector energy")
            omegas = [s.omega for s in out["symmetries"]]
            expected = (energies[:, None] - energies[None, :])[~np.eye(self.N + 1, dtype=bool)]
            found += checks.same_values(omegas, expected, what="symmetry frequency")
            problems += [f"{model.family}: {p}" for p in found]
        return problems


def make(name: str, out_root: Path) -> Workload:
    if name == "paper_presets":
        return PaperPresets(out_root / "runs" / name)
    return {"large_clean": LargeClean, "disorder_scan": DisorderScan,
            "attractor": Attractor}[name]()


NAMES = ("paper_presets", "large_clean", "disorder_scan", "attractor")
