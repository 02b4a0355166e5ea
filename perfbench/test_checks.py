"""Each benchmark check passes on a correct result and fails on a corrupted one.

    python3 -m pytest perfbench/test_checks.py

Small networks stand in for the workload sizes; the checks are the ones the
workloads run.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import swapnet  # noqa: E402
import workloads  # noqa: E402


def test_fold_maps_negative_and_wrapped_frequencies():
    assert np.allclose(checks.fold([-1.4, 0.2, 2 * np.pi + 1.8, 4.0]),
                       [1.4, 0.2, 1.8, 2 * np.pi - 4.0])


def test_shifted_peak_fails():
    res = 2 * np.pi / 512
    assert checks.peaks_near([1.8 + 0.4 * res], [-1.4, 0.2, 1.8], res) == []
    assert checks.peaks_near([1.8 + 2 * res], [-1.4, 0.2, 1.8], res)
    assert checks.peaks_near([], [1.8], res)


def test_drifting_magnetisation_fails():
    flat = np.full(100, 0.25)
    assert checks.magnetisation_conserved(flat, 0.25) == []
    assert checks.magnetisation_conserved(flat + 1e-8 * np.arange(100), 0.25)


def test_wrong_phase_fails():
    rng = np.random.default_rng(0)
    before = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    energies = np.array([0.1, 0.7, -0.3, 1.2])
    phases = checks.sector_phases(energies, 9)
    assert checks.coherences_advance(before, phases * before, phases) == []
    wrong = checks.sector_phases(energies, 10)
    assert checks.coherences_advance(before, wrong * before, phases)
    values = np.exp(1j * energies)
    assert checks.same_multiset(values[::-1], values) == []
    assert checks.same_multiset(values * np.exp(1e-6j), values)


def test_negative_rate_and_shrinking_mean_fail():
    assert checks.rates_positive([(0.1, [1e-4, 2e-4])]) == []
    assert checks.rates_positive([(0.1, [1e-4, -1e-5])])
    assert checks.rates_positive([(0.1, [np.nan])])
    assert checks.mean_rate_grows([0.1, 0.2], [1e-4, 4e-4]) == []
    assert checks.mean_rate_grows([0.1, 0.2], [4e-4, 1e-4])


def test_entropy_bloch_and_state_checks_fail_on_bad_input():
    assert checks.entropy_non_decreasing([0.0, 0.1, 0.1, 0.3]) == []
    assert checks.entropy_non_decreasing([0.0, 0.1, 0.09])
    assert checks.bloch_in_unit_ball([0.6], [0.0], [0.8]) == []
    assert checks.bloch_in_unit_ball([0.6], [0.1], [0.8])
    assert checks.density_matrix(np.eye(4) / 4) == []
    assert checks.density_matrix(np.diag([0.7, 0.5, -0.1, -0.1]))


def test_sector_energies_match_the_restricted_pauli_hamiltonian():
    n = 5
    pc = checks.popcounts(n)
    dicke = np.stack([(pc == k) / np.sqrt(np.sum(pc == k)) for k in range(n + 1)], axis=1)
    for family, ham in (("ising", checks.pauli_hamiltonian(n, jz=0.37, hz=0.11)),
                        ("xx", checks.pauli_hamiltonian(n, jx=0.37, jy=0.37, hz=0.11))):
        restricted = dicke.T @ ham @ dicke
        assert np.allclose(restricted, np.diag(checks.sector_energies(family, n, 0.37, 0.11)))


def test_class_projection_matches_commutant_distance():
    rho = swapnet.make_initial_state(swapnet.StateSpec(kind="haar_random_pure", seed=3), 4)
    assert np.isclose(checks.class_projection_distance(rho), swapnet.commutant_distance(rho))
    assert len(checks.ising_class_phases(4, 0.3, 0.1)) == 35


class SmallClean(workloads.LargeClean):
    N = 4
    STEPS = 5


@pytest.mark.parametrize("job", SmallClean.jobs)
def test_large_clean_check_catches_a_wrong_step_count(job):
    wl = SmallClean()
    inputs = wl.setup(seed=2, job=job)
    traj, errors = wl.run(inputs)
    assert errors == [] and wl.check(inputs, traj) == []
    traj.final_state = swapnet.apply_channel(inputs[0].channel, traj.final_state)
    problems = wl.check(inputs, traj)
    assert any("sector coherence" in p for p in problems)
    assert (job == "ising") == any("class sum" in p for p in problems)


class SmallAttractor(workloads.Attractor):
    N = 3
    STEPS = 3


def test_attractor_check_catches_a_rotated_eigenphase():
    wl = SmallAttractor()
    inputs = wl.setup(seed=4)
    outputs, _ = wl.run(inputs)
    assert wl.check(inputs, outputs) == []
    ising = outputs[0]["spectrum"]
    ising.eigenvalues = ising.eigenvalues.copy()
    ising.eigenvalues[-1] *= np.exp(0.01j)
    assert any("eigenphase" in p for p in wl.check(inputs, outputs))


def test_a_raising_operation_is_counted_and_not_checked():
    wl = SmallAttractor()
    models, rho0 = wl.setup(seed=4)
    outputs, errors = wl.run((models, rho0[:-1, :-1]))
    assert outputs == [None, None] and len(errors) == 2
    assert wl.check((models, rho0), outputs) == []


def test_disorder_check_catches_a_negative_rate():
    wl = workloads.DisorderScan()
    result = swapnet.noise.LifetimeScanResult(
        epsilons=np.array(wl.EPSILONS), rates=[[1e-4, -2e-5, 1e-4], [4e-4, 5e-4, 3e-4]],
        mean_rates=np.array([6e-5, 4e-4]), fit_failures=[0, 0],
        loglog_slope=None, loglog_stderr=None)
    problems = wl.check(wl.setup(seed=1), result)
    assert problems and all("not positive" in p for p in problems)


@pytest.fixture()
def fig3_run(tmp_path):
    wl = workloads.PaperPresets(tmp_path)
    wl.LENGTHS = {"fig3": (767, 512)}
    inputs = wl.setup(seed=1)
    wl.run(inputs)
    return wl, inputs[0]


def test_preset_check_catches_shifted_peak_and_drift(fig3_run):
    wl, cfg = fig3_run
    assert wl.check_one(cfg) == []
    out = Path(cfg.output_dir)

    rows = (out / "spectrum.csv").read_text().splitlines()
    peak = next(i for i, r in enumerate(rows[1:], 1) if r.endswith(",1"))
    flipped = [r[:-2] + (",0" if i == peak else ",1" if i == peak + 3 else r[-2:])
               for i, r in enumerate(rows) if i > 0]
    (out / "spectrum.csv").write_text("\n".join([rows[0]] + flipped) + "\n")
    assert any("bins from" in p for p in wl.check_one(cfg))

    wl.run([cfg])
    series = (out / "series.csv").read_text().splitlines()
    last = max(i for i, row in enumerate(series) if row.split(",")[1] == "0")
    cells = series[last].split(",")
    cells[7] = repr(float(cells[7]) + 1e-6)
    series[last] = ",".join(cells)
    (out / "series.csv").write_text("\n".join(series) + "\n")
    assert any("magnetisation drifts" in p for p in wl.check_one(cfg))


def test_fig6_prediction_follows_the_recorded_draws(tmp_path):
    wl = workloads.PaperPresets(tmp_path)
    cfg = replace(swapnet.load_preset("fig6", seed=7), steps=300, burn_in=40)
    manifest = swapnet.run_experiment(cfg, out_dir=tmp_path / "fig6").to_dict()
    disordered = wl.predicted_frequencies(cfg, json.loads(json.dumps(manifest)))
    clean = wl.predicted_frequencies(replace(cfg, disorder=None), manifest)
    assert np.isclose(clean[0], 0.4)
    assert abs(disordered[0] - clean[0]) > 2 * np.pi / 256

