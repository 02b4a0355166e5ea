import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from swapnet.attractor import (
    _from_class_coordinates,
    asymptotic_state,
    class_labels,
    commutant_distance,
    enumerate_classes,
    general_attractor_spectrum,
    ising_attractor_spectrum,
    ising_energy,
    reduce_gamma,
    single_site_frequencies,
)
from swapnet.channel import ChannelSpec, apply_channel, build_channel, iterate_channel
from swapnet.core import (
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    magnetization_values,
    make_initial_state,
)


def partial_trace(rho: np.ndarray, drop) -> np.ndarray:
    """Trace out the sites in `drop`, keeping the rest in site order."""
    n_sites = int(rho.shape[0]).bit_length() - 1
    tensor = np.asarray(rho).reshape((2,) * (2 * n_sites))
    remaining = n_sites
    for s in sorted(set(drop), reverse=True):
        tensor = np.trace(tensor, axis1=s, axis2=s + remaining)
        remaining -= 1
    return tensor.reshape(2**remaining, 2**remaining)


def find_class(n, tup):
    """The row of enumerate_classes(n) that holds the counts tup."""
    (k,) = np.flatnonzero((enumerate_classes(n) == tup).all(axis=1))
    return k


def gamma_stack(n):
    """(K, dim, dim) stack of every Gamma, as the label gather builds it."""
    return _from_class_coordinates(np.eye(len(enumerate_classes(n)), dtype=complex), n)


def combination_entries(beta):
    """(rows, cols) of the class's entries by enumerating site arrangements."""
    b00, b01, b10, b11 = beta
    n = b00 + b01 + b10 + b11
    sites = tuple(range(n))
    weights = [1 << (n - 1 - s) for s in sites]
    rows, cols = [], []
    for pos01 in combinations(sites, b01):
        rem1 = tuple(s for s in sites if s not in pos01)
        for pos10 in combinations(rem1, b10):
            rem2 = tuple(s for s in rem1 if s not in pos10)
            for pos11 in combinations(rem2, b11):
                rows.append(sum(weights[s] for s in pos10 + pos11))
                cols.append(sum(weights[s] for s in pos01 + pos11))
    return np.asarray(rows), np.asarray(cols)


def dense_gamma_stack(n):
    classes = enumerate_classes(n)
    stack = np.zeros((len(classes), 2**n, 2**n), dtype=complex)
    for k, beta in enumerate(classes):
        rows, cols = combination_entries(beta)
        stack[k, rows, cols] = 1.0 / np.sqrt(len(rows))
    return stack


def dense_stack_spectrum(h):
    """(eigenvalues, eigen-operators) from the dense Gamma stack."""
    gammas = dense_gamma_stack(int(np.log2(h.shape[0])))
    evals, vecs = np.linalg.eigh(h)
    u0 = (vecs * np.exp(1j * evals)) @ vecs.conj().T
    mat = np.tensordot(gammas.conj(), u0 @ gammas @ u0.conj().T, axes=([1, 2], [1, 2]))
    w, v = np.linalg.eig(mat)
    # mat is normal, so one QR over all eigenvectors in phase order
    # orthonormalizes every degenerate cluster, one across +-pi included
    order = np.argsort(np.angle(w), kind="stable")
    w, v = w[order], np.linalg.qr(v[:, order])[0]
    return w, np.tensordot(v.T, gammas, axes=(1, 0))


def match_multisets(a, b, tol):
    """Greedy nearest matching of two complex multisets."""
    b = list(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


class TestClassIndex:
    def test_counts(self):
        for n, expected in ((1, 4), (2, 10), (3, 20), (6, 84), (9, 220)):
            classes = enumerate_classes(n)
            assert len(classes) == expected
            assert len(classes) == comb(n + 3, 3)

    def test_count_table(self):
        for n in range(1, 11):
            expected = [(b00, b01, b10, b11) for b00 in range(n + 1)
                        for b01 in range(n + 1) for b10 in range(n + 1)
                        for b11 in range(n + 1) if b00 + b01 + b10 + b11 == n]
            table = enumerate_classes(n)
            assert table.dtype == np.intp
            assert np.array_equal(table, expected)
            assert enumerate_classes(n) is table
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_classes_partition_all_entries(self):
        for n in (2, 3):
            total = sum(len(combination_entries(beta)[0]) for beta in enumerate_classes(n))
            assert total == 4**n

    def test_arrangements(self):
        for n, tup, count in ((3, (3, 0, 0, 0), 1), (3, (1, 1, 1, 0), 6),
                              (3, (1, 1, 0, 1), 6), (2, (0, 2, 0, 0), 1)):
            assert class_labels(n)[1][find_class(n, tup)] == count

    def test_magnetizations(self):
        # a row's Ising phase is eps(M_up) - eps(M_low); a pure field gives
        # M_up - M_low and a pure coupling M_up^2 - M_low^2, so the two
        # together pin both magnetizations
        for tup, m_up, m_low in (((2, 1, 0, 0), 3, 1), ((0, 1, 0, 2), -1, -3)):
            for j_z, h in ((0.0, 0.3), (0.1, 0.0)):
                phase = ising_energy(m_up, 3, j_z, h) - ising_energy(m_low, 3, j_z, h)
                w = ising_attractor_spectrum(3, j_z, h).eigenvalues[find_class(3, tup)]
                assert np.isclose(w, np.exp(1j * phase), atol=1e-12)

    def test_negative_counts_rejected(self):
        for beta in ((-1, 2, 0, 0), (1, 1, 1), (1, 1, 1, 0, 0)):
            with pytest.raises(ValueError):
                reduce_gamma(beta)


class TestClassLabels:
    def test_matches_combination_enumeration(self):
        for n in range(1, 6):
            labels, sizes = class_labels(n)
            classes = enumerate_classes(n)
            assert labels.shape == (2**n, 2**n)
            expected = np.full((2**n, 2**n), -1)
            for k, beta in enumerate(classes):
                rows, cols = combination_entries(beta)
                assert np.all(expected[rows, cols] == -1)
                expected[rows, cols] = k
                assert sizes[k] == len(rows)
            assert np.array_equal(labels, expected)

    def test_cached_and_read_only(self):
        labels, sizes = class_labels(3)
        assert class_labels(3)[0] is labels
        with pytest.raises(ValueError):
            labels[0, 0] = 1
        with pytest.raises(ValueError):
            sizes[0] = 1


class TestGammaBasis:
    def test_all_zero_class_is_ground_projector(self):
        for n in (2, 3):
            mat = gamma_stack(n)[find_class(n, (n, 0, 0, 0))]
            expected = np.zeros((2**n, 2**n), dtype=complex)
            expected[0, 0] = 1.0
            assert np.array_equal(mat, expected)

    def test_explicit_two_qubit_element(self):
        mat = gamma_stack(2)[find_class(2, (1, 1, 0, 0))]
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[0, 2] = 1 / np.sqrt(2)
        assert np.allclose(mat, expected)

    def test_orthonormal(self):
        for n in (2, 3):
            stack = gamma_stack(n)
            gram = np.einsum("aij,bij->ab", stack.conj(), stack)
            assert np.max(np.abs(gram - np.eye(len(stack)))) <= 1e-10

    def test_reduction_matches_dense_partial_trace(self):
        # tracing any site maps a class operator to a 2-term combination
        gammas, smaller_gammas = gamma_stack(3), gamma_stack(2)
        for gamma, beta in zip(gammas, enumerate_classes(3)):
            dense = partial_trace(gamma, [0])
            combo = np.zeros((4, 4), dtype=complex)
            for w, smaller in reduce_gamma(beta):
                combo += w * smaller_gammas[find_class(2, smaller)]
            assert np.allclose(dense, combo, atol=1e-12)
            assert np.allclose(dense, partial_trace(gamma, [2]), atol=1e-12)

    def test_reduction_empty_for_offdiagonal_columns(self):
        assert reduce_gamma((0, 2, 1, 0)) == []
        with pytest.raises(ValueError):
            reduce_gamma((0, 1, 0, 0))


class TestIsingSpectrum:
    def test_energy_matches_diagonal(self):
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=3, j_z=0.4, h=0.1))
        diag = np.diag(h).real
        for idx, m in enumerate(magnetization_values(3)):
            assert np.isclose(ising_energy(m, 3, 0.4, 0.1), diag[idx])

    def test_hand_computed_phases(self):
        spec = ising_attractor_spectrum(3, 0.4, 0.1)
        cases = {(2, 1, 0, 0): 1.8, (1, 1, 0, 1): 0.2, (0, 1, 0, 2): -1.4}
        for k, beta in enumerate(enumerate_classes(3).tolist()):
            if tuple(beta) in cases:
                expected = np.exp(1j * cases[tuple(beta)])
                assert np.isclose(spec.eigenvalues[k], expected, atol=1e-12)

    def test_stationary_classes(self):
        spec = ising_attractor_spectrum(3, 0.4, 0.1)
        n_stationary = 0
        for k, (b00, b01, b10, b11) in enumerate(enumerate_classes(3)):
            if b00 + b01 - b10 - b11 == b00 + b10 - b01 - b11:    # M_up == M_low
                assert spec.eigenvalues[k] == 1.0
                n_stationary += 1
        # b01 == b10 classes: 4 with b01=b10=0, 2 with b01=b10=1
        assert n_stationary == 6
        stationary = np.isclose(spec.eigenvalues, 1.0)
        assert np.all(spec.degeneracies[stationary] == 6)


class TestGeneralSpectrum:
    def test_matches_ising_analytic(self):
        for n in (2, 3):
            h = build_hamiltonian(HamiltonianSpec(family="ising", n=n, j_z=0.4, h=0.1))
            analytic = ising_attractor_spectrum(n, 0.4, 0.1)
            numeric = general_attractor_spectrum(h)
            assert len(numeric) == len(analytic)
            assert match_multisets(analytic.eigenvalues, numeric.eigenvalues,
                                   1e-10) <= 1e-10

    def test_eigen_operators_satisfy_conjugation(self):
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=3, j_x=0.4, h=0.1))
        spec = general_attractor_spectrum(h)
        evals, vecs = np.linalg.eigh(h)
        u0 = (vecs * np.exp(1j * evals)) @ vecs.conj().T
        for k in range(len(spec)):
            res = np.linalg.norm(u0 @ spec.operators[k] @ u0.conj().T
                                 - spec.eigenvalues[k] * spec.operators[k])
            assert res <= 1e-9

    def test_matches_superoperator_unimodular_set(self):
        from swapnet.channel import channel_superoperator
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=2, j_x=0.4, h=0.1))
        spec = general_attractor_spectrum(h)
        full = np.linalg.eigvals(channel_superoperator(build_channel(h)))
        unimodular = full[np.abs(np.abs(full) - 1.0) <= 1e-8]
        assert len(unimodular) == len(spec)
        assert match_multisets(spec.eigenvalues, unimodular, 1e-8) <= 1e-8

    def test_rejects_nonsymmetric_hamiltonian(self):
        from swapnet.core import build_network_hamiltonian
        # one qubit has no swap, so no channel to take U0 from
        one_qubit = build_hamiltonian(HamiltonianSpec(family="ising", n=1, j_z=0.4, h=0.1))
        for h in (build_network_hamiltonian(3, jz=0.4, hz=[0.1, 0.2, 0.3]), one_qubit):
            with pytest.raises(ValueError):
                general_attractor_spectrum(h)

    @pytest.mark.parametrize("t", [np.pi / 2, np.pi / 2 + 1e-13])
    def test_cluster_across_the_phase_cut(self, t):
        # U0 = -i XXX: conjugation has eigenvalues +-1, and the cluster at -1
        # holds phases on both sides of +-pi.
        h = build_hamiltonian(HamiltonianSpec(family="tfi", n=3, j_z=0.0, t=t))
        spec = general_attractor_spectrum(h)
        at_cut = spec.phases[np.abs(spec.eigenvalues + 1.0) <= 1e-9]
        assert at_cut.min() < 0.0 < at_cut.max()
        near = np.abs(spec.eigenvalues[:, None] - spec.eigenvalues[None, :]) <= 1e-9
        assert np.array_equal(spec.degeneracies, near.sum(axis=1))
        c = spec.coordinates
        assert np.max(np.abs(c @ c.conj().T - np.eye(len(c)))) <= 1e-12
        rho0 = make_initial_state(StateSpec(kind="haar_random_pure", seed=3), 3)
        traj = iterate_channel(build_channel(h), rho0, 400, record=("sx",), sites=(0,))
        assert np.linalg.norm(asymptotic_state(spec, rho0, 400) - traj.final_state) <= 1e-10

    def test_rejects_coordinates_that_are_not_orthonormal(self, monkeypatch):
        # Without re-orthonormalization, eig's vectors for the degenerate
        # clusters at +-1 are not orthonormal.
        h = build_hamiltonian(HamiltonianSpec(family="tfi", n=3, j_z=0.0, t=np.pi / 2))
        monkeypatch.setattr(np.linalg, "qr", lambda a: (a, None))
        with pytest.raises(ValueError, match="not orthonormal"):
            general_attractor_spectrum(h)


class TestDenseStackAgreement:
    """The label routes against the dense Gamma-stack formulas."""

    HAMILTONIANS = (("ising", dict(j_z=0.4, h=0.1)), ("xx", dict(j_x=0.37, h=0.13)),
                    ("tfi", dict(j_z=0.4, t=0.21)))
    # U0 = -i XXX: a degenerate cluster at -1 straddles the +-pi cut
    CUT_CASE = (3, "tfi", dict(j_z=0.0, t=np.pi / 2))

    def test_spectrum_and_late_time_states(self):
        cases = [(n, family, kw) for n in (2, 3, 4) for family, kw in self.HAMILTONIANS]
        for n, family, kw in cases + [self.CUT_CASE]:
            rho0 = make_initial_state(StateSpec(kind="haar_random_pure", seed=40 + n), n)
            h = build_hamiltonian(HamiltonianSpec(family=family, n=n, **kw))
            spec = general_attractor_spectrum(h)
            w, ops = dense_stack_spectrum(h)
            assert match_multisets(w, spec.eigenvalues, 1e-12) <= 1e-12
            coeffs = np.einsum("kij,ij->k", ops.conj(), rho0)
            for steps in (0, 1, 100):
                dense = np.tensordot(np.exp(1j * np.angle(w) * steps) * coeffs,
                                     ops, axes=(0, 0))
                assert np.linalg.norm(asymptotic_state(spec, rho0, steps)
                                      - dense) <= 1e-12

    def test_commutant_distance(self):
        for n in (2, 3, 4):
            gammas = dense_gamma_stack(n)
            for seed in (1, 2):
                rho = make_initial_state(StateSpec(kind="haar_random_pure", seed=seed), n)
                proj = np.tensordot(np.einsum("kij,ij->k", gammas.conj(), rho), gammas,
                                    axes=(0, 0))
                assert abs(commutant_distance(rho) - np.linalg.norm(rho - proj)) <= 1e-12

    def test_predicted_state_lies_in_the_span(self):
        for n in (3, 4, 5):
            h = build_hamiltonian(HamiltonianSpec(family="xx", n=n, j_x=0.37, h=0.13))
            rho0 = make_initial_state(StateSpec(kind="haar_random_pure", seed=n), n)
            late = asymptotic_state(general_attractor_spectrum(h), rho0, 1000)
            assert commutant_distance(late) <= 1e-14

    def test_memory_stays_below_one_gamma_stack(self):
        n = 7
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=n, j_x=0.37, h=0.13))
        rho0 = make_initial_state(StateSpec(kind="haar_random_pure", seed=7), n)
        stack_bytes = comb(n + 3, 3) * 4**n * 16
        tracemalloc.start()
        try:
            asymptotic_state(general_attractor_spectrum(h), rho0, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 4


class TestAsymptotics:
    def test_maximally_mixed_is_stationary(self):
        spec = ising_attractor_spectrum(2, 0.4, 0.1)
        rho = np.eye(4, dtype=complex) / 4
        assert np.allclose(asymptotic_state(spec, rho, 0), rho, atol=1e-12)
        assert np.allclose(asymptotic_state(spec, rho, 137), rho, atol=1e-12)

    def test_expansion_reproduces_projection(self):
        spec = ising_attractor_spectrum(3, 0.4, 0.1)
        rho = make_initial_state(StateSpec(kind="plus_zero_product"), 3)
        proj = asymptotic_state(spec, rho, 0)
        # projection is idempotent: expanding again changes nothing
        assert np.allclose(asymptotic_state(spec, proj, 0), proj, atol=1e-12)

    def test_direct_iteration_converges_to_asymptotic_form(self):
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=2, j_z=0.4, h=0.1))
        spec = ising_attractor_spectrum(2, 0.4, 0.1)
        ch = build_channel(h)
        rho = make_initial_state(StateSpec(kind="plus_zero_product"), 2)
        state = rho.copy()
        dist_early = None
        for n in range(1, 801):
            state = apply_channel(ch, state)
            if n == 1:
                dist_early = np.linalg.norm(state - asymptotic_state(spec, rho, n))
        dist_late = np.linalg.norm(state - asymptotic_state(spec, rho, 800))
        assert dist_early > 0.05
        assert dist_late < 1e-10

    def test_commutant_distance_decays(self):
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=3, j_z=0.4, h=0.1))
        ch = build_channel(h)
        rho = make_initial_state(StateSpec(kind="haar_random_pure", seed=23), 3)
        d0 = commutant_distance(rho)
        state = rho
        for _ in range(600):
            state = apply_channel(ch, state)
        d_late = commutant_distance(state)
        assert d0 > 0.1
        assert d_late < 0.1 * d0


class TestSingleSiteFrequencies:
    def test_three_qubits(self):
        freqs = single_site_frequencies(3, 0.4, 0.1)
        assert np.allclose(freqs, [-1.4, 0.2, 1.8])

    def test_two_qubits(self):
        assert np.allclose(single_site_frequencies(2, 0.4, 0.1), [-0.6, 1.0])

    def test_zero_coupling_collapses(self):
        freqs = single_site_frequencies(3, 0.0, 0.1)
        assert np.allclose(freqs, [0.2])
