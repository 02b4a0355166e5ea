import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from swapnet.analysis import loschmidt_echo
from swapnet.channel import build_channel, iterate_channel
from swapnet.core import (
    HamiltonianSpec,
    PAULI_X,
    build_hamiltonian,
    build_network_hamiltonian,
    pair_list,
    swap_permutation,
)
from swapnet.symmetry import (
    CONDITION_TOL,
    DynamicalSymmetry,
    SymmetricSectorBasis,
    clean_tc_state,
    find_dynamical_symmetries,
    predict_observable_series,
    symmetric_sector_basis,
    symmetric_subspace,
    verify_dynamical_symmetry,
)

# sigma_x on site 0 of three qubits (site 0 is the most significant bit)
X0 = np.kron(PAULI_X, np.eye(4))
XX3 = build_hamiltonian(HamiltonianSpec(family="xx", n=3, j_x=0.4, h=0.1))
XX6 = build_hamiltonian(HamiltonianSpec(family="xx", n=6, j_x=0.4, h=0.1))


class TestSymmetricSubspace:
    def test_dimensions(self):
        assert symmetric_subspace(2).shape == (4, 3)
        assert symmetric_subspace(6).shape == (64, 7)

    def test_orthonormal_columns(self):
        for n in (2, 3, 6):
            b = symmetric_subspace(n)
            assert np.allclose(b.conj().T @ b, np.eye(n + 1), atol=1e-12)

    def test_occupation_structure(self):
        b = symmetric_subspace(2)
        assert np.allclose(b[:, 0], [1, 0, 0, 0])
        assert np.allclose(b[:, 1], [0, 1, 1, 0] / np.sqrt(2))
        assert np.allclose(b[:, 2], [0, 0, 0, 1])


class TestSectorBasis:
    def test_sector_energies_in_full_spectrum(self):
        for h in (XX3, XX6,
                  build_hamiltonian(HamiltonianSpec(family="tfi", n=3, j_z=0.4, t=0.1)),
                  build_hamiltonian(HamiltonianSpec(family="xyz", n=3, j_x=0.1,
                                                    j_y=0.2, j_z=0.3, h=0.1))):
            sector = symmetric_sector_basis(h)
            full = np.linalg.eigvalsh(h)
            assert sector.dimension == sector.n + 1
            assert sector.block_residual <= 1e-10
            for k, e in enumerate(sector.energies):
                assert abs(full[sector.full_indices[k]] - e) <= 1e-8

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("family, couplings", [("ising", dict(j_z=0.4, h=0.1)),
                                                   ("xx", dict(j_x=0.4, h=0.1)),
                                                   ("tfi", dict(j_z=0.4, t=0.1))])
    def test_full_indices_match_full_spectrum_matching(self, n, family, couplings):
        # the per-sector spectra, merged, place every sector energy where the
        # full eigvalsh spectrum does
        h = build_hamiltonian(HamiltonianSpec(family=family, n=n, **couplings))
        sector = symmetric_sector_basis(h)
        full = np.linalg.eigvalsh(h)
        taken = np.zeros(len(full), dtype=bool)
        expected = []
        for e in sector.energies:
            k = np.nonzero((np.abs(full - e) <= 1e-8) & ~taken)[0][0]
            taken[k] = True
            expected.append(k)
        assert np.array_equal(sector.full_indices, expected)

    def test_vectors_are_full_eigenvectors(self):
        sector = symmetric_sector_basis(XX3)
        for k in range(sector.dimension):
            v = sector.vectors[:, k]
            assert np.linalg.norm(XX3 @ v - sector.energies[k] * v) <= 1e-10

    def test_two_qubit_xx_indices(self):
        # full spectrum [-0.8, -0.2, 0.2, 0.8]; the singlet at index 0 is
        # antisymmetric, everything else is in the sector
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=2, j_x=0.4, h=0.1))
        sector = symmetric_sector_basis(h)
        assert np.allclose(sector.energies, [-0.2, 0.2, 0.8])
        assert np.array_equal(sector.full_indices, [1, 2, 3])
        assert sector.sector_index_for_full(3) == 2
        with pytest.raises(KeyError):
            sector.sector_index_for_full(0)

    def test_pair_from_full_roundtrip(self):
        sector = symmetric_sector_basis(XX6)
        a, b = sector.pair_from_full(62, 63)
        assert sector.full_indices[a] == 62
        assert sector.full_indices[b] == 63

    def test_rejects_sector_breaking_hamiltonian(self):
        h = build_network_hamiltonian(3, jz=0.4, hz=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            symmetric_sector_basis(h)


class TestDynamicalSymmetries:
    def test_count_and_residuals(self):
        for n, h in ((2, build_hamiltonian(HamiltonianSpec(family="xx", n=2,
                                                           j_x=0.4, h=0.1))),
                     (3, XX3)):
            syms = find_dynamical_symmetries(h)
            assert len(syms) == (n + 1) * n
            for sym in syms:
                assert sym.residual_h <= 1e-10
                assert sym.residual_swap <= 1e-10
                assert sym.degenerate == (abs(sym.omega) < 1e-9)

    def test_commutator_residual_matches_dense_formula(self):
        for h in (XX3, build_hamiltonian(HamiltonianSpec(family="tfi", n=4, j_z=0.4, t=0.2))):
            sector = symmetric_sector_basis(h)
            vecs, energies = sector.vectors, sector.energies
            h_left = h @ vecs - vecs * energies
            h_right = vecs.conj().T @ h - energies[:, None] * vecs.conj().T
            for sym in find_dynamical_symmetries(h, sector):
                op = sym.operator
                dense = float(np.max(np.abs(h @ op - op @ h - sym.omega * op)))
                assert abs(sym.residual_h - dense) <= 1e-14
                # the per-vector bound is never below the rank-one residual
                rank_one = np.max(np.abs(np.outer(h_left[:, sym.a], vecs[:, sym.b].conj())
                                         - np.outer(vecs[:, sym.a], h_right[sym.b])))
                assert rank_one <= sym.residual_h

    def test_rejects_vectors_that_are_not_eigenvectors(self):
        # the sector of another Hamiltonian gives pairs with a large commutator
        other = build_hamiltonian(HamiltonianSpec(family="tfi", n=3, j_z=0.4, t=0.2))
        with pytest.raises(ValueError, match="commutator"):
            find_dynamical_symmetries(XX3, symmetric_sector_basis(other))

    def test_rejects_vectors_that_are_not_swap_invariant(self):
        # basis states 1 and 3 are eigenvectors of a diagonal H but change
        # under swaps; the commutator residual stays zero
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=3, j_z=0.4, h=0.1))
        picked = [0, 1, 3, 7]
        sector = SymmetricSectorBasis(
            n=3, basis=np.eye(8, dtype=complex)[:, picked],
            energies=np.diag(h).real[picked], vectors=np.eye(8, dtype=complex)[:, picked],
            full_indices=np.arange(4), block_residual=0.0)
        with pytest.raises(ValueError, match=r"commutator 0\.000e\+00, swap"):
            find_dynamical_symmetries(h, sector)

    def test_swap_residual_bounds_dense_commutator(self):
        h = build_hamiltonian(HamiltonianSpec(family="tfi", n=4, j_z=0.4, t=0.2))
        sector = symmetric_sector_basis(h)
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(sector.vectors.shape) + 1j * rng.standard_normal(
            sector.vectors.shape)
        sector = replace(sector, vectors=sector.vectors + 1e-12 * noise)
        perms = [swap_permutation(4, m, n) for m, n in pair_list(4)]
        for sym in find_dynamical_symmetries(h, sector):
            op = sym.operator
            dense = max(float(np.max(np.abs(op[p, :] - op[:, p]))) for p in perms)
            assert 0.0 < dense <= sym.residual_swap <= CONDITION_TOL

    def test_search_memory_stays_below_four_dense_operators(self):
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=8, j_x=0.4, h=0.1))
        sector = symmetric_sector_basis(h)
        tracemalloc.start()
        try:
            syms = find_dynamical_symmetries(h, sector)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(syms) == 9 * 8
        assert peak < 4 * h.nbytes

    def test_channel_eigenoperator_property(self):
        for fam, kw in [("tfi", dict(j_z=0.4, t=0.1)),
                        ("xx", dict(j_x=0.4, h=0.1)),
                        ("xyz", dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1))]:
            for n in (2, 3):
                h = build_hamiltonian(HamiltonianSpec(family=fam, n=n, **kw))
                ch = build_channel(h)
                for sym in find_dynamical_symmetries(h):
                    assert verify_dynamical_symmetry(ch, sym) <= 1e-10

    def test_known_pair_frequencies(self):
        # largest-gap sector pairs at six qubits
        sector = symmetric_sector_basis(XX6)
        a, b = sector.pair_from_full(62, 63)
        omega = abs(sector.energies[a] - sector.energies[b])
        assert np.isclose(omega, 0.6, atol=1e-9)

        tfi = build_hamiltonian(HamiltonianSpec(family="tfi", n=6, j_z=0.4, t=0.1))
        sec_tfi = symmetric_sector_basis(tfi)
        a, b = sec_tfi.pair_from_full(0, 49)
        assert np.isclose(abs(sec_tfi.energies[a] - sec_tfi.energies[b]),
                          1.233434, atol=1e-5)

        xyz = build_hamiltonian(HamiltonianSpec(family="xyz", n=6, j_x=0.1,
                                                j_y=0.2, j_z=0.3, h=0.1))
        sec_xyz = symmetric_sector_basis(xyz)
        a, b = sec_xyz.pair_from_full(61, 62)
        assert np.isclose(abs(sec_xyz.energies[a] - sec_xyz.energies[b]),
                          0.379735, atol=1e-5)


class TestCleanState:
    def test_pure_and_sector_supported(self):
        sector = symmetric_sector_basis(XX3)
        rho = clean_tc_state(sector, 0, 3)
        assert np.isclose(loschmidt_echo(rho, rho), 1.0, atol=1e-12)
        proj = sector.basis @ sector.basis.conj().T
        assert np.allclose(proj @ rho @ proj, rho, atol=1e-12)

    def test_validation(self):
        sector = symmetric_sector_basis(XX3)
        with pytest.raises(ValueError):
            clean_tc_state(sector, 1, 1)
        with pytest.raises(ValueError):
            clean_tc_state(sector, 0, 4)


class TestPrediction:
    def test_matches_simulation_for_sector_state(self):
        sector = symmetric_sector_basis(XX3)
        syms = find_dynamical_symmetries(XX3, sector)
        rho0 = clean_tc_state(sector, 1, 3)
        obs = X0

        ch = build_channel(XX3)
        traj = iterate_channel(ch, rho0, 200, record=("sx",), sites=(0,))
        pred = predict_observable_series(rho0, syms, obs, np.arange(201))
        assert np.max(np.abs(pred - traj.records["sx"][:, 0])) <= 1e-8

    def test_w_state_is_sector_supported(self):
        from swapnet.core import StateSpec, make_initial_state
        rho0 = make_initial_state(StateSpec(kind="w_plus_superposition"), 3)
        sector = symmetric_sector_basis(XX3)
        syms = find_dynamical_symmetries(XX3, sector)
        obs = X0
        ch = build_channel(XX3)
        traj = iterate_channel(ch, rho0, 150, record=("sx",), sites=(0,))
        pred = predict_observable_series(rho0, syms, obs, np.arange(151))
        assert np.max(np.abs(pred - traj.records["sx"][:, 0])) <= 1e-8

    def test_maximally_mixed_is_flat(self):
        sector = symmetric_sector_basis(XX3)
        syms = find_dynamical_symmetries(XX3, sector)
        obs = X0
        rho = np.eye(8, dtype=complex) / 8
        # every R_ab = <E_a|I/8|E_b> vanishes, so nothing oscillates
        series = predict_observable_series(rho, syms, obs, np.arange(50))
        assert np.allclose(series, series[0], atol=1e-12)

    def test_needs_symmetries(self):
        with pytest.raises(ValueError):
            predict_observable_series(np.eye(8, dtype=complex) / 8, [],
                                      X0, np.arange(5))

    def test_fake_symmetry_rejected_by_channel(self):
        # |000><001| is neither swap-invariant nor an eigenoperator at this
        # omega; the residual is order one
        basis = np.eye(8, dtype=complex)
        fake = DynamicalSymmetry(omega=0.3, a=0, b=1,
                                 vec_a=basis[0], vec_b=basis[1], hamiltonian=XX3,
                                 residual_h=0.0, residual_swap=0.0,
                                 degenerate=False)
        ch = build_channel(XX3)
        assert verify_dynamical_symmetry(ch, fake) > 0.01
