import numpy as np
import pytest

from swapnet.analysis import loschmidt_echo
from swapnet.core import (
    DimensionCapError,
    HamiltonianSpec,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateSpec,
    _sector_component,
    build_hamiltonian,
    build_network_hamiltonian,
    charge_sectors,
    check_qubit_count,
    entropy_from_eigenvalues,
    magnetization_values,
    make_initial_state,
    pair_list,
    popcounts,
    single_site_expectations,
    swap_commutation_residual,
    swap_permutation,
    total_magnetization_expectation,
    validate_density_matrix,
)
from swapnet.noise import DisorderSpec, build_disordered_hamiltonian


def build_swap_operator(m: int, n: int, n_sites: int) -> np.ndarray:
    """Swap unitary SW_mn exchanging sites m and n (a basis permutation)."""
    perm = swap_permutation(n_sites, m, n)
    sw = np.zeros((perm.size, perm.size), dtype=complex)
    sw[perm, np.arange(perm.size)] = 1.0
    return sw


def partial_trace(rho: np.ndarray, drop) -> np.ndarray:
    """Trace out the sites in `drop`, keeping the rest in site order."""
    n_sites = int(rho.shape[0]).bit_length() - 1
    tensor = np.asarray(rho).reshape((2,) * (2 * n_sites))
    remaining = n_sites
    for s in sorted(set(drop), reverse=True):
        tensor = np.trace(tensor, axis1=s, axis2=s + remaining)
        remaining -= 1
    return tensor.reshape(2**remaining, 2**remaining)


def kron_all(factors) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def local_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at the given site (identity elsewhere)."""
    factors = [np.eye(2)] * n_sites
    factors[site] = op
    return kron_all(factors)


def two_site_operator(op_a: np.ndarray, op_b: np.ndarray, m: int, n: int,
                      n_sites: int) -> np.ndarray:
    if m == n:
        raise ValueError("two_site_operator needs distinct sites")
    factors = [np.eye(2)] * n_sites
    factors[m] = op_a
    factors[n] = op_b
    return kron_all(factors)

class TestHamiltonians:
    def test_ising_two_qubits_diagonal(self):
        # J_z z1 z2 + h (z1 + z2) on |00>,|01>,|10>,|11>
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=2, j_z=0.4, h=0.1))
        assert np.allclose(h, np.diag([0.6, -0.4, -0.4, 0.2]))

    def test_tfi_two_qubits(self):
        h = build_hamiltonian(HamiltonianSpec(family="tfi", n=2, j_z=0.4, t=0.1))
        expected = np.array([
            [0.4, 0.1, 0.1, 0.0],
            [0.1, -0.4, 0.0, 0.1],
            [0.1, 0.0, -0.4, 0.1],
            [0.0, 0.1, 0.1, 0.4],
        ])
        assert np.allclose(h, expected)

    def test_xx_two_qubits(self):
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=2, j_x=0.4, h=0.1))
        expected = np.diag([0.2, 0.0, 0.0, -0.2]).astype(complex)
        expected[1, 2] = expected[2, 1] = 0.8    # J(xx + yy) flip-flop
        assert np.allclose(h, expected)

    def test_xyz_two_qubits(self):
        h = build_hamiltonian(HamiltonianSpec(
            family="xyz", n=2, j_x=0.1, j_y=0.2, j_z=0.3, h=0.1))
        expected = np.array([
            [0.5, 0.0, 0.0, -0.1],
            [0.0, -0.3, 0.3, 0.0],
            [0.0, 0.3, -0.3, 0.0],
            [-0.1, 0.0, 0.0, 0.1],
        ])
        assert np.allclose(h, expected)

    def test_xx_family_fills_jy(self):
        spec = HamiltonianSpec(family="xx", n=3, j_x=0.4, h=0.1)
        assert spec.j_y == 0.4
        with pytest.raises(ValueError):
            HamiltonianSpec(family="xx", n=3, j_x=0.4, j_y=0.3)

    def test_inactive_couplings_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(family="ising", n=3, j_z=0.4, t=0.5)
        with pytest.raises(ValueError):
            HamiltonianSpec(family="tfi", n=3, j_z=0.4, h=0.1)
        with pytest.raises(ValueError, match="j_z is not active"):
            HamiltonianSpec(family="xx", n=3, j_x=0.4, j_z=0.2)
        with pytest.raises(ValueError):
            HamiltonianSpec(family="bogus", n=3)

    def test_hermitian_all_families(self):
        for fam, kw in [("ising", dict(j_z=0.4, h=0.1)),
                        ("tfi", dict(j_z=0.4, t=0.1)),
                        ("xx", dict(j_x=0.4, h=0.1)),
                        ("xyz", dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1)),
                        ("general", dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1, t=0.2))]:
            h = build_hamiltonian(HamiltonianSpec(family=fam, n=3, **kw))
            assert np.allclose(h, h.conj().T)

    def test_two_site_operator_matches_kron(self):
        assert np.allclose(two_site_operator(PAULI_X, PAULI_X, 0, 1, 2),
                           np.kron(PAULI_X, PAULI_X))
        assert np.allclose(two_site_operator(PAULI_Z, PAULI_Z, 0, 2, 3),
                           kron_all([PAULI_Z, np.eye(2), PAULI_Z]))

    def test_per_site_field_array(self):
        hz = np.array([0.1, 0.2])
        h = build_network_hamiltonian(2, hz=hz)
        z0 = local_operator(PAULI_Z, 0, 2)
        z1 = local_operator(PAULI_Z, 1, 2)
        assert np.allclose(h, 0.1 * z0 + 0.2 * z1)

    @pytest.mark.parametrize("family", ["ising", "tfi", "xx", "xyz", "general"])
    def test_matches_kron_chain_sum(self, family):
        # the bit-operation build against the kron-chain sum it replaced,
        # terms added in the same order
        active = {"ising": ("jz", "hz"), "tfi": ("jz", "hx"), "xx": ("jx", "jy", "hz"),
                  "xyz": ("jx", "jy", "jz", "hz"),
                  "general": ("jx", "jy", "jz", "hz", "hx")}[family]
        rng = np.random.default_rng(7)
        for n_sites in range(2, 7):
            n_pairs = n_sites * (n_sites - 1) // 2
            coeffs = {name: rng.uniform(-1, 1, n_pairs if name[0] == "j" else n_sites)
                      for name in active}
            if family == "xx":
                coeffs["jy"] = coeffs["jx"]
            coeffs[active[0]][0] = 0.0
            full = {name: coeffs.get(name, np.zeros(n_pairs if name[0] == "j" else n_sites))
                    for name in ("jx", "jy", "jz", "hz", "hx")}
            dim = 2**n_sites
            expected = np.zeros((dim, dim), dtype=complex)
            for k, (m, n) in enumerate(pair_list(n_sites)):
                for name, op in (("jx", PAULI_X), ("jy", PAULI_Y), ("jz", PAULI_Z)):
                    if full[name][k] != 0.0:
                        expected += full[name][k] * two_site_operator(op, op, m, n, n_sites)
            for m in range(n_sites):
                for name, op in (("hz", PAULI_Z), ("hx", PAULI_X)):
                    if full[name][m] != 0.0:
                        expected += full[name][m] * local_operator(op, m, n_sites)
            assert np.array_equal(build_network_hamiltonian(n_sites, **coeffs), expected)

    def test_per_bond_array_length_checked(self):
        with pytest.raises(ValueError):
            build_network_hamiltonian(3, jz=[0.1, 0.2])

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            check_qubit_count(13)
        with pytest.raises(DimensionCapError):
            HamiltonianSpec(family="ising", n=13, j_z=0.4)


class TestSwapOperators:
    def test_permutation_two_qubits(self):
        assert np.array_equal(swap_permutation(2, 0, 1), [0, 2, 1, 3])

    def test_permutation_outer_pair(self):
        # exchanging MSB and LSB site bits of a 3-bit index
        assert np.array_equal(swap_permutation(3, 0, 2), [0, 4, 2, 6, 1, 5, 3, 7])

    def test_swap_matrix_explicit(self):
        expected = np.array([
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ], dtype=complex)
        assert np.array_equal(build_swap_operator(0, 1, 2), expected)

    def test_swap_involution(self):
        for m, n in pair_list(4):
            sw = build_swap_operator(m, n, 4)
            assert np.allclose(sw @ sw, np.eye(16))

    def test_swap_conjugation_moves_site(self):
        sw = build_swap_operator(0, 2, 3)
        x0 = local_operator(PAULI_X, 0, 3)
        x2 = local_operator(PAULI_X, 2, 3)
        assert np.allclose(sw @ x0 @ sw, x2)

    def test_swap_rejects_bad_sites(self):
        with pytest.raises(ValueError):
            swap_permutation(3, 1, 1)
        with pytest.raises(ValueError):
            swap_permutation(3, 0, 3)


class TestCommutation:
    def test_uniform_families_decouple(self):
        for fam, kw in [("ising", dict(j_z=0.4, h=0.1)),
                        ("tfi", dict(j_z=0.4, t=0.1)),
                        ("xx", dict(j_x=0.4, h=0.1)),
                        ("xyz", dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1))]:
            h = build_hamiltonian(HamiltonianSpec(family=fam, n=4, **kw))
            for m, n in pair_list(4):
                assert swap_commutation_residual(h, m, n) <= 1e-12

    def test_site_dependent_field_breaks_decoupling(self):
        # [SW_mn, sum_i h_i z_i] = (h_m - h_n)(z_n - z_m) SW: max entry 2|dh|
        hz = np.array([0.1, 0.25, 0.4])
        h = build_network_hamiltonian(3, jz=0.4, hz=hz)
        for m, n in pair_list(3):
            residual = swap_commutation_residual(h, m, n)
            assert np.isclose(residual, 2 * abs(hz[m] - hz[n]), atol=1e-12)
            assert residual > 1e-8

    def test_site_dependent_transverse_field(self):
        # off-diagonal x fields contribute |dh| per entry, not 2|dh|
        hx = np.array([0.1, 0.3])
        h = build_network_hamiltonian(2, jz=0.4, hx=hx)
        assert np.isclose(swap_commutation_residual(h, 0, 1),
                          abs(hx[1] - hx[0]), atol=1e-12)

    def test_kappa_scales_residual(self):
        h = build_network_hamiltonian(2, jz=0.4, hz=[0.1, 0.3])
        full = swap_commutation_residual(h, 0, 1, kappa=1.0)
        half = swap_commutation_residual(h, 0, 1, kappa=0.5)
        assert np.isclose(half, 0.5 * full)

    @pytest.mark.parametrize("disordered", [False, True])
    def test_matches_dense_swap_commutator(self, disordered):
        # the permuted-row/column difference holds the same entries as
        # SW H - H SW, so the residual is the same float
        rng = np.random.default_rng(3)
        n_sites = 4
        if disordered:
            h = build_network_hamiltonian(n_sites, jx=rng.uniform(0.1, 0.6, 6),
                                          jy=rng.uniform(0.1, 0.6, 6),
                                          hz=rng.uniform(-1, 1, 4), hx=0.2)
        else:
            h = build_hamiltonian(HamiltonianSpec(family="xyz", n=n_sites, j_x=0.3,
                                                  j_y=0.2, j_z=0.5, h=0.4))
        nonzero = np.nonzero(h)
        for m, n in pair_list(n_sites):
            sw = build_swap_operator(m, n, n_sites)
            for kappa in (0.7, -1.3):
                dense = float(abs(kappa) * np.max(np.abs(sw @ h - h @ sw)))
                assert swap_commutation_residual(h, m, n, kappa=kappa) == dense
                assert swap_commutation_residual(h, m, n, kappa=kappa, nonzero=nonzero) == dense

    def test_zero_hamiltonian(self):
        # no nonzero entry to scan: the residual is 0
        assert swap_commutation_residual(np.zeros((8, 8), dtype=complex), 0, 2) == 0.0


class TestPartialTrace:
    def test_bell_state_reduces_to_mixed(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        for drop in ([0], [1]):
            assert np.allclose(partial_trace(rho, drop), np.eye(2) / 2)

    def test_product_state_factorizes(self):
        rho_a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        rho_b = np.array([[0.4, 0.1j], [-0.1j, 0.6]], dtype=complex)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(rho, [1]), rho_a)
        assert np.allclose(partial_trace(rho, [0]), rho_b)

    def test_multi_site_drop(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        reduced = partial_trace(rho, [0, 2])
        assert reduced.shape == (2, 2)
        assert np.isclose(np.trace(reduced).real, 1.0)
        step = partial_trace(partial_trace(rho, [2]), [0])
        assert np.allclose(reduced, step)

    def test_entropy_values(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        pure = np.outer(psi, psi.conj())
        assert abs(entropy_from_eigenvalues(np.linalg.eigvalsh(pure))) < 1e-12
        assert np.isclose(entropy_from_eigenvalues(np.linalg.eigvalsh(np.eye(2) / 2)), np.log(2))
        assert np.isclose(entropy_from_eigenvalues(np.linalg.eigvalsh(np.eye(4) / 4)), np.log(4))

    def test_bell_reduction_entropy(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        reduced = partial_trace(rho, [0])
        assert np.isclose(entropy_from_eigenvalues(np.linalg.eigvalsh(reduced)), np.log(2))


class TestStates:
    def test_plus_zero_product(self):
        rho = make_initial_state(StateSpec(kind="plus_zero_product"), 2)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 2):
            for j in (0, 2):
                expected[i, j] = 0.5
        assert np.allclose(rho, expected)
        sx, sy, sz = single_site_expectations(rho, 0)
        assert np.isclose(sx, 1.0)
        assert np.isclose(single_site_expectations(rho, 1)[2], 1.0)

    def test_w_plus_superposition(self):
        rho = make_initial_state(StateSpec(kind="w_plus_superposition"), 2)
        psi = np.array([2.0, 1.0, 1.0, 0.0]) / np.sqrt(6.0)
        assert np.allclose(rho, np.outer(psi, psi))

    def test_haar_random_is_seeded(self):
        a = make_initial_state(StateSpec(kind="haar_random_pure", seed=5), 3)
        b = make_initial_state(StateSpec(kind="haar_random_pure", seed=5), 3)
        c = make_initial_state(StateSpec(kind="haar_random_pure", seed=6), 3)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)
        assert np.isclose(loschmidt_echo(a, a), 1.0)

    def test_haar_requires_seed(self):
        with pytest.raises(ValueError):
            StateSpec(kind="haar_random_pure")

    def test_keys_the_kind_does_not_read_are_refused(self):
        for spec in [dict(kind="plus_zero_product", seed=4),
                     dict(kind="maximally_mixed", pair=(0, 1)),
                     dict(kind="haar_random_pure", seed=1, matrix=np.eye(2))]:
            with pytest.raises(ValueError, match="does not read"):
                StateSpec(**spec)

    def test_eigenpair_superposition(self):
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=2, j_x=0.4, h=0.1))
        rho = make_initial_state(StateSpec(kind="eigenpair_superposition", pair=(2, 3)),
                                 2, hamiltonian=h)
        assert np.isclose(loschmidt_echo(rho, rho), 1.0)
        evals, vecs = np.linalg.eigh(h)
        psi = vecs[:, 2] + vecs[:, 3]
        psi /= np.linalg.norm(psi)
        overlap = abs(psi.conj() @ rho @ psi)
        assert np.isclose(overlap, 1.0)

    def test_eigenpair_needs_hamiltonian(self):
        spec = StateSpec(kind="eigenpair_superposition", pair=(0, 1))
        with pytest.raises(ValueError):
            make_initial_state(spec, 2)
        with pytest.raises(ValueError):
            StateSpec(kind="eigenpair_superposition", pair=(1, 1))

    def test_maximally_mixed(self):
        rho = make_initial_state(StateSpec(kind="maximally_mixed"), 2)
        assert np.allclose(rho, np.eye(4) / 4)

    def test_explicit_matrix_validated(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            make_initial_state(StateSpec(kind="explicit_matrix", matrix=bad), 2)

    def test_validate_density_matrix_checks(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(4, dtype=complex))   # trace 4
        skew = np.eye(2, dtype=complex) / 2
        skew[0, 1] = 0.1
        with pytest.raises(ValueError):
            validate_density_matrix(skew)


class TestChargeSectors:
    FAMILIES = {"ising": dict(j_z=0.4, h=0.1), "xx": dict(j_x=0.4, h=0.1),
                "tfi": dict(j_z=0.4, t=0.1), "xyz": dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1),
                "general": dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1, t=0.2)}

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("disordered", [False, True])
    def test_classification(self, family, disordered):
        n = 4
        h = build_hamiltonian(HamiltonianSpec(family=family, n=n, **self.FAMILIES[family]))
        if disordered:
            base = HamiltonianSpec(family=family, n=n, **self.FAMILIES[family])
            h = build_disordered_hamiltonian(DisorderSpec(base=base, epsilon=0.2, seed=3))
        sectors = charge_sectors(h)
        if family in ("tfi", "xyz", "general"):
            assert sectors is None
            return
        assert len(sectors) == n + 1
        for k, idx in enumerate(sectors):
            assert np.array_equal(idx, np.flatnonzero(popcounts(n) == k))

    def test_single_off_sector_entry_rejected(self):
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=4, j_x=0.4, h=0.1))
        assert charge_sectors(h) is not None
        h[0, 1] = 1e-300                       # popcount 0 to popcount 1
        assert charge_sectors(h) is None

    # (family, n, couplings, pair) of fig5, of fig6 and criterion 09, and of
    # the disorder benchmark's scan
    STARTS = [(6, dict(j_x=0.4, h=0.1), (62, 63)), (6, dict(j_x=0.4, h=1.0), (62, 63)),
              (6, dict(j_x=0.4, h=1.0), (61, 63))]

    @pytest.mark.parametrize("n, couplings, pair", STARTS)
    def test_eigenpair_start_moves_by_roundoff(self, n, couplings, pair):
        h = build_hamiltonian(HamiltonianSpec(family="xx", n=n, **couplings))
        rho = make_initial_state(StateSpec(kind="eigenpair_superposition", pair=pair), n,
                                 hamiltonian=h)
        _, vecs = np.linalg.eigh(h)
        psi = vecs[:, pair[0]] + vecs[:, pair[1]]
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= 1e-15
        counts = popcounts(n)
        home = {int(counts[np.argmax(np.abs(vecs[:, a]))]) for a in pair}
        outside = ~np.isin(counts, list(home))
        assert np.array_equal(rho[outside], np.zeros_like(rho[outside]))

    def test_vector_spread_across_sectors_kept(self):
        # a level degenerate across sectors: |00> + |11> keeps both parts
        sectors = charge_sectors(np.zeros((4, 4)))
        spread = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        assert np.array_equal(_sector_component(spread, sectors), spread)
        leaky = np.array([1e-17, 0.6, 0.8j, 0.0])
        assert np.array_equal(_sector_component(leaky, sectors), [0.0, 0.6, 0.8j, 0.0])


class TestObservables:
    def test_single_site_matches_dense_operators(self):
        rho = make_initial_state(StateSpec(kind="haar_random_pure", seed=11), 3)
        paulis = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
        for site in range(3):
            sx, sy, sz = single_site_expectations(rho, site)
            for val, name in ((sx, "x"), (sy, "y"), (sz, "z")):
                dense = float(np.real(np.trace(
                    rho @ local_operator(paulis[name], site, 3))))
                assert np.isclose(val, dense, atol=1e-12)

    def test_single_site_matches_uncached_gathers(self):
        rho = make_initial_state(StateSpec(kind="haar_random_pure", seed=13), 4)
        idx = np.arange(16)
        for site in range(4):
            bit = (idx >> (3 - site)) & 1
            cross = rho[idx ^ (1 << (3 - site)), idx]
            expected = (float(np.real(np.sum(cross))),
                        float(np.real(np.sum(1j * (2 * bit - 1) * cross))),
                        float(np.real(np.sum((1 - 2 * bit) * rho[idx, idx]))))
            assert single_site_expectations(rho, site) == expected
            assert single_site_expectations(rho, site) == expected

    def test_total_magnetization(self):
        rho = make_initial_state(StateSpec(kind="haar_random_pure", seed=12), 3)
        dense = sum(local_operator(PAULI_Z, s, 3) for s in range(3))
        assert np.isclose(total_magnetization_expectation(rho),
                          float(np.real(np.trace(rho @ dense))), atol=1e-12)

    def test_magnetization_values(self):
        assert np.array_equal(magnetization_values(2), [2, 0, 0, -2])
        assert magnetization_values(3)[0] == 3
        assert magnetization_values(3)[-1] == -3

    def test_popcounts_match_bin_count(self):
        for n in range(1, 9):
            counts = popcounts(n)
            assert counts.tolist() == [bin(i).count("1") for i in range(2**n)]
            assert popcounts(n) is counts
            assert not counts.flags.writeable

    def test_site_out_of_range(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            single_site_expectations(rho, 2)
