import io
import os
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from swapnet import channel
from swapnet.analysis import loschmidt_echo
from swapnet.channel import (
    Channel,
    ChannelSpec,
    _mix_product,
    _states,
    apply_channel,
    build_channel,
    channel_superoperator,
    dense_memory_bytes,
    iterate_channel,
    unitality_error,
)
from swapnet.core import (
    DimensionCapError,
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    build_network_hamiltonian,
    entropy_from_eigenvalues,
    make_initial_state,
    pair_list,
    popcounts,
    swap_permutation,
)
from swapnet.noise import DisorderSpec, build_disordered_hamiltonian


def build_swap_operator(m: int, n: int, n_sites: int) -> np.ndarray:
    """Swap unitary SW_mn exchanging sites m and n (a basis permutation)."""
    perm = swap_permutation(n_sites, m, n)
    sw = np.zeros((perm.size, perm.size), dtype=complex)
    sw[perm, np.arange(perm.size)] = 1.0
    return sw


def expm_hermitian(h, dt=1.0):
    """Brute-force e^{i h dt} for oracle comparisons."""
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * evals * dt)) @ vecs.conj().T


def haar_state(n, seed):
    return make_initial_state(StateSpec(kind="haar_random_pure", seed=seed), n)


ISING3 = build_hamiltonian(HamiltonianSpec(family="ising", n=3, j_z=0.4, h=0.1))
XX3 = build_hamiltonian(HamiltonianSpec(family="xx", n=3, j_x=0.4, h=0.1))
TFI3 = build_hamiltonian(HamiltonianSpec(family="tfi", n=3, j_z=0.4, t=0.3))


class TestSpecResolution:
    def test_uniform_split(self):
        pairs, probs, kappas = ChannelSpec().resolve(3)
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert np.allclose(probs, 0.8 / 3)
        assert np.allclose(kappas, 1.0)

    def test_mapping_with_reversed_keys(self):
        spec = ChannelSpec(pair_probabilities={(1, 0): 0.5, (0, 2): 0.2, (2, 1): 0.1})
        _, probs, _ = spec.resolve(3)
        assert np.allclose(probs, [0.5, 0.2, 0.1])

    def test_sequence_kappa(self):
        _, _, kappas = ChannelSpec(kappa=[0.5, 1.0, 1.5]).resolve(3)
        assert np.allclose(kappas, [0.5, 1.0, 1.5])

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ChannelSpec(p0=0.0).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec(p0=1.0).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec(pair_probabilities=[0.5, 0.2, 0.2]).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec(pair_probabilities={(0, 1): 0.9, (0, 2): -0.05,
                                            (1, 2): -0.05}).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec(pair_probabilities={(0, 1): 0.8}).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec(pair_probabilities={(0, 3): 0.8}).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec(kappa=[1.0, 2.0]).resolve(3)
        with pytest.raises(ValueError):
            ChannelSpec().resolve(1)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ChannelSpec(dt=bad).resolve(3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ChannelSpec(kappa=bad).resolve(3)
            with pytest.raises(ValueError):
                ChannelSpec(pair_probabilities=[bad, 0.4, 0.4]).resolve(3)
        # a zero step would compile the identity map
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=2, j_z=0.4, h=0.1))
        with pytest.raises(ValueError, match="dt"):
            build_channel(h, ChannelSpec(dt=0))


class TestBuildModes:
    def test_diagonal_hamiltonian_keeps_phases(self):
        ch = build_channel(ISING3)
        assert ch.mode == "product"
        assert ch.u0_phases is not None
        assert np.allclose(ch.u0_phases, np.exp(1j * np.diag(ISING3).real))

    def test_nondiagonal_commuting_is_product(self):
        ch = build_channel(XX3)
        assert ch.mode == "product"
        assert ch.u0_phases is None
        _, u0 = next(ch.unitaries())
        assert np.allclose(u0 @ u0.conj().T, np.eye(8), atol=1e-12)

    def test_site_dependent_field_goes_dense(self):
        h = build_network_hamiltonian(3, jz=0.4, hz=[0.1, 0.2, 0.3])
        ch = build_channel(h)
        assert ch.mode == "dense"
        assert np.array([u for _, u in ch.unitaries()]).shape == (4, 8, 8)

    def test_weights_sum_exactly_to_one(self):
        for ch in (build_channel(ISING3), build_channel(XX3)):
            assert ch.weights.sum() == 1.0
            assert np.allclose(ch.weights[1:], ChannelSpec().resolve(3)[1])

    def test_non_hermitian_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.2
        with pytest.raises(ValueError):
            build_channel(bad)

    def test_unitaries_are_unitary(self):
        for h in (ISING3, XX3):
            ch = build_channel(h)
            for p, u in ch.unitaries():
                assert p > 0
                assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)


class TestApply:
    def test_matches_brute_force_mixture(self):
        # N=2: one pair, dense expm oracle for both mixture members
        h = build_hamiltonian(HamiltonianSpec(family="ising", n=2, j_z=0.4, h=0.1))
        ch = build_channel(h)
        rho = haar_state(2, 3)
        u0 = expm_hermitian(h)
        u1 = expm_hermitian(h + build_swap_operator(0, 1, 2))
        expected = 0.2 * u0 @ rho @ u0.conj().T + 0.8 * u1 @ rho @ u1.conj().T
        assert np.allclose(apply_channel(ch, rho), expected, atol=1e-12)

    def test_matches_brute_force_noncommuting(self):
        h = build_network_hamiltonian(3, jz=0.4, hz=[0.1, 0.2, 0.3])
        ch = build_channel(h)
        rho = haar_state(3, 4)
        expected = ch.weights[0] * expm_hermitian(h) @ rho @ expm_hermitian(h).conj().T
        for k, (m, n) in enumerate(pair_list(3)):
            u = expm_hermitian(h + build_swap_operator(m, n, 3))
            expected += ch.weights[k + 1] * u @ rho @ u.conj().T
        assert np.allclose(apply_channel(ch, rho), expected, atol=1e-12)

    def test_zero_kappa_is_unitary(self):
        ch = build_channel(ISING3, ChannelSpec(kappa=0.0))
        rho = haar_state(3, 5)
        u0 = np.diag(ch.u0_phases)
        assert np.allclose(apply_channel(ch, rho), u0 @ rho @ u0.conj().T, atol=1e-13)
        out = rho
        for _ in range(50):
            out = apply_channel(ch, out)
        assert np.isclose(loschmidt_echo(out, out), 1.0, atol=1e-12)

    def test_superoperator_consistent_with_apply(self):
        for h in (ISING3, XX3, build_network_hamiltonian(3, jz=0.4, hz=[0.1, 0.2, 0.3])):
            ch = build_channel(h)
            s = channel_superoperator(ch)
            rho = haar_state(3, 6)
            direct = apply_channel(ch, rho)
            via_vec = (s @ rho.reshape(-1)).reshape(8, 8)
            assert np.allclose(direct, via_vec, atol=1e-12)

    def test_unitality(self):
        for h in (ISING3, XX3, build_network_hamiltonian(3, jz=0.4, hz=[0.1, 0.2, 0.3])):
            assert unitality_error(build_channel(h)) <= 1e-12

    def test_trace_and_hermiticity_preserved(self):
        ch = build_channel(XX3)
        rho = haar_state(3, 7)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out) - 1.0) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14

    def test_shape_mismatch(self):
        ch = build_channel(ISING3)
        with pytest.raises(ValueError):
            apply_channel(ch, np.eye(4, dtype=complex) / 4)


def gather_mix(ch, rho):
    """The index-gather form of the partial-swap mixer, as an oracle."""
    theta = ch.kappas * ch.spec.dt
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    sin_sq = sin_t**2
    cos_sq = 1.0 - sin_sq
    w_pairs = ch.weights[1:]
    diag_coeff = ch.weights[0] + float(np.sum(w_pairs * cos_sq))
    inner = diag_coeff * rho
    for k, (m, n) in enumerate(ch.pairs):
        perm = swap_permutation(ch.n, m, n)
        inner += (w_pairs[k] * sin_sq[k]) * rho[np.ix_(perm, perm)]
        sc = w_pairs[k] * sin_t[k] * cos_t[k]
        if sc != 0.0:
            inner += (1j * sc) * (rho[perm, :] - rho[:, perm])
    return inner


class TestMixer:
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("family", ["ising", "xx"])
    def test_matches_gather_formula(self, n, family):
        rng = np.random.default_rng(n)
        n_pairs = n * (n - 1) // 2
        probs = rng.uniform(0.5, 1.5, n_pairs)
        probs *= 0.7 / probs.sum()
        kappa = rng.uniform(0.2, 1.4, n_pairs)
        kappa[-1] = 0.0                       # sin cos = 0: the P rho - rho P term is skipped
        kw = dict(j_z=0.4) if family == "ising" else dict(j_x=0.4)
        h = build_hamiltonian(HamiltonianSpec(family=family, n=n, h=0.1, **kw))
        ch = build_channel(h, ChannelSpec(p0=0.3, pair_probabilities=probs, kappa=kappa))
        assert ch.mode == "product"
        dim = 2**n
        operand = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        # the commutator half is one matmul per block of the swap sum, which
        # adds the pairs in another order than the oracle's pair loop
        err = np.max(np.abs(_mix_product(ch, operand) - gather_mix(ch, operand)))
        assert err <= 1e-14 * np.max(np.abs(operand))


class TestSwapSum:
    """S = sum_k w_k sin(theta_k) cos(theta_k) SW_k, held per popcount sector."""

    @staticmethod
    def channel(family, n):
        rng = np.random.default_rng(n)
        n_pairs = n * (n - 1) // 2
        probs = rng.uniform(0.5, 1.5, n_pairs)
        probs *= 0.7 / probs.sum()
        kappa = rng.uniform(-1.4, 1.4, n_pairs)
        kappa[0] = 0.0
        kw = {"ising": dict(j_z=0.4, h=0.1), "xx": dict(j_x=0.4, h=0.1),
              "tfi": dict(j_z=0.4, t=0.3)}[family]
        h = build_hamiltonian(HamiltonianSpec(family=family, n=n, **kw))
        ch = build_channel(h, ChannelSpec(p0=0.3, pair_probabilities=probs, kappa=kappa))
        assert ch.mode == "product"
        return ch

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("family", ["ising", "xx", "tfi"])
    def test_blocks_equal_dense_sum(self, family, n):
        ch = self.channel(family, n)
        theta = ch.kappas * ch.spec.dt
        coeffs = ch.weights[1:] * np.sin(theta) * np.cos(theta)
        assert coeffs[0] == 0.0                 # a pair with kappa = 0 adds nothing
        dense = np.zeros((ch.dim, ch.dim))
        for c, (m, k) in zip(coeffs, ch.pairs):
            dense += c * build_swap_operator(m, k, ch.n).real
        covered = np.zeros((ch.dim, ch.dim), dtype=bool)
        for idx, s in ch.swap_sum:
            assert np.array_equal(s, dense[np.ix_(idx, idx)])
            assert np.array_equal(s, s.T)
            covered[np.ix_(idx, idx)] = True
        assert np.concatenate([idx for idx, _ in ch.swap_sum]).size == ch.dim
        assert np.array_equal(dense[~covered], np.zeros((~covered).sum()))
        if n == 7:
            # held per popcount sector, also for tfi, whose H mixes popcounts
            assert (ch.sectors is None) == (family == "tfi")
            assert len(ch.swap_sum) == n + 1
            for idx, _ in ch.swap_sum:
                assert np.unique(popcounts(n)[idx]).size == 1


class TestIterate:
    def test_zero_steps(self):
        ch = build_channel(ISING3)
        rho = haar_state(3, 8)
        traj = iterate_channel(ch, rho, 0)
        assert traj.steps.size == 1
        assert np.array_equal(traj.final_state, rho)
        assert traj.records["sx"].shape == (1, 3)

    def test_bitwise_deterministic(self):
        ch = build_channel(XX3)
        rho = haar_state(3, 9)
        a = iterate_channel(ch, rho, 200)
        b = iterate_channel(ch, rho, 200)
        assert np.array_equal(a.final_state, b.final_state)
        assert np.array_equal(a.records["sx"], b.records["sx"])

    def test_rotating_frame_matches_direct_application(self):
        # every product channel iterates in the rotating frame; the recorded
        # view must agree with literal repeated application, for a diagonal U0
        # (ising), per popcount sector (xx) and over the one block of every
        # index (tfi)
        for h, sectored in [(ISING3, True), (XX3, True), (TFI3, False)]:
            ch = build_channel(h)
            assert ch.mode == "product" and (ch.sectors is not None) == sectored
            rho = haar_state(3, 10)
            traj = iterate_channel(ch, rho, 60)
            direct = rho
            for _ in range(60):
                direct = apply_channel(ch, direct)
            assert np.allclose(traj.final_state, direct, atol=1e-12)

    def test_rotating_frame_results_not_aliased(self):
        # the frame buffers are reused across steps; returned arrays must not be
        for h, sectored in [(ISING3, True), (XX3, True), (TFI3, False)]:
            ch = build_channel(h)
            assert ch.mode == "product" and (ch.sectors is not None) == sectored
            rho = haar_state(3, 12)
            states = [view.copy() for view, _ in islice(_states(ch, rho), 8)]
            a = iterate_channel(ch, rho, 5)
            final = a.final_state.copy()
            b = iterate_channel(ch, rho, 7)
            assert not np.shares_memory(a.final_state, b.final_state)
            assert not np.shares_memory(a.final_state, rho)
            assert np.array_equal(a.final_state, final)
            assert np.array_equal(final, states[5])
            assert np.array_equal(b.final_state, states[7])

    def test_results_own_their_memory(self):
        # in every mode, apply_channel's result and iterate_channel's final
        # state (zero steps included) share no memory with their input
        dense = build_network_hamiltonian(3, jx=0.4, jy=0.4, hz=[0.1, 0.13, 0.07])
        for h, mode in [(ISING3, "product"), (XX3, "product"), (dense, "dense")]:
            ch = build_channel(h)
            assert ch.mode == mode
            rho = haar_state(3, 12)
            assert not np.shares_memory(apply_channel(ch, rho), rho)
            for steps in (0, 3):
                assert not np.shares_memory(iterate_channel(ch, rho, steps).final_state, rho)

    def test_dense_stepper_matches_repeated_application(self):
        # the dense stepper reuses two buffers; every returned state is
        # bit-identical to apply_channel, exactly Hermitian, and owns its
        # memory. The Haar start occupies every popcount sector of the
        # sectored channel, and the one block of disordered tfi.
        for h, sectored in [
                (build_network_hamiltonian(4, jx=0.4, jy=0.4, hz=[0.1, 0.13, 0.07, 0.1]), True),
                (disordered("tfi", 4, seed=2, j_z=0.4, t=0.3), False)]:
            ch = build_channel(h)
            assert ch.mode == "dense" and (ch.sectors is not None) == sectored
            rho = haar_state(4, 13)
            states = [state.copy() for state, _ in islice(_states(ch, rho), 41)]
            direct = rho
            for n in range(1, 41):
                direct = apply_channel(ch, direct)
                assert np.array_equal(states[n], direct)
                assert np.array_equal(direct, direct.conj().T)
            traj = iterate_channel(ch, rho, 40, record=("sx",))
            assert np.array_equal(traj.final_state, direct)
            assert not np.shares_memory(traj.final_state,
                                        iterate_channel(ch, rho, 40).final_state)

    def test_invariants_hold_over_long_run(self):
        ch = build_channel(ISING3)
        traj = iterate_channel(ch, haar_state(3, 11), 500,
                               record=("sx", "entropy"), validate_stride=1)
        rep = traj.invariants
        rep.unitality_error = unitality_error(ch)
        assert rep.passed()
        assert rep.max_trace_error <= 1e-12
        assert rep.min_entropy_increment >= -1e-10

    def test_diagonal_frame_holds_laws_over_a_long_run(self):
        # fig2's model and start: 4608 steps of the diagonal product channel
        # keep trace and Hermiticity at roundoff
        ch = build_channel(ISING3)
        assert ch.frame == "product_diagonal"
        traj = iterate_channel(ch, haar_state(3, 7), 4608, record=("sx",), validate_stride=1)
        assert traj.invariants.max_trace_error <= 1e-14
        assert traj.invariants.max_hermiticity_error <= 1e-14

    def test_entropy_monotone_nondecreasing(self):
        ch = build_channel(XX3)
        traj = iterate_channel(ch, haar_state(3, 12), 300, record=("entropy",))
        assert np.min(np.diff(traj.records["entropy"])) >= -1e-10

    def test_total_mz_conserved(self):
        # swaps and a U(1)-symmetric U0 both commute with total z
        for h in (ISING3, XX3):
            ch = build_channel(h)
            traj = iterate_channel(ch, haar_state(3, 13), 300, record=("total_mz",))
            mz = traj.records["total_mz"]
            assert np.max(np.abs(mz - mz[0])) < 1e-10

    def test_loschmidt_starts_at_purity(self):
        ch = build_channel(ISING3)
        rho = haar_state(3, 14)
        traj = iterate_channel(ch, rho, 10, record=("loschmidt",))
        assert np.isclose(traj.records["loschmidt"][0], 1.0)

    def test_series_accessors(self):
        ch = build_channel(ISING3)
        traj = iterate_channel(ch, haar_state(3, 16), 20,
                               record=("sx", "entropy"), sites=(0, 2))
        assert traj.series("sx", 2).shape == (21,)
        assert traj.series("entropy").shape == (21,)
        with pytest.raises(KeyError):
            traj.series("sy", 0)
        with pytest.raises(KeyError):
            traj.series("sx", 1)
        with pytest.raises(ValueError):
            traj.series("sx")

    def test_rejects_unknown_record(self):
        ch = build_channel(ISING3)
        with pytest.raises(ValueError):
            iterate_channel(ch, haar_state(3, 17), 5, record=("sx", "energy"))
        with pytest.raises(ValueError):
            iterate_channel(ch, haar_state(3, 17), 5, sites=(0, 3))
        with pytest.raises(ValueError):
            iterate_channel(ch, haar_state(3, 17), -1)


def disordered(family, n, seed, epsilon=0.1, **couplings):
    base = HamiltonianSpec(family=family, n=n, **couplings)
    return build_disordered_hamiltonian(DisorderSpec(base=base, epsilon=epsilon, seed=seed))


def eigenpair_start(h, n, pair):
    return make_initial_state(StateSpec(kind="eigenpair_superposition", pair=pair), n,
                              hamiltonian=h)


def sector_support(rho, n):
    """Mask of the indices whose popcount sector holds a nonzero entry of rho."""
    counts = popcounts(n)
    return np.isin(counts, np.unique(counts[np.nonzero(rho)[0]]))


def full_path(ch, rho, steps):
    """The dense stepper on the whole space, written out: states after each step."""
    stack = np.array([u for _, u in ch.unitaries()])
    stack_dag = np.ascontiguousarray(stack.conj().transpose(0, 2, 1))
    left, terms = np.empty_like(stack), np.empty_like(stack)
    states = []
    for _ in range(steps):
        np.matmul(stack, rho, out=left)
        left *= ch.weights[:, None, None]
        np.matmul(left, stack_dag, out=terms)
        rho = terms.sum(axis=0)
        states.append(rho)
    return states


class TestChargeSectors:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_sector_built_channel_matches_full_eigh(self, n):
        # disordered XX: every member from one eigh per sector agrees with
        # e^{i(H + kappa SW) dt} from a full eigh, and so do 200 steps from a
        # start on two sectors and from one on every sector
        h = disordered("xx", n, seed=n, j_x=0.4, h=1.0)
        ch = build_channel(h)
        assert ch.mode == "dense" and len(ch.sectors) == n + 1
        full = [expm_hermitian(h)] + [expm_hermitian(h + kappa * build_swap_operator(m, k, n))
                                      for kappa, (m, k) in zip(ch.kappas, ch.pairs)]
        for (_, u), ref in zip(ch.unitaries(), full):
            assert np.max(np.abs(u - ref)) <= 1e-13
        clean = build_hamiltonian(HamiltonianSpec(family="xx", n=n, j_x=0.4, h=1.0))
        for rho0 in (eigenpair_start(clean, n, (2**n - 2, 2**n - 1)), haar_state(n, n)):
            ref = rho0
            for _ in range(200):
                ref = sum(w * u @ ref @ u.conj().T for w, u in zip(ch.weights, full))
            traj = iterate_channel(ch, rho0, 200, record=("sx",))
            assert np.max(np.abs(traj.final_state - ref)) <= 1e-12

    def test_blocks_outside_support_stay_exactly_zero(self):
        n = 6
        clean = build_hamiltonian(HamiltonianSpec(family="xx", n=n, j_x=0.4, h=1.0))
        rho0 = eigenpair_start(clean, n, (62, 63))
        support = sector_support(rho0, n)
        assert support.sum() == 21              # popcount sectors 1 and 2
        outside = ~np.outer(support, support)
        ch = build_channel(disordered("xx", n, seed=5, j_x=0.4, h=1.0))
        for state, _ in islice(_states(ch, rho0), 201):
            assert np.array_equal(state[outside], np.zeros(outside.sum()))
        assert np.max(np.abs(state[~outside])) > 0.01
        assert np.array_equal(iterate_channel(ch, rho0, 200, record=("sx",)).final_state, state)

    def test_support_stepper_matches_apply_channel(self):
        # dense, rotating-frame and diagonal product channels on a start in
        # two sectors; the entropy record takes eigvalsh of the occupied block
        n = 5
        clean = build_hamiltonian(HamiltonianSpec(family="xx", n=n, j_x=0.4, h=1.0))
        rho0 = eigenpair_start(clean, n, (29, 31))
        assert 0 < sector_support(rho0, n).sum() < 2**n
        ising = build_hamiltonian(HamiltonianSpec(family="ising", n=n, j_z=0.4, h=0.1))
        for h, mode, tol in [(disordered("xx", n, seed=3, j_x=0.4, h=1.0), "dense", 1e-13),
                             (clean, "product", 1e-12), (ising, "product", 1e-13)]:
            ch = build_channel(h)
            assert ch.mode == mode and ch.sectors is not None
            traj = iterate_channel(ch, rho0, 200, record=("sx", "entropy"), validate_stride=1)
            assert traj.invariants.passed()
            direct = rho0
            for step, (state, _) in zip(range(1, 201), islice(_states(ch, rho0), 1, None)):
                direct = apply_channel(ch, direct)
                assert np.max(np.abs(state - direct)) <= tol
                full = entropy_from_eigenvalues(np.linalg.eigvalsh(direct))
                assert abs(traj.records["entropy"][step] - full) <= 1e-12

    def test_compile_peak_below_one_full_stack(self):
        # disordered XX at n=8: the member blocks and their adjoints take
        # 2 sum_k C(8, k)^2 entries per member, against dim^2 for one full stack
        h = disordered("xx", 8, seed=1, j_x=0.4, h=1.0)
        tracemalloc.start()
        try:
            ch = build_channel(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ch.mode == "dense"
        assert peak < len(ch.weights) * ch.dim**2 * 16

    def test_unitality_holds_no_stack_sized_buffer(self):
        # fig6's channel: Phi(I/dim) is formed block by block
        ch = build_channel(disordered("xx", 6, seed=5, j_x=0.4, h=1.0))
        tracemalloc.start()
        try:
            err = unitality_error(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err <= 1e-12
        assert peak < len(ch.weights) * ch.dim**2 * 16 / 4

    def test_hamiltonian_without_sectors_takes_full_path(self):
        # disordered tfi mixes popcounts, so its one block is the whole space
        # and its only pair; the stepper agrees with the sum written out and
        # keeps the state exactly Hermitian
        n = 4
        couplings = dict(j_z=0.4, t=0.3)
        ch = build_channel(disordered("tfi", n, seed=2, **couplings))
        assert ch.mode == "dense" and ch.sectors is None
        rho0 = eigenpair_start(build_hamiltonian(HamiltonianSpec(family="tfi", n=n, **couplings)),
                               n, (0, 5))
        for ref, (state, _) in zip(full_path(ch, rho0, 60), islice(_states(ch, rho0), 1, None)):
            assert np.max(np.abs(state - ref)) <= 1e-14
            assert np.array_equal(state, state.conj().T)

    def test_row_chunks_match_one_pair(self, monkeypatch):
        # a scratch bound below K dim^2 splits the one block's rows into
        # chunks of two; the chunked stepper agrees with the unsplit one at
        # roundoff and with apply_channel bit for bit
        ch = build_channel(disordered("tfi", 4, seed=2, j_z=0.4, t=0.3))
        rho0 = haar_state(4, 5)
        whole = [state.copy() for state, _ in islice(_states(ch, rho0), 21)]
        monkeypatch.setattr(channel, "PAIR_SCRATCH_DIMSQ", 1)
        assert channel._scratch_entries(len(ch.weights), ch.dim, ch.dim) == ch.dim**2
        direct = rho0
        for ref, (state, _) in zip(whole[1:], islice(_states(ch, rho0), 1, None)):
            direct = apply_channel(ch, direct)
            assert np.array_equal(state, direct)
            assert np.max(np.abs(state - ref)) <= 1e-15
            assert np.array_equal(state, state.conj().T)


class TestBlockPairStepper:
    def test_hermiticity_error_is_measured(self):
        # a checked step computes every block pair and yields that unmirrored
        # result, so the error is roundoff, not zero by construction; the
        # stored state is the mirrored one whether or not steps are checked.
        # Disordered tfi has one block, so its only pair is the diagonal one.
        for h, sectored in [(disordered("xx", 4, seed=2, j_x=0.4, h=1.0), True),
                            (disordered("tfi", 4, seed=2, j_z=0.4, t=0.3), False)]:
            ch = build_channel(h)
            assert ch.mode == "dense" and (ch.sectors is not None) == sectored
            rho0 = haar_state(4, 3)
            assert np.array_equal(rho0, rho0.conj().T)
            checked = iterate_channel(ch, rho0, 20, validate_stride=1)
            plain = iterate_channel(ch, rho0, 20)
            assert 0.0 < checked.invariants.max_hermiticity_error <= 1e-15
            assert checked.invariants.passed()
            final = checked.final_state
            assert np.array_equal(final, plain.final_state)
            assert np.array_equal(final, final.conj().T)
            for name, values in plain.records.items():
                assert np.max(np.abs(checked.records[name] - values)) <= 1e-14

    def test_checked_state_is_the_every_pair_result(self):
        # the stepper's checked state on a checked step agrees with the stored
        # half-form state at roundoff but is computed apart from it
        ch = build_channel(disordered("ising", 4, seed=4, j_z=0.4, h=0.1))
        assert ch.mode == "dense" and ch.sectors is not None
        states = _states(ch, haar_state(4, 8))
        next(states)
        stored, checked = states.send(True)
        assert stored is not checked
        assert 0.0 < np.max(np.abs(checked - stored)) <= 1e-15
        assert np.array_equal(stored, stored.conj().T)

    def test_haar_step_allocates_less_than_one_member_stack(self):
        # a Haar start occupies every popcount sector; the step's scratch is
        # one block pair's K d_a d_b, not a (K, dim, dim) buffer. Without
        # sectors (K = 22 here) it is capped at PAIR_SCRATCH_DIMSQ = 8 dim^2,
        # beside about five dim^2 of state buffers.
        for h, dim_squares in [(disordered("xx", 7, seed=5, j_x=0.4, h=1.0), 22),
                               (disordered("tfi", 7, seed=5, j_z=0.4, t=0.3), 8 + 6)]:
            ch = build_channel(h)
            assert ch.mode == "dense" and len(ch.weights) == 22
            rho0 = haar_state(7, 5)
            tracemalloc.start()
            try:
                apply_channel(ch, rho0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < dim_squares * ch.dim**2 * 16


class TestMemoryPreflight:
    def test_estimate_matches_hand_count(self):
        # n=4 popcount sectors 1, 4, 6, 4, 1 with K = 7 members: members and
        # adjoints 2*7*70, eight 256-entry operators (three Hamiltonians,
        # state and checked copy, gathered state, its double buffer and the
        # gathered checked state), pair scratch 7*36 entries
        assert dense_memory_bytes(4, [1, 4, 6, 4, 1], 7) == 16 * (980 + 2048 + 252)
        # one block of every index: members 2*7*256, eight 256-entry
        # operators, and scratch 7*256, below the bound of PAIR_SCRATCH_DIMSQ
        # dim^2 = 8*256
        assert channel.PAIR_SCRATCH_DIMSQ == 8
        assert dense_memory_bytes(4, [16], 7) == 16 * (3584 + 2048 + 1792)
        # one block at n=8, K = 29: the scratch is capped at 8 dim^2
        assert dense_memory_bytes(8, [256], 29) == 16 * (2 * 29 + 8 + 8) * 256**2
        # n=10 XX, K = 46: the members alone are 2*46*C(20, 10) entries
        sizes = [int(v) for v in np.bincount(popcounts(10))]
        members = 2 * 46 * 184756 * 16
        assert members == 271_960_832
        assert dense_memory_bytes(10, sizes, 46) == members + 16 * (8 * 4**10 + 46 * 252**2)

    def test_over_budget_channel_is_refused(self, monkeypatch):
        h = disordered("xx", 4, seed=1, j_x=0.4, h=1.0)
        need = dense_memory_bytes(4, [1, 4, 6, 4, 1], 7)
        monkeypatch.setattr(channel, "_memory_budget", lambda: need - 1)
        with pytest.raises(DimensionCapError, match="GiB"):
            build_channel(h)
        assert build_channel(XX3).mode == "product"     # holds no members
        monkeypatch.setattr(channel, "_memory_budget", lambda: need)
        assert build_channel(h).mode == "dense"

    def test_budget_is_available_memory(self, monkeypatch):
        # MemAvailable where the kernel reports it, else physical memory
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 0 < channel._memory_budget() <= physical
        meminfo = "MemTotal:       8000000 kB\nMemAvailable:      1000 kB\n"
        monkeypatch.setattr(channel, "open", lambda *args: io.StringIO(meminfo), raising=False)
        assert channel._memory_budget() == 1000 * 1024

        def unreadable(*args):
            raise OSError("no meminfo")
        monkeypatch.setattr(channel, "open", unreadable, raising=False)
        assert channel._memory_budget() == physical


class TestSpectralStructure:
    def test_eigenvalues_in_unit_disk(self):
        for h in (ISING3, XX3):
            evals = np.linalg.eigvals(channel_superoperator(build_channel(h)))
            assert np.max(np.abs(evals)) <= 1.0 + 1e-12

    def test_identity_is_fixed_point(self):
        s = channel_superoperator(build_channel(XX3))
        v = (np.eye(8, dtype=complex) / 8).reshape(-1)
        assert np.allclose(s @ v, v, atol=1e-13)

    def test_unimodular_count_matches_class_count(self):
        # persistent eigenvalues: one per attractor class, C(n+3, 3) of them
        for n, h in ((2, build_hamiltonian(HamiltonianSpec(family="ising", n=2,
                                                           j_z=0.4, h=0.1))),
                     (3, ISING3)):
            evals = np.linalg.eigvals(channel_superoperator(build_channel(h)))
            n_unimodular = int(np.sum(np.abs(np.abs(evals) - 1.0) <= 1e-8))
            expected = {2: 10, 3: 20}[n]
            assert n_unimodular == expected


class TestSynchronization:
    def test_single_site_trajectories_converge(self):
        # distinct product-state sites end up with identical Bloch vectors
        up = np.array([1.0, 0.0], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        plus_i = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        psi = np.kron(np.kron(up, plus), plus_i)
        rho0 = np.outer(psi, psi.conj())

        ch = build_channel(ISING3)
        traj = iterate_channel(ch, rho0, 2000, record=("sx", "sy", "sz"))

        def spread(step):
            bloch = np.stack([traj.records[c][step] for c in ("sx", "sy", "sz")])
            dists = [np.linalg.norm(bloch[:, i] - bloch[:, j])
                     for i in range(3) for j in range(i + 1, 3)]
            return max(dists)

        early = max(spread(s) for s in range(6))
        late = max(spread(s) for s in range(1995, 2001))
        assert early > 0.5
        assert late < 0.05
        assert late < 0.1 * early
