import numpy as np
import pytest

from swapnet.channel import build_channel
from swapnet.core import (
    HamiltonianSpec,
    build_hamiltonian,
    pair_list,
    swap_commutation_residual,
)
from swapnet.noise import (
    DisorderSpec,
    build_disordered_hamiltonian,
    disordered_coefficients,
    first_order_eigenvalue_shift,
    lifetime_scan,
)
from swapnet.symmetry import find_dynamical_symmetries

XX3 = HamiltonianSpec(family="xx", n=3, j_x=0.4, h=0.1)


class TestDisorderDraws:
    def test_zero_epsilon_reproduces_base(self):
        for fam, kw in [("ising", dict(j_z=0.4, h=0.1)),
                        ("tfi", dict(j_z=0.4, t=0.1)),
                        ("xx", dict(j_x=0.4, h=0.1)),
                        ("xyz", dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1))]:
            base = HamiltonianSpec(family=fam, n=3, **kw)
            h = build_disordered_hamiltonian(DisorderSpec(base=base, epsilon=0.0,
                                                          seed=17))
            assert np.array_equal(h, build_hamiltonian(base))

    def test_seed_pins_hamiltonian(self):
        spec = DisorderSpec(base=XX3, epsilon=0.1, seed=5)
        a = build_disordered_hamiltonian(spec)
        b = build_disordered_hamiltonian(DisorderSpec(base=XX3, epsilon=0.1, seed=5))
        c = build_disordered_hamiltonian(DisorderSpec(base=XX3, epsilon=0.1, seed=6))
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_xx_keeps_shared_bond_draws(self):
        out = disordered_coefficients(DisorderSpec(base=XX3, epsilon=0.1, seed=3))
        assert set(out) == {"jx", "jy", "hz"}
        assert np.array_equal(out["jx"], out["jy"])
        assert out["jx"] is not out["jy"]

    def test_family_draw_layout(self):
        ising = HamiltonianSpec(family="ising", n=3, j_z=0.4, h=0.1)
        out = disordered_coefficients(DisorderSpec(base=ising, epsilon=0.1, seed=3))
        assert set(out) == {"jz", "hz"}
        assert out["jz"].shape == (3,)
        assert out["hz"].shape == (3,)

        tfi = HamiltonianSpec(family="tfi", n=3, j_z=0.4, t=0.1)
        out = disordered_coefficients(DisorderSpec(base=tfi, epsilon=0.1, seed=3))
        assert set(out) == {"jz", "hx"}

    def test_draws_match_family_branches(self):
        def branches(spec):
            # one branch per family, in the draw order of the original code
            base, eps = spec.base, spec.epsilon
            n_pairs = len(pair_list(base.n))
            rng = np.random.default_rng(spec.seed)
            c = base.couplings()

            def bond(value):
                return value + eps * rng.standard_normal(n_pairs)

            def site(value):
                return value + eps * rng.standard_normal(base.n)

            if base.family == "ising":
                return {"jz": bond(c["jz"]), "hz": site(c["hz"])}
            if base.family == "tfi":
                return {"jz": bond(c["jz"]), "hx": site(c["hx"])}
            if base.family == "xx":
                shared = bond(c["jx"])
                return {"jx": shared, "jy": shared.copy(), "hz": site(c["hz"])}
            if base.family == "xyz":
                return {"jx": bond(c["jx"]), "jy": bond(c["jy"]), "jz": bond(c["jz"]),
                        "hz": site(c["hz"])}
            return {"jx": bond(c["jx"]), "jy": bond(c["jy"]), "jz": bond(c["jz"]),
                    "hz": site(c["hz"]), "hx": site(c["hx"])}

        bases = {"ising": dict(j_z=0.4, h=0.1), "tfi": dict(j_z=0.4, t=0.2),
                 "xx": dict(j_x=0.4, h=1.0), "xyz": dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1),
                 "general": dict(j_x=0.1, j_y=0.2, j_z=0.3, h=0.1, t=0.05)}
        for fam, kw in bases.items():
            for n in (2, 4, 6):
                for seed in range(5):
                    spec = DisorderSpec(base=HamiltonianSpec(family=fam, n=n, **kw),
                                        epsilon=0.1, seed=seed)
                    got, expected = disordered_coefficients(spec), branches(spec)
                    assert list(got) == list(expected)
                    for key in expected:
                        assert np.array_equal(got[key], expected[key])

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            DisorderSpec(base=XX3, epsilon=-0.1, seed=1)

    def test_disorder_breaks_decoupling(self):
        h = build_disordered_hamiltonian(DisorderSpec(base=XX3, epsilon=0.1, seed=5))
        residuals = [swap_commutation_residual(h, m, n) for m, n in pair_list(3)]
        assert max(residuals) > 1e-8
        assert build_channel(h).mode == "dense"


class TestFirstOrderShift:
    def setup_method(self):
        self.h = build_hamiltonian(XX3)
        self.sym = max(find_dynamical_symmetries(self.h),
                       key=lambda s: abs(s.omega))

    def test_zero_perturbation(self):
        res = first_order_eigenvalue_shift(self.sym, np.zeros((8, 8)))
        assert res.correction == 0
        assert res.lambda1 == res.lambda0 == 1j * self.sym.omega
        assert np.isclose(res.eta_normalization, 1.0)

    def test_parallel_perturbation_shifts_frequency(self):
        # H' = c H leaves the mode an eigenoperator: correction = i c omega
        c = 0.3
        res = first_order_eigenvalue_shift(self.sym, c * self.h)
        assert np.isclose(res.correction, 1j * c * self.sym.omega, atol=1e-12)

    def test_correction_is_purely_imaginary(self):
        hp = build_disordered_hamiltonian(
            DisorderSpec(base=XX3, epsilon=1.0, seed=9)) - self.h
        res = first_order_eigenvalue_shift(self.sym, hp)
        assert abs(res.correction.real) < 1e-12
        assert abs(res.lambda0.real) == 0.0

    def test_matches_exact_superoperator_eigenvalue(self):
        hp = build_disordered_hamiltonian(
            DisorderSpec(base=XX3, epsilon=1.0, seed=9)) - self.h
        res = first_order_eigenvalue_shift(self.sym, hp, oracle_epsilon=0.02)
        predicted = 0.02 * res.correction.imag
        assert abs(res.oracle_phase_shift - predicted) < 0.1 * abs(res.oracle_phase_shift)
        # decay appears only at second order: small and positive
        assert 0.0 <= res.oracle_decay_rate < 1e-3

    def test_decay_scales_quadratically(self):
        hp = build_disordered_hamiltonian(
            DisorderSpec(base=XX3, epsilon=1.0, seed=9)) - self.h
        g1 = first_order_eigenvalue_shift(self.sym, hp,
                                          oracle_epsilon=0.01).oracle_decay_rate
        g2 = first_order_eigenvalue_shift(self.sym, hp,
                                          oracle_epsilon=0.02).oracle_decay_rate
        assert 3.0 < g2 / g1 < 5.0

    def test_oracle_capped_at_three_qubits(self):
        base = HamiltonianSpec(family="xx", n=4, j_x=0.4, h=0.1)
        h = build_hamiltonian(base)
        sym = find_dynamical_symmetries(h)[0]
        with pytest.raises(ValueError):
            first_order_eigenvalue_shift(sym, np.zeros((16, 16)), oracle_epsilon=0.01)


class TestLifetimeScan:
    def test_scan_shape_and_monotonicity(self):
        scan = lifetime_scan(XX3, (0.0, 0.05, 0.1), (1, 2), pair=(6, 7),
                             steps=2304, burn_in=256, site=0)
        assert scan.epsilons.shape == (3,)
        assert [len(r) for r in scan.rates] == [2, 2, 2]
        assert scan.fit_failures == [0, 0, 0]
        # clean limit: no measurable decay
        assert scan.mean_rates[0] < 1e-6
        # disorder kills the oscillation faster the stronger it is
        assert scan.mean_rates[1] > 10 * scan.mean_rates[0]
        assert scan.mean_rates[2] > scan.mean_rates[1]
        assert 0.8 < scan.loglog_slope < 2.2
        table = scan.table()
        assert len(table) == 3 and table[2][1] == scan.mean_rates[2]

    def test_scan_is_deterministic(self):
        kw = dict(pair=(6, 7), steps=1536, burn_in=256, site=0)
        a = lifetime_scan(XX3, (0.05,), (1,), **kw)
        b = lifetime_scan(XX3, (0.05,), (1,), **kw)
        assert a.rates == b.rates
