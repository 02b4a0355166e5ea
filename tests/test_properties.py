"""Channel properties over random small Hamiltonians, drawn with hypothesis.

Every draw is an ising or xx network with n = 2-4 qubits, so the Hamiltonian
conserves total magnetization. Uniform fields give a product channel, which
steps in the rotating frame (U0 held as diagonal phases for ising, as per-block
eigenpairs for xx); distinct per-site fields break the swap symmetry and give a
dense channel. Operands are random Hermitian, unit-trace matrices, positive
semidefinite or not. The dense stepper's two forms (half form on exactly
Hermitian operands, every block pair otherwise) are drawn over disordered
ising and xx networks with n = 2-5. Runs are derandomized, so the examples are
the same on every run.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet.channel import (
    ENTROPY_FLOOR,
    ChannelSpec,
    _states,
    apply_channel,
    build_channel,
    channel_superoperator,
    unitality_error,
)
from swapnet.core import (
    EIGENVALUE_FLOOR,
    HamiltonianSpec,
    build_network_hamiltonian,
    entropy_from_eigenvalues,
)
from swapnet.noise import DisorderSpec, build_disordered_hamiltonian

# the families whose uniform or per-site-field networks compile to each mode
FAMILIES = {"product_diagonal": ["ising"], "product_rotating": ["xx"], "dense": ["ising", "xx"]}
MODES = tuple(FAMILIES)
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@st.composite
def channels(draw, mode, max_sites):
    """A compiled channel in `mode` for a random ising or xx network."""
    n = draw(st.integers(2, max_sites))
    family = draw(st.sampled_from(FAMILIES[mode]))
    coupling = draw(st.floats(0.1, 1.0))
    if mode == "dense":
        # distinct fields on a 0.1 grid: no swap commutes with H
        fields = 0.1 * np.array(draw(st.lists(st.integers(-10, 10), min_size=n,
                                              max_size=n, unique=True)))
    else:
        fields = draw(st.floats(-1.0, 1.0))
    couplings = dict(jz=coupling) if family == "ising" else dict(jx=coupling, jy=coupling)
    h = build_network_hamiltonian(n, hz=fields, **couplings)
    spec = ChannelSpec(p0=draw(st.floats(0.05, 0.95)), kappa=draw(st.floats(0.1, 1.5)))
    ch = build_channel(h, spec)
    assert ch.frame == mode and ch.sectors is not None
    return ch


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_sector_pair_maps_to_itself(mode, data):
    # Phi(X)[a, b] depends only on X[a, b]: an operand on one sector pair
    # leaves every other entry exactly zero
    ch = data.draw(channels(mode, 4))
    a = data.draw(st.integers(0, ch.n))
    b = data.draw(st.integers(0, ch.n))
    rows, cols = ch.sectors[a], ch.sectors[b]
    x = np.zeros((ch.dim, ch.dim), dtype=complex)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x[np.ix_(rows, cols)] = random_complex(rng, (rows.size, cols.size))
    outside = np.ones((ch.dim, ch.dim), dtype=bool)
    outside[np.ix_(rows, cols)] = False
    out = apply_channel(ch, x)
    assert np.array_equal(out[outside], np.zeros(outside.sum()))
    assert np.any(out[~outside])


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_stepper_matches_superoperator_powers(mode, data):
    # 20 lab-frame states of the stepper against S^n vec(rho0), for a pure
    # start on a random nonempty set of sectors
    ch = data.draw(channels(mode, 3))
    kept = data.draw(st.lists(st.integers(0, ch.n), min_size=1, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = np.zeros(ch.dim, dtype=complex)
    for k in kept:
        psi[ch.sectors[k]] = random_complex(rng, ch.sectors[k].size)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    s = channel_superoperator(ch)
    vec = rho0.reshape(-1)
    for state, _ in islice(_states(ch, rho0), 1, 21):
        vec = s @ vec
        assert np.max(np.abs(state - vec.reshape(ch.dim, ch.dim))) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_trace_hermiticity_and_entropy(mode, data):
    # three steps from a random Hermitian unit-trace operand keep the trace
    # and Hermiticity; a state (rank r, PSD) stays positive, in the lab frame
    # and in the frame the checks read, and its entropy never falls
    ch = data.draw(channels(mode, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psd = data.draw(st.booleans())
    if psd:
        g = random_complex(rng, (ch.dim, data.draw(st.integers(1, ch.dim))))
        x = g @ g.conj().T
        x /= np.trace(x).real
    else:
        g = random_complex(rng, (ch.dim, ch.dim))
        x = 0.5 * (g + g.conj().T)
        x += (1.0 - np.trace(x).real) / ch.dim * np.eye(ch.dim)
    entropy = entropy_from_eigenvalues(np.linalg.eigvalsh(x))
    for state, sigma in islice(_states(ch, x), 1, 4):
        assert abs(np.trace(state) - 1.0) <= 1e-14
        assert np.max(np.abs(state - state.conj().T)) <= 1e-14
        if psd:
            assert np.linalg.eigvalsh(state)[0] >= EIGENVALUE_FLOOR
            assert np.linalg.eigvalsh(sigma)[0] >= EIGENVALUE_FLOOR
            after = entropy_from_eigenvalues(np.linalg.eigvalsh(state))
            assert after - entropy >= ENTROPY_FLOOR
            entropy = after


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_unitality(mode, data):
    # Phi(I/dim) = I/dim at roundoff
    assert unitality_error(data.draw(channels(mode, 4))) <= 1e-14


@st.composite
def disordered_channels(draw, max_sites):
    """A dense channel of a disordered ising or xx network."""
    n = draw(st.integers(2, max_sites))
    family = draw(st.sampled_from(["ising", "xx"]))
    coupling = {"ising": "j_z", "xx": "j_x"}[family]
    base = HamiltonianSpec(family=family, n=n, h=draw(st.floats(0.1, 1.0)),
                           **{coupling: draw(st.floats(0.1, 1.0))})
    h = build_disordered_hamiltonian(DisorderSpec(
        base=base, epsilon=draw(st.floats(0.05, 0.3)), seed=draw(st.integers(0, 2**31 - 1))))
    spec = ChannelSpec(p0=draw(st.floats(0.05, 0.95)), kappa=draw(st.floats(0.1, 1.5)))
    ch = build_channel(h, spec)
    assert ch.mode == "dense" and ch.sectors is not None
    return ch


def supported_operand(data, ch):
    """A random complex operand of unit Frobenius norm on every sector or a
    random subset of them."""
    if data.draw(st.booleans()):
        kept = list(range(ch.n + 1))
    else:
        kept = data.draw(st.lists(st.integers(0, ch.n), min_size=1, max_size=ch.n, unique=True))
    idx = np.concatenate([ch.sectors[k] for k in kept])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = np.zeros((ch.dim, ch.dim), dtype=complex)
    x[np.ix_(idx, idx)] = random_complex(rng, (idx.size, idx.size))
    return x / np.linalg.norm(x)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_dense_half_form_matches_every_pair(data):
    # an exactly Hermitian operand takes the half form; a checked step also
    # yields the every-pair result, and both agree with the superoperator
    ch = data.draw(disordered_channels(5))
    g = supported_operand(data, ch)
    x = 0.5 * (g + g.conj().T)
    assert np.array_equal(x, x.conj().T)
    states = _states(ch, x)
    next(states)
    half, every_pair = states.send(True)
    assert np.array_equal(half, half.conj().T)
    assert np.max(np.abs(half - every_pair)) <= 1e-15
    assert np.array_equal(apply_channel(ch, x), half)
    if ch.n <= 3:
        ref = (channel_superoperator(ch) @ x.reshape(-1)).reshape(ch.dim, ch.dim)
        assert np.max(np.abs(half - ref)) <= 1e-14


@PROPERTY_SETTINGS
@given(data=st.data())
def test_dense_non_hermitian_operand_gets_every_pair(data):
    # Phi is linear: Phi(x) = Phi(x_h) + i Phi(x_a) with x_h, x_a its exactly
    # Hermitian parts; mirroring half of Phi(x) would make it Hermitian
    ch = data.draw(disordered_channels(5))
    x = supported_operand(data, ch)
    d = x - x.conj().T
    x_h, x_a = 0.5 * (x + x.conj().T), 0.5 * (d.imag - 1j * d.real)
    assert np.array_equal(x_a, x_a.conj().T)
    y = apply_channel(ch, x)
    assert np.max(np.abs(y - (apply_channel(ch, x_h) + 1j * apply_channel(ch, x_a)))) <= 1e-15
    assert np.max(np.abs(y - y.conj().T)) > 1e-3 / ch.dim
    if ch.n <= 3:
        ref = (channel_superoperator(ch) @ x.reshape(-1)).reshape(ch.dim, ch.dim)
        assert np.max(np.abs(y - ref)) <= 1e-14
