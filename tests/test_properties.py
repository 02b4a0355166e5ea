"""Channel properties over random small Hamiltonians, drawn with hypothesis.

Every draw is an ising or xx network with n = 2-4 qubits, so the Hamiltonian
conserves total magnetization. Uniform fields give a product channel, which
steps in the rotating frame (U0 held as diagonal phases for ising, as per-block
eigenpairs for xx); distinct per-site fields break the swap symmetry and give a
dense channel. Operands are random Hermitian, unit-trace matrices, positive
semidefinite or not. Runs are derandomized, so the examples are the same on
every run.
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
from swapnet.core import EIGENVALUE_FLOOR, build_network_hamiltonian, entropy_from_eigenvalues

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
