"""Correctness checks of workload results, built apart from swapnet.

Every reference here is derived from the physics with plain numpy: Pauli
kron Hamiltonians, closed-form energies of the exchange-symmetric
(occupation-number) sector, popcount class labels and `bincount`. Each check
returns a list of problems; an empty list means the result passed.

Conventions shared with the model: site 0 is the most significant bit, Z|0> =
+|0>, and one channel step rotates by U0 = exp(+iH), so a coherence <a|rho|b>
between energy eigenstates picks up exp(+i(E_a - E_b)) per step.
"""

from __future__ import annotations

from math import comb

import numpy as np

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def fold(omega):
    """Frequency of a real oscillation exp(i omega n) on [0, pi]."""
    return np.abs((np.asarray(omega, dtype=float) + np.pi) % (2 * np.pi) - np.pi)


def popcounts(n_sites: int) -> np.ndarray:
    return np.bitwise_count(np.arange(2**n_sites, dtype=np.uint64)).astype(np.int64)


def pauli_hamiltonian(n_sites: int, jx=0.0, jy=0.0, jz=0.0, hz=0.0) -> np.ndarray:
    """sum_<mn> (jx xx + jy yy + jz zz) + sum_m hz z, from Pauli kron products.

    Bond couplings are scalars or per-pair arrays in (m < n) lexicographic
    order; the field is a scalar or a per-site array.
    """
    pairs = [(m, n) for m in range(n_sites) for n in range(m + 1, n_sites)]
    bonds = {a: np.broadcast_to(np.asarray(c, dtype=float), (len(pairs),))
             for a, c in (("x", jx), ("y", jy), ("z", jz))}
    fields = np.broadcast_to(np.asarray(hz, dtype=float), (n_sites,))

    def product(ops: dict) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for site in range(n_sites):
            out = np.kron(out, PAULI[ops.get(site, "i")])
        return out

    dim = 2**n_sites
    ham = np.zeros((dim, dim), dtype=complex)
    for k, (m, n) in enumerate(pairs):
        for axis, values in bonds.items():
            if values[k] != 0.0:
                ham += values[k] * product({m: axis, n: axis})
    for m in range(n_sites):
        if fields[m] != 0.0:
            ham += fields[m] * product({m: "z"})
    return ham


def ising_energy(n_sites: int, ones, j_z: float, h: float):
    """Energy of a basis state with `ones` 1-bits: M = N - 2k,
    E = j_z (M^2 - N)/2 + h M."""
    mag = n_sites - 2 * np.asarray(ones)
    return j_z * (mag**2 - n_sites) / 2.0 + h * mag


def sector_energies(family: str, n_sites: int, coupling: float, h: float) -> np.ndarray:
    """Energies of the Dicke states |D_k>, k = 0..N ones, which diagonalize the
    uniform Ising and XX Hamiltonians on the symmetric sector.

    Ising: E_k as in ising_energy. XX: sum_<mn>(xx + yy) = 2 (S+S- - sum sigma+sigma-)
    and S+S-|D_k> = (k+1)(N-k)|D_k>, so E_k = 2 J k (N - k) + h (N - 2k).
    """
    k = np.arange(n_sites + 1)
    if family == "ising":
        return ising_energy(n_sites, k, coupling, h)
    if family == "xx":
        return 2.0 * coupling * k * (n_sites - k) + h * (n_sites - 2 * k)
    raise ValueError(f"no sector formula for family {family!r}")


def dicke_coherences(rho: np.ndarray) -> np.ndarray:
    """Matrix <D_a|rho|D_b> over the (N+1) Dicke states, by popcount bincount."""
    n_sites = int(np.log2(rho.shape[0]))
    pc = popcounts(n_sites)
    labels = (pc[:, None] * (n_sites + 1) + pc[None, :]).ravel()
    size = (n_sites + 1) ** 2
    sums = (np.bincount(labels, weights=rho.real.ravel(), minlength=size)
            + 1j * np.bincount(labels, weights=rho.imag.ravel(), minlength=size))
    norms = np.sqrt([comb(n_sites, k) for k in range(n_sites + 1)])
    return sums.reshape(n_sites + 1, n_sites + 1) / np.outer(norms, norms)


def class_labels(n_sites: int) -> np.ndarray:
    """Permutation class of every entry (i, j): (b11, b10, b01) packed in base N+1."""
    idx = np.arange(2**n_sites, dtype=np.uint64)
    mask = np.uint64(2**n_sites - 1)
    i, j = idx[:, None], idx[None, :]
    b11 = np.bitwise_count(i & j).astype(np.int64)
    b10 = np.bitwise_count(i & ~j & mask).astype(np.int64)
    b01 = np.bitwise_count(~i & j & mask).astype(np.int64)
    base = n_sites + 1
    return ((b11 * base + b10) * base + b01).ravel()


def class_sums(rho: np.ndarray, labels: np.ndarray) -> np.ndarray:
    size = int(labels.max()) + 1
    return (np.bincount(labels, weights=rho.real.ravel(), minlength=size)
            + 1j * np.bincount(labels, weights=rho.imag.ravel(), minlength=size))


def class_projection_distance(rho: np.ndarray) -> float:
    """Hilbert-Schmidt distance from rho to its class-mean projection."""
    n_sites = int(np.log2(rho.shape[0]))
    labels = class_labels(n_sites)
    sums = class_sums(rho, labels)
    sizes = np.bincount(labels, minlength=sums.size)
    used = sizes > 0
    kept = float(np.sum(np.abs(sums[used]) ** 2 / sizes[used]))
    return float(np.sqrt(max(float(np.sum(np.abs(rho) ** 2)) - kept, 0.0)))


def ising_class_phases(n_sites: int, j_z: float, h: float) -> np.ndarray:
    """Channel eigenvalue of every class: exp(i[E(k_up) - E(k_low)]), with
    k_up = b11 + b10 ones in the row index and k_low = b11 + b01 in the column."""
    out = []
    for b11 in range(n_sites + 1):
        for b10 in range(n_sites + 1 - b11):
            for b01 in range(n_sites + 1 - b11 - b10):
                e_up = ising_energy(n_sites, b11 + b10, j_z, h)
                e_low = ising_energy(n_sites, b11 + b01, j_z, h)
                out.append(np.exp(1j * (e_up - e_low)))
    return np.array(out)


# ---------------------------------------------------------------- checks


def magnetisation_conserved(total_mz, expected: float, tol: float = 1e-9) -> list:
    drift = np.abs(np.asarray(total_mz, dtype=float) - expected)
    if drift.size == 0 or not np.all(np.isfinite(drift)):
        return ["total magnetisation series empty or non-finite"]
    worst = int(np.argmax(drift))
    if drift[worst] > tol:
        return [f"total magnetisation drifts by {drift[worst]:.3e} at record {worst}"]
    return []


def peaks_near(peak_freqs, predicted, resolution: float) -> list:
    """Every detected peak within one DFT bin of a predicted folded frequency."""
    peaks = np.asarray(peak_freqs, dtype=float)
    targets = fold(predicted)
    if peaks.size == 0:
        return ["no spectral peak detected"]
    out = []
    for f in peaks:
        miss = float(np.min(np.abs(targets - f)))
        if miss > resolution * (1 + 1e-9):
            out.append(f"peak at {f:.5f} rad/step is {miss / resolution:.2f} bins "
                       f"from the nearest predicted frequency")
    return out


def entropy_non_decreasing(entropy, tol: float = 1e-10) -> list:
    steps = np.diff(np.asarray(entropy, dtype=float))
    if steps.size and steps.min() < -tol:
        return [f"entropy decreases by {-steps.min():.3e} at step {int(np.argmin(steps)) + 1}"]
    return []


def bloch_in_unit_ball(sx, sy, sz, tol: float = 1e-10) -> list:
    norm = np.sqrt(np.asarray(sx) ** 2 + np.asarray(sy) ** 2 + np.asarray(sz) ** 2)
    if norm.max() > 1.0 + tol:
        return [f"Bloch vector length {norm.max():.12f} exceeds 1"]
    return []


def coherences_advance(before: np.ndarray, after: np.ndarray, phases: np.ndarray,
                       tol: float = 1e-10, what: str = "coherence") -> list:
    """after == phases * before, entry by entry (absolute tolerance)."""
    err = np.abs(after - phases * before)
    if err.max() > tol:
        return [f"{what} off its closed-form phase by {err.max():.3e}"]
    return []


def sector_phases(energies: np.ndarray, steps: int) -> np.ndarray:
    return np.exp(1j * steps * (energies[:, None] - energies[None, :]))


def density_matrix(rho: np.ndarray, tol: float = 1e-10) -> list:
    out = []
    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > tol:
        out.append(f"trace deviates from 1 by {trace_err:.3e}")
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_err > tol:
        out.append(f"not Hermitian: {herm_err:.3e}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if min_eig < -tol:
        out.append(f"negative eigenvalue {min_eig:.3e}")
    return out


def same_multiset(computed, predicted, tol: float = 1e-8, what: str = "value") -> list:
    """Equal multisets of unimodular numbers, compared as sorted angles on [0, 2pi)."""
    a = np.sort(np.mod(np.angle(np.asarray(computed)) + tol, 2 * np.pi))
    b = np.sort(np.mod(np.angle(np.asarray(predicted)) + tol, 2 * np.pi))
    if a.shape != b.shape:
        return [f"{len(a)} {what}s, expected {len(b)}"]
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    if err > tol:
        return [f"{what}s differ from the closed form by {err:.3e} rad"]
    return []


def same_values(computed, expected, tol: float = 1e-9, what: str = "value") -> list:
    """Equal multisets of real numbers, compared sorted."""
    a, b = np.sort(np.asarray(computed, dtype=float)), np.sort(np.asarray(expected, dtype=float))
    if a.shape != b.shape:
        return [f"{len(a)} {what}s, expected {len(b)}"]
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    return [f"{what}s differ from the closed form by {err:.3e}"] if err > tol else []


def unimodular(values, tol: float = 1e-10) -> list:
    err = float(np.max(np.abs(np.abs(values) - 1.0)))
    return [f"eigenvalue modulus off 1 by {err:.3e}"] if err > tol else []


def orthonormal(operators: np.ndarray, tol: float = 1e-9) -> list:
    flat = operators.reshape(operators.shape[0], -1)
    gram = flat.conj() @ flat.T
    err = float(np.max(np.abs(gram - np.eye(len(gram)))))
    return [f"eigen-operators not orthonormal: {err:.3e}"] if err > tol else []


def close(value: float, expected: float, tol: float, what: str) -> list:
    if not abs(value - expected) <= tol:
        return [f"{what} = {value:.6e}, expected {expected:.6e} (tol {tol:.1e})"]
    return []


def rates_positive(rates) -> list:
    out = []
    for eps, row in rates:
        for g in row:
            if not (np.isfinite(g) and g > 0):
                out.append(f"decay rate {g!r} at eps={eps} is not positive and finite")
    return out


def mean_rate_grows(epsilons, mean_rates) -> list:
    order = np.argsort(epsilons)
    means = np.asarray(mean_rates, dtype=float)[order]
    if not np.all(np.diff(means) > 0):
        return [f"mean decay rate does not grow with disorder: {list(means)}"]
    return []
