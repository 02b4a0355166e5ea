"""Attractor subspace of the channel: the permutation-class operator basis.

Operators invariant under conjugation by every swap are spanned by class
operators Gamma_beta, one per 4-tuple beta = (b00, b01, b10, b11) counting
the per-site (upper, lower) index columns of a basis outer product. All
unimodular eigen-operators of the channel live in this span; the late-time
state is their phase-rotating sum weighted by initial overlaps.

A class is a row of one count table (`enumerate_classes`). Every matrix
entry belongs to exactly one class, so one integer label per entry
(`class_labels`, the row of the entry's class) stands for the whole basis:
overlaps with the Gamma operators are label-wise sums and their
combinations are label-wise gathers, both O(dim^2). Gamma exists only as
such a gather; operators in the span are held as class coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .channel import COMMUTE_TOL, build_channel
from .core import (
    check_qubit_count,
    pair_list,
    popcounts,
    sites_from_dim,
    swap_permutation,
)


@lru_cache(maxsize=None)
def enumerate_classes(n_sites: int) -> np.ndarray:
    """All classes for N sites: a read-only (C(N+3, 3), 4) array whose row k
    is class k's counts (b00, b01, b10, b11), in lexicographic order."""
    check_qubit_count(n_sites)
    table = np.array([(b00, b01, b10, n_sites - b00 - b01 - b10)
                      for b00 in range(n_sites + 1)
                      for b01 in range(n_sites - b00 + 1)
                      for b10 in range(n_sites - b00 - b01 + 1)], dtype=np.intp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def class_labels(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sizes): the class of every matrix entry and each class's size.

    labels[i, j] is the row of enumerate_classes(n_sites) that holds the
    class of entry (i, j), read from b11 = popcount(i & j), b10 =
    popcount(i & ~j) and b01 = popcount(~i & j). sizes[k] is class k's entry
    count. Gamma_k is (labels == k) / sqrt(sizes[k]). Both arrays are cached
    per network size and read-only.
    """
    classes = enumerate_classes(n_sites)
    position = np.empty((n_sites + 1,) * 3, dtype=np.intp)
    position[classes[:, 1], classes[:, 2], classes[:, 3]] = np.arange(len(classes))
    popcount = popcounts(n_sites)
    idx = np.arange(2**n_sites)
    b11 = popcount[idx[:, None] & idx[None, :]]
    labels = position[popcount[None, :] - b11, popcount[:, None] - b11, b11]
    sizes = np.bincount(labels.ravel(), minlength=len(classes))
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


def _label_sums(x: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Overlaps (Gamma_k, x) for every class k of an operand x whose entries
    carry the given labels and are zero elsewhere: label-wise sums of x."""
    flat, k = labels.ravel(), len(sizes)
    sums = (np.bincount(flat, np.real(x).ravel(), k)
            + 1j * np.bincount(flat, np.imag(x).ravel(), k))
    return sums / np.sqrt(sizes)


def _class_coordinates(x: np.ndarray, n_sites: int) -> np.ndarray:
    """Overlaps (Gamma_k, x) for every class k."""
    labels, sizes = class_labels(n_sites)
    if x.shape != labels.shape:
        raise ValueError(f"operand shape {x.shape} does not match {n_sites} qubits")
    return _label_sums(x, labels, sizes)


def _from_class_coordinates(coords: np.ndarray, n_sites: int) -> np.ndarray:
    """The matrix sum_k coords[k] Gamma_k (coords may stack along axis 0)."""
    labels, sizes = class_labels(n_sites)
    return (coords / np.sqrt(sizes))[..., labels]


def ising_energy(magnetization: float, n_sites: int, j_z: float, h: float) -> float:
    """Diagonal energy as a function of total magnetization M."""
    return j_z * (magnetization**2 - n_sites) / 2.0 + h * magnetization


@dataclass
class AttractorSpectrum:
    """Unimodular eigenvalues with orthonormal eigen-operators.

    The eigen-operators are held as class coordinates: operator k is
    sum_b coordinates[k, b] Gamma_b. In the analytic (Ising) spectrum the
    coordinates are the identity, so entry k is the class in row k of
    enumerate_classes(n_sites).
    """

    eigenvalues: np.ndarray
    coordinates: np.ndarray            # (K, K)
    n_sites: int

    @property
    def phases(self) -> np.ndarray:
        return np.angle(self.eigenvalues)

    @property
    def degeneracies(self) -> np.ndarray:
        """d_nu of each entry's eigenvalue cluster. In order of phase,
        neighbours closer than 1e-9 share a cluster, and so do the last and
        the first: a cluster at -1 may hold phases on both sides of the cut."""
        order = np.argsort(self.phases, kind="stable")
        w = self.eigenvalues[order]
        apart = np.abs(w - np.roll(w, -1)) > 1e-9       # w[k] and w[k + 1 mod K]
        runs = np.concatenate(([0], np.cumsum(apart[:-1])))
        if apart.any() and not apart[-1]:
            runs[runs == runs[-1]] = 0
        degen = np.empty(len(w), dtype=np.intp)
        degen[order] = np.bincount(runs)[runs]
        return degen

    @property
    def operators(self) -> np.ndarray:
        """(K, dim, dim) stack of the eigen-operators, built on each access."""
        return _from_class_coordinates(self.coordinates, self.n_sites)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def ising_attractor_spectrum(n_sites: int, j_z: float, h: float) -> AttractorSpectrum:
    """Analytic spectrum of the unit-step channel: each class carries
    nu = e^{i[eps(M_up) - eps(M_low)]}.

    Classes whose upper and lower indices share a magnetization are exactly
    stationary (nu = 1). The eigen-operators are the Gamma_beta themselves.
    """
    b00, b01, b10, b11 = enumerate_classes(n_sites).T
    m_up, m_low = b00 + b01 - b10 - b11, b00 + b10 - b01 - b11
    eigenvalues = np.exp(1j * (ising_energy(m_up, n_sites, j_z, h)
                               - ising_energy(m_low, n_sites, j_z, h)))
    return AttractorSpectrum(eigenvalues, np.eye(len(eigenvalues), dtype=complex), n_sites)


def general_attractor_spectrum(H: np.ndarray) -> AttractorSpectrum:
    """Numeric spectrum for any uniform (permutation-symmetric) Hamiltonian.

    Restricts conjugation by U0 = e^{iH} (the unit-step channel) to the class-operator span,
    eigendecomposes the restricted (unitary) matrix, and returns eigen-pairs
    with residual and orthonormality guarantees. The eigenvectors are
    orthonormalized by one QR in phase order, so the basis of a degenerate
    cluster is deterministic.

    U0 comes from the compiled channel, which must be in product form (H
    commutes with every swap). U0 is block-diagonal over the channel's blocks
    (popcount sectors, or one block of every index), and every entry of class
    b has row popcount b10 + b11 and column popcount b01 + b11, so
    U0 Gamma_b U0^dag lives on one (row block, column block) pair. It is
    streamed one class at a time from the columns of U0's blocks at the
    class's entries, and its class coordinates are column b of the restricted
    matrix. The part of the image outside the span (its leak, roundoff only)
    enters each eigen-pair's residual bound.
    """
    ch = build_channel(H)
    if ch.mode != "product":
        raise ValueError(f"H does not commute with every swap (residual > {COMMUTE_TOL:.0e})")

    n_sites = ch.n
    labels, sizes = class_labels(n_sites)
    K = len(sizes)
    mat = np.zeros((K, K), dtype=complex)
    leak = np.empty(K)
    u0 = [(idx, u.T.copy(), u.conj().T.copy()) for idx, u in zip(ch.blocks, ch.u0_blocks())]
    for (rows_idx, u_r_t, _), (cols_idx, _, u_c_dag) in product(u0, repeat=2):
        block_labels = labels[np.ix_(rows_idx, cols_idx)]
        # Entries of class b are entries[ends[b] - sizes[b]:ends[b]], as (row,
        # col) in the block pair; they are summed in chunks of dim so that no
        # temporary exceeds d_r x dim.
        entries = np.argsort(block_labels, axis=None, kind="stable")
        rows, cols = np.divmod(entries, cols_idx.size)
        counts = np.bincount(block_labels.ravel(), minlength=K)
        ends = np.cumsum(counts)
        for b in np.flatnonzero(counts):
            image = np.zeros(block_labels.shape, dtype=complex)
            for s in range(ends[b] - sizes[b], ends[b], ch.dim):
                sel = slice(s, min(s + ch.dim, ends[b]))
                image += u_r_t[rows[sel]].T @ u_c_dag[cols[sel]]
            image /= np.sqrt(sizes[b])
            mat[:, b] = _label_sums(image, block_labels, sizes)
            leak[b] = np.linalg.norm(image - (mat[:, b] / np.sqrt(sizes))[block_labels])

    unitary_err = float(np.max(np.abs(mat @ mat.conj().T - np.eye(K))))
    if unitary_err > 1e-10:
        raise ValueError(f"restricted conjugation not unitary: {unitary_err:.3e}")

    w, v = np.linalg.eig(mat)
    order = np.argsort(np.angle(w), kind="stable")
    w = w[order]
    # mat is normal, so its Schur vectors are eigenvectors: one QR in phase
    # order orthonormalizes every degenerate cluster, one that straddles the
    # +-pi cut included, and removes the roundoff overlap between close ones.
    v = np.linalg.qr(v[:, order])[0]
    orth_err = float(np.max(np.abs(v.conj().T @ v - np.eye(K))))
    if orth_err > 1e-10:
        raise ValueError(f"eigen-operators not orthonormal: {orth_err:.3e}")

    # Residual guarantees on every returned pair. By the triangle inequality
    # ||U0 A U0^dag - w A|| <= ||(mat - w) v|| + sum_b |v_b| leak_b.
    residuals = np.linalg.norm(mat @ v - v * w, axis=0) + leak @ np.abs(v)
    k = int(np.argmax(residuals))
    if residuals[k] > 1e-9:
        raise ValueError(f"eigen-operator {k} conjugation residual {residuals[k]:.3e}")
    # Every eigen-operator is a class combination, so it is swap-invariant
    # exactly when the labels are.
    for m, n in pair_list(n_sites):
        perm = swap_permutation(n_sites, m, n)
        if not np.array_equal(labels[perm][:, perm], labels):
            raise ValueError(f"class labels not invariant under swap ({m},{n})")

    return AttractorSpectrum(eigenvalues=w, coordinates=v.T, n_sites=n_sites)


def asymptotic_state(spectrum: AttractorSpectrum, rho0: np.ndarray, n: int) -> np.ndarray:
    """Late-time state sum_k nu_k^n (A_k, rho0) A_k over the eigen-operators A_k.

    The overlaps (A_k, rho0) hold the memory of the initial state; n = 0
    gives the projection of rho0 onto the attractor span.
    """
    overlaps = spectrum.coordinates.conj() @ _class_coordinates(rho0, spectrum.n_sites)
    weights = np.exp(1j * spectrum.phases * n) * overlaps
    return _from_class_coordinates(weights @ spectrum.coordinates, spectrum.n_sites)


def commutant_distance(rho: np.ndarray) -> float:
    """Hilbert-Schmidt distance of rho from its projection onto the class span."""
    n_sites = sites_from_dim(rho.shape[0])
    proj = _from_class_coordinates(_class_coordinates(rho, n_sites), n_sites)
    return float(np.linalg.norm(rho - proj))


def reduce_gamma(beta) -> list[tuple[float, tuple]]:
    """Partial trace of Gamma_beta over any one site, as weighted classes;
    beta and each class returned are counts (b00, b01, b10, b11).

    Tr_m(Gamma_beta) = (1/sqrt N) [sqrt(b00) Gamma_{b00-1} + sqrt(b11) Gamma_{b11-1}]
    on N-1 sites; empty iff b00 = b11 = 0 (no diagonal columns to consume).
    """
    counts = np.asarray(beta)
    if counts.shape != (4,) or counts.dtype.kind not in "iu" or counts.min() < 0:
        raise ValueError(f"a class is four counts >= 0 (b00, b01, b10, b11), got {beta!r}")
    b00, b01, b10, b11 = counts.tolist()
    n = b00 + b01 + b10 + b11
    if n < 2:
        raise ValueError("reduction needs at least 2 sites")
    terms = [(b00, (b00 - 1, b01, b10, b11)), (b11, (b00, b01, b10, b11 - 1))]
    return [(np.sqrt(b / n), smaller) for b, smaller in terms if b > 0]


def single_site_frequencies(n_sites: int, j_z: float, h: float) -> np.ndarray:
    """Oscillation frequencies that survive reduction to a single site.

    The set {j_z (4a + 2 - 2N) + 2h : a = 0..N-1}, one per adjacent
    magnetization pair; sorted ascending, duplicates removed.
    """
    check_qubit_count(n_sites)
    a = np.arange(n_sites)
    return np.unique(j_z * (4 * a + 2 - 2 * n_sites) + 2 * h)
