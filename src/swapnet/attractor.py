"""Attractor subspace of the channel: the permutation-class operator basis.

Operators invariant under conjugation by every swap are spanned by class
operators Gamma_beta, one per 4-tuple beta = (b00, b01, b10, b11) counting
the per-site (upper, lower) index columns of a basis outer product. All
unimodular eigen-operators of the channel live in this span; the late-time
state is their phase-rotating sum weighted by initial overlaps.

Every matrix entry belongs to exactly one class, so one integer label per
entry (`class_labels`) stands for the whole basis: overlaps with the Gamma
operators are label-wise sums and their combinations are label-wise
gathers, both O(dim^2). Operators in the span are held as class
coordinates, never as a dense stack of Gamma matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .core import (
    check_qubit_count,
    pair_list,
    popcounts,
    sites_from_dim,
    swap_commutation_residual,
    swap_permutation,
)


@dataclass(frozen=True)
class ClassIndex:
    """Column counts (b00, b01, b10, b11); entries (i, j) belong to the class
    when, sitewise, the pair (bit_i, bit_j) has these multiplicities."""

    b00: int
    b01: int
    b10: int
    b11: int

    def __post_init__(self):
        counts = (self.b00, self.b01, self.b10, self.b11)
        if any(c < 0 for c in counts):
            raise ValueError(f"class counts must be nonnegative, got {counts}")

    @property
    def n(self) -> int:
        return self.b00 + self.b01 + self.b10 + self.b11

    @property
    def upper_magnetization(self) -> int:
        return self.b00 + self.b01 - self.b10 - self.b11

    @property
    def lower_magnetization(self) -> int:
        return self.b00 + self.b10 - self.b01 - self.b11

    @property
    def arrangements(self) -> int:
        """Distinct site arrangements of the column multiset."""
        n = self.n
        return (comb(n, self.b01) * comb(n - self.b01, self.b10)
                * comb(n - self.b01 - self.b10, self.b11))

    def as_tuple(self) -> tuple:
        return (self.b00, self.b01, self.b10, self.b11)


def enumerate_classes(n_sites: int) -> list[ClassIndex]:
    """All classes for N sites in lexicographic order; count C(N+3, 3)."""
    check_qubit_count(n_sites)
    out = []
    for b00 in range(n_sites + 1):
        for b01 in range(n_sites - b00 + 1):
            for b10 in range(n_sites - b00 - b01 + 1):
                b11 = n_sites - b00 - b01 - b10
                out.append(ClassIndex(b00, b01, b10, b11))
    return out


@lru_cache(maxsize=4)
def class_labels(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sizes): the class of every matrix entry and each class's size.

    labels[i, j] is the position in enumerate_classes(n_sites) of the class
    of entry (i, j), read from b11 = popcount(i & j), b10 = popcount(i & ~j)
    and b01 = popcount(~i & j). sizes[k] is class k's entry count, its
    arrangements. Gamma_k is (labels == k) / sqrt(sizes[k]). Both arrays are
    cached per network size and read-only.
    """
    classes = enumerate_classes(n_sites)
    position = np.empty((n_sites + 1,) * 3, dtype=np.intp)
    for k, beta in enumerate(classes):
        position[beta.b01, beta.b10, beta.b11] = k
    popcount = popcounts(n_sites)
    idx = np.arange(2**n_sites)
    b11 = popcount[idx[:, None] & idx[None, :]]
    labels = position[popcount[None, :] - b11, popcount[:, None] - b11, b11]
    sizes = np.array([beta.arrangements for beta in classes], dtype=np.intp)
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


def _class_coordinates(x: np.ndarray, n_sites: int) -> np.ndarray:
    """Overlaps (Gamma_k, x) for every class k: label-wise sums of x."""
    labels, sizes = class_labels(n_sites)
    if x.shape != labels.shape:
        raise ValueError(f"operand shape {x.shape} does not match {n_sites} qubits")
    flat, k = labels.ravel(), len(sizes)
    sums = (np.bincount(flat, np.real(x).ravel(), k)
            + 1j * np.bincount(flat, np.imag(x).ravel(), k))
    return sums / np.sqrt(sizes)


def _from_class_coordinates(coords: np.ndarray, n_sites: int) -> np.ndarray:
    """The matrix sum_k coords[k] Gamma_k (coords may stack along axis 0)."""
    labels, sizes = class_labels(n_sites)
    return (coords / np.sqrt(sizes))[..., labels]


def build_gamma(beta: ClassIndex) -> np.ndarray:
    """The class operator Gamma_beta as a dense matrix (unit Hilbert-Schmidt norm)."""
    n = check_qubit_count(beta.n)
    labels, _ = class_labels(n)
    mat = np.zeros(labels.shape, dtype=complex)
    mat[labels == enumerate_classes(n).index(beta)] = 1.0 / np.sqrt(beta.arrangements)
    return mat


def ising_energy(magnetization: float, n_sites: int, j_z: float, h: float) -> float:
    """Diagonal energy as a function of total magnetization M."""
    return j_z * (magnetization**2 - n_sites) / 2.0 + h * magnetization


@dataclass
class AttractorSpectrum:
    """Unimodular eigenvalues with orthonormal eigen-operators.

    The eigen-operators are held as class coordinates: operator k is
    sum_b coordinates[k, b] Gamma_b.
    """

    eigenvalues: np.ndarray
    coordinates: np.ndarray | None     # (K, K), or None
    classes: list | None               # ClassIndex per entry (analytic case)
    degeneracies: np.ndarray           # d_nu of each entry's eigenvalue cluster
    n_sites: int

    @property
    def phases(self) -> np.ndarray:
        return np.angle(self.eigenvalues)

    @property
    def operators(self) -> np.ndarray | None:
        """(K, dim, dim) stack of the eigen-operators, built on each access."""
        if self.coordinates is None:
            return None
        return _from_class_coordinates(self.coordinates, self.n_sites)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _cluster_degeneracies(eigenvalues: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    K = len(eigenvalues)
    degen = np.zeros(K, dtype=int)
    assigned = np.full(K, -1)
    groups = []
    for i in range(K):
        placed = False
        for g, rep in groups:
            if abs(eigenvalues[i] - rep) <= tol:
                assigned[i] = g
                placed = True
                break
        if not placed:
            groups.append((len(groups), eigenvalues[i]))
            assigned[i] = groups[-1][0]
    for g, _ in groups:
        members = assigned == g
        degen[members] = int(np.sum(members))
    return degen


def ising_attractor_spectrum(n_sites: int, j_z: float, h: float,
                             dt: float = 1.0,
                             include_operators: bool = True) -> AttractorSpectrum:
    """Analytic spectrum: each class carries nu = e^{i[eps(M_up)-eps(M_low)]dt}.

    Classes whose upper and lower indices share a magnetization are exactly
    stationary (nu = 1). The eigen-operators are the Gamma_beta themselves.
    """
    check_qubit_count(n_sites)
    classes = enumerate_classes(n_sites)
    eigenvalues = np.empty(len(classes), dtype=complex)
    for k, beta in enumerate(classes):
        m_up = beta.upper_magnetization
        m_low = beta.lower_magnetization
        if m_up == m_low:
            eigenvalues[k] = 1.0
        else:
            phase = ising_energy(m_up, n_sites, j_z, h) - ising_energy(m_low, n_sites, j_z, h)
            eigenvalues[k] = np.exp(1j * phase * dt)
    coordinates = np.eye(len(classes), dtype=complex) if include_operators else None
    return AttractorSpectrum(eigenvalues=eigenvalues, coordinates=coordinates,
                             classes=classes,
                             degeneracies=_cluster_degeneracies(eigenvalues),
                             n_sites=n_sites)


def general_attractor_spectrum(H: np.ndarray, dt: float = 1.0) -> AttractorSpectrum:
    """Numeric spectrum for any uniform (permutation-symmetric) Hamiltonian.

    Restricts conjugation by U0 = e^{iH dt} to the class-operator span,
    eigendecomposes the restricted (unitary) matrix, and returns eigen-pairs
    with residual guarantees. Degenerate eigenvalue clusters are
    re-orthonormalized in deterministic column order.

    The span is streamed one class at a time: U0 Gamma_b U0^dag is formed
    from the columns of U0 at the class's entries, and its class coordinates
    are column b of the restricted matrix. The part of the image outside the
    span (its leak, roundoff only) enters each eigen-pair's residual bound.
    """
    n_sites = sites_from_dim(H.shape[0])
    for m in range(n_sites):
        for n in range(m + 1, n_sites):
            r = swap_commutation_residual(H, m, n)
            if r > 1e-10:
                raise ValueError(
                    f"H does not commute with swap ({m},{n}): residual {r:.3e}")

    labels, sizes = class_labels(n_sites)
    dim, K = H.shape[0], len(sizes)
    evals, vecs = np.linalg.eigh(H)
    u0 = (vecs * np.exp(1j * evals * dt)) @ vecs.conj().T
    u0_t, u0_dag = u0.T.copy(), u0.conj().T.copy()
    # Entries of class b are entries[ends[b] - sizes[b]:ends[b]], as (row, col);
    # they are summed in blocks of dim so that no temporary exceeds dim^2.
    entries = np.argsort(labels, axis=None, kind="stable")
    rows, cols = np.divmod(entries, dim)
    ends = np.cumsum(sizes)
    mat = np.empty((K, K), dtype=complex)
    leak = np.empty(K)
    for b in range(K):
        image = np.zeros((dim, dim), dtype=complex)
        for s in range(ends[b] - sizes[b], ends[b], dim):
            sel = slice(s, min(s + dim, ends[b]))
            image += u0_t[rows[sel]].T @ u0_dag[cols[sel]]
        image /= np.sqrt(sizes[b])
        mat[:, b] = _class_coordinates(image, n_sites)
        leak[b] = np.linalg.norm(image - _from_class_coordinates(mat[:, b], n_sites))

    unitary_err = float(np.max(np.abs(mat @ mat.conj().T - np.eye(K))))
    if unitary_err > 1e-10:
        raise ValueError(f"restricted conjugation not unitary: {unitary_err:.3e}")

    w, v = np.linalg.eig(mat)
    order = np.argsort(np.angle(w), kind="stable")
    w = w[order]
    v = v[:, order]

    # Re-orthonormalize within eigenvalue clusters for reproducibility.
    start = 0
    while start < K:
        stop = start + 1
        while stop < K and abs(w[stop] - w[start]) <= 1e-9:
            stop += 1
        if stop - start > 1:
            q, _ = np.linalg.qr(v[:, start:stop])
            v[:, start:stop] = q
        else:
            v[:, start] /= np.linalg.norm(v[:, start])
        start = stop

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

    return AttractorSpectrum(eigenvalues=w, coordinates=v.T, classes=None,
                             degeneracies=_cluster_degeneracies(w), n_sites=n_sites)


@dataclass
class AttractorExpansion:
    """Initial-state overlaps with the attractor basis, lambda_k = (Gamma_k, rho0)."""

    spectrum: AttractorSpectrum
    coefficients: np.ndarray

    def state_at(self, n: int) -> np.ndarray:
        phases = np.angle(self.spectrum.eigenvalues)
        weights = np.exp(1j * phases * n) * self.coefficients
        return _from_class_coordinates(weights @ self.spectrum.coordinates,
                                       self.spectrum.n_sites)


def attractor_expansion(spectrum: AttractorSpectrum, rho0: np.ndarray) -> AttractorExpansion:
    if spectrum.coordinates is None:
        raise ValueError("spectrum was built without operators")
    coeffs = spectrum.coordinates.conj() @ _class_coordinates(rho0, spectrum.n_sites)
    return AttractorExpansion(spectrum=spectrum, coefficients=coeffs)


def asymptotic_state(spectrum: AttractorSpectrum, rho0: np.ndarray, n: int) -> np.ndarray:
    """Late-time state sum_k nu_k^n (Gamma_k, rho0) Gamma_k."""
    return attractor_expansion(spectrum, rho0).state_at(n)


def commutant_distance(rho: np.ndarray, n_sites: int | None = None) -> float:
    """Hilbert-Schmidt distance of rho from its projection onto the class span."""
    if n_sites is None:
        n_sites = sites_from_dim(rho.shape[0])
    proj = _from_class_coordinates(_class_coordinates(rho, n_sites), n_sites)
    return float(np.linalg.norm(rho - proj))


def reduce_gamma(beta: ClassIndex) -> list[tuple[float, ClassIndex]]:
    """Partial trace of Gamma_beta over any one site, as weighted classes.

    Tr_m(Gamma_beta) = (1/sqrt N) [sqrt(b00) Gamma_{b00-1} + sqrt(b11) Gamma_{b11-1}]
    on N-1 sites; empty iff b00 = b11 = 0 (no diagonal columns to consume).
    """
    n = beta.n
    if n < 2:
        raise ValueError("reduction needs at least 2 sites")
    out = []
    if beta.b00 > 0:
        out.append((np.sqrt(beta.b00 / n),
                    ClassIndex(beta.b00 - 1, beta.b01, beta.b10, beta.b11)))
    if beta.b11 > 0:
        out.append((np.sqrt(beta.b11 / n),
                    ClassIndex(beta.b00, beta.b01, beta.b10, beta.b11 - 1)))
    return out


def single_site_frequencies(n_sites: int, j_z: float, h: float) -> np.ndarray:
    """Oscillation frequencies that survive reduction to a single site.

    The set {j_z (4a + 2 - 2N) + 2h : a = 0..N-1}, one per adjacent
    magnetization pair; sorted ascending, duplicates removed.
    """
    check_qubit_count(n_sites)
    a = np.arange(n_sites)
    return np.unique(j_z * (4 * a + 2 - 2 * n_sites) + 2 * h)
