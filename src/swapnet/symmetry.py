"""Dynamical symmetries of the channel from the permutation-symmetric sector.

Every Hamiltonian eigenpair inside the totally symmetric (exchange-invariant)
subspace yields an operator A = |E_a><E_b| satisfying [H, A] = omega A with
omega = E_a - E_b, and [SW_mn, A] = 0 for every pair. One channel step then
multiplies A rho_st (rho_st = I/2^N) by exactly e^{i omega dt}: inside the
sector every partial swap acts as a global phase, so each mixture member
reduces to the free evolution. Superpositions of two sector eigenvectors
therefore oscillate forever at a single frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .channel import Channel, apply_channel
from .core import (
    charge_sectors,
    pair_list,
    popcounts,
    pure_state_density,
    sites_from_dim,
    swap_permutation,
)

BLOCK_TOL = 1e-10
CONDITION_TOL = 1e-10
DEGENERATE_OMEGA = 1e-9


@dataclass
class SymmetricSectorBasis:
    """The (N+1)-dimensional simultaneous +1 eigenspace of all swaps.

    basis: orthonormal columns spanning the sector (fixed occupation-number
    order). energies/vectors: sector eigenpairs of H in ascending energy,
    vectors expressed in the computational basis. full_indices: position of
    each sector eigenvalue within the full ascending spectrum of H
    (degenerate groups assigned consecutively in sector order); the full
    spectrum is merged from per-charge-sector spectra when H has them.
    """

    n: int
    basis: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    full_indices: np.ndarray
    block_residual: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def sector_index_for_full(self, full_index: int) -> int:
        hits = np.nonzero(self.full_indices == full_index)[0]
        if len(hits) != 1:
            raise KeyError(
                f"full-spectrum index {full_index} is not a sector eigenstate")
        return int(hits[0])

    def pair_from_full(self, a_full: int, b_full: int) -> tuple[int, int]:
        return (self.sector_index_for_full(a_full),
                self.sector_index_for_full(b_full))


def symmetric_subspace(n_sites: int) -> np.ndarray:
    """Orthonormal occupation-number basis of the exchange-symmetric sector."""
    dim = 2**n_sites
    basis = np.zeros((dim, n_sites + 1), dtype=complex)
    basis[np.arange(dim), popcounts(n_sites)] = 1.0
    for k in range(n_sites + 1):
        basis[:, k] /= np.sqrt(comb(n_sites, k))
    return basis


def symmetric_sector_basis(H: np.ndarray) -> SymmetricSectorBasis:
    """Project H onto the symmetric sector and diagonalize there.

    Equivalent to intersecting the +1 eigenspaces of every pair swap and
    restricting H; rejects Hamiltonians that do not preserve the sector.
    """
    n_sites = sites_from_dim(H.shape[0])
    basis = symmetric_subspace(n_sites)
    hb = H @ basis
    residual = float(np.max(np.abs(hb - basis @ (basis.conj().T @ hb))))
    if residual > BLOCK_TOL:
        raise ValueError(
            f"Hamiltonian does not preserve the symmetric sector: {residual:.3e}")

    sec_h = basis.conj().T @ hb
    sec_h = (sec_h + sec_h.conj().T) / 2.0
    energies, w = np.linalg.eigh(sec_h)
    vectors = basis @ w

    sectors = charge_sectors(H)
    if sectors is None:
        full = np.linalg.eigvalsh(H)
    else:
        full = np.sort(np.concatenate([np.linalg.eigvalsh(H[np.ix_(idx, idx)])
                                       for idx in sectors]))
    taken = np.zeros(len(full), dtype=bool)
    full_indices = np.empty(len(energies), dtype=int)
    for k, e in enumerate(energies):
        candidates = np.nonzero((np.abs(full - e) <= 1e-8) & ~taken)[0]
        if len(candidates) == 0:
            raise ValueError(f"sector eigenvalue {e} not found in full spectrum")
        full_indices[k] = candidates[0]
        taken[candidates[0]] = True

    return SymmetricSectorBasis(n=n_sites, basis=basis, energies=energies,
                                vectors=vectors, full_indices=full_indices,
                                block_residual=residual)


@dataclass
class DynamicalSymmetry:
    """A = |E_a><E_b| with [H, A] = omega A and [SW_mn, A] = 0 for all pairs.

    Held as the two sector eigenvectors; `operator` forms A on each access.
    """

    omega: float
    a: int
    b: int
    vec_a: np.ndarray
    vec_b: np.ndarray
    hamiltonian: np.ndarray
    residual_h: float
    residual_swap: float
    degenerate: bool

    @property
    def operator(self) -> np.ndarray:
        return np.outer(self.vec_a, self.vec_b.conj())


def find_dynamical_symmetries(
        H: np.ndarray, sector: SymmetricSectorBasis | None = None) -> list[DynamicalSymmetry]:
    """All ordered sector eigenpairs (a != b) as validated symmetries.

    Both residuals are per-vector bounds from above. For A = |a><b|,
    HA - AH - omega A = (H v_a - E_a v_a) v_b^dag - v_a (v_b^dag H - E_b v_b^dag),
    so residual_h = |H v_a - E_a v_a|_inf |v_b|_inf
    + |v_a|_inf |v_b^dag H - E_b v_b^dag|_inf bounds max|HA - AH - omega A|.
    Likewise, with sw_k the largest swap residual max|v_k[perm] - v_k| of
    sector vector k, the entries of SW A - A SW are
    (v_a[perm] - v_a) v_b^dag + v_a (v_b - v_b[perm])^dag, so residual_swap
    = sw_a |v_b|_inf + |v_a|_inf sw_b bounds max_mn max|SW_mn A - A SW_mn|.
    """
    if sector is None:
        sector = symmetric_sector_basis(H)
    n_sites = sector.n
    vecs, energies = sector.vectors, sector.energies
    vecs_dag = vecs.conj().T
    h_left = np.max(np.abs(H @ vecs - vecs * energies), axis=0)
    h_right = np.max(np.abs(vecs_dag @ H - energies[:, None] * vecs_dag), axis=1)
    swap_res = np.zeros(sector.dimension)
    for m, n in pair_list(n_sites):
        perm = swap_permutation(n_sites, m, n)
        swap_res = np.maximum(swap_res, np.max(np.abs(vecs[perm] - vecs), axis=0))
    sup = np.max(np.abs(vecs), axis=0)
    out = []
    for a in range(sector.dimension):
        for b in range(sector.dimension):
            if a == b:
                continue
            omega = float(energies[a] - energies[b])
            res_h = float(h_left[a] * sup[b] + sup[a] * h_right[b])
            res_sw = float(swap_res[a] * sup[b] + sup[a] * swap_res[b])
            if res_h > CONDITION_TOL or res_sw > CONDITION_TOL:
                raise ValueError(
                    f"sector pair ({a},{b}) violates the symmetry conditions: "
                    f"commutator {res_h:.3e}, swap {res_sw:.3e}")
            out.append(DynamicalSymmetry(
                omega=omega, a=a, b=b, vec_a=vecs[:, a], vec_b=vecs[:, b],
                hamiltonian=H, residual_h=res_h, residual_swap=res_sw,
                degenerate=abs(omega) < DEGENERATE_OMEGA))
    return out


def verify_dynamical_symmetry(ch: Channel, sym: DynamicalSymmetry) -> float:
    """Hilbert-Schmidt residual of Phi(A rho_st) - e^{i omega dt} A rho_st."""
    mode = sym.operator / ch.dim
    evolved = apply_channel(ch, mode)
    expected = np.exp(1j * sym.omega * ch.spec.dt) * mode
    return float(np.linalg.norm(evolved - expected))


def clean_tc_state(sector: SymmetricSectorBasis, a: int, b: int) -> np.ndarray:
    """Pure state (|E_a> + |E_b>)/sqrt(2) from two sector eigenvectors.

    Indices are sector indices (0..N); translate ascending full-spectrum
    indices with sector.pair_from_full first.
    """
    if a == b:
        raise ValueError("clean oscillating state needs two distinct eigenvectors")
    dim = sector.dimension
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"sector indices ({a},{b}) out of range 0..{dim - 1}")
    return pure_state_density(sector.vectors[:, a] + sector.vectors[:, b])


def predict_observable_series(rho0: np.ndarray, symmetries: list,
                              observable: np.ndarray, n_values) -> np.ndarray:
    """Predicted <O(n)> from the symmetry expansion (no simulation).

    The stationary value pairs r_a = <E_a|rho0|E_a> with <E_a|O|E_a> over
    every sector eigenvector the symmetries name; each symmetry adds
    R_ab O_ba e^{i omega_ab n} (unit step), with R_ab = <E_a|rho0|E_b>,
    O_ba = <E_b|O|E_a> and omega_ab = E_a - E_b. Exact for initial states
    supported on the symmetric sector; for general states it gives the
    sector part that survives at late times.
    """
    if not symmetries:
        raise ValueError("need at least one dynamical symmetry")
    vectors = {}
    for sym in symmetries:
        vectors.setdefault(sym.a, sym.vec_a)
        vectors.setdefault(sym.b, sym.vec_b)
    diagonal = [vectors[i] for i in sorted(vectors)]
    r = np.array([np.real(v.conj() @ rho0 @ v) for v in diagonal])
    o = np.array([np.real(v.conj() @ observable @ v) for v in diagonal])
    omegas = np.array([sym.omega for sym in symmetries], dtype=float)
    weights = np.array([(sym.vec_a.conj() @ rho0 @ sym.vec_b)
                        * (sym.vec_b.conj() @ observable @ sym.vec_a)
                        for sym in symmetries], dtype=complex)

    phases = np.exp(1j * np.outer(np.asarray(n_values, dtype=float), omegas))
    series = float(np.sum(r * o)) + phases @ weights
    max_imag = float(np.max(np.abs(series.imag))) if series.size else 0.0
    if max_imag > 1e-9:
        raise ValueError(f"prediction not real: residual imag {max_imag:.3e}")
    return series.real
