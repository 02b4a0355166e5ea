"""Operators, Hamiltonians and states for fully connected qubit networks.

Conventions used throughout the package:

* Computational basis ordered lexicographically, site 0 is the most
  significant bit of the basis index.
* sigma_z |0> = +|0>, so a basis index with bit 0 at site m carries
  z_m = +1 and the magnetization of index i is M_i = N - 2 popcount(i).
* All operators are dense complex numpy arrays on the full 2^N space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

MAX_QUBITS = 12

# Coupling keys of build_network_hamiltonian that each family may set, in
# disorder draw order; in the xx family jy shares jx.
ACTIVE_COUPLINGS = {
    "ising": ("jz", "hz"),
    "tfi": ("jz", "hx"),
    "xx": ("jx", "jy", "hz"),
    "xyz": ("jx", "jy", "jz", "hz"),
    "general": ("jx", "jy", "jz", "hz", "hx"),
}
HAMILTONIAN_FAMILIES = tuple(ACTIVE_COUPLINGS)
# HamiltonianSpec field that holds each coupling key
COUPLING_FIELDS = {"jx": "j_x", "jy": "j_y", "jz": "j_z", "hz": "h", "hx": "t"}

# Tolerances of a density matrix: |Tr rho - 1|, max|rho - rho^dag| and the
# floor on its smallest eigenvalue.
TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# Weight a full eigh leaves outside an eigenvector's popcount sector, relative
# to its norm; more means a level degenerate across sectors.
SECTOR_LEAK_TOL = 1e-12

STATE_KINDS = (
    "haar_random_pure",
    "plus_zero_product",
    "w_plus_superposition",
    "eigenpair_superposition",
    "maximally_mixed",
    "explicit_matrix",
)


class DimensionCapError(ValueError):
    """Raised when a requested qubit count exceeds the dense-simulation cap."""


def check_qubit_count(n_sites: int) -> int:
    if not isinstance(n_sites, (int, np.integer)) or n_sites < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n_sites!r}")
    if n_sites > MAX_QUBITS:
        raise DimensionCapError(
            f"{n_sites} qubits exceeds the dense cap of {MAX_QUBITS} (dim 2^{MAX_QUBITS})"
        )
    return int(n_sites)


def sites_from_dim(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension, validated."""
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def pair_list(n_sites: int) -> list[tuple[int, int]]:
    """All unordered site pairs (m, n) with m < n, lexicographic order."""
    return list(combinations(range(n_sites), 2))


def site_bits(n_sites: int, site: int) -> np.ndarray:
    """Bit of each basis index at the given site (site 0 = MSB)."""
    idx = np.arange(2**n_sites)
    return (idx >> (n_sites - 1 - site)) & 1


@lru_cache(maxsize=None)
def popcounts(n_sites: int) -> np.ndarray:
    """Number of 1 bits of every basis index (cached per size, read-only)."""
    counts = np.zeros(2**n_sites, dtype=np.intp)
    for site in range(n_sites):
        counts += site_bits(n_sites, site)
    counts.setflags(write=False)
    return counts


def popcount_sectors(n_sites: int) -> tuple[np.ndarray, ...]:
    """Basis indices of each popcount k = 0..N; every swap maps each to itself."""
    counts = popcounts(n_sites)
    return tuple(np.flatnonzero(counts == k) for k in range(n_sites + 1))


def charge_sectors(H: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """Basis indices of each popcount k = 0..N, or None if H mixes popcounts.

    Exact: every nonzero entry H[i, j] must join two indices of equal
    popcount (total magnetization conserved), so H, and every partial swap
    added to it, is block-diagonal over the returned N+1 index arrays.
    """
    n_sites = sites_from_dim(H.shape[0])
    counts = popcounts(n_sites)
    rows, cols = np.nonzero(H)
    if np.any(counts[rows] != counts[cols]):
        return None
    return popcount_sectors(n_sites)


@lru_cache(maxsize=None)
def magnetization_values(n_sites: int) -> np.ndarray:
    """M_i = (number of 0 bits) - (number of 1 bits) per basis index (cached
    per size, read-only)."""
    values = n_sites - 2 * popcounts(n_sites)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameters of one fully connected network Hamiltonian.

    Families and their active couplings (ACTIVE_COUPLINGS):
      ising:   H = J_z sum_<mn> z_m z_n + h sum_m z_m
      tfi:     H = J_z sum_<mn> z_m z_n + t sum_m x_m
      xx:      H = J_x sum_<mn> (x_m x_n + y_m y_n) + h sum_m z_m   (J_y = J_x)
      xyz:     H = sum_<mn> (J_x xx + J_y yy + J_z zz) + h sum_m z_m
      general: all five couplings active
    An inactive coupling must be zero.
    """

    family: str
    n: int
    j_x: float = 0.0
    j_y: float = 0.0
    j_z: float = 0.0
    h: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if self.family not in HAMILTONIAN_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {HAMILTONIAN_FAMILIES}"
            )
        check_qubit_count(self.n)
        for key, name in COUPLING_FIELDS.items():
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if key not in ACTIVE_COUPLINGS[self.family] and v != 0.0:
                raise ValueError(f"{name} is not active for family {self.family!r}")
        if self.family == "xx":
            if self.j_y == 0.0:
                object.__setattr__(self, "j_y", self.j_x)
            elif self.j_y != self.j_x:
                raise ValueError("xx family requires j_x == j_y")

    def couplings(self) -> dict:
        """Coefficient map consumed by build_network_hamiltonian."""
        return {key: getattr(self, name) for key, name in COUPLING_FIELDS.items()}


def per_entry_values(value, size: int, name: str, unit: str) -> np.ndarray:
    """A scalar repeated `size` times, or a sequence of exactly `size` values."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return np.full(size, arr.item())
    if arr.size != size:
        raise ValueError(f"{name}: expected scalar or {size} {unit} values")
    return arr.astype(float)


def build_network_hamiltonian(n_sites: int, jx=0.0, jy=0.0, jz=0.0,
                              hz=0.0, hx=0.0) -> np.ndarray:
    """Dense Hamiltonian of the fully connected network.

    H = sum_<mn> (jx_mn xx + jy_mn yy + jz_mn zz) + sum_m (hz_m z_m + hx_m x_m)

    Each coupling may be a scalar (uniform) or an array: per-bond values in
    pair_list order for jx/jy/jz, per-site values for hz/hx.
    """
    check_qubit_count(n_sites)
    pairs = pair_list(n_sites)
    jx = per_entry_values(jx, len(pairs), "jx", "per-bond")
    jy = per_entry_values(jy, len(pairs), "jy", "per-bond")
    jz = per_entry_values(jz, len(pairs), "jz", "per-bond")
    hz = per_entry_values(hz, n_sites, "hz", "per-site")
    hx = per_entry_values(hx, n_sites, "hx", "per-site")

    # Bit operations: zz and z terms sum into the diagonal, xx/yy/x terms land
    # at column idx ^ mask (yy with sign -z_m z_n), in the kron-chain sum's term
    # order, so every entry is the same; a zero coupling adds exact zeros.
    dim = 2**n_sites
    idx = np.arange(dim)
    z = [1 - 2 * site_bits(n_sites, s) for s in range(n_sites)]
    mask = [1 << (n_sites - 1 - s) for s in range(n_sites)]
    ham = np.zeros((dim, dim), dtype=complex)
    diag = np.zeros(dim)
    for k, (m, n) in enumerate(pairs):
        flip = idx ^ (mask[m] | mask[n])
        zz = z[m] * z[n]
        ham[idx, flip] += jx[k]
        ham[idx, flip] -= jy[k] * zz
        diag += jz[k] * zz
    for m in range(n_sites):
        diag += hz[m] * z[m]
        ham[idx, idx ^ mask[m]] += hx[m]
    ham[idx, idx] = diag
    return ham


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hamiltonian for a HamiltonianSpec (uniform couplings)."""
    return build_network_hamiltonian(spec.n, **spec.couplings())


def swap_permutation(n_sites: int, m: int, n: int) -> np.ndarray:
    """Basis-index permutation exchanging the bits of sites m and n."""
    if m == n:
        raise ValueError("swap needs distinct sites")
    if not (0 <= m < n_sites and 0 <= n < n_sites):
        raise ValueError(f"sites ({m},{n}) out of range for {n_sites} qubits")
    idx = np.arange(2**n_sites)
    sm = n_sites - 1 - m
    sn = n_sites - 1 - n
    bm = (idx >> sm) & 1
    bn = (idx >> sn) & 1
    out = idx & ~((1 << sm) | (1 << sn))
    out |= (bn << sm) | (bm << sn)
    return out


def entropy_from_eigenvalues(evals: np.ndarray) -> float:
    """Von Neumann entropy S = -sum lambda ln lambda of a state's eigenvalues
    (np.linalg.eigvalsh(rho)), clipped at zero."""
    evals = np.clip(np.asarray(evals).real, 0.0, None)
    pos = evals[evals > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def swap_commutation_residual(H: np.ndarray, m: int, n: int,
                              kappa: float = 1.0, *, nonzero=None) -> float:
    """Max-norm of [kappa SW_mn, H]; zero iff the pair decouples from H.

    SW is a permutation p and an involution, so every nonzero entry of
    SW H - H SW is +-(H[p r, p c] - H[r, c]) at a nonzero (r, c) of H: the
    max over H's nonzeros is the full dim^2 max, to the bit. nonzero:
    np.nonzero(H), when the caller scans H once for many pairs.
    """
    perm = swap_permutation(sites_from_dim(H.shape[0]), m, n)
    rows, cols = np.nonzero(H) if nonzero is None else nonzero
    diff = H[perm[rows], perm[cols]] - H[rows, cols]
    return float(abs(kappa) * (np.max(np.abs(diff)) if diff.size else 0.0))


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> None:
    """Raise ValueError unless rho is a density matrix within the state tolerances."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > TRACE_TOL:
        raise ValueError(f"{name}: trace deviates from 1 by {trace_err:.3e}")
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_err > HERMITICITY_TOL:
        raise ValueError(f"{name}: not Hermitian, max deviation {herm_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0].real)
    if min_eig < EIGENVALUE_FLOOR:
        raise ValueError(f"{name}: negative eigenvalue {min_eig:.3e}")


@dataclass(frozen=True)
class StateSpec:
    """Recipe for an initial density matrix.

    kinds: haar_random_pure (needs seed), plus_zero_product,
    w_plus_superposition, eigenpair_superposition (needs pair of full-spectrum
    eigenvector indices and a Hamiltonian at build time), maximally_mixed,
    explicit_matrix (needs matrix). The kinds that do not read seed, pair or
    matrix refuse it.
    """

    kind: str
    seed: int | None = None
    pair: tuple[int, int] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValueError(
                f"unknown state kind {self.kind!r}, expected one of {STATE_KINDS}"
            )
        for key, kind in (("seed", "haar_random_pure"), ("pair", "eigenpair_superposition"),
                          ("matrix", "explicit_matrix")):
            if (getattr(self, key) is None) == (self.kind == kind):
                needs = "requires" if self.kind == kind else "does not read"
                raise ValueError(f"{self.kind} {needs} {key}")
        if self.kind == "eigenpair_superposition" and (
                len(self.pair) != 2 or self.pair[0] == self.pair[1]):
            raise ValueError("eigenpair_superposition requires pair=(a, b) with a != b")


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for the normalized psi, exactly Hermitian.

    The vectorized complex products of np.outer can round (i, j) and (j, i)
    differently; such a product is replaced by its exactly Hermitian part
    (rho + rho^dag) / 2, and one that is already exact is kept bit for bit.
    """
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    if not np.array_equal(rho, rho.conj().T):
        rho += rho.conj().T
        rho *= 0.5
    return rho


def _sector_component(vec: np.ndarray, sectors) -> np.ndarray:
    """vec restricted to the sector holding it, when the rest is roundoff.

    Keeps vec's own entries (and so LAPACK's phase) on that sector and zeroes
    the others; a vector spread across sectors beyond SECTOR_LEAK_TOL of its
    norm is returned unchanged.
    """
    weights = [np.linalg.norm(vec[idx]) for idx in sectors]
    home = sectors[int(np.argmax(weights))]
    out = np.zeros_like(vec)
    out[home] = vec[home]
    if np.linalg.norm(vec - out) > SECTOR_LEAK_TOL * np.linalg.norm(vec):
        return vec
    return out


def make_initial_state(spec: StateSpec, n_sites: int,
                       hamiltonian: np.ndarray | None = None) -> np.ndarray:
    """Build the density matrix described by a StateSpec."""
    check_qubit_count(n_sites)
    dim = 2**n_sites

    if spec.kind == "haar_random_pure":
        rng = np.random.default_rng(spec.seed)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rho = pure_state_density(psi)
    elif spec.kind == "plus_zero_product":
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        psi[2 ** (n_sites - 1)] = 1.0
        rho = pure_state_density(psi)
    elif spec.kind == "w_plus_superposition":
        # sum_i |0..+_i..0> expands to N|0..0> + sum_i |0..1_i..0>, then the
        # whole vector is renormalized (the bare sum is not normalized).
        psi = np.zeros(dim, dtype=complex)
        psi[0] = float(n_sites)
        for site in range(n_sites):
            psi[1 << (n_sites - 1 - site)] = 1.0
        rho = pure_state_density(psi)
    elif spec.kind == "eigenpair_superposition":
        if hamiltonian is None:
            raise ValueError("eigenpair_superposition requires a Hamiltonian")
        if hamiltonian.shape[0] != dim:
            raise ValueError("Hamiltonian dimension does not match qubit count")
        a, b = spec.pair
        if not (0 <= a < dim and 0 <= b < dim):
            raise ValueError(f"eigenvector indices {spec.pair} out of range")
        _, vecs = np.linalg.eigh(hamiltonian)
        va, vb = vecs[:, a], vecs[:, b]
        # A full eigh leaves roundoff on other popcount sectors, which would put
        # every sector in the support of the channel's steppers (channel._states).
        sectors = charge_sectors(hamiltonian)
        if sectors is not None:
            va, vb = _sector_component(va, sectors), _sector_component(vb, sectors)
        rho = pure_state_density(va + vb)
    elif spec.kind == "maximally_mixed":
        rho = np.eye(dim, dtype=complex) / dim
    elif spec.kind == "explicit_matrix":
        rho = np.array(spec.matrix, dtype=complex)
        if rho.shape != (dim, dim):
            raise ValueError(f"explicit matrix has shape {rho.shape}, expected {(dim, dim)}")
    else:  # pragma: no cover - guarded by StateSpec validation
        raise ValueError(f"unhandled state kind {spec.kind!r}")

    validate_density_matrix(rho, name=f"state {spec.kind}")
    return rho


def single_site_expectations(rho: np.ndarray, site: int) -> tuple[float, float, float]:
    """(<sigma_x>, <sigma_y>, <sigma_z>) at one site, O(dim) gathers."""
    n_sites = sites_from_dim(rho.shape[0])
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} qubits")
    idx, flip, y_sign, z_sign = _site_indices(n_sites, site)
    cross = rho[flip, idx]
    sx = float(np.real(np.sum(cross)))
    sy = float(np.real(np.sum(y_sign * cross)))
    sz = float(np.real(np.sum(z_sign * rho[idx, idx])))
    return sx, sy, sz


@lru_cache(maxsize=None)
def _site_indices(n_sites: int, site: int) -> tuple[np.ndarray, ...]:
    """Read-only (index, flipped index, i(2b - 1), 1 - 2b) for one site."""
    idx = np.arange(2**n_sites)
    bit = site_bits(n_sites, site)
    arrays = (idx, idx ^ (1 << (n_sites - 1 - site)), 1j * (2 * bit - 1), 1 - 2 * bit)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def total_magnetization_expectation(rho: np.ndarray) -> float:
    """<sum_m sigma_z^m> from the real part of the diagonal."""
    n_sites = sites_from_dim(rho.shape[0])
    return float(np.sum(magnetization_values(n_sites) * np.real(np.diag(rho))))
