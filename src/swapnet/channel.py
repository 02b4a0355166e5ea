"""The random partial-swap unitary channel and its stroboscopic iteration.

The channel is the convex mixture

    Phi(rho) = p0 U0 rho U0^dag + sum_<mn> p_mn U_mn rho U_mn^dag

with U0 = e^{+iH dt} and U_mn = e^{i(H + kappa_mn SW_mn) dt}. When H commutes
with a swap (uniform couplings), U_mn factorizes as U0 times the partial swap
cos(kappa dt) I + i sin(kappa dt) SW_mn, and the conjugation reduces to
exchanging the tensor axes of sites m and n; otherwise the pair unitary comes
from a full Hermitian eigendecomposition. Both paths accumulate the mixture in
fixed pair order, so iterated runs are bitwise reproducible.

Every unitary is held only as its blocks: the popcount sectors when H
conserves total magnetization (core.charge_sectors), else one block of every
index. One stepper per mode yields the iterated states; apply_channel is its
step 1 and iterate_channel records along it. A product channel steps in the
rotating frame, where only the mixer touches the state, and forms the
lab-frame view from U0's spectrum: elementwise phases for a diagonal H, else
U0^n on the occupied blocks.

A dense channel's members are block-diagonal, so Phi maps each block pair
X[a, b] to itself (a strong symmetry): the dense stepper computes
y[a, b] = sum_k w_k U_k^a x[a, b] U_k^b^dag pair by pair with K d_a d_b of
scratch, or in chunks of rows past PAIR_SCRATCH_DIMSQ dim^2, and on an
exactly Hermitian operand only the pairs a >= b, mirroring the rest. Without
sectors the one block is the whole space, its only pair. build_channel
refuses a dense channel whose members, compile and stepper would not fit in
available memory (dense_memory_bytes).

The product-form mixer has two halves. Summed over pairs, the partial-swap
sandwiches give sum_k w_k s_k^2 SW_k rho SW_k, formed pair by pair on
exchanged tensor axes, plus the commutator i[S, rho] with
S = sum_k w_k sin(theta_k) cos(theta_k) SW_k. S is real and symmetric, and
since a swap never changes popcount it is block-diagonal over the popcount
sectors for every family, whether or not H has sectors. It is compiled once
per sector, and i[S, rho] costs one real matmul per sector on each side.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from itertools import accumulate, count, islice, product

import numpy as np

from .core import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    DimensionCapError,
    charge_sectors,
    entropy_from_eigenvalues,
    pair_list,
    per_entry_values,
    popcount_sectors,
    single_site_expectations,
    sites_from_dim,
    swap_commutation_residual,
    swap_permutation,
    total_magnetization_expectation,
)

COMMUTE_TOL = 1e-10
UNITARY_TOL = 1e-11
ENTROPY_FLOOR = -1e-10      # a unital channel never lowers entropy; roundoff only
UNITALITY_TOL = 1e-12
# Up to this dimension the swap sum S is held as one block of every index:
# there, two full matmuls cost less than the Python overhead of a pair per
# popcount sector (one BLAS thread, n=3: 21 against 41 us per mix).
SWAP_SUM_SECTOR_DIM = 64
# Bound of the dense stepper's scratch, in dim^2 entries, past which a block
# pair goes in chunks of rows. Popcount sectors stay below 4 dim^2 up to
# n=10, so only a channel without sectors splits. Disordered tfi at n=8
# (K = 29, one BLAS thread, medians of 3): 161, 146 and 142 ms per step at
# bounds of 4, 8 and 16 dim^2, at a peak RSS of 111, 113 and 127 MB.
PAIR_SCRATCH_DIMSQ = 8


class ChannelInvariantError(RuntimeError):
    """Raised when an evolved state breaks a channel invariant."""


def _per_pair_map(value, pairs, name: str) -> np.ndarray:
    """Resolve a scalar, mapping or sequence into per-pair values."""
    if isinstance(value, dict):
        out = np.empty(len(pairs))
        seen = set()
        for key, v in value.items():
            m, n = (int(k) for k in key)
            pair = (m, n) if m < n else (n, m)
            if pair not in pairs:
                raise ValueError(f"{name}: unknown pair {pair}")
            if pair in seen:
                raise ValueError(f"{name}: duplicate pair {pair}")
            seen.add(pair)
            out[pairs.index(pair)] = float(v)
        if len(seen) != len(pairs):
            missing = [p for p in pairs if p not in seen]
            raise ValueError(f"{name}: missing pairs {missing}")
        return out
    return per_entry_values(value, len(pairs), name, "per-pair")


@dataclass(frozen=True)
class ChannelSpec:
    """Mixture weights and swap strengths of the channel.

    pair_probabilities: None for the uniform split (1 - p0)/n_pairs, or a
    mapping {(m, n): p} / sequence in pair_list order. kappa: scalar or
    per-pair values the same way.
    """

    p0: float = 0.2
    pair_probabilities: object = None
    kappa: object = 1.0
    dt: float = 1.0

    def resolve(self, n_sites: int):
        """(pairs, probs, kappas) with validated normalization."""
        pairs = pair_list(n_sites)
        if not pairs:
            raise ValueError("channel needs at least 2 qubits")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.pair_probabilities is None:
            probs = np.full(len(pairs), (1.0 - self.p0) / len(pairs))
        else:
            probs = _per_pair_map(self.pair_probabilities, pairs, "pair_probabilities")
        if not np.all(probs > 0.0):
            raise ValueError("all pair probabilities must be positive")
        total = self.p0 + probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        kappas = _per_pair_map(self.kappa, pairs, "kappa")
        if not np.all(np.isfinite(kappas)):
            raise ValueError(f"kappa must be finite, got {kappas}")
        return pairs, probs, kappas


@dataclass
class Channel:
    """Compiled channel: either partial-swap product form or dense unitaries,
    every unitary held only as its blocks (`blocks`)."""

    n: int
    dim: int
    spec: ChannelSpec
    pairs: list
    kappas: np.ndarray
    mode: str                       # "product" or "dense"
    u0_phases: np.ndarray | None    # U0 diagonal phases when H is diagonal
    sectors: tuple | None = field(default=None, repr=False)  # core.charge_sectors(H)
    weights: np.ndarray | None = field(default=None, repr=False)
    # (eigenvalues, eigenvectors, their adjoint) of H per block; product mode
    # with a non-diagonal H only
    u0_eigen: tuple | None = field(default=None, repr=False)
    # per block, the mixture members (U0 first) as a (d, K, d) array, rows[:, k]
    # = U_k, and their weighted adjoints as a (K, d, d) array, cols[k] =
    # w_k U_k^dag; dense mode only
    members: tuple | None = field(default=None, repr=False)
    # (indices, real block) of S = sum_k w_k sin(theta_k) cos(theta_k) SW_k
    # per popcount sector (_swap_sum); product mode only
    swap_sum: tuple | None = field(default=None, repr=False)

    @property
    def blocks(self) -> tuple:
        """Index arrays of the blocks: the charge sectors, or every index."""
        return self.sectors or (np.arange(self.dim),)

    @property
    def frame(self) -> str:
        """How U0 is held: product_diagonal (diagonal phases) or
        product_rotating (per-block eigenpairs), both stepped in the rotating
        frame, or dense."""
        if self.mode == "dense":
            return "dense"
        return "product_diagonal" if self.u0_phases is not None else "product_rotating"

    def u0_blocks(self) -> list:
        """U0 per block, from the phases of a diagonal H or, in product mode,
        synthesized from H's eigenpairs."""
        if self.u0_phases is not None:
            return [np.diag(self.u0_phases[idx]) for idx in self.blocks]
        return [u for u, _ in _rotation(self.u0_eigen, self.spec.dt, 1)]

    def unitaries(self):
        """Yield (probability, dense unitary) in fixed order, U0 first, each
        assembled from its blocks on demand."""
        if self.mode == "dense":
            per_member = [[rows[:, k] for rows, _ in self.members]
                          for k in range(len(self.weights))]
        else:
            u0 = self.u0_blocks()
            theta = self.kappas * self.spec.dt
            per_member = [u0] + [_partial_swap(u0, self.blocks, self.n, pair, t)
                                 for t, pair in zip(theta, self.pairs)]
        for w, member in zip(self.weights, per_member):
            u = np.zeros((self.dim, self.dim), dtype=complex)
            for idx, block in zip(self.blocks, member):
                u[np.ix_(idx, idx)] = block
            yield w, u


def _blockwise_exp(h: np.ndarray, blocks, dt: float) -> list:
    """e^{i h dt} per diagonal block of h (index arrays), one eigh each; the
    polar factor (nearest unitary) trims the synthesis residue."""
    out = []
    for idx in blocks:
        evals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
        w, _, vh = np.linalg.svd((vecs * np.exp(1j * evals * dt)) @ vecs.conj().T)
        out.append(w @ vh)
    return out


def _partial_swap(u0: list, blocks, n_sites: int, pair, theta: float) -> list:
    """Per block, the pair member cos(theta) U0 + i sin(theta) U0 SW_mn; the
    swap maps every block onto itself."""
    perm = swap_permutation(n_sites, *pair)
    local = np.empty(perm.size, dtype=np.intp)      # index -> place in its block
    for idx in blocks:
        local[idx] = np.arange(idx.size)
    return [np.cos(theta) * u + 1j * np.sin(theta) * u[:, local[perm[idx]]]
            for u, idx in zip(u0, blocks)]


def _swap_sum(ch: Channel) -> tuple:
    """(indices, S block) per popcount sector of the real symmetric
    S = sum_k w_k sin(theta_k) cos(theta_k) SW_k, summed in pair order; one
    block of every index up to SWAP_SUM_SECTOR_DIM."""
    theta = ch.kappas * ch.spec.dt
    coeffs = ch.weights[1:] * np.sin(theta) * np.cos(theta)
    perms = [swap_permutation(ch.n, m, n) for m, n in ch.pairs]
    blocks = (popcount_sectors(ch.n) if ch.dim > SWAP_SUM_SECTOR_DIM
              else (np.arange(ch.dim),))
    local = np.empty(ch.dim, dtype=np.intp)         # index -> place in its block
    out = []
    for idx in blocks:
        cols = np.arange(idx.size)
        local[idx] = cols
        s = np.zeros((idx.size, idx.size))
        for c, perm in zip(coeffs, perms):
            s[local[perm[idx]], cols] += c          # SW_k[perm[j], j] = 1
        out.append((idx, s))
    return tuple(out)


def _rotation(eigen: list, dt: float, n: int) -> list:
    """U0^n per block with its adjoint, synthesized as V e^{i n dt E} V^dag
    with the phases reduced mod 2 pi."""
    rots = [(vecs * np.exp(1j * np.mod(n * (evals * dt), 2.0 * np.pi))) @ vecs_dag
            for evals, vecs, vecs_dag in eigen]
    return [(r, r.conj().T) for r in rots]


def _check_unitary(mats) -> None:
    """Reject a member block that departs from unitarity by > UNITARY_TOL."""
    for u in mats:
        u_err = float(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))))
        if u_err > UNITARY_TOL:
            raise ValueError(f"mixture member not unitary, residual {u_err:.3e}")


def _scratch_entries(n_members: int, largest: int, dim: int) -> int:
    """Entries of the dense stepper's scratch: K d^2 for the largest block d,
    or PAIR_SCRATCH_DIMSQ dim^2 past that bound, never below one row's K d."""
    return min(n_members * largest**2, max(PAIR_SCRATCH_DIMSQ * dim**2, n_members * largest))


def dense_memory_bytes(n_sites: int, block_sizes, n_members: int) -> int:
    """Estimated bytes of a dense channel, its compile and its stepper, from
    sizes alone.

    The K members of every block and their adjoints take 2 K sum_b d_b^2
    complex entries. Eight dim^2 operators come on top: three Hamiltonians
    alive during the compile (H, the member's H + kappa SW, and the clean H
    a disordered run holds beside H), the state and the checked copy of a
    validate step, and the stepper's gathered state, its double buffer and
    the gathered checked state that eigvalsh reads. Then the stepper's
    scratch (_scratch_entries).
    """
    dim = 2**n_sites
    return 16 * (2 * n_members * sum(int(d) ** 2 for d in block_sizes) + 8 * dim**2
                 + _scratch_entries(n_members, int(max(block_sizes)), dim))


def _memory_budget() -> int:
    """Available memory of the host in bytes: MemAvailable, or the physical
    memory where /proc/meminfo does not give it."""
    try:
        with open("/proc/meminfo") as f:
            fields = dict(line.split(":", 1) for line in f)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def build_channel(H: np.ndarray, spec: ChannelSpec | None = None) -> Channel:
    """Compile the channel for a Hamiltonian.

    Uses the factorized partial-swap form when every pair commutes with H
    (residual <= 1e-10), otherwise dense eigendecomposition per pair. Every
    eigendecomposition runs per charge sector when H has them. A dense
    channel whose dense_memory_bytes estimate (every block occupied) exceeds
    available memory raises DimensionCapError before its members are built.
    """
    spec = spec or ChannelSpec()
    n_sites = sites_from_dim(H.shape[0])
    dim = H.shape[0]
    herm_err = float(np.max(np.abs(H - H.conj().T)))
    if herm_err > HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian not Hermitian, deviation {herm_err:.3e}")
    pairs, probs, kappas = spec.resolve(n_sites)
    # Compiled mixture weights renormalized to unit machine sum; a one-ulp
    # residue would otherwise compound into linear trace drift over long runs.
    weights = np.concatenate(([spec.p0], probs))
    weights /= weights.sum()
    for _ in range(2):
        weights[0] += 1.0 - weights.sum()

    nonzero = np.nonzero(H)                 # one scan for every pair's residual
    residuals = [swap_commutation_residual(H, m, n, kappa=kappas[k], nonzero=nonzero)
                 for k, (m, n) in enumerate(pairs)]
    diag_h = float(np.max(np.abs(H - np.diag(np.diag(H))))) <= 1e-14
    ch = Channel(n=n_sites, dim=dim, spec=spec, pairs=pairs, kappas=kappas,
                 mode="product" if all(r <= COMMUTE_TOL for r in residuals) else "dense",
                 u0_phases=np.exp(1j * np.diag(H).real * spec.dt) if diag_h else None,
                 sectors=charge_sectors(H), weights=weights)
    blocks = ch.blocks

    if ch.mode == "product":
        ch.swap_sum = _swap_sum(ch)
        if not diag_h:
            eigen = (np.linalg.eigh(H[np.ix_(idx, idx)]) for idx in blocks)
            ch.u0_eigen = tuple((e, v, v.conj().T.copy()) for e, v in eigen)
        _check_unitary(ch.u0_blocks())
        return ch

    # Dense: every mixture member, block by block (non-commuting pairs).
    sizes = [idx.size for idx in blocks]
    need = dense_memory_bytes(n_sites, sizes, len(weights))
    budget = _memory_budget()
    if need > budget:
        raise DimensionCapError(
            f"dense channel of {n_sites} qubits needs about {need / 2**30:.1f} GiB (members, "
            f"compile and stepper), more than the {budget / 2**30:.1f} GiB of available memory")
    u0 = ch.u0_blocks() if diag_h else _blockwise_exp(H, blocks, spec.dt)
    rows = [np.empty((d, len(weights), d), dtype=complex) for d in sizes]
    for k in range(len(weights)):
        if k == 0:
            member = u0
        elif residuals[k - 1] <= COMMUTE_TOL:
            member = _partial_swap(u0, blocks, n_sites, pairs[k - 1], kappas[k - 1] * spec.dt)
        else:
            # H + kappa SW without forming SW; adding kappa * 0 first gives
            # the same zero entries the dense sum would; SW_mn keeps popcount,
            # so hk has H's sectors.
            hk = H + kappas[k - 1] * 0.0
            hk[swap_permutation(n_sites, *pairs[k - 1]), np.arange(dim)] += kappas[k - 1]
            member = _blockwise_exp(hk, blocks, spec.dt)
        _check_unitary(member)
        for r, block in zip(rows, member):
            r[:, k] = block
    cols = [np.empty((len(weights), d, d), dtype=complex) for d in sizes]
    for r, c in zip(rows, cols):
        np.conjugate(r.transpose(1, 2, 0), out=c)     # c[k] = U_k^dag
        c *= weights[:, None, None]
    ch.members = tuple(zip(rows, cols))
    return ch


def _mix_product(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Partial-swap mixing map alone, without the U0 rotation.

    Each pair gives PSW rho PSW^dag = c^2 rho + s^2 P rho P + i s c [P, rho],
    and the map has two halves. The c^2 and s^2 terms: with rho as a
    (2,)*2N tensor, P rho P is a view with the axes of sites m and n
    exchanged, weighted pair by pair in one scratch buffer; the coefficient
    mass is exactly 1 per mixture member (cos^2 stored as 1 - sin^2), so the
    trace survives long iteration without systematic drift. The commutators
    sum to i[S, rho] (ch.swap_sum), formed in the same buffer block by block
    of S: rows S rho, then columns rho S = (S rho^T)^T, each one real matmul
    on the complex entries viewed as float pairs. Commutes with conjugation
    by U0 in product form.
    """
    rho = np.asarray(rho, dtype=complex)
    sin_sq = np.sin(ch.kappas * ch.spec.dt) ** 2
    w_pairs = ch.weights[1:]
    diag_coeff = ch.weights[0] + float(np.sum(w_pairs * (1.0 - sin_sq)))
    inner = diag_coeff * rho
    tensor = rho.reshape((2,) * (2 * ch.n))
    acc = inner.reshape(tensor.shape)       # a view: adds land in inner
    scratch = np.empty_like(acc)
    for k, (m, n) in enumerate(ch.pairs):
        np.multiply(w_pairs[k] * sin_sq[k],
                    tensor.swapaxes(m, n).swapaxes(ch.n + m, ch.n + n), out=scratch)
        acc += scratch
    comm = scratch.reshape(rho.shape)
    for idx, s in ch.swap_sum:
        comm[idx] = _real_matmul(s, rho[idx])
    for idx, s in ch.swap_sum:
        rho_s = _real_matmul(s, rho.T[idx]).T      # (rho S)[:, idx]
        comm[:, idx] -= rho_s
        del rho_s       # two block temporaries at a time, not three
    comm *= 1j
    inner += comm
    return inner


def _real_matmul(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s @ x for real s and C-contiguous complex x (a gather), as one real
    matmul on x's float pairs."""
    return (s @ x.view(float)).view(complex)


def _occupied_blocks(ch: Channel, x: np.ndarray) -> tuple:
    """Numbers of the blocks in which x has a nonzero entry (exact test), and
    the np.ix_ gather of x into those blocks' order."""
    occupied = [b for b, idx in enumerate(ch.blocks) if np.any(x[idx]) or np.any(x[:, idx])]
    order = np.concatenate([ch.blocks[b] for b in occupied] or [np.empty(0, dtype=np.intp)])
    return occupied, np.ix_(order, order)


def _spans(sizes: list) -> list:
    """Consecutive index ranges of blocks with these sizes."""
    return [slice(end - d, end) for d, end in zip(sizes, accumulate(sizes))]


def _conjugate_blocks(frame: list, x: np.ndarray, left: np.ndarray) -> np.ndarray:
    """U x U^dag for a block-diagonal U, given per block with its adjoint on
    consecutive index ranges of the D x D operand x: each block's rows into
    the D x D scratch left, then its columns back into x."""
    spans = _spans([u.shape[-1] for u, _ in frame])
    for s, (u, _) in zip(spans, frame):
        np.matmul(u, x[s], out=left[s])
    for s, (_, u_dag) in zip(spans, frame):
        np.matmul(left[:, s], u_dag, out=x[:, s])
    return x


def _states(ch: Channel, rho0: np.ndarray):
    """Yield (lab-frame state, checked state) for n = 0, 1, 2, ... applications:
    the checked state is the un-rotated sigma that the trace, Hermiticity and
    spectrum checks read. Every member is block-diagonal, so sigma stays
    exactly zero outside the blocks rho0 occupies, and the dense stepper and
    the rotating frame's view work on those alone. A yielded array may be
    reused by the next step. Sending True instead of calling next() marks the
    step as checked (see _dense_steps).
    """
    sigma = np.array(rho0, dtype=complex)
    validate = yield sigma, sigma
    occupied, gather = _occupied_blocks(ch, sigma)
    if ch.mode == "dense":
        stepper = _dense_steps(ch, sigma, [ch.members[b] for b in occupied], gather, validate)
    else:
        stepper = _rotating_steps(ch, sigma, occupied, gather)
    del sigma                           # the stepper alone holds the state
    yield from stepper


def _rotating_steps(ch: Channel, sigma: np.ndarray, occupied: list, gather: tuple):
    """Product channel, in the rotating frame: only the mixer touches sigma,
    so sandwich roundoff stays out of it. The lab-frame view U0^n sigma U0^-n
    multiplies by the phases e^{i mod(n E dt, 2 pi)} of a diagonal U0, or
    synthesizes U0^n on the occupied blocks."""
    view = np.zeros_like(sigma)
    if ch.u0_phases is not None:
        angles = np.angle(ch.u0_phases)                # E dt, reduced
    else:
        eigen = [ch.u0_eigen[b] for b in occupied]
        left = np.empty((gather[0].size, gather[0].size), dtype=complex)
    for n in count(1):
        sigma = _mix_product(ch, sigma)
        if ch.u0_phases is not None:
            phases = np.exp(1j * np.mod(n * angles, 2.0 * np.pi))
            np.multiply(sigma, phases[:, None], out=view)
            view *= phases.conj()
        else:
            frame = _rotation(eigen, ch.spec.dt, n)
            view[gather] = _conjugate_blocks(frame, sigma[gather], left)
        yield view, sigma


def _dense_steps(ch: Channel, sigma: np.ndarray, members: list, gather: tuple, validate):
    """Dense members on the occupied part x of sigma, one block pair at a time.

    Each member is block-diagonal, so y[a, b] depends on x[a, b] alone:
    y[a, b] = sum_k U_k^a x[a, b] (w_k U_k^b^dag). The rows of every member
    go in one GEMM into K d_a d_b of scratch, and the columns and the sum
    over members in one GEMM over the stacked weighted adjoints, written
    into a second buffer and copied back. Past PAIR_SCRATCH_DIMSQ dim^2 of
    scratch (the one block of a channel without sectors), the rows of block
    a go in chunks, a GEMM pair each. An exactly Hermitian x (every state)
    takes the half form: only the pairs a >= b, the strict upper triangle
    mirrored from the lower and the diagonal made real, so x stays exactly
    Hermitian. Any other operand gets every pair, until a step leaves it
    exactly Hermitian. The form follows the operand, so apply_channel
    repeated and this stepper agree bit for bit. A checked step of the half
    form computes every pair and yields that unmirrored result as the
    checked state, so the checks (and the entropy record, which shares
    their eigvalsh) read pairs a < b computed on their own and the
    Hermiticity error is measured, not zero by construction. The stored
    state is the mirrored one either way.
    """
    n_members = len(ch.weights)
    sizes = [rows.shape[0] for rows, _ in members]
    spans = _spans(sizes)
    scratch = np.empty(_scratch_entries(n_members, max(sizes, default=0), ch.dim), complex)
    x = sigma[gather]
    y = np.empty_like(x)
    lower, upper = [], []
    for (a, da), (b, db) in product(enumerate(sizes), repeat=2):
        chunk = max(1, scratch.size // (n_members * db))
        for lo in range(0, da, chunk):
            rows = members[a][0][lo:lo + chunk]
            by_row = scratch[:len(rows) * n_members * db]
            (lower if a >= b else upper).append((
                rows.reshape(-1, da), x[spans[a], spans[b]], by_row.reshape(-1, db),
                by_row.reshape(len(rows), -1), members[b][1].reshape(-1, db),
                y[spans[a]][lo:lo + chunk, spans[b]]))
    every_pair = lower + upper
    strict_upper = np.triu(np.ones(x.shape, dtype=bool), 1)
    half = np.array_equal(x, x.conj().T)
    checked = None
    while True:
        for rows, block, by_row, by_col, cols, out in (
                lower if half and not validate else every_pair):
            np.matmul(rows, block, out=by_row)
            np.matmul(by_col, cols, out=out)
        np.copyto(x, y)
        measured = half and validate
        if measured:
            if checked is None:
                checked = np.zeros_like(sigma)
            checked[gather] = x
        if half:
            np.copyto(x, x.T.conj(), where=strict_upper)
            np.fill_diagonal(x.imag, 0.0)
        sigma[gather] = x
        half = half or np.array_equal(x, x.conj().T)
        validate = yield sigma, (checked if measured else sigma)


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """One application Phi(rho) of any operator: step 1 of the stepper."""
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"operand shape {rho.shape} does not match dim {ch.dim}")
    return next(islice(_states(ch, rho), 1, None))[0]


def channel_superoperator(ch: Channel) -> np.ndarray:
    """Dense dim^2 x dim^2 matrix of the channel acting on row-stacked rho.

    vec(U rho U^dag) = (U kron U*) vec(rho) for row-major vec. Memory grows as
    dim^4; intended for small networks (the oracle checks use N <= 3).
    """
    dim = ch.dim
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for p, u in ch.unitaries():
        s += p * np.kron(u, u.conj())
    return s


@dataclass
class InvariantReport:
    """Worst-case deviations observed while iterating a state."""

    checked_steps: int = 0
    max_trace_error: float = 0.0
    max_hermiticity_error: float = 0.0
    min_eigenvalue: float = 0.0
    min_entropy_increment: float = np.inf
    unitality_error: float | None = None

    def update(self, trace_err: float, herm_err: float, min_eig: float):
        self.checked_steps += 1
        self.max_trace_error = max(self.max_trace_error, trace_err)
        self.max_hermiticity_error = max(self.max_hermiticity_error, herm_err)
        self.min_eigenvalue = min(self.min_eigenvalue, min_eig)

    def passed(self) -> bool:
        ok = (self.max_trace_error <= TRACE_TOL
              and self.max_hermiticity_error <= HERMITICITY_TOL
              and self.min_eigenvalue >= EIGENVALUE_FLOOR)
        if np.isfinite(self.min_entropy_increment):
            ok = ok and self.min_entropy_increment >= ENTROPY_FLOOR
        if self.unitality_error is not None:
            ok = ok and self.unitality_error <= UNITALITY_TOL
        return bool(ok)

    def summary(self) -> dict:
        out = asdict(self)
        if not np.isfinite(self.min_entropy_increment):
            out["min_entropy_increment"] = None
        out["passed"] = self.passed()
        return out


SITE_OBSERVABLES = ("sx", "sy", "sz")                  # recorded per site
RUN_OBSERVABLES = ("loschmidt", "entropy", "total_mz")  # one value per step
OBSERVABLE_NAMES = SITE_OBSERVABLES + RUN_OBSERVABLES


@dataclass
class Trajectory:
    """Stroboscopic records of one iterated run, n = 0..steps inclusive."""

    steps: np.ndarray
    sites: tuple
    records: dict
    final_state: np.ndarray
    invariants: InvariantReport | None = None

    def series(self, name: str, site: int | None = None) -> np.ndarray:
        if name not in self.records:
            raise KeyError(f"observable {name!r} was not recorded")
        values = self.records[name]
        if name in SITE_OBSERVABLES:
            if site is None:
                raise ValueError(f"observable {name!r} needs a site")
            if site not in self.sites:
                raise KeyError(f"site {site} was not recorded (sites={self.sites})")
            return values[:, self.sites.index(site)]
        return values


def iterate_channel(ch: Channel, rho0: np.ndarray, steps: int,
                    record=OBSERVABLE_NAMES, sites=None,
                    validate_stride: int = 0) -> Trajectory:
    """Iterate Phi on rho0 for `steps` applications, recording each n.

    record: observable names out of sx, sy, sz, loschmidt, entropy, total_mz.
    sites: which sites get sx/sy/sz records (default: all).
    validate_stride: check trace/Hermiticity/positivity/entropy monotonicity
    every that many steps (0 disables; shares the eigendecomposition with the
    entropy record when both are on).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    record = tuple(record)
    unknown = [r for r in record if r not in OBSERVABLE_NAMES]
    if unknown:
        raise ValueError(f"unknown observables {unknown}, expected {OBSERVABLE_NAMES}")
    if sites is None:
        sites = tuple(range(ch.n))
    else:
        sites = tuple(int(s) for s in sites)
        if any(s < 0 or s >= ch.n for s in sites):
            raise ValueError(f"sites {sites} out of range for {ch.n} qubits")

    n_rec = steps + 1
    records = {name: np.empty((n_rec, len(sites)) if name in SITE_OBSERVABLES else n_rec)
               for name in OBSERVABLE_NAMES if name in record}

    report = InvariantReport() if validate_stride else None
    want_entropy = "entropy" in record
    rho0_conj = np.asarray(rho0, dtype=complex).conj()
    # the spectrum of a partial support is that of its occupied block, plus
    # exact zeros within min_eigenvalue's start
    occupied, gather = _occupied_blocks(ch, rho0)
    partial = len(occupied) < len(ch.blocks)
    prev_entropy = None

    states = _states(ch, rho0)
    for n in range(n_rec):
        check_now = validate_stride and (n % validate_stride == 0 or n == steps)
        rho, sigma = states.send(bool(check_now)) if n else next(states)
        for j, s in enumerate(sites):
            for name, value in zip(SITE_OBSERVABLES, single_site_expectations(rho, s)):
                if name in records:
                    records[name][n, j] = value
        if "loschmidt" in records:
            records["loschmidt"][n] = float(np.real(np.sum(rho0_conj * rho)))
        if "total_mz" in records:
            records["total_mz"][n] = total_magnetization_expectation(rho)

        if want_entropy or check_now:
            evals = np.linalg.eigvalsh(sigma[gather] if partial else sigma)
            entropy = entropy_from_eigenvalues(evals)
            if want_entropy:
                records["entropy"][n] = entropy
            if check_now:
                trace_err = abs(np.trace(sigma) - 1.0)
                herm_err = float(np.max(np.abs(sigma - sigma.conj().T)))
                report.update(float(trace_err), herm_err, float(evals[0].real))
            if prev_entropy is not None and report is not None:
                report.min_entropy_increment = min(report.min_entropy_increment,
                                                   entropy - prev_entropy)
            prev_entropy = entropy
        del sigma               # not held over the next step, whose mix may free it

    return Trajectory(steps=np.arange(n_rec), sites=sites, records=records,
                      final_state=rho, invariants=report)


def unitality_error(ch: Channel) -> float:
    """Max-norm deviation of Phi(I/dim) from I/dim; a dense channel forms it
    block by block as sum_k U_k (w_k U_k^dag) / dim, one GEMM per block."""
    if ch.mode == "product":
        mixed = np.eye(ch.dim, dtype=complex) / ch.dim
        return float(np.max(np.abs(apply_channel(ch, mixed) - mixed)))
    err = 0.0
    for rows, cols in ch.members:
        d = len(rows)
        mixed = rows.reshape(d, -1) @ cols.reshape(-1, d)
        err = max(err, float(np.max(np.abs(mixed / ch.dim - np.eye(d) / ch.dim))))
    return err
