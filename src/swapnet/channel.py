"""The random partial-swap unitary channel and its stroboscopic iteration.

The channel is the convex mixture

    Phi(rho) = p0 U0 rho U0^dag + sum_<mn> p_mn U_mn rho U_mn^dag

with U0 = e^{+iH dt} and U_mn = e^{i(H + kappa_mn SW_mn) dt}. When H commutes
with a swap (uniform couplings), U_mn factorizes as U0 times the partial swap
cos(kappa dt) I + i sin(kappa dt) SW_mn, and the conjugation reduces to
exchanging the tensor axes of sites m and n; otherwise the pair unitary comes
from a full Hermitian eigendecomposition. Both paths accumulate the mixture in
fixed pair order, so iterated runs are bitwise reproducible.

When H conserves total magnetization (core.charge_sectors), U0 and every U_mn
are block-diagonal over the popcount sectors: they are built from one
eigendecomposition per sector, the rotating frame is synthesized per sector,
and the dense stepper works only on the sectors the start occupies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    charge_sectors,
    entropy_from_eigenvalues,
    magnetization_values,
    pair_list,
    per_entry_values,
    single_site_expectations,
    sites_from_dim,
    swap_commutation_residual,
    swap_permutation,
)

COMMUTE_TOL = 1e-10
UNITARY_TOL = 1e-11
ENTROPY_FLOOR = -1e-10      # a unital channel never lowers entropy; roundoff only
UNITALITY_TOL = 1e-12


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
        if self.pair_probabilities is None:
            probs = np.full(len(pairs), (1.0 - self.p0) / len(pairs))
        else:
            probs = _per_pair_map(self.pair_probabilities, pairs, "pair_probabilities")
        if np.any(probs <= 0.0):
            raise ValueError("all pair probabilities must be positive")
        total = self.p0 + probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        kappas = _per_pair_map(self.kappa, pairs, "kappa")
        return pairs, probs, kappas


@dataclass
class Channel:
    """Compiled channel: either partial-swap product form or dense unitaries."""

    n: int
    dim: int
    spec: ChannelSpec
    pairs: list
    probs: np.ndarray
    kappas: np.ndarray
    mode: str                       # "product" or "dense"
    u0: np.ndarray                  # dense U0 (product mode, non-diagonal H)
    u0_phases: np.ndarray | None    # U0 diagonal phases when H is diagonal
    sectors: tuple | None = field(default=None, repr=False)  # core.charge_sectors(H)
    unitary_stack: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)
    # (eigenvalues, eigenvectors) of H per sector, or one pair when sectors is
    # None; product mode with a non-diagonal H only
    u0_eigen: tuple | None = field(default=None, repr=False)
    _phase_mat: np.ndarray | None = field(default=None, repr=False)
    _stack_dag: np.ndarray | None = field(default=None, repr=False)

    def unitaries(self):
        """Yield (probability, dense unitary) in fixed order, U0 first."""
        if self.mode == "dense":
            yield from zip(self.weights, self.unitary_stack)
            return
        yield self.weights[0], self.u0
        theta = self.kappas * self.spec.dt
        for k, (m, n) in enumerate(self.pairs):
            perm = swap_permutation(self.n, m, n)
            psw = np.cos(theta[k]) * self.u0 + 1j * np.sin(theta[k]) * self.u0[:, perm]
            yield self.weights[k + 1], psw


def _polar_project(u: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor); trims eigh synthesis residue."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _blockwise_exp(h: np.ndarray, blocks, dt: float):
    """e^{i h dt} from one eigh per diagonal block of h (index arrays), with
    exact zeros off the blocks; returns it and the (evals, vecs) per block."""
    u = np.zeros(h.shape, dtype=complex)
    eigen = []
    for idx in blocks:
        block = np.ix_(idx, idx)
        evals, vecs = np.linalg.eigh(h[block])
        u[block] = _polar_project((vecs * np.exp(1j * evals * dt)) @ vecs.conj().T)
        eigen.append((evals, vecs))
    return u, tuple(eigen)


def build_channel(H: np.ndarray, spec: ChannelSpec | None = None) -> Channel:
    """Compile the channel for a Hamiltonian.

    Uses the factorized partial-swap form when every pair commutes with H
    (residual <= 1e-10), otherwise dense eigendecomposition per pair. Every
    eigendecomposition runs per charge sector when H has them.
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

    residuals = [swap_commutation_residual(H, m, n, kappa=kappas[k])
                 for k, (m, n) in enumerate(pairs)]
    product_form = all(r <= COMMUTE_TOL for r in residuals)

    sectors = charge_sectors(H)
    blocks = sectors or (np.arange(dim),)
    diag_h = float(np.max(np.abs(H - np.diag(np.diag(H))))) <= 1e-14
    u0_eigen = None
    if diag_h:
        u0_phases = np.exp(1j * np.diag(H).real * spec.dt)
        u0 = np.diag(u0_phases)
    else:
        u0_phases = None
        u0, u0_eigen = _blockwise_exp(H, blocks, spec.dt)

    u_err = float(np.max(np.abs(u0 @ u0.conj().T - np.eye(dim))))
    if u_err > UNITARY_TOL:
        raise ValueError(f"U0 unitarity residual {u_err:.3e}")

    if product_form:
        phase_mat = None
        if u0_phases is not None:
            phase_mat = np.outer(u0_phases, u0_phases.conj())
        return Channel(n=n_sites, dim=dim, spec=spec, pairs=pairs, probs=probs,
                       kappas=kappas, mode="product", u0=u0,
                       u0_phases=u0_phases, sectors=sectors, weights=weights,
                       u0_eigen=u0_eigen, _phase_mat=phase_mat)

    # Dense unitaries for every mixture member (non-commuting pairs).
    stack = np.empty((len(pairs) + 1, dim, dim), dtype=complex)
    stack[0] = u0
    for k, (m, n) in enumerate(pairs):
        perm = swap_permutation(n_sites, m, n)
        if residuals[k] <= COMMUTE_TOL:
            theta = kappas[k] * spec.dt
            stack[k + 1] = np.cos(theta) * u0 + 1j * np.sin(theta) * u0[:, perm]
        else:
            # H + kappa SW without forming SW; adding kappa * 0 first gives
            # the same zero entries the dense sum would; SW_mn keeps popcount,
            # so hk has H's sectors.
            hk = H + kappas[k] * 0.0
            hk[perm, np.arange(dim)] += kappas[k]
            stack[k + 1], _ = _blockwise_exp(hk, blocks, spec.dt)
    eye = np.eye(dim)
    for k in range(stack.shape[0]):
        u_err = float(np.max(np.abs(stack[k] @ stack[k].conj().T - eye)))
        if u_err > UNITARY_TOL:
            raise ValueError(f"unitary {k} residual {u_err:.3e}")
    ch = Channel(n=n_sites, dim=dim, spec=spec, pairs=pairs, probs=probs,
                 kappas=kappas, mode="dense", u0=u0, u0_phases=None,
                 sectors=sectors, unitary_stack=stack, weights=weights)
    ch._stack_dag = stack.transpose(0, 2, 1).copy()
    np.conjugate(ch._stack_dag, out=ch._stack_dag)   # one stack-sized allocation
    return ch


def _mix_product(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Partial-swap mixing map alone, without the U0 rotation.

    With rho as a (2,)*2N tensor, P rho P, P rho and rho P are views with the
    axes of sites m and n exchanged, each term formed in one scratch buffer.
    The coefficient mass is exactly 1 per mixture member (cos^2 stored as
    1 - sin^2), so the trace survives long iteration without systematic
    drift. Commutes with conjugation by U0 when the channel is in product form.
    """
    theta = ch.kappas * ch.spec.dt
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    sin_sq = sin_t**2
    cos_sq = 1.0 - sin_sq
    w_pairs = ch.weights[1:]
    diag_coeff = ch.weights[0] + float(np.sum(w_pairs * cos_sq))
    inner = diag_coeff * rho
    tensor = rho.reshape((2,) * (2 * ch.n))
    acc = inner.reshape(tensor.shape)       # a view: adds land in inner
    scratch = np.empty_like(acc)
    for k, (m, n) in enumerate(ch.pairs):
        p_rho = tensor.swapaxes(m, n)
        # PSW rho PSW^dag = c^2 rho + s^2 P rho P + i s c (P rho - rho P)
        np.multiply(w_pairs[k] * sin_sq[k], p_rho.swapaxes(ch.n + m, ch.n + n), out=scratch)
        acc += scratch
        sc = w_pairs[k] * sin_t[k] * cos_t[k]
        if sc != 0.0:
            np.subtract(p_rho, tensor.swapaxes(ch.n + m, ch.n + n), out=scratch)
            np.multiply(1j * sc, scratch, out=scratch)
            acc += scratch
    return inner


def _apply_dense(stack: np.ndarray, stack_dag: np.ndarray, weights: np.ndarray,
                 rho: np.ndarray, left: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_k w_k U_k rho U_k^dag, forming the weighted members in two
    stack-shaped buffers; the returned sum is a fresh array."""
    np.matmul(stack, rho, out=left)
    left *= weights[:, None, None]
    np.matmul(left, stack_dag, out=terms)
    return terms.sum(axis=0)


def _occupied_support(sectors, rho: np.ndarray) -> np.ndarray | None:
    """Ascending indices of the sectors in which rho has a nonzero entry, or
    None when that is every index (or there are no sectors). Exact test."""
    if sectors is None:
        return None
    occupied = [idx for idx in sectors if np.any(rho[idx]) or np.any(rho[:, idx])]
    if len(occupied) == len(sectors):
        return None
    return np.sort(np.concatenate(occupied))


class _RotatingFrame:
    """U0^n sigma U0^-n, synthesized per record from H's eigenpairs.

    Phases are reduced mod 2 pi before exponentiation. The state is gathered
    into sector order, where U0^n is block-diagonal: each sector's rotation is
    formed on its own and applied to its rows, then to its columns,
    O(dim sum_k d_k^2) instead of O(dim^3). Without sectors the one block is
    every index.
    """

    def __init__(self, ch: Channel):
        blocks = ch.sectors or (np.arange(ch.dim),)
        self.left = np.empty((ch.dim, ch.dim), dtype=complex)
        self.angles = np.concatenate([evals for evals, _ in ch.u0_eigen]) * ch.spec.dt
        self.vecs = [(vecs, vecs.conj().T.copy()) for _, vecs in ch.u0_eigen]
        order = np.concatenate(blocks)
        self.to_sectors = np.ix_(order, order)
        back = np.argsort(order)
        self.from_sectors = np.ix_(back, back)
        ends = np.cumsum([len(idx) for idx in blocks])
        self.slices = [slice(end - len(idx), end) for idx, end in zip(blocks, ends)]

    def __call__(self, n: int, sigma: np.ndarray) -> np.ndarray:
        phases = np.exp(1j * np.mod(n * self.angles, 2.0 * np.pi))
        left = self.left
        ordered = sigma[self.to_sectors]
        rots = []
        for block, (vecs, vecs_dag) in zip(self.slices, self.vecs):
            rots.append((vecs * phases[block]) @ vecs_dag)
            np.matmul(rots[-1], ordered[block], out=left[block])
        for block, rot in zip(self.slices, rots):
            np.matmul(left[:, block], rot.conj().T, out=ordered[:, block])
        return ordered[self.from_sectors]


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """One application Phi(rho). Valid for any operator, not just states."""
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"operand shape {rho.shape} does not match dim {ch.dim}")

    if ch.mode == "dense":
        return _apply_dense(ch.unitary_stack, ch._stack_dag, ch.weights, rho,
                            np.empty_like(ch.unitary_stack),
                            np.empty_like(ch.unitary_stack))

    inner = _mix_product(ch, rho)
    if ch._phase_mat is not None:
        return ch._phase_mat * inner
    return ch.u0 @ inner @ ch.u0.conj().T


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
        return {
            "checked_steps": self.checked_steps,
            "max_trace_error": self.max_trace_error,
            "max_hermiticity_error": self.max_hermiticity_error,
            "min_eigenvalue": self.min_eigenvalue,
            "min_entropy_increment": (None if not np.isfinite(self.min_entropy_increment)
                                      else self.min_entropy_increment),
            "unitality_error": self.unitality_error,
            "passed": self.passed(),
        }


SITE_OBSERVABLES = ("sx", "sy", "sz")                  # recorded per site
RUN_OBSERVABLES = ("loschmidt", "entropy", "total_mz")  # one value per step
OBSERVABLE_NAMES = SITE_OBSERVABLES + RUN_OBSERVABLES


@dataclass
class Trajectory:
    """Stroboscopic records of one iterated run, n = 0..steps inclusive."""

    steps: np.ndarray
    sites: tuple
    records: dict
    snapshots: dict
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
                    snapshot_stride: int = 0,
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
    records: dict = {}
    for name in SITE_OBSERVABLES:
        if name in record:
            records[name] = np.empty((n_rec, len(sites)))
    for name in RUN_OBSERVABLES:
        if name in record:
            records[name] = np.empty(n_rec)

    report = InvariantReport() if validate_stride else None
    want_entropy = "entropy" in record
    m_vals = magnetization_values(ch.n) if "total_mz" in record else None
    snapshots: dict = {}

    # Product channels with a non-diagonal U0 iterate in the rotating frame:
    # only the partial-swap mixer touches the state, and the U0^n rotation is
    # synthesized per record. Dense-sandwich roundoff then shows up in the
    # recorded view, not in the iterated state, so invariants hold to machine
    # precision over arbitrarily long runs. Trace, Hermiticity, spectrum and
    # entropy are frame-independent and are checked on the state.
    rotating = ch.mode == "product" and ch._phase_mat is None
    if rotating:
        frame = _RotatingFrame(ch)

    sigma = np.array(rho0, dtype=complex)
    rho = sigma
    rho0_conj = sigma.conj().copy()
    prev_entropy = None

    # Dense channels step only the block of the sectors the start occupies
    # (every member is block-diagonal, so the rest stays exactly zero) and
    # form their mixture members in two buffers allocated once. With a partial
    # support the step is written into sigma's block, so records and checks
    # read one reused full-size state.
    dense = ch.mode == "dense"
    if dense:
        support = _occupied_support(ch.sectors, sigma)
        stack, stack_dag = ch.unitary_stack, ch._stack_dag
        block = sigma
        if support is not None:
            on_support = np.ix_(support, support)
            stack = np.ascontiguousarray(stack[:, support[:, None], support])
            stack_dag = np.ascontiguousarray(stack_dag[:, support[:, None], support])
            block = sigma[on_support]
        left_stack, term_stack = np.empty_like(stack), np.empty_like(stack)

    for n in range(n_rec):
        if n > 0:
            if rotating:
                sigma = _mix_product(ch, sigma)
                rho = frame(n, sigma)
            elif dense:
                block = _apply_dense(stack, stack_dag, ch.weights, block,
                                     left_stack, term_stack)
                if support is None:
                    sigma = block
                else:
                    sigma[on_support] = block
                rho = sigma
            else:
                sigma = apply_channel(ch, sigma)
                rho = sigma
        for j, s in enumerate(sites):
            for name, value in zip(SITE_OBSERVABLES, single_site_expectations(rho, s)):
                if name in records:
                    records[name][n, j] = value
        if "loschmidt" in records:
            records["loschmidt"][n] = float(np.real(np.sum(rho0_conj * rho)))
        if "total_mz" in records:
            records["total_mz"][n] = float(np.sum(m_vals * np.real(np.diag(rho))))

        check_now = validate_stride and (n % validate_stride == 0 or n == steps)
        if want_entropy or check_now:
            evals = np.linalg.eigvalsh(sigma)
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
        if snapshot_stride and n % snapshot_stride == 0:
            snapshots[n] = rho.copy()

    return Trajectory(steps=np.arange(n_rec), sites=sites, records=records,
                      snapshots=snapshots, final_state=rho, invariants=report)


def unitality_error(ch: Channel) -> float:
    """Max-norm deviation of Phi(I/dim) from I/dim."""
    mixed = np.eye(ch.dim, dtype=complex) / ch.dim
    return float(np.max(np.abs(apply_channel(ch, mixed) - mixed)))
