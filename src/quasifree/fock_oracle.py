"""Brute-force verifier in a truncated two-mode number basis.

Everything the covariance modules compute has an independent counterpart
here: the density matrix is evolved under the exact generator built from
truncated ladder operators, moments are read off by tracing, and
entanglement is measured as the negativity of the partially transposed
density matrix.  Agreement between the two routes is the package's main
correctness check; this module therefore never calls the covariance
propagator.

The oracle covers parity-symmetric states: density matrices that commute
with the total parity (-1)^(n1 + n2).  Every zero-mean Gaussian state is
one, and so is every state built here (vacuum, thermal, squeezed pure
products); FockState refuses any other.  The Hamiltonian and the
anticommutator term are quadratic in ladder operators and each jump
operator is linear, so the generator never mixes the two parity sectors: rho
is evolved as its even and odd diagonal blocks, each of half the dimension,
and the partial transpose splits into the same two blocks.

The generator is time-independent, so a whole trajectory is one flow:
evolve_trajectory builds it once and yields the state at each sample time,
and evolve_rho is its one-sample case.

A hard-truncated Fock space cannot hold a Gaussian state exactly, so results
are only trusted while the population of the top number level stays below
matkit.TRUNCATION_TOL.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import matkit
from .dynamics import BathSpec, kossakowski
from .errors import (
    CutoffTooSmall,
    NotNormalizable,
    NumericalFailure,
    TruncationLeak,
    WrongModeCount,
)
from .gaussian_state import CovarianceBlocks

DEFAULT_DT = 1e-3


def _sparse_lowering_operators(cutoff: int):
    """Sparse truncated lowering operators (a_1, a_2) on the two-mode space
    with per-mode occupation 0..cutoff.  scipy.sparse is imported here, its
    one user, so a process that builds no oracle never loads it."""
    import scipy.sparse

    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    q = cutoff + 1
    a = scipy.sparse.diags_array(np.sqrt(np.arange(1, q)), offsets=1, shape=(q, q), dtype=complex)
    eye = scipy.sparse.eye_array(q, dtype=complex)
    return scipy.sparse.kron(a, eye, format="csr"), scipy.sparse.kron(eye, a, format="csr")


def parity_sectors(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the |n1, n2> basis states with even and with odd n1 + n2."""
    n = np.arange(cutoff + 1)
    odd = ((n[:, None] + n[None, :]) % 2).reshape(-1).astype(bool)
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def split_parity(rho: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The (even, even) and (odd, odd) diagonal blocks of a matrix in the
    |n1, n2> basis."""
    even, odd = parity_sectors(cutoff)
    return rho[np.ix_(even, even)], rho[np.ix_(odd, odd)]


def join_parity(blocks, cutoff: int) -> np.ndarray:
    """Inverse of split_parity for a parity-symmetric matrix: the full matrix
    with the two blocks on its diagonal and zeros between the sectors."""
    even, odd = parity_sectors(cutoff)
    q = cutoff + 1
    out = np.zeros((q * q, q * q), dtype=complex)
    out[np.ix_(even, even)] = blocks[0]
    out[np.ix_(odd, odd)] = blocks[1]
    return out


@dataclass(frozen=True)
class FockState:
    """Truncated two-mode density matrix, indexed by |n1, n2>.  It must be
    parity-symmetric: no entry may connect sectors of different total
    parity."""

    rho: np.ndarray
    cutoff: int

    def __post_init__(self):
        r = matkit.require_square(matkit.as_matrix(self.rho))
        q = self.cutoff + 1
        if r.shape[0] != q * q:
            raise ValueError(f"rho must be {q * q}x{q * q} for cutoff {self.cutoff}, got {r.shape}")
        trace = complex(np.trace(r))
        if abs(trace - 1.0) > matkit.TRACE_TOL:
            raise ValueError(f"rho must have unit trace, got {trace}")
        r = matkit.require_hermitian(r)
        even, odd = parity_sectors(self.cutoff)
        if np.any(r[np.ix_(even, odd)]) or np.any(r[np.ix_(odd, even)]):
            raise ValueError(
                "rho mixes sectors of different total parity; the oracle covers "
                "parity-symmetric (zero-mean) states only"
            )
        r = np.array(r, copy=True)
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    def min_eigenvalue(self) -> float:
        w, _ = matkit.hermitian_eigensystem(self.rho)
        return float(w[0])


def vacuum_state(cutoff: int) -> FockState:
    q = cutoff + 1
    rho = np.zeros((q * q, q * q), dtype=complex)
    rho[0, 0] = 1.0
    return FockState(rho, cutoff)


def thermal_state(mean_occupations, cutoff: int) -> FockState:
    """Product of truncated thermal modes (geometric number distributions,
    renormalized on the truncated space)."""
    occ = np.asarray(mean_occupations, dtype=float)
    if occ.shape != (2,):
        raise WrongModeCount(f"expected 2 occupations, got shape {occ.shape}")
    q = cutoff + 1
    diags = []
    for nbar in occ:
        if nbar < 0:
            raise ValueError(f"occupations must be >= 0, got {nbar}")
        if nbar == 0:
            p = np.zeros(q)
            p[0] = 1.0
        else:
            p = (nbar / (1.0 + nbar)) ** np.arange(q)
            p /= p.sum()
        diags.append(p)
    rho = np.diag(np.kron(diags[0], diags[1])).astype(complex)
    return FockState(rho, cutoff)


def _pure_mode_amplitudes(omega: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of the single-mode Gaussian pure state with
    squeezing parameter Omega: psi_{2k} proportional to
    (Omega/2)^k sqrt((2k)!) / k!, normalized on the truncated space."""
    if abs(omega) >= 1.0:
        raise NotNormalizable(f"|Omega| must be < 1, got {abs(omega)}")
    q = cutoff + 1
    psi = np.zeros(q, dtype=complex)
    psi[0] = 1.0
    amp = 1.0 + 0j
    k = 0
    while 2 * k + 2 < q:
        nxt = 2 * k + 2
        amp = amp * (omega / 2.0) * np.sqrt(nxt * (nxt - 1)) / (k + 1)
        psi[nxt] = amp
        k += 1
    return psi / np.linalg.norm(psi)


def pure_product_state(omega1: complex, omega2: complex, cutoff: int) -> FockState:
    """Density matrix of the two-mode pure product state with squeezing
    parameters (Omega_1, Omega_2); matches gaussian_state.pure_product."""
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    psi = np.kron(_pure_mode_amplitudes(omega1, cutoff), _pure_mode_amplitudes(omega2, cutoff))
    return FockState(np.outer(psi, psi.conj()), cutoff)


def _block(op, rows, cols):
    """Sparse CSR block op[rows, cols] without stored zeros."""
    out = op.tocsr()[rows][:, cols]
    out.eliminate_zeros()
    return out


class LindbladGenerator:
    """Exact master-equation generator on the truncated space.

    Acts as rho_dot = -i[H, rho] + sum_k c_k (L_k rho L_k^dag
    - {L_k^dag L_k, rho}/2), where the jump operators diagonalize the
    Kossakowski matrix (c_k may be negative for non-CP baths; the
    construction is the same).  Only the parity blocks are kept: the
    sector-preserving blocks G_e, G_o of the drift G = -iH - K/2, with
    K = sum_k c_k L_k^dag L_k, and the sector-flipping blocks L_k,eo (odd to
    even) and L_k,oe (even to odd) of each jump.
    """

    def __init__(self, bath: BathSpec, cutoff: int):
        if bath.n != 2:
            raise WrongModeCount(f"the oracle is built for 2 modes, got {bath.n}")
        a1, a2 = _sparse_lowering_operators(cutoff)
        ladder = [a1, a2, a1.conj().T, a2.conj().T]
        self.cutoff = cutoff

        h = sum(bath.omega[i, j] * (ladder[2 + i] @ ladder[j]) for i in range(2) for j in range(2))

        c = kossakowski(bath)
        w, u = matkit.hermitian_eigensystem(c)
        zero = matkit.cut(w)
        rates = []
        jumps = []
        for k in range(4):
            if abs(w[k]) <= zero:
                continue
            rates.append(float(w[k]))
            jumps.append(sum(np.conj(u[nu, k]) * ladder[nu] for nu in range(4)))

        k_op = sum(rate * (l_k.conj().T @ l_k) for rate, l_k in zip(rates, jumps))
        drift = -1j * h - 0.5 * k_op

        # Left-multiplying a dense matrix by a sparse one is the only fast
        # sparse product, so apply() is arranged to use nothing else.
        even, odd = parity_sectors(cutoff)
        self._drift = (_block(drift, even, even), _block(drift, odd, odd))
        self._jumps = []
        for rate, l_k in zip(rates, jumps):
            l_eo, l_oe = _block(l_k, even, odd), _block(l_k, odd, even)
            self._jumps.append((l_eo, rate * l_eo, l_oe, rate * l_oe))

    def apply(self, rho):
        """Generator action on a Hermitian parity-symmetric rho given as its
        parity blocks (rho_e, rho_o), returned the same way.

        With M_e = G_e rho_e + (1/2) sum_k c_k L_k,eo (L_k,eo rho_o)^dag and
        M_o likewise with e and o swapped, the result is (M_e + M_e^dag,
        M_o + M_o^dag): each jump sandwich c L rho L^dag equals
        c L (L rho)^dag and is itself Hermitian.
        """
        rho_e, rho_o = rho
        m_e = self._drift[0] @ rho_e
        m_o = self._drift[1] @ rho_o
        for l_eo, scaled_eo, l_oe, scaled_oe in self._jumps:
            m_e += 0.5 * (scaled_eo @ np.ascontiguousarray((l_eo @ rho_o).conj().T))
            m_o += 0.5 * (scaled_oe @ np.ascontiguousarray((l_oe @ rho_e).conj().T))
        return m_e + m_e.conj().T, m_o + m_o.conj().T


def build_generator(bath: BathSpec, cutoff: int) -> LindbladGenerator:
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    return LindbladGenerator(bath, cutoff)


def top_level_population(state: FockState) -> float:
    """Total population of number levels with n1 = cutoff or n2 = cutoff."""
    q = state.cutoff + 1
    diag = np.real(np.diagonal(state.rho)).reshape(q, q)
    return float(diag[q - 1, :].sum() + diag[:, q - 1].sum() - diag[q - 1, q - 1])


def evolve_trajectory(
    rho0: FockState, bath: BathSpec, times, dt: float = DEFAULT_DT
) -> Iterator[FockState]:
    """Yield the state at each of the absolute sample times, integrating the
    master equation once along the whole trajectory with one generator.

    times must be non-negative and non-decreasing.  An interval of length
    tau ending at time t takes matkit.step_count(t - tau, t, dt) fixed
    fourth-order steps of min(dt, what remains) on the two parity blocks of
    rho, and continues from the previous sample, trace-normalized as it was
    yielded.

    Hermiticity is enforced by symmetrization after every step; the trace is
    checked at each sample (the generator is trace-free, so drift beyond
    roundoff signals an integrator failure), and so is positivity: an
    eigenvalue below -matkit.TRUNCATION_TOL raises NumericalFailure.  Raises
    TruncationLeak when the top number level accumulates more than
    matkit.TRUNCATION_TOL population.  Either error ends the trajectory after
    the samples before it have been yielded.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("sample times must be >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be non-decreasing")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    cutoff = rho0.cutoff
    gen = build_generator(bath, cutoff)
    state = rho0
    t_prev = 0.0
    for t in times:
        rho = split_parity(state.rho, cutoff)
        remaining = t - t_prev
        # The step count is fixed up front, so roundoff in remaining never
        # adds a step; what it leaves over is roundoff at the scale of t.
        for _ in range(matkit.step_count(t_prev, t, dt)[0]):
            step = min(dt, remaining)
            k1 = gen.apply(rho)
            k2 = gen.apply([r + 0.5 * step * k for r, k in zip(rho, k1)])
            k3 = gen.apply([r + 0.5 * step * k for r, k in zip(rho, k2)])
            k4 = gen.apply([r + step * k for r, k in zip(rho, k3)])
            rho = [
                r + (step / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for r, a, b, c, d in zip(rho, k1, k2, k3, k4)
            ]
            rho = [0.5 * (r + r.conj().T) for r in rho]
            remaining -= step
        t_prev = t
        full = join_parity(rho, cutoff)
        trace = complex(np.trace(full))
        if abs(trace - 1.0) > matkit.TRACE_TOL:
            raise NumericalFailure(f"trace drifted to {trace}")
        # The truncated generator is itself of Lindblad form, so for a CP bath
        # only the integrator can move population to where a physical state has
        # none; the same bound as the truncation leak decides when to stop.
        min_eig = min(float(np.linalg.eigvalsh(r)[0]) for r in rho)
        if min_eig < -matkit.TRUNCATION_TOL:
            raise NumericalFailure(
                f"integrated density matrix has eigenvalue {min_eig:.3e} < -{matkit.TRUNCATION_TOL:.0e}; "
                f"the step dt={dt:g} is unstable for this generator, or the bath is not "
                "completely positive"
            )
        state = FockState(full / trace.real, cutoff)
        leak = top_level_population(state)
        if leak > matkit.TRUNCATION_TOL:
            raise TruncationLeak(
                f"top number level holds {leak:.3e} > {matkit.TRUNCATION_TOL:.0e}; "
                "increase the cutoff or shorten the evolution"
            )
        yield state


def evolve_rho(
    rho0: FockState, bath: BathSpec, t: float, dt: float = DEFAULT_DT
) -> FockState:
    """The state after evolving rho0 for time t: the one-sample case of
    evolve_trajectory, with the same steps and checks."""
    return next(evolve_trajectory(rho0, bath, (t,), dt))


def extract_moments(state: FockState) -> CovarianceBlocks:
    """Second moments alpha[i, j] = Tr[a_i a_j rho], beta[i, j] = Tr[a_i a_j^dag rho].

    Each trace is a weighted sum along one shifted diagonal of rho, read off
    rho[n1, n2, m1, m2] with the truncated ladder weights sqrt(n): a_i a_j^dag
    has weight 0 on the top level of mode j, as in the truncated product.
    """
    q = state.cutoff + 1
    r = state.rho.reshape(q, q, q, q)
    s = np.sqrt(np.arange(1, q))  # <n-1|a|n> for n = 1..q-1
    s2 = s[:-1] * s[1:]  # <n-2|a a|n> for n = 2..q-1

    def diag(block):
        # block[n1, n2, n1, n2] for every (n1, n2)
        return np.einsum("ijij->ij", block)

    alpha = np.zeros((2, 2), dtype=complex)
    beta = np.zeros((2, 2), dtype=complex)
    alpha[0, 0] = s2 @ diag(r[2:, :, :-2, :]).sum(axis=1)
    alpha[1, 1] = diag(r[:, 2:, :, :-2]).sum(axis=0) @ s2
    alpha[0, 1] = alpha[1, 0] = s @ diag(r[1:, 1:, :-1, :-1]) @ s
    pop = diag(r)
    beta[0, 0] = s**2 @ pop[:-1, :].sum(axis=1)
    beta[1, 1] = pop[:, :-1].sum(axis=0) @ s**2
    beta[0, 1] = s @ diag(r[1:, :-1, :-1, 1:]) @ s
    beta[1, 0] = s @ diag(r[:-1, 1:, 1:, :-1]) @ s
    return CovarianceBlocks(alpha=alpha, beta=beta)


def negativity(state: FockState) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over mode 1.

    Transposing mode 1 maps the entry <n1 n2|rho|m1 m2> to the position
    (m1 n2, n1 m2), whose two indices again have equal total parity, so the
    partial transpose of a parity-symmetric rho splits into the same two
    diagonal blocks as rho."""
    q = state.cutoff + 1
    pt = state.rho.reshape(q, q, q, q).transpose(2, 1, 0, 3).reshape(q * q, q * q)
    w = np.concatenate([np.linalg.eigvalsh(b) for b in split_parity(pt, state.cutoff)])
    return float(np.abs(w[w < 0]).sum())
