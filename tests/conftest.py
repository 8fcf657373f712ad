"""Shared helpers: deterministic random baths and states."""

import numpy as np
import pytest
import scipy.linalg

from quasifree import (
    BathSpec,
    Covariance,
    drift_diffusion,
    from_blocks,
    kossakowski,
    matkit,
    propagate_exact,
    sigma_matrix,
    vacuum,
)

# The permutation matrix exchanging a_1 and a_1^dag in the ordering
# (a1, a2, a1+, a2+): transposition of the first mode at the covariance level.
T_MATRIX = np.array(
    [
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def random_cp_bath(rng, strength=1.0, damping_bias=0.8, omega_scale=0.5):
    """A random completely positive bath with a damping-dominated diagonal.

    The Kossakowski matrix is a random PSD matrix scaled to the requested
    spectral norm, with extra decay added on the eta block so that evolutions
    stay well inside a moderate Fock cutoff.
    """
    r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = r @ r.conj().T
    c *= strength / np.linalg.eigvalsh(c).max()
    c[:2, :2] += damping_bias * np.eye(2)
    q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    om = q @ q.conj().T
    om *= rng.uniform(0.0, omega_scale) / np.linalg.eigvalsh(om).max()
    return bath_from_kossakowski(c, om)


def rotated_collective_bath(rng):
    """A rank-one dissipative bath along a random mode direction, with
    parameters inside the asymptotic-entanglement window (so trajectories
    from the vacuum become entangled within t ~ 1)."""
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w /= np.linalg.norm(w)
    eta = rng.uniform(0.7, 1.0)
    sigma = rng.uniform(0.3, 0.55) * eta
    lam = np.sqrt(rng.uniform(0.9, 1.0) * eta * sigma) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c22 = np.array([[eta, np.conj(lam)], [lam, sigma]])
    c = np.kron(c22, np.outer(w, w.conj()))
    return bath_from_kossakowski(c, np.zeros((2, 2)))


def bath_from_kossakowski(c, omega):
    """Read (eta, sigma, lam) back out of a 4x4 Kossakowski matrix laid out
    as [[eta, lam*], [lam^T, sigma]]."""
    bath = BathSpec(omega=omega, eta=c[:2, :2], sigma=c[2:, 2:], lam=c[2:, :2].T)
    assert np.abs(kossakowski(bath) - c).max() < 1e-12
    return bath


def block_drift_diffusion(bath):
    """Reference (A, B): the np.block assembly of the drift and diffusion
    from the bath coefficients, with the library's expressions."""
    lam = bath.lam.T
    lam_s = 0.5 * (lam + lam.T)
    lam_a = 0.5 * (lam - lam.T)
    eta, sig, om = bath.eta, bath.sigma, bath.omega
    a = 0.5 * np.block(
        [
            [sig.conj() - eta + 2j * om, -2.0 * lam_a.conj()],
            [-2.0 * lam_a, sig - eta.conj() - 2j * om.conj()],
        ]
    )
    b = 0.5 * np.block(
        [
            [sig.conj() + eta, -2.0 * lam_s.conj()],
            [-2.0 * lam_s, sig + eta.conj()],
        ]
    )
    return a, b


def reference_check_cp(bath):
    """Reference CP pair: a fresh eigensolve of the Kossakowski matrix."""
    w, _ = matkit.hermitian_eigensystem(kossakowski(bath))
    min_eig = float(w[0])
    return min_eig >= -1e-12 * float(np.abs(w).max(initial=0.0)), min_eig


def random_physical_covariance(rng, t=0.7):
    """A generic physical two-mode covariance: the vacuum evolved for a while
    under a random CP bath."""
    return propagate_exact(vacuum(2), random_cp_bath(rng, strength=rng.uniform(0.4, 1.5)), t)


def partial_transpose(cov):
    """Reference partial transpose: the covariance T V T."""
    return Covariance(T_MATRIX @ cov.v @ T_MATRIX, 2)


def eigensystem_min_physical(cov):
    """Reference minimum eigenvalue of V + Sigma/2 through the validating
    hermitian_eigensystem route."""
    return matkit.hermitian_eigensystem(cov.v + 0.5 * sigma_matrix(cov.n))[0][0]


def eigensystem_min_pt(cov):
    """Reference minimum eigenvalue of T V T + Sigma/2 through the validating
    hermitian_eigensystem route, with T applied as the index [2, 1, 0, 3]."""
    t = np.array([2, 1, 0, 3])
    return matkit.hermitian_eigensystem(cov.v[np.ix_(t, t)] + 0.5 * sigma_matrix(2))[0][0]


def linear_chunk_propagate(v0, bath, t, max_chunk_norm=8.0):
    """Reference V(t): one augmented exponential for a chunk of norm
    <= max_chunk_norm, applied chunk after chunk (cost linear in t)."""
    gen = drift_diffusion(bath)
    m = gen.a.shape[0]
    n_chunks = max(1, int(np.ceil(t * np.linalg.norm(gen.a, 2) / max_chunk_norm)))
    aug = np.zeros((2 * m, 2 * m), dtype=complex)
    aug[:m, :m] = -gen.a.conj().T
    aug[:m, m:] = gen.b
    aug[m:, m:] = gen.a
    big = scipy.linalg.expm((t / n_chunks) * aug)
    e = big[m:, m:]
    f = e.conj().T @ big[:m, m:]
    v = v0.v
    for _ in range(n_chunks):
        v = e.conj().T @ v @ e + f
    return 0.5 * (v + v.conj().T)


def full_transpose(cov):
    """Reference full transpose of the state: alpha <-> alpha*, beta <-> beta^T."""
    return from_blocks(cov.alpha.conj(), cov.beta.T)


def lowering_operators(cutoff):
    """Reference dense truncated lowering operators (a_1, a_2) on the
    two-mode space with per-mode occupation 0..cutoff."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1).astype(complex)
    eye = np.eye(cutoff + 1)
    return np.kron(a, eye), np.kron(eye, a)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
