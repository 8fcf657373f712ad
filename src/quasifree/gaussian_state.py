"""Gaussian states of n bosonic modes at the covariance level.

A zero-mean Gaussian state is fully described by its second moments
alpha[i, j] = <a_i a_j> and beta[i, j] = <a_i a_j^dag>.  We store them in the
2n x 2n symmetric covariance matrix

    V = [[beta, alpha], [alpha*, beta^T]] - 1/2,

ordered as (a_1 .. a_n, a_1^dag .. a_n^dag).  The state is physical exactly
when V + Sigma/2 >= 0, with Sigma = diag(+1 .. +1, -1 .. -1) the matrix of
canonical commutators.

A Covariance memoizes the two spectra every verdict reads, of V + Sigma/2
and (two modes) of the partial transpose T V T + Sigma/2.  That is safe: the
dataclass is frozen, v is read-only, and the spectra depend on nothing else.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import matkit
from .errors import NonPhysicalInput, NotHermitian, NotSquare, WrongModeCount


def sigma_matrix(n: int) -> np.ndarray:
    """Commutator matrix diag(+1, ..., +1, -1, ..., -1) for n modes."""
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)


def _lock(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _half_sigma(n: int) -> np.ndarray:
    """Read-only Sigma/2 for n modes, built once per n."""
    return _lock(0.5 * sigma_matrix(n))


# The permutation T exchanging entries 0 and 2 of the two-mode ordering
# (a1, a2, a1+, a2+), the covariance-level action of transposing the first
# mode, kept as an index: T x is x[_T] and T M T is M[_TT].
_T = np.array([2, 1, 0, 3])
_TT = np.ix_(_T, _T)
_TT_ANY = (Ellipsis, *_TT)  # the same on the last two axes of a stack


def _pt_matrix(v: np.ndarray) -> np.ndarray:
    """T V T + Sigma/2 of a two-mode covariance matrix, or of each matrix in
    an (N, 4, 4) stack of them: the matrix whose spectrum decides the PPT
    test and whose null space carries the witness.  A symmetric permutation
    of an exactly Hermitian v plus a real diagonal, so the result is exactly
    Hermitian too and its spectrum needs no re-validation."""
    if v.shape[-1] != 4:
        raise WrongModeCount(f"partial transposition is defined here for 2 modes, got {v.shape[-1] // 2}")
    return v[_TT_ANY] + _half_sigma(2)


def _spectrum(m: np.ndarray) -> np.ndarray:
    w = matkit.hermitian_spectrum(m)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Covariance:
    """Symmetric covariance matrix of an n-mode zero-mean Gaussian state."""

    v: np.ndarray
    n: int

    def __post_init__(self):
        a = matkit.require_square(matkit.as_matrix(self.v))
        if a.shape[0] != 2 * self.n:
            raise NotSquare(f"covariance must be {2 * self.n}x{2 * self.n}, got {a.shape}")
        object.__setattr__(self, "v", _lock(matkit.require_hermitian(a)))

    @classmethod
    def _validated(cls, v: np.ndarray, n: int, spectrum: np.ndarray, pt_spectrum=None) -> "Covariance":
        """A Covariance over a read-only v that the caller has already put
        through every check of __post_init__, with its spectra seeded from a
        batched eigensolve of the same bits."""
        cov = object.__new__(cls)
        cov.__dict__.update(v=v, n=n, spectrum=spectrum)
        if pt_spectrum is not None:
            cov.__dict__["pt_spectrum"] = pt_spectrum
        return cov

    def __reduce__(self):
        # numpy does not pickle the read-only flag, so a copy is rebuilt
        # through __post_init__ rather than carried over with its spectra
        return (Covariance, (self.v, self.n))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending, read-only spectrum of V + Sigma/2."""
        return _spectrum(self.v + _half_sigma(self.n))

    @cached_property
    def pt_spectrum(self) -> np.ndarray:
        """Ascending, read-only spectrum of the partial transpose
        T V T + Sigma/2; two modes only."""
        return _spectrum(_pt_matrix(self.v))

    @property
    def alpha(self) -> np.ndarray:
        """Block of <a_i a_j> moments."""
        return self.v[: self.n, self.n :]

    @property
    def beta(self) -> np.ndarray:
        """Block of <a_i a_j^dag> moments."""
        return self.v[: self.n, : self.n] + 0.5 * np.eye(self.n)


@dataclass(frozen=True)
class CovarianceBlocks:
    """The (alpha, beta) moment pair, before assembly into a Covariance."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = matkit.require_square(matkit.as_matrix(self.alpha))
        b = matkit.require_square(matkit.as_matrix(self.beta))
        if a.shape != b.shape:
            raise NotSquare(f"alpha and beta must have equal shape, got {a.shape} vs {b.shape}")
        scale = float(np.abs(a).max(initial=0.0))
        if float(np.abs(a - a.T).max(initial=0.0)) > matkit.HERMITICITY_RTOL * scale:
            raise NotHermitian("alpha block must be symmetric")
        b = matkit.require_hermitian(b)
        w, _ = matkit.hermitian_eigensystem(b)
        # beta is a Gram-type moment matrix; tolerate only roundoff-level dips
        if w[0] < -matkit.cut(w):
            raise NonPhysicalInput(f"beta block must be positive semidefinite, min eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "alpha", _lock(0.5 * (a + a.T)))
        object.__setattr__(self, "beta", _lock(b))

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def from_blocks(alpha, beta) -> Covariance:
    """Assemble V = [[beta, alpha], [alpha*, beta^T]] - 1/2."""
    a = matkit.as_matrix(alpha)
    b = matkit.as_matrix(beta)
    n = a.shape[0]
    v = np.block([[b, a], [a.conj(), b.T]]) - 0.5 * np.eye(2 * n)
    return Covariance(v, n)


def vacuum(n: int) -> Covariance:
    """Vacuum of n modes: beta = 1, alpha = 0, hence V = 1/2."""
    if n < 1:
        raise WrongModeCount("need at least one mode")
    return from_blocks(np.zeros((n, n)), np.eye(n))


def thermal(n: int, mean_occupations) -> Covariance:
    """Product of thermal modes with the given mean occupation numbers."""
    occ = np.asarray(mean_occupations, dtype=float)
    if occ.shape != (n,):
        raise WrongModeCount(f"expected {n} occupation numbers, got shape {occ.shape}")
    if np.any(occ < 0):
        raise NonPhysicalInput(f"occupations must be >= 0, got {occ}")
    return from_blocks(np.zeros((n, n)), np.diag(1.0 + occ))


def pure_product(omega1: complex, omega2: complex) -> Covariance:
    """Two-mode product of Gaussian pure states with squeezing parameters
    Omega_i, |Omega_i| < 1.

    The moments are alpha = diag(Omega_i / (1 - |Omega_i|^2)) and
    beta = diag(1 / (1 - |Omega_i|^2)).
    """
    omegas = np.array([omega1, omega2], dtype=complex)
    if np.any(np.abs(omegas) >= 1.0):
        raise NonPhysicalInput(f"|Omega| must be < 1 for a normalizable state, got {np.abs(omegas)}")
    denom = 1.0 - np.abs(omegas) ** 2
    return from_blocks(np.diag(omegas / denom), np.diag(1.0 / denom))


def collective_covariance(alpha_sym: complex, beta_sym: float, beta_anti: float) -> Covariance:
    """Two-mode covariance from collective-mode moments.

    With A = (a_1 + a_2)/sqrt(2) and B = (a_1 - a_2)/sqrt(2), the state has
    <A^2> = alpha_sym, <A A^dag> = beta_sym, <B B^dag> = beta_anti and all
    remaining quadratic moments zero.  Transforming back to the physical
    modes gives

        alpha = (alpha_sym / 2) * [[1, 1], [1, 1]]
        beta  = (1/2) * [[bs + ba, bs - ba], [bs - ba, bs + ba]].
    """
    ones = np.ones((2, 2))
    alpha = 0.5 * complex(alpha_sym) * ones
    beta = 0.5 * np.array(
        [
            [beta_sym + beta_anti, beta_sym - beta_anti],
            [beta_sym - beta_anti, beta_sym + beta_anti],
        ],
        dtype=complex,
    )
    return from_blocks(alpha, beta)


def is_physical(cov: Covariance, tol: float = matkit.VERDICT_TOL) -> tuple[bool, float]:
    """Test V + Sigma/2 >= 0 up to matkit.cut(w, tol), which admits the
    roundoff of a pure state on the boundary; returns the verdict and the
    minimum eigenvalue, read from cov.spectrum."""
    w = cov.spectrum
    return bool(w[0] >= -matkit.cut(w, tol)), float(w[0])
