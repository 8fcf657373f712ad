"""Dense complex matrix kernel.

Every routine here is a pure function over immutable inputs: no caching, no
global state, deterministic output for identical input bits.  (The caches
above this layer are Covariance's memoized spectra and BathSpec's memoized
CP verdict and drift/diffusion pair.  They are safe because both dataclasses
are frozen, their fields are read-only arrays, and no global state is
involved.)  All other modules funnel their linear algebra through these
entry points so that the validation rules (finiteness, squareness,
Hermiticity tolerances) are applied uniformly.  The one unvalidated entry
point, hermitian_spectrum, is for hot paths whose input is Hermitian by
construction.
"""

import numpy as np
import scipy.linalg

from .errors import NotHermitian, NotSquare, NumericalFailure, Resonant

# Relative tolerance for declaring a matrix Hermitian: defect <= tol * max|entry|.
HERMITICITY_RTOL = 1e-12

# Default relative tolerance for the null-space cut.  Exposed as a parameter
# because callers sometimes need null vectors of analytically singular
# matrices whose zero eigenvalues are only zero up to roundoff.
NULL_SPACE_RTOL = 1e-9

_SYLVESTER_RESIDUAL_RTOL = 1e-10
_RESONANCE_RTOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquare(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation between a and its conjugate transpose."""
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def require_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Return the Hermitian part of a, or raise if the defect is too large.

    The result 0.5 * (a + a^dag) is exactly Hermitian in floating point:
    entry (j, i) is computed from the same two numbers as entry (i, j)."""
    scale = float(np.abs(a).max()) if a.size else 0.0
    defect = _hermiticity_defect(a)
    if defect > rtol * max(scale, 1e-300):
        raise NotHermitian(
            f"symmetrization residual {defect:.3e} exceeds "
            f"{rtol:.1e} * max|entry| = {rtol * scale:.3e}"
        )
    return 0.5 * (a + a.conj().T)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    return w, v


def hermitian_spectrum(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix already known to be finite and
    exactly Hermitian, or of each matrix in an (N, m, m) stack of them.

    No validation: callers pass matrices whose invariants are already
    established, such as a Covariance's v (finite and exactly Hermitian by
    construction) plus a real diagonal.  The values come from the same
    np.linalg.eigh call as hermitian_eigensystem, bit for bit, and a stack
    gives the same bits as its matrices one at a time.  (eigvalsh would
    differ in the last bits.)"""
    return _eigh(h)[0]


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a
    Hermitian matrix.  Eigenvector k is the k-th column of the second result.

    Validates m (finite, square, Hermitian to HERMITICITY_RTOL), then runs
    the same eigh as hermitian_spectrum on its Hermitian part."""
    return _eigh(require_hermitian(require_square(as_matrix(m))))


def expm(m) -> np.ndarray:
    """Matrix exponential e^m (scaling-and-squaring Pade)."""
    a = require_square(as_matrix(m))
    out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("matrix exponential overflowed")
    return out


def solve_sylvester(p, q, r) -> np.ndarray:
    """Solve p @ X + X @ q = -r for X.

    Raises Resonant when an eigenvalue of p equals the negative of an
    eigenvalue of q (the Sylvester operator is then singular, which for the
    steady-state use signals that no unique equilibrium exists).
    """
    a = require_square(as_matrix(p))
    b = require_square(as_matrix(q))
    c = as_matrix(r)
    if c.shape != (a.shape[0], b.shape[0]):
        raise NotSquare(
            f"r must be {a.shape[0]}x{b.shape[0]} to match p and q, got {c.shape}"
        )
    ev_p = np.linalg.eigvals(a)
    ev_q = np.linalg.eigvals(b)
    scale = max(float(np.abs(ev_p).max(initial=0.0)), float(np.abs(ev_q).max(initial=0.0)), 1.0)
    gap = np.abs(ev_p[:, None] + ev_q[None, :]).min()
    if gap <= _RESONANCE_RTOL * scale:
        raise Resonant(
            f"eigenvalue sum gap {gap:.3e} is below {_RESONANCE_RTOL:.1e} * {scale:.3e}; "
            "the Sylvester operator is singular"
        )
    x = scipy.linalg.solve_sylvester(a, b, -c)
    norm_r = float(np.linalg.norm(c))
    residual = float(np.linalg.norm(a @ x + x @ b + c))
    if residual > _SYLVESTER_RESIDUAL_RTOL * max(norm_r, 1e-300):
        raise NumericalFailure(
            f"Sylvester residual {residual:.3e} exceeds "
            f"{_SYLVESTER_RESIDUAL_RTOL:.1e} * ||r|| = {_SYLVESTER_RESIDUAL_RTOL * norm_r:.3e}"
        )
    return x


def null_space(m, tol: float = NULL_SPACE_RTOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of a
    Hermitian positive-semidefinite matrix.

    A vector v belongs to the null space when |eigenvalue| <= tol * ||m||
    (spectral norm).  Returns an (n, 0) array when the null space is trivial;
    returns the full identity-sized basis for the zero matrix.
    """
    w, v = hermitian_eigensystem(m)
    norm = float(np.abs(w).max(initial=0.0))
    if norm == 0.0:
        return v
    keep = np.abs(w) <= tol * norm
    return np.ascontiguousarray(v[:, keep])
