"""Dense complex matrix kernel, and the package's one tolerance policy.

Every routine here is a pure function over immutable inputs: no caching, no
global state, deterministic output for identical input bits.  (The caches
above this layer are Covariance's memoized spectra and BathSpec's memoized
CP verdict and drift/diffusion pair.  They are safe because both dataclasses
are frozen, their fields are read-only arrays, and no global state is
involved.)  All other modules funnel their linear algebra through these
entry points so that the validation rules (finiteness, squareness,
Hermiticity) are applied uniformly, and take every cut from the Tolerances
section.  The one unvalidated entry point, hermitian_spectrum, is for hot
paths whose input is Hermitian by construction.
"""

import math

import numpy as np
import scipy.linalg

from .errors import DomainError, NotHermitian, NotSquare, NumericalFailure, Resonant

# ---------------------------------------------------------------- Tolerances
# One rule: a computed x counts as zero when |x| <= max(tol, ROUNDOFF * scale),
# scale being the size of what x was computed from, so an answer does not
# change when the input is multiplied by 10^k (the backward-error cut c eps
# ||M||: Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.).
# cut() applies it to spectra (PSD and null tests with tol = 0, verdicts with
# a floor), step_count() to time steps, steady_state to ||A||_2.  Past the
# two floors, the values are accuracy contracts: how close outside input or
# a slower method must come.
ROUNDOFF = 16.0 * np.finfo(float).eps
VERDICT_TOL = 1e-10  # floor of the physicality and PT verdicts (the CLI's --tol)
SAMPLE_TOL = 1e-8  # floor of the physicality check of a CP trajectory's samples
HERMITICITY_RTOL = 1e-12  # outside input: |a - a^dag| <= rtol * max|a|
RESIDUAL_RTOL = 1e-10  # Sylvester: residual / ||r||, and resonance gap / max|eig|
NULL_RESIDUAL_RTOL = 1e-8  # witness: ||M psi|| / max(||M||, 1), for typed-in psi
TRUNCATION_TOL = 1e-4  # oracle: top-level population, and negative dip of rho
TRACE_TOL = 1e-8  # oracle: |trace rho - 1|
NEGATIVITY_TOL = 1e-6  # oracle-compare: the oracle's entanglement cut
MOMENT_TOL = 1e-3  # oracle-compare: largest moment deviation that agrees


def cut(w: np.ndarray, tol: float = 0.0):
    """max(tol, ROUNDOFF * max|w|) for the spectrum w, or for each row of a
    stack of spectra: w is PSD when min w >= -cut, and x in w is zero when
    |x| <= cut."""
    return np.maximum(tol, ROUNDOFF * np.abs(w).max(axis=-1, initial=0.0))


def step_count(t0: float, t: float, dt: float) -> tuple[int, bool]:
    """Steps of at most dt from t0 to t >= t0, and whether all are dt long.
    q = (t - t0) / dt is the integer k nearest it when |q - k| <= ROUNDOFF
    * |t| / dt, since t - t0 carries roundoff eps * |t| (a cut at the
    interval's own size would add a step to a short interval late in a long
    run), and ceil(q) otherwise."""
    q = (t - t0) / dt
    k = round(q)
    if abs(q - k) <= ROUNDOFF * abs(t) / dt:
        return k, True
    return math.ceil(q), False
# ------------------------------------------------------------ end Tolerances


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquare(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise DomainError("matrix entries must be finite")
    return a


def require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part of a, or of each matrix of an (N, m, m)
    stack, or raise for the first whose defect exceeds HERMITICITY_RTOL *
    max|entry|.

    The result 0.5 * (a + a^dag) is exactly Hermitian in floating point:
    entry (j, i) is computed from the same two numbers as entry (i, j)."""
    a_h = a.conj().swapaxes(-1, -2)
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    defect = np.abs(a - a_h).max(axis=(-2, -1), initial=0.0)
    bad = defect > HERMITICITY_RTOL * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise NotHermitian(
            f"symmetrization residual {defect.flat[k]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} * max|entry| = {HERMITICITY_RTOL * scale.flat[k]:.3e}"
        )
    return 0.5 * (a + a_h)


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
    eigenvalue of q, to RESIDUAL_RTOL relative (the Sylvester operator is
    then singular, which for the steady-state use signals that no unique
    equilibrium exists).  The residual contract is RESIDUAL_RTOL * ||r||,
    measured in units of max|r| so that no norm overflows.
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
    scale = max(float(np.abs(ev_p).max(initial=0.0)), float(np.abs(ev_q).max(initial=0.0)))
    gap = np.abs(ev_p[:, None] + ev_q[None, :]).min()
    if gap <= RESIDUAL_RTOL * scale:
        raise Resonant(
            f"eigenvalue sum gap {gap:.3e} is below {RESIDUAL_RTOL:.1e} * {scale:.3e}; "
            "the Sylvester operator is singular"
        )
    x = scipy.linalg.solve_sylvester(a, b, -c)
    r_max = float(np.abs(c).max(initial=0.0)) or 1.0
    norm_r = float(np.linalg.norm(c / r_max))
    residual = float(np.linalg.norm((a @ x + x @ b + c) / r_max))
    if residual > RESIDUAL_RTOL * norm_r:
        raise NumericalFailure(
            f"Sylvester residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||r|| = "
            f"{RESIDUAL_RTOL * norm_r:.3e}, in units of max|r|"
        )
    return x


def null_space(m) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of a
    Hermitian positive-semidefinite matrix: the eigenvectors whose
    eigenvalue is zero under cut(), |w| <= ROUNDOFF * ||m|| (a larger cut
    would take in the genuine small eigenvalues of strongly squeezed
    states).  Returns an (n, 0) array when the null space is trivial, and
    the full identity-sized basis for the zero matrix.
    """
    w, v = hermitian_eigensystem(m)
    return np.ascontiguousarray(v[:, np.abs(w) <= cut(w)])
