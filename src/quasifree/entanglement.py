"""Partial-transpose entanglement tests and the noise-generation witness.

For two modes, partial transposition of the first mode acts on the covariance
as conjugation by the permutation T that exchanges a_1 with a_1^dag.  The
state is entangled iff the partially transposed combination V~ + Sigma/2 has
a negative eigenvalue; for two-mode Gaussian states this test is exact in
both directions.

The generation witness asks whether the bath starts to entangle a separable
initial state at t = 0+: pick a null vector psi of V~(0) + Sigma/2 and test
whether Q(t) = <psi| V~(t) + Sigma/2 |psi> acquires a negative derivative.
That derivative is a Hermitian form in psi, so its minimum over the unit null
vectors is the smallest eigenvalue of the form compressed to the null space
(Courant-Fischer), and the scan solves that k x k eigenproblem, k <= 2 for
the boundary states of interest, instead of searching the null space.
"""

from dataclasses import dataclass

import numpy as np

from . import matkit
from .dynamics import BathSpec, check_cp, drift_diffusion
from .errors import (
    DomainError,
    EmptyNullSpace,
    NotCP,
    NotNullVector,
    NonPhysicalInput,
    WrongModeCount,
)
from .gaussian_state import (
    Covariance,
    _T,
    _TT,
    _lock,
    _pt_matrix,
    collective_covariance,
    is_physical,
    sigma_matrix,
)

# The default floor of the PT verdicts (the CLI's --tol): see pt_margin.
ENT_TOL = matkit.VERDICT_TOL

_SIGMA_T = _lock(sigma_matrix(2)[_TT])  # T Sigma T


def pt_spectrum(cov: Covariance) -> np.ndarray:
    """Ascending spectrum of V~ + Sigma/2, the input of every PT verdict:
    the read-only cov.pt_spectrum, computed once per Covariance."""
    return cov.pt_spectrum


def pt_margin(w: np.ndarray, tol: float = ENT_TOL) -> float:
    """Half-width of the separability boundary for the ascending PT spectrum
    w: matkit.cut(w, tol), as in the physicality test, so boundary states
    are not misreported as entangled, nor is the roundoff of a strongly
    squeezed product state.  A minimum eigenvalue within +-margin is on the
    boundary."""
    return float(matkit.cut(w, tol))


def pt_entangled(w: np.ndarray, tol: float = ENT_TOL) -> bool:
    """The entanglement verdict for the ascending PT spectrum w: its minimum
    lies below -pt_margin(w, tol).  The one rule every verdict uses."""
    return bool(w[0] < -pt_margin(w, tol))


def pt_min_eigenvalue(cov: Covariance) -> float:
    """Minimum eigenvalue of V~ + Sigma/2 (negative certifies entanglement)."""
    return float(pt_spectrum(cov)[0])


def ppt_test(cov: Covariance, tol: float = ENT_TOL) -> tuple[bool, float]:
    """Exact two-mode entanglement verdict from the PT spectrum.

    Returns (entangled, min PT eigenvalue).  The input must be a physical
    covariance; for two-mode Gaussian states a negative PT eigenvalue is
    both necessary and sufficient for entanglement, decided by pt_entangled.
    """
    physical, min_eig = is_physical(cov)
    if not physical:
        raise NonPhysicalInput(f"covariance is not physical (min eigenvalue {min_eig:.3e})")
    w = pt_spectrum(cov)
    return pt_entangled(w, tol), float(w[0])


def initial_null_basis(cov: Covariance) -> np.ndarray:
    """Orthonormal basis of the null space of V~(0) + Sigma/2, under the
    roundoff cut of matkit.null_space.

    Separable states on the PT boundary (vacua, pure products, and the
    collective mixed states with beta_0 = 1) have a nontrivial null space;
    strictly interior states do not, and then the witness construction is
    inapplicable (fall back to ppt_test along the trajectory).
    """
    basis = matkit.null_space(_pt_matrix(cov.v))
    if basis.shape[1] == 0:
        raise EmptyNullSpace(
            "V~(0) + Sigma/2 has no null vector; the derivative witness does not apply"
        )
    return basis


def symmetric_null_vector(omega1: complex, omega2: complex) -> np.ndarray:
    """The equal-weight null vector of V~(0) + Sigma/2 for a pure product
    state with squeezing parameters (Omega_1, Omega_2).

    The null space is spanned by (-a conj(Omega_1), -b Omega_2, a, b) -- the
    first mode's parameter is conjugated because that is the transposed mode.
    This picks a = b = 1/sqrt(2), which for the vacuum reduces to
    (0, 0, 1, 1)/sqrt(2).
    """
    psi = np.array([-np.conj(omega1), -omega2, 1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the generation witness for one null vector psi."""

    q_derivative: float
    psi: np.ndarray
    lhs: float
    rhs: float
    verdict: bool


def generation_witness(
    v0: Covariance,
    bath: BathSpec,
    psi,
    *,
    allow_non_cp: bool = False,
) -> WitnessReport:
    """Evaluate the entanglement-generation condition for the vector psi.

    With psi~ = T psi and Sigma~ = T Sigma T, the bath entangles at t = 0+
    when

        2 <psi~| B |psi~>  <  <psi~| A^dag Sigma~ + Sigma~ A |psi~>,

    and the same content is computed independently as the derivative

        dQ/dt(0) = <psi~| A^dag V(0) + V(0) A + B |psi~>,

    which equals (lhs - rhs)/2 because psi annihilates V~(0) + Sigma/2, to
    matkit.NULL_RESIDUAL_RTOL relative to its norm, max|v0.pt_spectrum|.
    """
    m0 = _pt_matrix(v0.v)
    if not allow_non_cp:
        ok, min_c = check_cp(bath)
        if not ok:
            raise NotCP(f"Kossakowski matrix has negative eigenvalue {min_c:.3e}")
    psi = np.asarray(psi, dtype=complex).reshape(4)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise NotNullVector("psi must be nonzero")
    psi = psi / norm

    m_norm = float(np.abs(pt_spectrum(v0)).max())
    residual = float(np.linalg.norm(m0 @ psi))
    if residual > matkit.NULL_RESIDUAL_RTOL * max(m_norm, 1.0):
        raise NotNullVector(
            f"psi is not a null vector of V~(0) + Sigma/2 (residual {residual:.3e})"
        )

    gen = drift_diffusion(bath)
    psi_t = psi[_T]
    lhs = float(np.real(psi_t.conj() @ (2.0 * gen.b) @ psi_t))
    rhs = float(np.real(psi_t.conj() @ (gen.a.conj().T @ _SIGMA_T + _SIGMA_T @ gen.a) @ psi_t))
    flow = gen.a.conj().T @ v0.v + v0.v @ gen.a + gen.b
    q_derivative = float(np.real(psi_t.conj() @ flow @ psi_t))
    return WitnessReport(
        q_derivative=q_derivative,
        psi=psi,
        lhs=lhs,
        rhs=rhs,
        verdict=lhs < rhs,
    )


def scan_generation_witness(
    v0: Covariance,
    bath: BathSpec,
    *,
    allow_non_cp: bool = False,
) -> WitnessReport:
    """The witness report for the null vector with the most negative
    derivative.

    The witness condition only requires that *some* suitable null vector
    exists, so a single fixed choice can miss generation.  With P the
    orthonormal null basis and F = A^dag V(0) + V(0) A + B, the derivative
    for psi = P c is c^dag (TP)^dag F (TP) c, so by Courant-Fischer its
    minimum over unit vectors is the smallest eigenvalue of that k x k
    Hermitian matrix and its eigenvector c gives the best psi, which is then
    evaluated once by generation_witness.
    """
    basis = initial_null_basis(v0)
    gen = drift_diffusion(bath)
    flow = gen.a.conj().T @ v0.v + v0.v @ gen.a + gen.b
    basis_t = basis[_T]
    form = basis_t.conj().T @ flow @ basis_t
    # F is Hermitian only up to roundoff, which can dominate a form near zero
    _, c = matkit.hermitian_eigensystem(0.5 * (form + form.conj().T))
    return generation_witness(v0, bath, basis @ c[:, 0], allow_non_cp=allow_non_cp)


def vacuum_condition(bath: BathSpec) -> bool:
    """Closed-form generation condition for two modes starting in the vacuum
    with the equal-weight null vector:

        sigma_11 + sigma_22 < Re(lam_12 + lam_21).
    """
    if bath.n != 2:
        raise WrongModeCount(f"vacuum condition is defined for 2 modes, got {bath.n}")
    return float(bath.sigma[0, 0].real + bath.sigma[1, 1].real) < float(
        (bath.lam[0, 1] + bath.lam[1, 0]).real
    )


def asymptotic_covariance(alpha_inf: complex, beta_inf: float) -> Covariance:
    """Two-mode asymptotic covariance of the collective-bath scenario, with
    the decoupled antisymmetric mode pinned at occupation moment beta_inf."""
    return collective_covariance(alpha_inf, beta_inf, beta_inf)


def asymptotic_pt_eigenvalues(alpha_inf: complex, beta_inf: float) -> np.ndarray:
    """Ascending spectrum of V~ + Sigma/2 for the asymptotic collective state.

    Computed numerically (the authoritative route); analytically the four
    values are beta_inf - 1/2 + (s1 |alpha_inf| + s2 sqrt(1 + |alpha_inf|^2))/2
    over the sign choices s1, s2 = +-1, which the tests cross-check.
    """
    return pt_spectrum(asymptotic_covariance(alpha_inf, beta_inf))


def asymptotic_threshold(eta: float, sigma: float, omega: float) -> tuple[float, float, bool]:
    """Entanglement threshold for the asymptotic collective state.

    Returns (lambda_sq_min, cp_max, feasible): the asymptotic state is
    entangled when |lam|^2 exceeds

        lambda_sq_min = 4 eta^2 sigma^2 [(eta - sigma)^2 + omega^2] / (eta^2 - sigma^2)^2,

    while complete positivity caps |lam|^2 at cp_max = eta * sigma; feasible
    says whether the window between the two is nonempty.  A pure-decay bath
    (sigma = 0) has threshold 0, CP bound 0 and an empty window.
    """
    if not (eta > sigma >= 0):
        raise DomainError(f"requires eta > sigma >= 0, got eta={eta}, sigma={sigma}")
    if omega < 0:
        raise DomainError(f"omega must be >= 0, got {omega}")
    lambda_sq_min = 4.0 * eta**2 * sigma**2 * ((eta - sigma) ** 2 + omega**2) / (eta**2 - sigma**2) ** 2
    cp_max = eta * sigma
    return lambda_sq_min, cp_max, lambda_sq_min < cp_max
