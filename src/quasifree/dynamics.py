"""Bath specification, complete-positivity check, and covariance evolution.

The bath is parametrized by four n x n matrices: a quadratic Hamiltonian
omega_hat and dissipative coefficient matrices eta_hat (decay), sigma_hat
(pumping) and lambda_hat (anomalous coupling).  The covariance then obeys the
linear flow

    dV/dt = A^dag V + V A + B,

whose drift A and diffusion B are assembled in :func:`drift_diffusion`.  The
generated semigroup is completely positive exactly when the Kossakowski
matrix of :func:`kossakowski` is positive semidefinite.

check_cp and drift_diffusion return pieces a BathSpec derives once and
memoizes (as DriftDiffusion memoizes ||A||_2 and max Re eig A).  That is safe:
both dataclasses are frozen over read-only arrays, with no global state.

Index convention for lambda_hat: entry lam[i, j] pairs the i-th lowering
operator on the left of the state with the j-th on the right, so for a single
nonzero entry the two-mode CP bound reads |lam_21|^2 <= eta_22 * sigma_11.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matkit
from .errors import DomainError, NonPhysicalInput, NotCP, Unstable
from .gaussian_state import Covariance, _half_sigma, _lock, _pt_matrix, _spectrum, is_physical

# propagate_steps refuses, before propagating, a grid of more samples than
# this (t = 0 included): the samples live in one (N, 2n, 2n) stack, checked
# and diagonalized as a whole, so a grid costs time and memory in proportion
# to its length.
MAX_SAMPLES = 100_000

_ONES2 = np.ones((2, 2))


@dataclass(frozen=True)
class BathSpec:
    """Model input: Hamiltonian matrix and the three dissipative matrices.

    omega must be Hermitian positive semidefinite, eta and sigma Hermitian;
    lam is an arbitrary complex matrix of the same shape.
    """

    omega: np.ndarray
    eta: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        mats = {}
        shape = None
        for name in ("omega", "eta", "sigma", "lam"):
            a = matkit.require_square(matkit.as_matrix(getattr(self, name)))
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise ValueError(f"all bath matrices must share one shape; {name} has {a.shape}")
            mats[name] = a
        for name in ("omega", "eta", "sigma"):
            mats[name] = matkit.require_hermitian(mats[name])
        w, _ = matkit.hermitian_eigensystem(mats["omega"])
        if w[0] < -matkit.cut(w):
            raise DomainError(f"omega must be positive semidefinite, min eigenvalue {w[0]:.3e}")
        for name, a in mats.items():
            object.__setattr__(self, name, _lock(a))

    def __reduce__(self):
        # numpy does not pickle the read-only flag, so a copy is rebuilt
        # through __post_init__ rather than carried over with its pieces
        return (BathSpec, (self.omega, self.eta, self.sigma, self.lam))

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @cached_property
    def _cp(self) -> tuple[bool, float]:
        w, _ = matkit.hermitian_eigensystem(kossakowski(self))
        return bool(w[0] >= -matkit.cut(w)), float(w[0])

    @cached_property
    def _drift_diffusion(self) -> "DriftDiffusion":
        n = self.n
        lam = self.lam.T  # generator-side coupling; see module docstring
        lam_s = 0.5 * (lam + lam.T)
        lam_a = 0.5 * (lam - lam.T)
        eta, sig, om = self.eta, self.sigma, self.omega
        a = np.empty((2 * n, 2 * n), dtype=complex)
        b = np.empty_like(a)
        a[:n, :n], a[:n, n:] = sig.conj() - eta + 2j * om, -2.0 * lam_a.conj()
        a[n:, :n], a[n:, n:] = -2.0 * lam_a, sig - eta.conj() - 2j * om.conj()
        b[:n, :n], b[:n, n:] = sig.conj() + eta, -2.0 * lam_s.conj()
        b[n:, :n], b[n:, n:] = -2.0 * lam_s, sig + eta.conj()
        return DriftDiffusion(a=0.5 * a, b=0.5 * b)


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift A and diffusion B of the covariance flow dV/dt = A^dag V + V A + B,
    read-only, with ||A||_2 and max Re eig(A) memoized."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _lock(self.a))
        object.__setattr__(self, "b", _lock(self.b))

    def __reduce__(self):
        return (DriftDiffusion, (self.a, self.b))

    @cached_property
    def norm(self) -> float:
        """Spectral norm ||A||_2 of the drift."""
        return float(np.linalg.norm(self.a, 2))

    @cached_property
    def max_re_eig(self) -> float:
        """Largest real part of an eigenvalue of the drift."""
        return float(np.linalg.eigvals(self.a).real.max())


@dataclass(frozen=True)
class Trajectory:
    """Sampled covariance evolution.  cp_certified records whether the bath
    passed the complete-positivity check when the trajectory was produced."""

    times: np.ndarray
    states: list
    cp_certified: bool = field(default=True)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)


def kossakowski(bath: BathSpec) -> np.ndarray:
    """2n x 2n Kossakowski matrix of the dissipative part.

    With the lambda pairing convention of this module the blocks are
    [[eta, lam*], [lam^T, sigma]]; the dynamics is completely positive iff
    this matrix is positive semidefinite.
    """
    return np.block([[bath.eta, bath.lam.conj()], [bath.lam.T, bath.sigma]])


def check_cp(bath: BathSpec) -> tuple[bool, float]:
    """Complete-positivity verdict and the minimum Kossakowski eigenvalue,
    computed once per BathSpec."""
    return bath._cp


def drift_diffusion(bath: BathSpec) -> DriftDiffusion:
    """The drift and diffusion matrices of the bath, assembled once per
    BathSpec."""
    return bath._drift_diffusion


def _propagator_pieces_single(gen: DriftDiffusion, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{tA}, F(t)) with F(t) = int_0^t e^{s A^dag} B e^{s A} ds, from one
    exponential of the augmented block matrix [[-A^dag, B], [0, A]] whose
    top-right block equals e^{-t A^dag} F(t)."""
    m = gen.a.shape[0]
    aug = np.zeros((2 * m, 2 * m), dtype=complex)
    aug[:m, :m] = -gen.a.conj().T
    aug[:m, m:] = gen.b
    aug[m:, m:] = gen.a
    big = matkit.expm(t * aug)
    e_ta = big[m:, m:]
    f = e_ta.conj().T @ big[:m, m:]
    return e_ta, 0.5 * (f + f.conj().T)


# The augmented exponential mixes blocks of size e^{+t||A||} and e^{-t||A||},
# so one call loses the decaying block once t||A|| is large.  Composing exact
# pieces over bounded-norm chunks keeps full precision at any horizon.
_MAX_CHUNK_NORM = 8.0


def _propagator_pieces(gen: DriftDiffusion, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact propagator pair (e^{tA}, F(t)) for any t >= 0.

    Up to t||A|| = _MAX_CHUNK_NORM this is one augmented exponential.  Beyond
    it, the pieces of the chunk s = t / 2^k, with k the least integer that
    brings s||A|| within the bound, are doubled k times by the semigroup law

        E(2s) = E(s)^2,    F(2s) = E(s)^dag F(s) E(s) + F(s),

    so the cost grows as log t rather than t (Van Loan, IEEE TAC 23 (1978)
    395), and fewer compositions also mean less accumulated roundoff."""
    if t * gen.norm <= _MAX_CHUNK_NORM:
        return _propagator_pieces_single(gen, t)
    k = math.ceil(math.log2(t * gen.norm / _MAX_CHUNK_NORM))
    e_ta, f = _propagator_pieces_single(gen, math.ldexp(t, -k))
    for _ in range(k):
        f = e_ta.conj().T @ f @ e_ta + f
        e_ta = e_ta @ e_ta
    return e_ta, 0.5 * (f + f.conj().T)


def _require_propagatable(v0: Covariance, bath: BathSpec, allow_non_cp: bool) -> bool:
    """Refuse a bad start, and a non-CP bath unless allowed; return the CP verdict."""
    if v0.n != bath.n:
        raise ValueError(f"state has {v0.n} modes but bath has {bath.n}")
    physical, min_eig = is_physical(v0)
    if not physical:
        raise NonPhysicalInput(f"initial covariance violates positivity, min eigenvalue {min_eig:.3e}")
    ok, min_c = check_cp(bath)
    if not ok and not allow_non_cp:
        raise NotCP(
            f"Kossakowski matrix has negative eigenvalue {min_c:.3e}; "
            "pass allow_non_cp=True to propagate anyway"
        )
    return ok


def propagate_exact(v0: Covariance, bath: BathSpec, t: float, *, allow_non_cp: bool = False) -> Covariance:
    """Evolve the covariance for time t:

        V(t) = e^{t A^dag} V(0) e^{t A} + int_0^t e^{s A^dag} B e^{s A} ds,

    with the integral evaluated exactly through an augmented matrix
    exponential (no quadrature error, semigroup law holds to roundoff).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    _require_propagatable(v0, bath, allow_non_cp)
    gen = drift_diffusion(bath)
    e_ta, f = _propagator_pieces(gen, t)
    v = e_ta.conj().T @ v0.v @ e_ta + f
    return Covariance(v, v0.n)


def _grid_times(t_max: float, dt: float) -> np.ndarray:
    """The sample times 0, dt, 2*dt, ..., t_max of propagate_steps: k*dt for
    k below matkit.step_count(0, t_max, dt), then t_max itself, so the last
    step is shorter when dt does not divide t_max (to roundoff at t_max/dt).

    Raises DomainError, without building the grid, when it would hold more
    than MAX_SAMPLES samples."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if not t_max >= 0:
        raise ValueError("t_max must be >= 0")
    if t_max / dt + 1 > MAX_SAMPLES:
        raise DomainError(
            f"t_max={t_max:g} with dt={dt:g} needs about {t_max / dt + 1:.3g} samples; "
            f"the limit is {MAX_SAMPLES}"
        )
    n_steps, _ = matkit.step_count(0.0, t_max, dt)
    if n_steps == 0:
        return np.zeros(1)
    return np.append(np.arange(n_steps) * dt, t_max)


def _checked_samples(raw: np.ndarray) -> np.ndarray:
    """The checks of Covariance.__post_init__, batched over an (N, m, m)
    stack of unsymmetrized samples: raise for the first sample that is not
    finite or not Hermitian, with the constructor's message, else return the
    Hermitian parts, bit for bit the constructor's."""
    finite = np.isfinite(raw).all(axis=(1, 2))
    if not finite.all():
        matkit.require_hermitian(raw[: np.argmin(finite)])  # an earlier defect first
        raise ValueError("matrix entries must be finite")
    return matkit.require_hermitian(raw)


def propagate_steps(
    v0: Covariance, bath: BathSpec, t_max: float, dt: float, *, allow_non_cp: bool = False
) -> Trajectory:
    """Sample the evolution on the grid 0, dt, 2*dt, ..., t_max of
    _grid_times.

    Each sample is produced from the previous one with the exact single-step
    propagator, so stepping introduces no error beyond roundoff.  A shorter
    final step is taken when dt does not divide t_max.  A grid longer than
    MAX_SAMPLES is refused with DomainError before any propagation.

    The samples fill one read-only (N, 2n, 2n) stack that passes the checks
    of Covariance.__post_init__ in one batch, as does its eigensolve for
    V + Sigma/2 (and, for two modes, T V T + Sigma/2); each sample is a
    Covariance over a view of the stack, seeded with its rows of the spectra.
    For a CP bath every sample must be physical; the error names the
    eigenvalue of the first sample that fails.
    """
    times = _grid_times(t_max, dt)
    certified = _require_propagatable(v0, bath, allow_non_cp)
    gen = drift_diffusion(bath)

    n = v0.n
    raw = np.empty((len(times), 2 * n, 2 * n), dtype=complex)
    raw[0] = v = v0.v
    e_step, f_step = _propagator_pieces(gen, dt)
    # the index of a shorter last step, 0 when dt divides t_max: decided
    # once, with the step rule of _grid_times, outside the loop
    short = 0 if matkit.step_count(0.0, t_max, dt)[1] else len(times) - 1
    for k in range(1, len(times)):
        if k == short:
            e_step, f_step = _propagator_pieces(gen, times[k] - times[k - 1])
        raw[k] = e_step.conj().T @ v @ e_step + f_step
        v = 0.5 * (raw[k] + raw[k].conj().T)
    vs = _checked_samples(raw)
    vs.setflags(write=False)

    spectra = _spectrum(vs + _half_sigma(n))
    if certified:
        ok = spectra[:, 0] >= -matkit.cut(spectra, matkit.SAMPLE_TOL)
        if not ok.all():
            first = int(np.argmin(ok))
            raise NonPhysicalInput(
                f"CP evolution produced a non-physical sample (min eigenvalue {spectra[first, 0]:.3e})"
            )
    pt_spectra = _spectrum(_pt_matrix(vs)) if n == 2 else [None] * len(times)
    states = [Covariance._validated(v, n, w, w_pt) for v, w, w_pt in zip(vs, spectra, pt_spectra)]
    return Trajectory(times=times, states=states, cp_certified=certified)


def steady_state(bath: BathSpec) -> Covariance:
    """Unique stationary covariance A^dag V + V A + B = 0 of a CP bath whose
    drift is strictly stable.  Raises Unstable when any drift eigenvalue has
    real part >= -matkit.ROUNDOFF * ||A||_2, zero at the drift's own scale
    (no, or no unique, equilibrium: a marginal mode is not regularized)."""
    ok, min_c = check_cp(bath)
    if not ok:
        raise NotCP(f"Kossakowski matrix has negative eigenvalue {min_c:.3e}")
    gen = drift_diffusion(bath)
    re_max = gen.max_re_eig
    margin = matkit.ROUNDOFF * gen.norm
    if re_max >= -margin:
        raise Unstable(
            f"drift has eigenvalue with Re = {re_max:.3e} >= -{margin:.3e}; "
            "no unique asymptotic state"
        )
    x = matkit.solve_sylvester(gen.a.conj().T, gen.a, gen.b)
    return Covariance(0.5 * (x + x.conj().T), bath.n)


def collective_bath(eta: float, sigma: float, omega: float, lam: complex) -> BathSpec:
    """Two-mode bath in the rank-one collective pattern: every coefficient
    matrix proportional to [[1, 1], [1, 1]].

    Only the symmetric mode A = (a_1 + a_2)/sqrt(2) is damped; the
    antisymmetric mode decouples.  The Hamiltonian is scaled so that the
    symmetric mode sees exactly omega * A^dag A, which keeps the scalar
    steady-state formulas of collective_steady_moments() in the same
    parameters.
    """
    return BathSpec(
        omega=0.5 * float(omega) * _ONES2,
        eta=float(eta) * _ONES2,
        sigma=float(sigma) * _ONES2,
        lam=complex(lam) * _ONES2,
    )


def collective_sector_bath(eta: float, sigma: float, omega: float, lam: complex) -> BathSpec:
    """Single-mode restriction of the collective bath to its damped mode.

    The scalar flow is d beta/dt = -2(eta - sigma)(beta - beta_inf) and
    d alpha/dt = -2(eta - sigma + i omega)(alpha - alpha_inf).
    """
    return BathSpec(
        omega=np.array([[float(omega)]]),
        eta=np.array([[2.0 * float(eta)]]),
        sigma=np.array([[2.0 * float(sigma)]]),
        lam=np.array([[2.0 * complex(lam)]]),
    )


def collective_steady_moments(eta: float, sigma: float, omega: float, lam: complex) -> tuple[complex, float]:
    """Closed-form asymptotic moments of the damped collective mode:

        alpha_inf = conj(lam) (sigma - eta + i omega) / ((eta - sigma)^2 + omega^2)
        beta_inf  = eta / (eta - sigma)

    Requires eta > sigma; otherwise no equilibrium exists.
    """
    if not eta > sigma:
        raise Unstable(f"equilibrium requires eta > sigma, got eta={eta}, sigma={sigma}")
    denom = (eta - sigma) ** 2 + omega**2
    alpha_inf = np.conj(lam) * (sigma - eta + 1j * omega) / denom
    beta_inf = eta / (eta - sigma)
    return complex(alpha_inf), float(beta_inf)
