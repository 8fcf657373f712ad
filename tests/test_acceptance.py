"""Acceptance suite: one test per top-level criterion, each printing a
pass line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Tolerances are pinned here and nowhere else; the helpers come from the
public package API plus the shared random-bath builders in conftest.
"""

import time

import numpy as np
import pytest

from quasifree import (
    BathSpec,
    asymptotic_pt_eigenvalues,
    asymptotic_threshold,
    check_cp,
    collective_bath,
    collective_sector_bath,
    collective_steady_moments,
    generation_witness,
    initial_null_basis,
    is_physical,
    ppt_test,
    propagate_exact,
    propagate_steps,
    pt_min_eigenvalue,
    pure_product,
    sigma_matrix,
    steady_state,
    symmetric_null_vector,
    vacuum,
)
from quasifree import fock_oracle as fo

from conftest import partial_transpose, random_cp_bath, rotated_collective_bath


def test_criterion_1_vacuum_bath_generation():
    started = time.perf_counter()
    bath = BathSpec(
        omega=np.zeros((2, 2)),
        eta=np.diag([1.0, 2.0]),
        sigma=np.diag([1.0, 0.1]),
        lam=np.array([[0.0, 0.0], [1.2, 0.0]]),
    )
    cp_ok, _ = check_cp(bath)
    assert cp_ok

    psi = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
    rep = generation_witness(vacuum(2), bath, psi)
    assert rep.lhs < rep.rhs  # 1.1 < 1.2 after the common terms cancel
    assert rep.verdict

    entangled_at = None
    for t in np.geomspace(1e-3, 0.5, 25):
        if ppt_test(propagate_exact(vacuum(2), bath, t))[0]:
            entangled_at = t
            break
    assert entangled_at is not None and entangled_at <= 0.5

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS - vacuum-bath generation (entangled by t={entangled_at:.3g}, {elapsed:.2f}s)")


def test_criterion_2_pure_pair_generation():
    started = time.perf_counter()
    v0 = pure_product(0.2, 0.2)
    psi = symmetric_null_vector(0.2, 0.2)
    threshold = (1.0 - 0.2 * 1.5) / (1.0 - 0.2)
    assert threshold == pytest.approx(0.875, abs=1e-15)

    above = generation_witness(v0, collective_bath(1.5, 1.0, 0.0, 1.0), psi)
    assert above.verdict

    below = generation_witness(v0, collective_bath(1.5, 1.0, 0.0, 0.8), psi)
    assert not below.verdict

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2: PASS - pure-pair generation threshold 0.875 ({elapsed:.2f}s)")


def test_criterion_3_steady_state_formulas():
    eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
    sector = collective_sector_bath(eta, sigma, omega, lam)
    v_inf = steady_state(sector)

    beta_expected = 2.0
    alpha_expected = 0.7 * (-0.5 + 0.1j) / 0.26
    assert abs(v_inf.beta[0, 0] - beta_expected) < 1e-10
    assert abs(v_inf.alpha[0, 0] - alpha_expected) < 1e-10

    v40 = propagate_exact(vacuum(1), sector, 40.0)
    assert np.abs(v40.v - v_inf.v).max() < 1e-8
    print("criterion 3: PASS - steady state matches closed form and t=40 propagation")


def test_criterion_4_asymptotic_threshold():
    eta, sigma, omega = 1.0, 0.5, 0.1
    lam_sq_min, cp_max, feasible = asymptotic_threshold(eta, sigma, omega)
    assert lam_sq_min == pytest.approx(0.46222222222222226, rel=1e-12)
    assert feasible and cp_max == 0.5

    def min_pt(lam_sq):
        a_inf, b_inf = collective_steady_moments(eta, sigma, omega, np.sqrt(lam_sq))
        return float(asymptotic_pt_eigenvalues(a_inf, b_inf)[0])

    assert min_pt(0.49) < 0 and 0.49 < cp_max  # entangled, inside the CP bound
    assert min_pt(0.36) >= 0  # separable

    lo, hi = 0.36, 0.49
    assert min_pt(lo) >= 0 > min_pt(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if min_pt(mid) >= 0:
            lo = mid
        else:
            hi = mid
    assert hi - lo <= 1e-6
    assert lo <= lam_sq_min <= hi
    print(f"criterion 4: PASS - PT sign change inside [{lo:.8f}, {hi:.8f}] around {lam_sq_min:.8f}")


def test_criterion_5_relaxation_rates():
    eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
    rate_beta = 2.0 * (eta - sigma)
    rate_alpha = 2.0 * (eta - sigma) + 2j * omega

    sector = collective_sector_bath(eta, sigma, omega, lam)
    a_inf, b_inf = collective_steady_moments(eta, sigma, omega, lam)
    dt = 0.5
    traj = propagate_steps(vacuum(1), sector, 3.0, dt)

    betas = np.array([s.beta[0, 0].real for s in traj.states])
    alphas = np.array([s.alpha[0, 0] for s in traj.states])
    alphas_conj = np.array([s.v[1, 0] for s in traj.states])  # conjugate block

    for k in range(len(traj.times) - 1):
        fitted = np.log((betas[k] - b_inf) / (betas[k + 1] - b_inf)) / dt
        assert abs(fitted - rate_beta) <= 1e-6 * rate_beta
        fitted_a = np.log((alphas[k] - a_inf) / (alphas[k + 1] - a_inf)) / dt
        assert abs(fitted_a - rate_alpha) <= 1e-6 * abs(rate_alpha)
        fitted_c = np.log((alphas_conj[k] - np.conj(a_inf)) / (alphas_conj[k + 1] - np.conj(a_inf))) / dt
        assert abs(fitted_c - np.conj(rate_alpha)) <= 1e-6 * abs(rate_alpha)
    print("criterion 5: PASS - relaxation rates 2(eta-sigma) and 2(eta-sigma) +/- 2i omega")


def test_criterion_6_thermal_limit():
    eta, sigma, omega = 1.0, 0.5, 0.3
    v_inf = steady_state(collective_sector_bath(eta, sigma, omega, 0.0))
    beta_inf = eta / (eta - sigma)
    assert abs(v_inf.alpha[0, 0]) < 1e-10
    assert abs(v_inf.beta[0, 0] - beta_inf) < 1e-10

    nbar = v_inf.beta[0, 0].real - 1.0
    assert abs(nbar - sigma / (eta - sigma)) < 1e-10
    # occupation consistent with a Gibbs weight exp(omega/T) = eta/sigma
    assert abs(nbar - 1.0 / (eta / sigma - 1.0)) < 1e-10
    print("criterion 6: PASS - lam=0 equilibrium is thermal with nbar = sigma/(eta-sigma)")


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(719)
    cutoff = 15
    sample_times = (0.3, 0.65, 1.0)

    baths = []
    for _ in range(10):
        baths.append(random_cp_bath(rng, strength=rng.uniform(0.5, 1.2)))
    for _ in range(10):
        baths.append(rotated_collective_bath(rng))

    max_dev = 0.0
    verdict_pairs = []
    for bath in baths:
        ok, _ = check_cp(bath)
        assert ok
        oracle = fo.evolve_trajectory(fo.vacuum_state(cutoff), bath, sample_times, dt=5e-3)
        for t, rho in zip(sample_times, oracle):
            state = propagate_exact(vacuum(2), bath, t)
            blocks = fo.extract_moments(rho)
            dev = max(
                float(np.abs(blocks.alpha - state.alpha).max()),
                float(np.abs(blocks.beta - state.beta).max()),
            )
            max_dev = max(max_dev, dev)
            verdict_pairs.append((ppt_test(state)[0], fo.negativity(rho) > 1e-6))

    assert max_dev <= 1e-3
    assert len(verdict_pairs) >= 50
    disagreements = sum(1 for a, b in verdict_pairs[:50] if a != b)
    assert disagreements == 0
    n_entangled = sum(1 for a, _ in verdict_pairs if a)
    assert n_entangled >= 10  # both verdict classes are represented

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 7: PASS - 20 baths, max moment deviation {max_dev:.2e}, "
        f"{n_entangled}/{len(verdict_pairs)} entangled, 0 disagreements, {elapsed:.0f}s"
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(88)

    # complete positivity preserves physicality: 100 baths x 3 times
    for _ in range(100):
        bath = random_cp_bath(rng, strength=rng.uniform(0.3, 1.5), damping_bias=rng.uniform(0.3, 1.0))
        v0 = propagate_exact(vacuum(2), random_cp_bath(rng), rng.uniform(0.2, 1.0))
        for t in (0.1, 1.0, 10.0):
            ok, min_eig = is_physical(propagate_exact(v0, bath, t), tol=1e-8)
            assert ok, min_eig

    # semigroup law
    for _ in range(20):
        bath = random_cp_bath(rng)
        s, t = rng.uniform(0.05, 2.0, size=2)
        once = propagate_exact(vacuum(2), bath, s + t)
        twice = propagate_exact(propagate_exact(vacuum(2), bath, s), bath, t)
        assert np.abs(once.v - twice.v).max() < 1e-9

    # witness-formulation consistency on 100 random (bath, null-vector) pairs
    for _ in range(100):
        bath = random_cp_bath(rng, strength=rng.uniform(0.3, 1.5))
        o1 = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        o2 = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        v0 = pure_product(o1, o2)
        basis = initial_null_basis(v0)
        psi = basis @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rep = generation_witness(v0, bath, psi)
        assert abs(rep.q_derivative - 0.5 * (rep.lhs - rep.rhs)) < 1e-10
        if abs(rep.q_derivative) > 1e-12:
            assert (rep.q_derivative < 0) == (rep.lhs < rep.rhs)

    # partial transposition is an involution, and the PT test reads the
    # spectrum of T V T + Sigma/2
    for _ in range(20):
        v = propagate_exact(vacuum(2), random_cp_bath(rng), rng.uniform(0.1, 2.0))
        assert np.abs(partial_transpose(partial_transpose(v)).v - v.v).max() < 1e-14
        reference = np.linalg.eigvalsh(partial_transpose(v).v + 0.5 * sigma_matrix(2))[0]
        assert abs(pt_min_eigenvalue(v) - reference) < 1e-13

    # separable states have nonnegative PT spectra, including the mixed
    # collective family (where the scalar inequality 2 b0 binf >= b0 + binf
    # guarantees it)
    from quasifree import collective_covariance

    for _ in range(20):
        o1 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        o2 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert pt_min_eigenvalue(pure_product(o1, o2)) >= -1e-10
    for beta0 in (1.0, 1.5, 2.0, 4.0):
        for beta_inf in (1.0, 2.0, 3.0):
            assert 2 * beta0 * beta_inf >= beta0 + beta_inf
            cov = collective_covariance(0.0, beta0, beta_inf)
            assert pt_min_eigenvalue(cov) >= -1e-10

    print("criterion 8: PASS - property suites (physicality, semigroup, witness signs, PT)")
