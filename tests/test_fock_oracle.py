import numpy as np
import pytest

from quasifree import (
    BathSpec,
    collective_bath,
    collective_steady_moments,
    drift_diffusion,
    kossakowski,
    ppt_test,
    propagate_exact,
    pure_product,
    thermal,
    vacuum,
)
from quasifree import fock_oracle as fo
from quasifree.errors import CutoffTooSmall, NotNormalizable, TruncationLeak

from conftest import lowering_operators, random_cp_bath
from test_dynamics import ZERO_BATH, vacuum_noise_bath


def reference_superoperator(bath, cutoff):
    """Dense Kronecker superoperator acting on the row-major vectorized rho,
    built straight from the Kossakowski matrix on the full space: no jump
    diagonalization, no sparse algebra and no parity blocks.  Row-major
    vectorization maps A rho B to kron(A, B^T) vec(rho)."""
    a1, a2 = lowering_operators(cutoff)
    f = [a1, a2, a1.conj().T, a2.conj().T]
    eye = np.eye(a1.shape[0])
    h = sum(bath.omega[i, j] * f[2 + i] @ f[j] for i in range(2) for j in range(2))
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    c = kossakowski(bath)
    for mu in range(4):
        for nu in range(4):
            # c[mu, nu] (F_nu rho F_mu^dag - {F_mu^dag F_nu, rho} / 2)
            prod = f[mu].conj().T @ f[nu]
            sup = sup + c[mu, nu] * (
                np.kron(f[nu], f[mu].conj()) - 0.5 * np.kron(prod, eye) - 0.5 * np.kron(eye, prod.T)
            )
    return sup


def reference_apply(bath, cutoff, rho):
    d = rho.shape[0]
    return (reference_superoperator(bath, cutoff) @ rho.reshape(-1)).reshape(d, d)


def random_parity_symmetric(rng, cutoff):
    """Random Hermitian matrix with no entry between sectors of different
    total parity."""
    blocks = []
    for idx in fo.parity_sectors(cutoff):
        r = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal((idx.size, idx.size))
        blocks.append(r + r.conj().T)
    return fo.join_parity(blocks, cutoff)


def random_parity_symmetric_state(rng, cutoff):
    """Random parity-symmetric density matrix of full rank."""
    r = random_parity_symmetric(rng, cutoff)
    rho = r @ r
    return fo.FockState(rho / np.trace(rho).real, cutoff)


# Pumps both modes out of the vacuum: the top level of a small cutoff fills
# within t ~ 0.05.
PUMP_BATH = BathSpec(
    omega=np.zeros((2, 2)), eta=0.2 * np.eye(2), sigma=2.0 * np.eye(2), lam=np.zeros((2, 2))
)


def blocked_apply(gen, rho, cutoff):
    return fo.join_parity(gen.apply(fo.split_parity(rho, cutoff)), cutoff)


class TestOperatorsAndStates:
    def test_commutator_truncated(self):
        a1, a2 = lowering_operators(6)
        comm = a1 @ a1.conj().T - a1.conj().T @ a1
        # canonical except on the top level, where truncation bites
        q = 7
        diag = np.real(np.diagonal(comm)).reshape(q, q)
        assert np.abs(diag[: q - 1, :] - 1.0).max() < 1e-14
        assert np.abs(comm - np.diag(np.diagonal(comm))).max() < 1e-14
        assert np.abs(a1 @ a2 - a2 @ a1).max() == 0.0
        # the oracle builds its generator from these matrices, held sparse
        for ours, ref in zip(fo._sparse_lowering_operators(6), (a1, a2)):
            assert np.array_equal(ours.toarray(), ref)

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            fo.build_generator(ZERO_BATH, 1)

    def test_vacuum_moments(self):
        blocks = fo.extract_moments(fo.vacuum_state(8))
        np.testing.assert_allclose(blocks.alpha, np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(blocks.beta, np.eye(2), atol=1e-14)

    def test_thermal_moments(self):
        blocks = fo.extract_moments(fo.thermal_state([1.0, 1.0], 30))
        np.testing.assert_allclose(blocks.beta, 2 * np.eye(2), atol=1e-6)
        np.testing.assert_allclose(blocks.alpha, np.zeros((2, 2)), atol=1e-12)

    def test_pure_product_moments_confirm_sign_convention(self):
        blocks = fo.extract_moments(fo.pure_product_state(0.5, 0.0, 40))
        cov = pure_product(0.5, 0.0)
        assert np.abs(blocks.alpha - cov.alpha).max() < 1e-8
        assert np.abs(blocks.beta - cov.beta).max() < 1e-8

    def test_pure_product_rejects_unnormalizable(self):
        with pytest.raises(NotNormalizable):
            fo.pure_product_state(1.0, 0.0, 10)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            fo.FockState(np.eye(9), 2)  # trace 9

    def test_state_refuses_parity_mixing(self):
        # (|0,0> + |1,0>) / sqrt(2) has <a_1> != 0: its rho connects the even
        # and the odd sector
        psi = np.zeros(9, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        with pytest.raises(ValueError, match="parity-symmetric"):
            fo.FockState(np.outer(psi, psi.conj()), 2)

    def test_parity_blocks_round_trip(self, rng):
        for cutoff in (3, 4):  # equal and unequal sector sizes
            rho = random_parity_symmetric(rng, cutoff)
            even, odd = fo.parity_sectors(cutoff)
            assert even.size + odd.size == (cutoff + 1) ** 2
            assert np.array_equal(fo.join_parity(fo.split_parity(rho, cutoff), cutoff), rho)

    def test_moments_match_dense_traces(self, rng):
        # the dense products Tr[a_i a_j rho] and Tr[a_i a_j^dag rho] with the
        # truncated ladder matrices are the reference for the index arithmetic
        cutoff = 5
        state = random_parity_symmetric_state(rng, cutoff)
        a = lowering_operators(cutoff)
        blocks = fo.extract_moments(state)
        for i in range(2):
            for j in range(2):
                alpha = np.trace(a[i] @ a[j] @ state.rho)
                beta = np.trace(a[i] @ a[j].conj().T @ state.rho)
                assert abs(blocks.alpha[i, j] - alpha) < 1e-14
                assert abs(blocks.beta[i, j] - beta) < 1e-14


class TestGenerator:
    def test_zero_bath_gives_zero_superoperator(self, rng):
        gen = fo.build_generator(ZERO_BATH, 3)
        for block in gen.apply(fo.split_parity(random_parity_symmetric(rng, 3), 3)):
            assert np.abs(block).max() == 0.0

    def test_pure_decay_fixes_vacuum(self):
        import quasifree

        bath = quasifree.BathSpec(
            omega=np.zeros((2, 2)), eta=np.eye(2), sigma=np.zeros((2, 2)), lam=np.zeros((2, 2))
        )
        gen = fo.build_generator(bath, 4)
        assert np.abs(blocked_apply(gen, fo.vacuum_state(4).rho, 4)).max() < 1e-14

    def test_superoperator_matches_apply(self, rng):
        bath = random_cp_bath(rng)
        gen = fo.build_generator(bath, 3)
        rho = random_parity_symmetric(rng, 3)
        via_matrix = reference_apply(bath, 3, rho)
        # the full-space generator keeps the parity sectors apart ...
        even, odd = fo.parity_sectors(3)
        assert np.abs(via_matrix[np.ix_(even, odd)]).max() < 1e-12
        # ... and the blocked action reproduces it
        np.testing.assert_allclose(blocked_apply(gen, rho, 3), via_matrix, atol=1e-12)

    def test_apply_matches_reference_with_unequal_blocks(self, rng):
        # cutoff 4: 13 even and 12 odd basis states
        bath = random_cp_bath(rng)
        gen = fo.build_generator(bath, 4)
        rho = random_parity_symmetric(rng, 4)
        drho = gen.apply(fo.split_parity(rho, 4))
        assert [b.shape for b in drho] == [(13, 13), (12, 12)]
        for block in drho:
            assert np.abs(block - block.conj().T).max() == 0.0
        np.testing.assert_allclose(fo.join_parity(drho, 4), reference_apply(bath, 4, rho), atol=1e-12)

    def test_moment_flow_matches_covariance_drift(self):
        bath = vacuum_noise_bath()
        gen = fo.build_generator(bath, 15)
        drho = blocked_apply(gen, fo.vacuum_state(15).rho, 15)
        a1, a2 = lowering_operators(15)
        ops = (a1, a2)
        dalpha = np.array([[np.trace(ops[i] @ ops[j] @ drho) for j in range(2)] for i in range(2)])
        dbeta = np.array(
            [[np.trace(ops[i] @ ops[j].conj().T @ drho) for j in range(2)] for i in range(2)]
        )
        gd = drift_diffusion(bath)
        v0 = vacuum(2)
        flow = gd.a.conj().T @ v0.v + v0.v @ gd.a + gd.b
        assert np.abs(flow[:2, 2:] - dalpha).max() < 1e-6
        assert np.abs(flow[:2, :2] - dbeta).max() < 1e-6


class TestEvolution:
    def test_zero_time_is_identity(self):
        rho0 = fo.thermal_state([0.5, 0.2], 12)
        out = fo.evolve_rho(rho0, vacuum_noise_bath(), 0.0)
        np.testing.assert_allclose(out.rho, rho0.rho, atol=1e-15)

    def test_zero_bath_is_static(self):
        rho0 = fo.thermal_state([0.5, 0.2], 12)
        out = fo.evolve_rho(rho0, ZERO_BATH, 1.3, dt=0.05)
        np.testing.assert_allclose(out.rho, rho0.rho, atol=1e-12)

    def test_blocked_evolution_matches_reference_rk4(self, rng):
        # the same classical RK4 on the vectorized full-space rho
        bath = random_cp_bath(rng)
        rho0 = fo.pure_product_state(0.1, -0.05j, 4)
        dt, steps = 1.0 / 64, 16
        sup = reference_superoperator(bath, 4)
        v = rho0.rho.reshape(-1).copy()
        for _ in range(steps):
            k1 = sup @ v
            k2 = sup @ (v + 0.5 * dt * k1)
            k3 = sup @ (v + 0.5 * dt * k2)
            k4 = sup @ (v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out = fo.evolve_rho(rho0, bath, steps * dt, dt=dt)
        assert np.abs(out.rho - v.reshape(25, 25)).max() <= 1e-12

    def test_trace_and_hermiticity_preserved(self, rng):
        bath = random_cp_bath(rng)
        out = fo.evolve_rho(fo.vacuum_state(8), bath, 0.6, dt=5e-3)
        assert abs(np.trace(out.rho) - 1.0) < 1e-10
        assert np.abs(out.rho - out.rho.conj().T).max() < 1e-12
        assert out.min_eigenvalue() > -1e-8

    @pytest.mark.parametrize("cutoff,tol", [(15, 1e-4), (18, 1e-5)])
    def test_collective_closed_form(self, cutoff, tol):
        # vacuum start: beta(t), alpha(t) follow the scalar relaxation law.
        # The residual is pure truncation (2e-5 at cutoff 15, 2e-6 at 18).
        eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
        bath = collective_bath(eta, sigma, omega, lam)
        a_inf, b_inf = collective_steady_moments(eta, sigma, omega, lam)
        st = fo.evolve_rho(fo.vacuum_state(cutoff), bath, 1.0, dt=5e-3)
        blocks = fo.extract_moments(st)
        beta_sym = 0.5 * np.sum(blocks.beta).real
        alpha_sym = 0.5 * np.sum(blocks.alpha)
        t = 1.0
        assert abs(beta_sym - (np.exp(-2 * (eta - sigma) * t) * (1 - b_inf) + b_inf)) < tol
        assert abs(alpha_sym - (1 - np.exp(-2 * (eta - sigma + 1j * omega) * t)) * a_inf) < tol

    def test_truncation_guard_fires(self):
        with pytest.raises(TruncationLeak):
            fo.evolve_rho(fo.vacuum_state(3), PUMP_BATH, 2.0, dt=5e-3)

    def test_vacuum_noise_trajectory_matches_covariance(self):
        # cross-coupled decay/pump bath from the vacuum, t <= 1 at cutoff 15
        bath = vacuum_noise_bath()
        times = (0.5, 1.0)
        for t, rho in zip(times, fo.evolve_trajectory(fo.vacuum_state(15), bath, times, dt=5e-3)):
            blocks = fo.extract_moments(rho)
            state = propagate_exact(vacuum(2), bath, t)
            dev = max(
                np.abs(blocks.alpha - state.alpha).max(), np.abs(blocks.beta - state.beta).max()
            )
            assert dev < 1e-4

    def test_step_count_is_an_integer_per_interval(self, monkeypatch):
        # 1.09 / 5e-3 is 218 steps; subtracting dt 218 times leaves ~1e-13,
        # which must not become a 219th step
        calls = []
        apply = fo.LindbladGenerator.apply
        monkeypatch.setattr(fo.LindbladGenerator, "apply", lambda gen, rho: calls.append(1) or apply(gen, rho))
        fo.evolve_rho(fo.vacuum_state(2), ZERO_BATH, 1.09, dt=5e-3)
        assert len(calls) == 4 * 218

    def test_cutoff_convergence_weak_excitation(self):
        bath = collective_bath(1.0, 0.4, 0.0, 0.2)
        m10 = fo.extract_moments(fo.evolve_rho(fo.vacuum_state(10), bath, 0.5, dt=2e-3))
        m20 = fo.extract_moments(fo.evolve_rho(fo.vacuum_state(20), bath, 0.5, dt=2e-3))
        assert np.abs(m10.alpha - m20.alpha).max() < 1e-6
        assert np.abs(m10.beta - m20.beta).max() < 1e-6


class TestTrajectory:
    @pytest.mark.parametrize("kind", ["random", "collective"])
    def test_samples_equal_chained_evolve_rho(self, rng, kind):
        bath = random_cp_bath(rng) if kind == "random" else collective_bath(1.0, 0.5, 0.1, 0.7)
        rho0 = fo.pure_product_state(0.2, -0.1j, 6)
        times = (0.0, 0.05, 0.12, 0.12, 0.25)
        samples = list(fo.evolve_trajectory(rho0, bath, times, dt=5e-3))
        assert len(samples) == len(times)
        rho, t_prev = rho0, 0.0
        for t, sample in zip(times, samples):
            rho = fo.evolve_rho(rho, bath, t - t_prev, dt=5e-3)
            t_prev = t
            assert np.array_equal(sample.rho, rho.rho)

    def test_builds_one_generator(self, monkeypatch):
        built = []
        build = fo.build_generator
        monkeypatch.setattr(fo, "build_generator", lambda bath, cutoff: built.append(1) or build(bath, cutoff))
        samples = list(fo.evolve_trajectory(fo.vacuum_state(6), vacuum_noise_bath(), (0.05, 0.1, 0.2), dt=1e-2))
        assert len(samples) == 3
        assert len(built) == 1

    def test_leak_comes_after_the_earlier_samples(self):
        # the pump keeps the top level of cutoff 3 below the bound up to
        # t = 0.01 (1.5e-5) and is past it at t = 0.05 (1.7e-3)
        trajectory = fo.evolve_trajectory(fo.vacuum_state(3), PUMP_BATH, (0.005, 0.01, 0.05, 0.1), dt=1e-3)
        next(trajectory)
        next(trajectory)
        with pytest.raises(TruncationLeak):
            next(trajectory)

    @pytest.mark.parametrize("times", [(-0.1, 0.2), (0.3, 0.2), (0.1, 0.2, 0.15)])
    def test_bad_times_are_refused_before_integrating(self, monkeypatch, times):
        calls = []
        monkeypatch.setattr(fo.LindbladGenerator, "apply", lambda gen, rho: calls.append(1))
        with pytest.raises(ValueError, match="sample times"):
            list(fo.evolve_trajectory(fo.vacuum_state(3), vacuum_noise_bath(), times))
        assert calls == []


class TestNegativity:
    def test_blocked_negativity_matches_full_spectrum(self, rng):
        cutoff = 6
        q = cutoff + 1
        # two-mode squeezed pure state sum_n x^n |n, n>, mixed with a random
        # parity-symmetric state: strongly entangled, generic spectrum
        psi = np.zeros(q * q, dtype=complex)
        psi[np.arange(q) * (q + 1)] = 0.6 ** np.arange(q)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        noise = random_parity_symmetric_state(rng, cutoff).rho
        full = []
        for rho in (pure, 0.7 * pure + 0.3 * noise, noise):
            state = fo.FockState(rho, cutoff)
            pt = state.rho.reshape(q, q, q, q).transpose(2, 1, 0, 3).reshape(q * q, q * q)
            w = np.linalg.eigvalsh(pt)
            full.append(float(np.abs(w[w < 0]).sum()))
            assert abs(fo.negativity(state) - full[-1]) < 1e-12
        assert full[0] > full[1] > 0.1

    def test_product_states_have_zero_negativity(self):
        assert fo.negativity(fo.vacuum_state(6)) == 0.0
        assert fo.negativity(fo.thermal_state([0.7, 0.3], 12)) < 1e-12
        assert fo.negativity(fo.pure_product_state(0.4, -0.2, 20)) < 1e-10

    def test_long_time_collective_state_is_entangled(self):
        # by t=8 the damped mode sits within exp(-8) of its fixed point
        eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
        bath = collective_bath(eta, sigma, omega, lam)
        st = fo.evolve_rho(fo.vacuum_state(15), bath, 8.0, dt=8e-3)
        neg = fo.negativity(st)
        assert neg > 1e-4
        entangled, _ = ppt_test(propagate_exact(vacuum(2), bath, 8.0))
        assert entangled

    def test_thermal_start_matches_gaussian_verdict(self):
        bath = vacuum_noise_bath()
        st = fo.evolve_rho(fo.thermal_state([0.2, 0.2], 14), bath, 0.4, dt=5e-3)
        gauss = propagate_exact(thermal(2, [0.2, 0.2]), bath, 0.4)
        assert (fo.negativity(st) > 1e-6) == ppt_test(gauss)[0]
