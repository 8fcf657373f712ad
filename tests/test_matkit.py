import numpy as np
import pytest

from quasifree import matkit
from quasifree.dynamics import collective_steady_moments
from quasifree.entanglement import asymptotic_covariance
from quasifree.errors import NotHermitian, NotSquare, Resonant
from quasifree.gaussian_state import sigma_matrix

from conftest import T_MATRIX


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


class TestHermitianEigensystem:
    def test_diagonal(self):
        w, v = matkit.hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, _ = matkit.hermitian_eigensystem([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_asymptotic_pt_matrix_has_negative_eigenvalue(self):
        # collective scenario eta=1, sigma=0.5, omega=0.1, |lam|=0.7
        alpha_inf, beta_inf = collective_steady_moments(1.0, 0.5, 0.1, 0.7)
        cov = asymptotic_covariance(alpha_inf, beta_inf)
        m = T_MATRIX @ cov.v @ T_MATRIX + 0.5 * sigma_matrix(2)
        w, _ = matkit.hermitian_eigensystem(m)
        assert w[0] < 0

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            matkit.hermitian_eigensystem(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matkit.hermitian_eigensystem([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            matkit.hermitian_eigensystem([[np.nan, 0.0], [0.0, 1.0]])

    def test_reconstruction_and_orthonormality(self, rng):
        for n in (2, 4, 7):
            m = random_hermitian(rng, n)
            w, v = matkit.hermitian_eigensystem(m)
            rebuilt = v @ np.diag(w) @ v.conj().T
            assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(np.linalg.norm(m), 1.0)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
            scale = np.abs(m).max()
            for k in range(n):
                residual = np.abs(m @ v[:, k] - w[k] * v[:, k]).max()
                assert residual <= 1e-10 * scale * n


class TestHermitianSpectrum:
    def test_bit_equal_to_eigensystem(self, rng):
        for n in (1, 2, 4, 7):
            for _ in range(20):
                m = random_hermitian(rng, n)
                np.testing.assert_array_equal(
                    matkit.hermitian_spectrum(m), matkit.hermitian_eigensystem(m)[0]
                )

    def test_stack_bit_equal_to_single_matrices(self, rng):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(200)])
        batched = matkit.hermitian_spectrum(stack)
        assert batched.shape == (200, 4)
        for m, w in zip(stack, batched):
            np.testing.assert_array_equal(w, matkit.hermitian_spectrum(m))


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matkit.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matkit.expm(np.diag([1.5, -0.3 + 0.2j]))
        np.testing.assert_allclose(out, np.diag(np.exp([1.5, -0.3 + 0.2j])), rtol=1e-13)

    def test_nilpotent(self):
        out = matkit.expm([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            matkit.expm(np.ones((2, 3)))

    def test_inverse_property(self, rng):
        # e^m e^{-m} = 1 is conditioned like e^(real-eigenvalue spread), so the
        # 1e-10 contract applies to oscillation-dominated generators, not to
        # arbitrary strongly non-normal matrices of the same norm
        for _ in range(10):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = 0.5 * (h + h.conj().T)
            d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = 1j * h + 0.3 * d
            m *= 20.0 / np.linalg.norm(m, 2) * rng.uniform(0.2, 1.0)
            prod = matkit.expm(m) @ matkit.expm(-m)
            assert np.abs(prod - np.eye(4)).max() < 1e-10

    def test_semigroup_for_commuting_arguments(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s, t = 0.7, -1.3
        lhs = matkit.expm(s * m) @ matkit.expm(t * m)
        rhs = matkit.expm((s + t) * m)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_relative_accuracy_at_norm_50(self, rng):
        # normal matrices have an exact reference through the eigenbasis
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            lam = -rng.uniform(0, 1, 6) + 1j * rng.standard_normal(6)
            lam *= 50.0 / np.abs(lam).max()
            m = q @ np.diag(lam) @ q.conj().T
            ref = q @ np.diag(np.exp(lam)) @ q.conj().T
            err = np.linalg.norm(matkit.expm(m) - ref, 2) / np.linalg.norm(ref, 2)
            assert err <= 1e-12

    def test_deterministic_output_bits(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert matkit.expm(m).tobytes() == matkit.expm(m.copy()).tobytes()
        h = 0.5 * (m + m.conj().T)
        w1, v1 = matkit.hermitian_eigensystem(h)
        w2, v2 = matkit.hermitian_eigensystem(h.copy())
        assert w1.tobytes() == w2.tobytes() and v1.tobytes() == v2.tobytes()


class TestSolveSylvester:
    def test_scalar_like(self):
        x = matkit.solve_sylvester(-np.eye(2), -np.eye(2), np.eye(2))
        np.testing.assert_allclose(x, 0.5 * np.eye(2), atol=1e-14)

    def test_residual_contract(self, rng):
        for _ in range(5):
            p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) - 3 * np.eye(4)
            q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) - 3 * np.eye(4)
            r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = matkit.solve_sylvester(p, q, r)
            assert np.linalg.norm(p @ x + x @ q + r) <= 1e-10 * np.linalg.norm(r)

    def test_resonant_pair_raises(self):
        with pytest.raises(Resonant):
            matkit.solve_sylvester(np.diag([1.0, 2.0]), np.diag([-1.0, -3.0]), np.eye(2))

    def test_stationary_flow_matches_collective_closed_form(self):
        # p = A^dag, q = A, r = B of the damped collective sector: the
        # solution carries the closed-form asymptotic moments
        from quasifree.dynamics import collective_sector_bath, drift_diffusion
        from quasifree.gaussian_state import Covariance

        gen = drift_diffusion(collective_sector_bath(1.0, 0.5, 0.1, 0.7))
        x = matkit.solve_sylvester(gen.a.conj().T, gen.a, gen.b)
        cov = Covariance(0.5 * (x + x.conj().T), 1)
        a_inf, b_inf = collective_steady_moments(1.0, 0.5, 0.1, 0.7)
        assert abs(cov.beta[0, 0] - b_inf) < 1e-12
        assert abs(cov.alpha[0, 0] - a_inf) < 1e-12


class TestNullSpace:
    def test_partial_diagonal(self):
        basis = matkit.null_space(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert basis.shape == (4, 2)
        assert np.abs(basis[:2, :]).max() < 1e-12

    def test_identity_has_trivial_null_space(self):
        assert matkit.null_space(np.eye(5)).shape == (5, 0)

    def test_zero_matrix_spans_everything(self):
        assert matkit.null_space(np.zeros((3, 3))).shape == (3, 3)

    def test_orthonormal_columns(self, rng):
        proj = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
        u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        basis = matkit.null_space(u @ proj @ u.conj().T)
        assert basis.shape == (5, 3)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matkit.null_space([[0.0, 1.0], [0.0, 0.0]])
