import dataclasses
import pickle

import numpy as np
import pytest

from quasifree import (
    CovarianceBlocks,
    collective_covariance,
    from_blocks,
    is_physical,
    matkit,
    pure_product,
    sigma_matrix,
    thermal,
    vacuum,
)
from quasifree import fock_oracle
from quasifree.errors import NegativeOccupation, NotHermitian, NotNormalizable, WrongModeCount
from quasifree.gaussian_state import Covariance

from conftest import eigensystem_min_physical, eigensystem_min_pt, full_transpose, random_physical_covariance


class TestConstructors:
    def test_vacuum_one_mode(self):
        np.testing.assert_array_equal(vacuum(1).v, 0.5 * np.eye(2))

    def test_vacuum_two_modes(self):
        np.testing.assert_array_equal(vacuum(2).v, 0.5 * np.eye(4))

    def test_vacuum_is_physical_on_the_boundary(self):
        ok, min_eig = is_physical(vacuum(2))
        assert ok and min_eig == 0.0

    def test_pure_product_at_zero_is_vacuum(self):
        np.testing.assert_array_equal(pure_product(0.0, 0.0).v, vacuum(2).v)

    def test_pure_product_moments(self):
        cov = pure_product(0.5, 0.0)
        assert abs(cov.alpha[0, 0] - 2.0 / 3.0) < 1e-15
        assert abs(cov.beta[0, 0] - 4.0 / 3.0) < 1e-15
        # second mode stays in the vacuum
        assert abs(cov.alpha[1, 1]) == 0.0
        assert abs(cov.beta[1, 1] - 1.0) == 0.0

    def test_pure_product_matches_number_basis_moments(self):
        cov = pure_product(0.5, 0.5)
        blocks = fock_oracle.extract_moments(fock_oracle.pure_product_state(0.5, 0.5, 40))
        assert np.abs(blocks.alpha - cov.alpha).max() < 1e-8
        assert np.abs(blocks.beta - cov.beta).max() < 1e-8

    def test_pure_product_rejects_unnormalizable(self):
        with pytest.raises(NotNormalizable):
            pure_product(1.0, 0.0)

    def test_thermal_zero_equals_vacuum_exactly(self):
        np.testing.assert_array_equal(thermal(2, [0.0, 0.0]).v, vacuum(2).v)

    def test_thermal_occupation_one(self):
        # every diagonal entry of the symmetrized covariance is nbar + 1/2
        np.testing.assert_array_equal(
            thermal(2, [1.0, 1.0]).v, np.diag([1.5, 1.5, 1.5, 1.5]).astype(complex)
        )

    def test_thermal_rejects_negative_occupation(self):
        with pytest.raises(NegativeOccupation):
            thermal(2, [0.5, -0.1])

    def test_collective_thermal_limit(self):
        # lam = 0 equilibrium of the collective bath: occupation sigma/(eta-sigma)
        eta, sigma = 1.0, 0.5
        beta_inf = eta / (eta - sigma)
        cov = collective_covariance(0.0, beta_inf, beta_inf)
        np.testing.assert_allclose(cov.v, thermal(2, [beta_inf - 1] * 2).v, atol=1e-15)


class TestPhysicality:
    def test_negative_covariance_fails(self):
        from quasifree.gaussian_state import Covariance

        ok, min_eig = is_physical(Covariance(-0.25 * np.eye(4), 2))
        assert not ok and min_eig < 0

    def test_collective_mixed_state_is_physical(self):
        # beta_0 = 1, beta_inf = 2 satisfies 2 b0 binf >= b0 + binf
        ok, _ = is_physical(collective_covariance(0.0, 1.0, 2.0))
        assert ok

    def test_pure_product_boundary(self, rng):
        for _ in range(20):
            o1 = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            o2 = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            cov = pure_product(o1, o2)
            ok, min_eig = is_physical(cov)
            assert ok and min_eig >= -1e-10
            # V + Sigma/2 is PSD with exactly two null directions
            basis = matkit.null_space(cov.v + 0.5 * sigma_matrix(2))
            assert basis.shape[1] == 2

    def test_random_evolved_states_physical(self, rng):
        for _ in range(10):
            ok, min_eig = is_physical(random_physical_covariance(rng))
            assert ok, min_eig

    def test_full_transposition_preserves_physicality(self, rng):
        for _ in range(10):
            cov = random_physical_covariance(rng)
            ok, _ = is_physical(full_transpose(cov))
            assert ok

    def test_bit_equal_to_validating_route(self, rng):
        # 100 evolved states and 100 arbitrary Hermitian matrices, physical
        # or not: skipping re-validation must not move a single bit
        covs = [random_physical_covariance(rng) for _ in range(100)]
        for _ in range(100):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            covs.append(Covariance(a + a.conj().T, 2))
        for cov in covs:
            assert is_physical(cov)[1] == eigensystem_min_physical(cov)

    @pytest.mark.parametrize("omega", [0.9999, 0.999999, 0.99999999])
    def test_strongly_squeezed_pure_product_is_physical(self, omega):
        # at |Omega| = 0.999999 the boundary eigenvalue is -1.18e-10, roundoff
        # of a spectrum reaching 1e6, just past the absolute cut of 1e-10
        assert is_physical(pure_product(omega, omega))[0]

    def test_scale_relative_cut_still_refuses_non_physical(self):
        v = pure_product(0.999999, 0.999999).v
        ok, min_eig = is_physical(Covariance(v - 1e-6 * np.eye(4), 2))
        assert not ok and min_eig < -9e-7
        # at moderate scale the cut is the absolute tolerance, as before
        ok, min_eig = is_physical(Covariance(vacuum(2).v - 2e-10 * np.eye(4), 2))
        assert not ok and min_eig == pytest.approx(-2e-10, rel=1e-6)


class TestSpectra:
    def test_memoized_read_only_and_bit_equal_to_validating_route(self, rng, monkeypatch):
        calls = []
        honest = matkit.hermitian_spectrum
        monkeypatch.setattr(matkit, "hermitian_spectrum", lambda h: calls.append(1) or honest(h))
        for _ in range(20):
            cov = random_physical_covariance(rng)
            calls.clear()
            for _ in range(3):
                is_physical(cov)
                assert cov.spectrum is cov.spectrum and cov.pt_spectrum is cov.pt_spectrum
            assert len(calls) == 2
            assert cov.spectrum[0] == eigensystem_min_physical(cov)
            assert cov.pt_spectrum[0] == eigensystem_min_pt(cov)
            for w in (cov.spectrum, cov.pt_spectrum):
                with pytest.raises(ValueError, match="read-only"):
                    w[0] = 0.0

    def test_frozen_state_cannot_drift_from_its_spectra(self):
        cov = vacuum(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cov.v = -np.eye(4)
        with pytest.raises(ValueError, match="read-only"):
            cov.v[0, 0] = -1.0
        assert is_physical(cov)[0]
        # numpy drops the read-only flag when pickling; a copy must come back
        # locked and without spectra it could drift from
        copy = pickle.loads(pickle.dumps(cov))
        assert not copy.v.flags.writeable and "spectrum" not in vars(copy)
        assert copy.v.tobytes() == cov.v.tobytes()

    def test_pt_spectrum_needs_two_modes(self):
        assert vacuum(1).spectrum.shape == (2,)
        with pytest.raises(WrongModeCount):
            vacuum(1).pt_spectrum
        with pytest.raises(WrongModeCount):
            vacuum(3).pt_spectrum


class TestBlocks:
    def test_roundtrip(self, rng):
        cov = random_physical_covariance(rng)
        rebuilt = from_blocks(cov.alpha, cov.beta)
        np.testing.assert_allclose(rebuilt.v, cov.v, atol=1e-14)

    def test_blocks_validate_alpha_symmetry(self):
        with pytest.raises(ValueError):
            CovarianceBlocks(alpha=np.array([[0.0, 1.0], [0.0, 0.0]]), beta=np.eye(2))

    def test_blocks_validate_beta_hermiticity(self):
        with pytest.raises(NotHermitian):
            CovarianceBlocks(alpha=np.zeros((2, 2)), beta=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_blocks_validate_beta_positivity(self):
        with pytest.raises(ValueError):
            CovarianceBlocks(alpha=np.zeros((2, 2)), beta=np.diag([1.0, -0.2]))

    def test_covariance_requires_hermitian(self):
        from quasifree.gaussian_state import Covariance

        with pytest.raises(NotHermitian):
            Covariance(np.triu(np.ones((4, 4))), 2)
