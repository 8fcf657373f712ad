import numpy as np
import pytest

from quasifree import (
    BathSpec,
    asymptotic_covariance,
    asymptotic_pt_eigenvalues,
    asymptotic_threshold,
    collective_bath,
    collective_steady_moments,
    drift_diffusion,
    generation_witness,
    initial_null_basis,
    is_physical,
    ppt_test,
    propagate_exact,
    pt_min_eigenvalue,
    pure_product,
    scan_generation_witness,
    sigma_matrix,
    symmetric_null_vector,
    thermal,
    vacuum,
    vacuum_condition,
)
from quasifree.errors import (
    DomainError,
    EmptyNullSpace,
    NonPhysicalInput,
    NotNullVector,
    WrongModeCount,
)

from conftest import (
    T_MATRIX,
    eigensystem_min_pt,
    partial_transpose,
    random_cp_bath,
    random_physical_covariance,
    rotated_collective_bath,
)
from test_dynamics import ZERO_BATH, vacuum_noise_bath


class TestPartialTranspose:
    def test_vacuum_fixed_point(self):
        np.testing.assert_array_equal(partial_transpose(vacuum(2)).v, vacuum(2).v)
        assert pt_min_eigenvalue(vacuum(2)) == 0.0

    def test_involution(self, rng):
        cov = random_physical_covariance(rng)
        np.testing.assert_allclose(partial_transpose(partial_transpose(cov)).v, cov.v, atol=1e-15)

    def test_spectrum_matches_reference(self, rng):
        # the PT test reads the spectrum of T V T + Sigma/2
        for _ in range(10):
            cov = random_physical_covariance(rng)
            reference = np.linalg.eigvalsh(partial_transpose(cov).v + 0.5 * sigma_matrix(2))
            assert abs(pt_min_eigenvalue(cov) - reference[0]) < 1e-13

    def test_bit_equal_to_validating_route(self, rng):
        from quasifree.gaussian_state import Covariance

        covs = [random_physical_covariance(rng) for _ in range(100)]
        for _ in range(100):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            covs.append(Covariance(a + a.conj().T, 2))
        for cov in covs:
            assert pt_min_eigenvalue(cov) == eigensystem_min_pt(cov)

    def test_mode_count_guard(self):
        with pytest.raises(WrongModeCount):
            pt_min_eigenvalue(vacuum(1))
        with pytest.raises(WrongModeCount):
            initial_null_basis(vacuum(1))

    def test_separable_states_stay_physical(self, rng):
        for _ in range(10):
            o1 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            o2 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert is_physical(partial_transpose(pure_product(o1, o2)))[0]


class TestPptTest:
    def test_vacuum_is_separable(self):
        entangled, min_eig = ppt_test(vacuum(2))
        assert not entangled and abs(min_eig) < 1e-15

    def test_pure_products_are_separable(self, rng):
        for _ in range(10):
            o1 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            o2 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            entangled, _ = ppt_test(pure_product(o1, o2))
            assert not entangled

    @pytest.mark.parametrize("omega", [0.9999, 0.999999, 0.99999999])
    def test_strongly_squeezed_pure_products_are_separable(self, omega):
        # both spectra of pure_product(0.999999, 0.999999) dip to -1.18e-10,
        # roundoff of eigenvalues reaching 1e6: neither non-physical nor
        # entangled
        entangled, _ = ppt_test(pure_product(omega, omega))
        assert not entangled

    def test_verdict_cut_is_absolute_at_unit_scale_and_relative_beyond(self):
        from quasifree.entanglement import ENT_TOL, pt_entangled, pt_margin, pt_spectrum

        assert pt_margin(pt_spectrum(vacuum(2))) == ENT_TOL
        squeezed = pt_spectrum(pure_product(0.999999, 0.999999))
        assert ENT_TOL < pt_margin(squeezed) < 1e-8
        assert not pt_entangled(squeezed)
        # a dip below -ENT_TOL at unit scale is still entanglement
        assert pt_entangled(np.array([-2e-10, 0.0, 1.0, 1.0]))

    def test_strongly_squeezed_non_physical_state_is_refused(self):
        from quasifree.gaussian_state import Covariance

        v = pure_product(0.999999, 0.999999).v
        with pytest.raises(NonPhysicalInput):
            ppt_test(Covariance(v - 1e-6 * np.eye(4), 2))

    def test_asymptotic_collective_state_entangled(self):
        a_inf, b_inf = collective_steady_moments(1.0, 0.5, 0.1, 0.7)
        entangled, min_eig = ppt_test(asymptotic_covariance(a_inf, b_inf))
        assert entangled and min_eig < -1e-3

    def test_rejects_non_physical(self):
        from quasifree.gaussian_state import Covariance

        with pytest.raises(NonPhysicalInput):
            ppt_test(Covariance(-np.eye(4), 2))


class TestNullBasis:
    def test_vacuum_null_space(self):
        basis = initial_null_basis(vacuum(2))
        assert basis.shape == (4, 2)
        assert np.abs(basis[:2, :]).max() < 1e-12

    def test_pure_product_structure(self):
        cov = pure_product(0.5, 0.5)
        basis = initial_null_basis(cov)
        assert basis.shape[1] == 2
        # null vectors have the form (-a conj(O1), -b O2, a, b)
        for k in range(2):
            psi = basis[:, k]
            assert abs(psi[0] + 0.5 * psi[2]) < 1e-12
            assert abs(psi[1] + 0.5 * psi[3]) < 1e-12

    def test_interior_state_has_no_null_space(self):
        with pytest.raises(EmptyNullSpace):
            initial_null_basis(thermal(2, [1.0, 1.0]))

    def test_symmetric_vector_membership(self, rng):
        for _ in range(10):
            o1 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            o2 = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            cov = pure_product(o1, o2)
            psi = symmetric_null_vector(o1, o2)
            m = T_MATRIX @ cov.v @ T_MATRIX + 0.5 * sigma_matrix(2)
            assert np.abs(m @ psi).max() < 1e-12


class TestGenerationWitness:
    def test_vacuum_noise_example(self):
        psi = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
        rep = generation_witness(vacuum(2), vacuum_noise_bath(), psi)
        # lhs < rhs reduces to sigma_11 + sigma_22 < Re(lam_12 + lam_21): 1.1 < 1.2
        assert rep.verdict
        assert rep.lhs == pytest.approx(0.85, abs=1e-12)
        assert rep.rhs == pytest.approx(0.95, abs=1e-12)
        assert rep.q_derivative == pytest.approx((rep.lhs - rep.rhs) / 2, abs=1e-12)

    def test_zero_bath_generates_nothing(self):
        psi = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2.0)
        rep = generation_witness(vacuum(2), ZERO_BATH, psi)
        assert not rep.verdict and rep.q_derivative == 0.0

    def test_pure_pair_scenario_thresholds(self):
        # |lam| must exceed (sigma - |O| eta)/(1 - |O|) = 0.875
        v0 = pure_product(0.2, 0.2)
        psi = symmetric_null_vector(0.2, 0.2)
        above = generation_witness(v0, collective_bath(1.5, 1.0, 0.0, 1.0), psi)
        below = generation_witness(v0, collective_bath(1.5, 1.0, 0.0, 0.8), psi)
        assert above.verdict and not below.verdict

    def test_rejects_non_null_vector(self):
        with pytest.raises(NotNullVector):
            generation_witness(vacuum(2), vacuum_noise_bath(), np.array([1.0, 0, 0, 0]))

    def test_phase_covariance_of_the_threshold(self):
        # rotating the mode phases sends Omega -> Omega e^{2i phi} and the
        # anomalous coupling to lam e^{-2i phi}; the scanned verdict must not
        # change, pinning the phase relation Arg(lam) = -Arg(Omega)
        for lam_abs, expected in ((1.0, True), (0.8, False)):
            for phi in (0.0, 0.4, 1.1, 2.5):
                v0 = pure_product(0.2 * np.exp(2j * phi), 0.2 * np.exp(2j * phi))
                bath = collective_bath(1.5, 1.0, 0.0, lam_abs * np.exp(-2j * phi))
                assert scan_generation_witness(v0, bath).verdict == expected

    def test_scan_finds_at_least_the_symmetric_vector(self, rng):
        starts = [(0.0, 0.0)]
        for _ in range(10):
            starts.append(tuple(rng.uniform(0, 0.8, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))))
        for o1, o2 in starts:
            v0 = pure_product(o1, o2)
            for bath in (vacuum_noise_bath(), random_cp_bath(rng)):
                sym = generation_witness(v0, bath, symmetric_null_vector(o1, o2))
                best = scan_generation_witness(v0, bath)
                assert best.q_derivative <= sym.q_derivative + 1e-12

    def test_quick_tour_bath_exact_minimum(self):
        # the smaller eigenvalue of the 2x2 form on the vacuum's null space;
        # the 25 x 48 grid over that space it replaces reached -0.1999546
        rep = scan_generation_witness(vacuum(2), vacuum_noise_bath())
        assert rep.q_derivative == pytest.approx(-0.2, abs=1e-12)
        assert rep.verdict

    def test_scan_is_the_minimum_over_null_vectors(self, rng):
        # reference: the derivative <psi~| A^dag V + V A + B |psi~> on a
        # 25 x 48 grid over the null basis plus random unit null vectors
        theta, phi = np.meshgrid(np.linspace(0, np.pi / 2, 25), np.linspace(0, 2 * np.pi, 48, endpoint=False))
        grid = np.stack([np.cos(theta).ravel(), np.sin(theta).ravel() * np.exp(1j * phi.ravel())])
        for _ in range(20):
            bath = random_cp_bath(rng, strength=rng.uniform(0.3, 1.5))
            o1, o2 = rng.uniform(0, 0.8, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            v0 = pure_product(o1, o2)
            basis = initial_null_basis(v0)
            coeff = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
            coeff = np.hstack([grid, coeff / np.linalg.norm(coeff, axis=0)])
            psi_t = T_MATRIX @ basis @ coeff
            gen = drift_diffusion(bath)
            flow = gen.a.conj().T @ v0.v + v0.v @ gen.a + gen.b
            q = np.real(np.sum(psi_t.conj() * (flow @ psi_t), axis=0))
            assert scan_generation_witness(v0, bath).q_derivative <= q.min() + 1e-12

    def test_one_dimensional_null_space(self):
        # a vacuum mode beside a thermal one leaves a single null vector
        v0 = thermal(2, [0.0, 1.0])
        basis = initial_null_basis(v0)
        assert basis.shape == (4, 1)
        bath = vacuum_noise_bath()
        rep = scan_generation_witness(v0, bath)
        only = generation_witness(v0, bath, basis[:, 0])
        assert rep.q_derivative == pytest.approx(only.q_derivative, abs=1e-15)
        assert rep.verdict == only.verdict

    def test_sign_consistency_between_formulations(self, rng):
        # dQ/dt(0) computed from the flow equals (lhs - rhs)/2 from the
        # bath-coefficient form, for random baths and random null vectors
        checked = 0
        while checked < 25:
            bath = random_cp_bath(rng, strength=rng.uniform(0.3, 1.5))
            o1 = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            o2 = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            v0 = pure_product(o1, o2)
            basis = initial_null_basis(v0)
            coeff = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = basis @ coeff
            rep = generation_witness(v0, bath, psi)
            assert abs(rep.q_derivative - 0.5 * (rep.lhs - rep.rhs)) < 1e-10
            if abs(rep.q_derivative) > 1e-12:
                assert (rep.q_derivative < 0) == (rep.lhs < rep.rhs)
            checked += 1

    def test_positive_witness_implies_entangled_trajectory(self, rng):
        # whenever the derivative is negative, the propagated state must
        # actually cross into entanglement somewhere in (0, 0.5].  Generic
        # random baths rarely generate from the vacuum, so every other draw is
        # a rotated collective bath, which often does.
        found = 0
        attempts = 0
        while found < 5 and attempts < 200:
            attempts += 1
            if attempts % 2:
                bath = random_cp_bath(rng, strength=rng.uniform(0.5, 1.5), damping_bias=rng.uniform(0.2, 0.8))
            else:
                bath = rotated_collective_bath(rng)
            rep = scan_generation_witness(vacuum(2), bath)
            if not rep.verdict:
                continue
            found += 1
            entangled_somewhere = False
            for t in np.geomspace(1e-3, 0.5, 24):
                if ppt_test(propagate_exact(vacuum(2), bath, t))[0]:
                    entangled_somewhere = True
                    break
            assert entangled_somewhere
        assert found >= 5


class TestVacuumCondition:
    def test_vacuum_noise_bath_satisfies(self):
        assert vacuum_condition(vacuum_noise_bath())

    def test_no_anomalous_coupling(self):
        bath = BathSpec(omega=np.zeros((2, 2)), eta=np.eye(2), sigma=0.3 * np.eye(2), lam=np.zeros((2, 2)))
        assert not vacuum_condition(bath)

    def test_any_positive_coupling_beats_zero_pumping(self):
        bath = BathSpec(
            omega=np.zeros((2, 2)),
            eta=np.eye(2),
            sigma=np.zeros((2, 2)),
            lam=np.array([[0.0, 0.0], [1e-6, 0.0]]),
        )
        assert vacuum_condition(bath)


class TestAsymptotics:
    def test_thermal_limit_spectrum(self):
        beta_inf = 2.0
        w = asymptotic_pt_eigenvalues(0.0, beta_inf)
        np.testing.assert_allclose(w, [beta_inf - 1, beta_inf - 1, beta_inf, beta_inf], atol=1e-12)

    def test_entangled_above_threshold(self):
        a_inf, b_inf = collective_steady_moments(1.0, 0.5, 0.1, 0.7)
        assert asymptotic_pt_eigenvalues(a_inf, b_inf)[0] < 0

    def test_separable_below_threshold(self):
        a_inf, b_inf = collective_steady_moments(1.0, 0.5, 0.1, 0.6)
        assert asymptotic_pt_eigenvalues(a_inf, b_inf)[0] >= 0

    def test_closed_form_cross_check(self, rng):
        # the spectrum is beta - 1/2 + (s1 a + s2 sqrt(1 + a^2))/2, a = |alpha|
        for _ in range(10):
            a = rng.uniform(0, 3.0)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            beta_inf = rng.uniform(1.0, 4.0)
            w = asymptotic_pt_eigenvalues(a * phase, beta_inf)
            expected = sorted(
                beta_inf - 0.5 + 0.5 * (s1 * a + s2 * np.sqrt(1 + a * a))
                for s1 in (1, -1)
                for s2 in (1, -1)
            )
            np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_threshold_values(self):
        lam_sq_min, cp_max, feasible = asymptotic_threshold(1.0, 0.5, 0.1)
        assert lam_sq_min == pytest.approx(0.46222222222222226, rel=1e-12)
        assert cp_max == 0.5 and feasible

    def test_threshold_closes_at_large_omega(self):
        lam_sq_min, cp_max, feasible = asymptotic_threshold(1.0, 0.5, 1.0)
        assert lam_sq_min == pytest.approx(4 * 0.25 * 1.25 / 0.5625, rel=1e-12)
        assert not feasible

    def test_threshold_domain(self):
        with pytest.raises(DomainError):
            asymptotic_threshold(0.5, 0.5, 0.1)

    def test_threshold_of_pure_decay(self):
        # sigma = 0: the asymptotic state is the vacuum, and no |lambda| is
        # both CP and above the threshold
        assert asymptotic_threshold(1.0, 0.0, 0.0) == (0.0, 0.0, False)
