import copy
import json
import math
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from quasifree import (
    BathSpec,
    check_cp,
    collective_bath,
    collective_sector_bath,
    collective_steady_moments,
    drift_diffusion,
    is_physical,
    kossakowski,
    matkit,
    propagate_exact,
    propagate_steps,
    steady_state,
    thermal,
    vacuum,
)
from quasifree.errors import DomainError, NonPhysicalInput, NotCP, NotHermitian, Unstable, WrongModeCount
from quasifree.gaussian_state import Covariance

from conftest import (
    block_drift_diffusion,
    eigensystem_min_physical,
    eigensystem_min_pt,
    linear_chunk_propagate,
    lowering_operators,
    random_cp_bath,
    reference_check_cp,
)


def vacuum_noise_bath():
    """Two uncoupled decay/pump channels plus one anomalous cross coupling;
    entangles the vacuum while staying completely positive."""
    return BathSpec(
        omega=np.zeros((2, 2)),
        eta=np.diag([1.0, 2.0]),
        sigma=np.diag([1.0, 0.1]),
        lam=np.array([[0.0, 0.0], [1.2, 0.0]]),
    )


ZERO_BATH = BathSpec(
    omega=np.zeros((2, 2)), eta=np.zeros((2, 2)), sigma=np.zeros((2, 2)), lam=np.zeros((2, 2))
)


class TestBathSpec:
    def test_rejects_non_hermitian_eta(self):
        with pytest.raises(NotHermitian):
            BathSpec(
                omega=np.zeros((2, 2)),
                eta=np.array([[1.0, 1.0], [0.0, 1.0]]),
                sigma=np.zeros((2, 2)),
                lam=np.zeros((2, 2)),
            )

    def test_rejects_indefinite_omega(self):
        with pytest.raises(DomainError):
            BathSpec(
                omega=-np.eye(2),
                eta=np.eye(2),
                sigma=np.zeros((2, 2)),
                lam=np.zeros((2, 2)),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BathSpec(omega=np.zeros((2, 2)), eta=np.eye(3), sigma=np.zeros((2, 2)), lam=np.zeros((2, 2)))


class TestKossakowski:
    def test_single_cross_coupling_is_cp(self):
        # |lam_21|^2 = 1.44 <= eta_22 sigma_11 = 2
        w = np.linalg.eigvalsh(kossakowski(vacuum_noise_bath()))
        assert w[0] >= -1e-12

    def test_zero_bath(self):
        np.testing.assert_array_equal(kossakowski(ZERO_BATH), np.zeros((4, 4)))

    def test_collective_pattern_violating_bound(self):
        # |lam|^2 = 1.69 > eta sigma = 1.5
        w = np.linalg.eigvalsh(kossakowski(collective_bath(1.5, 1.0, 0.0, 1.3)))
        assert w[0] < 0

    def test_check_cp_plain_decay_and_pump(self):
        bath = BathSpec(omega=np.zeros((2, 2)), eta=np.eye(2), sigma=np.eye(2), lam=np.zeros((2, 2)))
        ok, min_eig = check_cp(bath)
        assert ok and min_eig >= 0

    def test_check_cp_boundary(self):
        eta, sigma = 1.0, 0.5
        ok, min_eig = check_cp(collective_bath(eta, sigma, 0.0, np.sqrt(eta * sigma)))
        assert ok and abs(min_eig) < 1e-12

    def test_check_cp_violation(self):
        ok, min_eig = check_cp(collective_bath(1.0, 0.5, 0.0, 0.8))
        assert not ok and min_eig < 0


class TestDriftDiffusion:
    def test_zero_bath(self):
        gen = drift_diffusion(ZERO_BATH)
        np.testing.assert_array_equal(gen.a, np.zeros((4, 4)))
        np.testing.assert_array_equal(gen.b, np.zeros((4, 4)))

    def test_diffusion_is_hermitian(self, rng):
        for _ in range(10):
            gen = drift_diffusion(random_cp_bath(rng))
            assert np.abs(gen.b - gen.b.conj().T).max() < 1e-14

    def test_block_values_for_single_cross_coupling(self):
        # eta = diag(1,2), sigma = diag(1,0.1), lam with lam_21 = 1.2:
        # the symmetric coupling part has off-diagonals 0.6 and the
        # antisymmetric part off-diagonals of magnitude 0.6
        gen = drift_diffusion(vacuum_noise_bath())
        np.testing.assert_allclose(gen.b[:2, :2], np.diag([1.0, 1.05]), atol=1e-15)
        np.testing.assert_allclose(gen.b[2:, 2:], np.diag([1.0, 1.05]), atol=1e-15)
        np.testing.assert_allclose(
            gen.b[:2, 2:], np.array([[0.0, -0.6], [-0.6, 0.0]]), atol=1e-15
        )
        np.testing.assert_allclose(gen.a[:2, :2], np.diag([0.0, -0.95]), atol=1e-15)
        np.testing.assert_allclose(gen.a[2:, 2:], np.diag([0.0, -0.95]), atol=1e-15)
        off = gen.a[:2, 2:]
        np.testing.assert_allclose(np.abs(off), np.array([[0.0, 0.6], [0.6, 0.0]]), atol=1e-15)
        np.testing.assert_allclose(off, -off.T, atol=1e-15)  # antisymmetric pattern
        assert np.abs(gen.a[:2, 2:] - gen.a[2:, :2].conj()).max() < 1e-15

    def test_moment_flow_matches_number_basis_generator(self):
        # independent check of every sign in the block assembly, on a state
        # with unequal mode occupations (sensitive to the antisymmetric part
        # of the anomalous coupling); finite Fock support keeps the number-
        # basis flow exact
        from quasifree import fock_oracle, from_blocks

        bath = vacuum_noise_bath()
        cutoff = 8
        q = cutoff + 1
        diag = np.zeros(q * q)
        diag[0] = 0.5  # |0,0>
        diag[1 * q + 0] = 0.3  # |1,0>
        diag[0 * q + 2] = 0.2  # |0,2>
        rho = fock_oracle.FockState(np.diag(diag).astype(complex), cutoff)

        gen = fock_oracle.build_generator(bath, cutoff)
        drho = fock_oracle.join_parity(gen.apply(fock_oracle.split_parity(rho.rho, cutoff)), cutoff)
        a1, a2 = lowering_operators(cutoff)
        ops = (a1, a2)
        dalpha = np.array([[np.trace(ops[i] @ ops[j] @ drho) for j in range(2)] for i in range(2)])
        dbeta = np.array(
            [[np.trace(ops[i] @ ops[j].conj().T @ drho) for j in range(2)] for i in range(2)]
        )
        gd = drift_diffusion(bath)
        blocks = fock_oracle.extract_moments(rho)
        v = from_blocks(blocks.alpha, blocks.beta)
        flow = gd.a.conj().T @ v.v + v.v @ gd.a + gd.b
        assert np.abs(flow[:2, 2:] - dalpha).max() < 1e-12
        assert np.abs(flow[:2, :2] - dbeta).max() < 1e-12

    def test_collective_bath_reproduces_scalar_flow(self):
        eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
        bath = collective_bath(eta, sigma, omega, lam)
        a_inf, b_inf = collective_steady_moments(eta, sigma, omega, lam)
        traj = propagate_steps(vacuum(2), bath, 2.0, 0.25)
        for t, s in zip(traj.times, traj.states):
            beta_sym = 0.5 * np.sum(s.beta).real
            alpha_sym = 0.5 * np.sum(s.alpha)
            beta_anti = 0.5 * (s.beta[0, 0] + s.beta[1, 1] - s.beta[0, 1] - s.beta[1, 0]).real
            assert abs(beta_sym - (np.exp(-2 * (eta - sigma) * t) * (1 - b_inf) + b_inf)) < 1e-12
            assert abs(alpha_sym - (1 - np.exp(-2 * (eta - sigma + 1j * omega) * t)) * a_inf) < 1e-12
            assert abs(beta_anti - 1.0) < 1e-12


class TestPropagation:
    def test_time_zero_is_identity(self):
        v0 = thermal(2, [0.3, 0.8])
        np.testing.assert_allclose(propagate_exact(v0, vacuum_noise_bath(), 0.0).v, v0.v, atol=1e-15)

    def test_zero_bath_is_static(self):
        v0 = thermal(2, [0.3, 0.8])
        np.testing.assert_allclose(propagate_exact(v0, ZERO_BATH, 3.7).v, v0.v, atol=1e-15)

    def test_sector_relaxation_at_t2(self):
        # beta(2) - beta_inf = exp(-2) (beta_0 - beta_inf) at rate 2(eta-sigma) = 1
        eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
        bath = collective_sector_bath(eta, sigma, omega, lam)
        _, b_inf = collective_steady_moments(eta, sigma, omega, lam)
        v2 = propagate_exact(vacuum(1), bath, 2.0)
        expected = np.exp(-2.0) * (1.0 - b_inf) + b_inf
        assert abs(v2.beta[0, 0].real - expected) < 1e-12

    def test_two_point_trajectory(self):
        traj = propagate_steps(vacuum(2), vacuum_noise_bath(), 0.4, 0.4)
        assert list(traj.times) == [0.0, 0.4]

    def test_grid_times_are_multiples_of_dt(self):
        traj = propagate_steps(vacuum(2), vacuum_noise_bath(), 1.0, 0.1)
        assert len(traj.times) == 11
        np.testing.assert_array_equal(traj.times[:-1], np.arange(10) * 0.1)
        assert traj.times[-1] == 1.0

    def test_sample_counts(self, rng):
        from quasifree.dynamics import _grid_times

        # the shipped configs, and the span / 100 grids of the benchmark
        assert len(_grid_times(0.5, 0.02)) == 26
        assert len(_grid_times(20.0, 0.5)) == 41
        for span in rng.uniform(0.5, 10.0, size=200):
            times = _grid_times(span, span / 100)
            assert len(times) == 101 and times[-1] == span
        assert len(_grid_times(1.1, 0.13)) == 10
        assert list(_grid_times(0.0, 0.1)) == [0.0]

    def test_oversized_grid_is_refused_before_propagating(self, monkeypatch):
        from quasifree import dynamics

        def no_propagation(*args):
            raise AssertionError("propagated before refusing the grid")

        monkeypatch.setattr(dynamics, "_propagator_pieces", no_propagation)
        with pytest.raises(DomainError, match="limit is"):
            propagate_steps(vacuum(2), vacuum_noise_bath(), 1.0, 1e-7)
        assert len(dynamics._grid_times(dynamics.MAX_SAMPLES - 1.0, 1.0)) == dynamics.MAX_SAMPLES
        with pytest.raises(DomainError):
            dynamics._grid_times(float(dynamics.MAX_SAMPLES), 1.0)

    def test_non_physical_sample_names_the_first_failure(self, monkeypatch):
        from quasifree import dynamics

        honest = dynamics.drift_diffusion

        def flipped_diffusion(bath):
            gen = honest(bath)
            return dynamics.DriftDiffusion(a=gen.a, b=-gen.b)

        # a CP bath whose diffusion has the wrong sign drains the noise of a
        # thermal start until it is no longer physical
        monkeypatch.setattr(dynamics, "drift_diffusion", flipped_diffusion)
        v0, bath = thermal(2, [1.0, 1.0]), vacuum_noise_bath()
        with monkeypatch.context() as m:
            m.setattr(dynamics, "check_cp", lambda b: (False, -1.0))
            samples = propagate_steps(v0, bath, 2.0, 0.1, allow_non_cp=True).states
        mins = [np.linalg.eigh(s.v + 0.5 * np.diag([1, 1, -1, -1]))[0][0] for s in samples]
        first = next(k for k, w in enumerate(mins) if w < -1e-8)
        assert 1 < first < len(mins) - 1 and f"{mins[first]:.3e}" != f"{min(mins):.3e}"
        with pytest.raises(NonPhysicalInput, match=f"min eigenvalue {mins[first]:.3e}"):
            propagate_steps(v0, bath, 2.0, 0.1)

    def test_long_horizon_matches_linear_chunks(self, rng):
        for _ in range(5):
            bath = random_cp_bath(rng, strength=rng.uniform(0.4, 1.5))
            v0 = thermal(2, [0.4, 0.1])
            for t in (20.0, 300.0, 3000.0):
                reference = linear_chunk_propagate(v0, bath, t)
                dev = np.abs(propagate_exact(v0, bath, t).v - reference).max()
                assert dev <= 1e-9 * np.abs(reference).max()

    def test_very_long_horizon_reaches_steady_state_by_doubling(self, rng, monkeypatch):
        from quasifree import dynamics

        single = dynamics._propagator_pieces_single
        chunks = []

        def recording_single(gen, t):
            chunks.append(t)
            return single(gen, t)

        monkeypatch.setattr(dynamics, "_propagator_pieces_single", recording_single)
        for _ in range(5):
            bath = random_cp_bath(rng, strength=rng.uniform(0.4, 1.5))
            v_inf = steady_state(bath).v
            scale = float(np.linalg.norm(drift_diffusion(bath).a, 2))
            for t in (1e5, 1e6):
                chunks.clear()
                v = propagate_exact(thermal(2, [0.4, 0.1]), bath, t).v
                assert np.abs(v - v_inf).max() <= 1e-9 * np.abs(v_inf).max()
                # one exponential of the chunk t / 2^k, with k the least
                # integer bringing its norm within the bound, then k squarings
                # (about 14-19 here), not t||A|| / 8 compositions
                (s,) = chunks
                k = round(math.log2(t / s))
                assert t == math.ldexp(s, k)
                assert dynamics._MAX_CHUNK_NORM / 2 < s * scale <= dynamics._MAX_CHUNK_NORM

    def test_semigroup_law(self, rng):
        for _ in range(5):
            bath = random_cp_bath(rng)
            v0 = vacuum(2)
            s, t = rng.uniform(0.1, 1.0, size=2)
            once = propagate_exact(v0, bath, s + t)
            twice = propagate_exact(propagate_exact(v0, bath, s), bath, t)
            assert np.abs(once.v - twice.v).max() < 1e-9

    def test_stepped_endpoint_matches_exact(self, rng):
        bath = random_cp_bath(rng)
        traj = propagate_steps(vacuum(2), bath, 1.1, 0.13)
        direct = propagate_exact(vacuum(2), bath, 1.1)
        assert traj.times[-1] == pytest.approx(1.1, abs=0)
        assert np.abs(traj.states[-1].v - direct.v).max() < 1e-9

    def test_cp_evolution_preserves_physicality(self, rng):
        for _ in range(10):
            bath = random_cp_bath(rng, strength=rng.uniform(0.3, 1.5))
            for t in (0.1, 1.0, 10.0):
                ok, min_eig = is_physical(propagate_exact(vacuum(2), bath, t), tol=1e-8)
                assert ok, min_eig

    def test_differential_consistency(self, rng):
        bath = random_cp_bath(rng)
        gen = drift_diffusion(bath)
        v = propagate_exact(vacuum(2), bath, 0.4)
        h = 1e-6
        vp = propagate_exact(vacuum(2), bath, 0.4 + h)
        fd = (vp.v - v.v) / h
        flow = gen.a.conj().T @ v.v + v.v @ gen.a + gen.b
        assert np.abs(fd - flow).max() < 1e-4 * max(np.abs(flow).max(), 1.0)

    def test_hermiticity_preserved(self, rng):
        from quasifree.dynamics import _propagator_pieces

        bath = random_cp_bath(rng)
        gen = drift_diffusion(bath)
        e_ta, f = _propagator_pieces(gen, 1.7)
        raw = e_ta.conj().T @ vacuum(2).v @ e_ta + f
        assert np.abs(raw - raw.conj().T).max() < 1e-12

    def test_refuses_non_cp_without_override(self):
        bath = collective_bath(1.0, 0.5, 0.0, 0.8)
        with pytest.raises(NotCP):
            propagate_exact(vacuum(2), bath, 0.5)
        out = propagate_exact(vacuum(2), bath, 0.5, allow_non_cp=True)
        assert out.v.shape == (4, 4)

    def test_rejects_non_physical_input(self):
        from quasifree.gaussian_state import Covariance

        with pytest.raises(NonPhysicalInput):
            propagate_exact(Covariance(-np.eye(4), 2), vacuum_noise_bath(), 0.1)


class TestStackedTrajectory:
    """propagate_steps keeps its samples in one checked, read-only stack and
    seeds each sample's spectra from batched eigensolves."""

    def test_seeded_spectra_are_bit_equal_to_fresh_ones(self, rng):
        for _ in range(5):
            bath = random_cp_bath(rng, strength=rng.uniform(0.4, 1.5))
            v0 = thermal(2, rng.uniform(0, 1, size=2))
            traj = propagate_steps(v0, bath, 2.3, 0.1)
            assert traj.states[0].v.tobytes() == v0.v.tobytes()
            for s in traj.states:
                fresh = Covariance(s.v, 2)
                assert fresh.v.tobytes() == s.v.tobytes()
                assert s.spectrum.tobytes() == fresh.spectrum.tobytes()
                assert s.pt_spectrum.tobytes() == fresh.pt_spectrum.tobytes()
                assert s.spectrum[0] == eigensystem_min_physical(s)
                assert s.pt_spectrum[0] == eigensystem_min_pt(s)

    def test_samples_and_spectra_are_read_only_views_of_one_stack(self):
        traj = propagate_steps(vacuum(2), vacuum_noise_bath(), 1.0, 0.1)
        stack = traj.states[0].v.base
        assert stack.shape == (11, 4, 4)
        for s in traj.states:
            assert s.v.base is stack
            for a in (s.v, s.spectrum, s.pt_spectrum):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    def test_one_mode_trajectory(self):
        bath = collective_sector_bath(1.0, 0.5, 0.1, 0.7)
        traj = propagate_steps(vacuum(1), bath, 2.0, 0.25)
        assert len(traj.states) == 9
        for s in traj.states:
            assert s.spectrum.tobytes() == Covariance(s.v, 1).spectrum.tobytes()
            assert is_physical(s)[0]
            with pytest.raises(WrongModeCount):
                s.pt_spectrum
        assert np.abs(traj.states[-1].v - propagate_exact(vacuum(1), bath, 2.0).v).max() < 1e-12

    def _patched_steps(self, monkeypatch, spoil):
        from quasifree import dynamics

        honest = dynamics._propagator_pieces

        def spoiled(gen, t):
            e, f = honest(gen, t)
            return e, spoil(f, t)

        monkeypatch.setattr(dynamics, "_propagator_pieces", spoiled)
        return lambda: propagate_steps(vacuum(2), vacuum_noise_bath(), 1.05, 0.1)

    def test_anti_hermitian_step_is_refused_as_the_constructor_would(self, monkeypatch):
        skew = 1e-6 * np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1j], [0, 0, 1j, 0]])
        v1 = propagate_exact(vacuum(2), vacuum_noise_bath(), 0.1).v
        with pytest.raises(NotHermitian) as direct:
            Covariance(v1 + skew, 2)
        run = self._patched_steps(monkeypatch, lambda f, t: f + skew)
        with pytest.raises(NotHermitian) as batched:
            run()
        # the first sample fails, with the constructor's message up to
        # roundoff in max|entry|
        assert str(batched.value).split(" = ")[0] == str(direct.value).split(" = ")[0]

    def test_defect_in_the_last_step_only_is_still_caught(self, monkeypatch):
        skew = 1e-6 * np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        run = self._patched_steps(monkeypatch, lambda f, t: f + skew if t < 0.09 else f)
        with pytest.raises(NotHermitian, match="symmetrization residual 2.000e-06"):
            run()

    def test_non_finite_step_is_refused(self, monkeypatch):
        run = self._patched_steps(monkeypatch, lambda f, t: np.full_like(f, np.nan))
        with pytest.raises(ValueError, match="must be finite"):
            run()


class TestBathPieces:
    """A BathSpec derives its CP pair and (A, B) once; check_cp and
    drift_diffusion return the stored pieces, bit for bit the fresh ones."""

    def test_pieces_are_bit_equal_to_a_fresh_assembly(self, rng):
        baths = [random_cp_bath(rng, strength=rng.uniform(0.3, 2.0)) for _ in range(20)]
        baths += [collective_bath(1.0, 0.5, 0.0, 0.8), collective_sector_bath(1.0, 0.5, 0.1, 0.7), ZERO_BATH]
        for bath in baths:
            a, b = block_drift_diffusion(bath)
            gen = drift_diffusion(bath)
            assert gen.a.tobytes() == a.tobytes() and gen.b.tobytes() == b.tobytes()
            assert check_cp(bath) == reference_check_cp(bath)
            assert gen.norm == float(np.linalg.norm(a, 2))
            assert gen.max_re_eig == float(np.linalg.eigvals(a).real.max())
        assert not check_cp(baths[20])[0]

    def test_pieces_are_stored_and_read_only(self):
        bath = vacuum_noise_bath()
        gen = drift_diffusion(bath)
        assert drift_diffusion(bath) is gen and check_cp(bath) is check_cp(bath)
        for arr in (gen.a, gen.b, bath.omega, bath.eta, bath.sigma, bath.lam):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_copies_come_back_locked_and_bit_equal(self):
        bath = vacuum_noise_bath()
        gen, cp = drift_diffusion(bath), check_cp(bath)
        for twin in (pickle.loads(pickle.dumps(bath)), copy.deepcopy(bath)):
            twin_gen = drift_diffusion(twin)
            assert twin_gen is not gen and check_cp(twin) == cp
            for name in ("omega", "eta", "sigma", "lam"):
                mine, theirs = getattr(bath, name), getattr(twin, name)
                assert not theirs.flags.writeable and theirs.tobytes() == mine.tobytes()
            for mine, theirs in ((gen.a, twin_gen.a), (gen.b, twin_gen.b)):
                assert not theirs.flags.writeable and theirs.tobytes() == mine.tobytes()
        for twin_gen in (pickle.loads(pickle.dumps(gen)), copy.deepcopy(gen)):
            assert not twin_gen.a.flags.writeable and not twin_gen.b.flags.writeable
            assert twin_gen.a.tobytes() == gen.a.tobytes() and twin_gen.norm == gen.norm

    def test_every_consumer_reads_the_one_eigensolve_and_norm(self, rng, monkeypatch):
        from quasifree import matkit, scan_generation_witness

        bath = random_cp_bath(rng)
        c = kossakowski(bath)
        a, _ = block_drift_diffusion(bath)
        eigensolves, norms = [], []
        eigensystem, norm = matkit.hermitian_eigensystem, np.linalg.norm

        def counting_eigensystem(m):
            if np.shape(m) == c.shape and np.array_equal(m, c):
                eigensolves.append(m)
            return eigensystem(m)

        def counting_norm(x, *args, **kwargs):
            if np.shape(x) == a.shape and np.array_equal(x, a):
                norms.append(args or kwargs)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(matkit, "hermitian_eigensystem", counting_eigensystem)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        v0 = vacuum(2)
        for t in (1e-2, 1.0, 30.0, 1e3, 1e5):
            propagate_exact(v0, bath, t)
        propagate_steps(v0, bath, 2.0, 0.1)
        steady_state(bath)
        scan_generation_witness(v0, bath)
        assert len(eigensolves) == 1 and len(norms) == 1

    def test_refusals_are_unchanged(self, tmp_path, capsys):
        from quasifree.cli import main

        bath = collective_bath(1.0, 0.5, 0.0, 0.8)
        min_c = reference_check_cp(bath)[1]
        for _ in range(2):
            with pytest.raises(NotCP, match=re.escape(f"negative eigenvalue {min_c:.3e}; pass allow_non_cp")):
                propagate_exact(vacuum(2), bath, 0.5)
            with pytest.raises(NotCP, match=re.escape(f"negative eigenvalue {min_c:.3e}") + "$"):
                steady_state(bath)
        # sigma = 0: the undamped antisymmetric mode leaves no unique
        # equilibrium, and the steady verb still reports the vacuum, exit 3
        decay = collective_bath(1.0, 0.0, 0.0, 0.0)
        a = block_drift_diffusion(decay)[0]
        re_max = float(np.linalg.eigvals(a).real.max())
        margin = matkit.ROUNDOFF * np.linalg.norm(a, 2)
        for _ in range(2):
            with pytest.raises(Unstable, match=re.escape(f"Re = {re_max:.3e} >= -{margin:.3e}")):
                steady_state(decay)
        doc = {
            "modes": 2,
            "bath": {"collective": {"eta": 1.0, "sigma": 0.0, "omega": 0.0, "lambda": [0.0, 0.0]}},
            "initial_state": {"kind": "vacuum"},
            "time": {"t_max": 1.0, "dt": 0.5},
        }
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(doc))
        assert main(["steady", "--config", str(path)]) == 3
        assert "asymptotically entangled: boundary/indeterminate" in capsys.readouterr().out

    def test_importing_the_library_defers_scipy_sparse_to_the_oracle(self):
        script = (
            "import sys, quasifree\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "quasifree.fock_oracle.build_generator(quasifree.collective_bath(1.0, 0.5, 0.1, 0.6), 3)\n"
            "assert 'scipy.sparse' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)


class TestSteadyState:
    def test_sector_closed_form(self):
        eta, sigma, omega, lam = 1.0, 0.5, 0.1, 0.7
        v_inf = steady_state(collective_sector_bath(eta, sigma, omega, lam))
        a_inf, b_inf = collective_steady_moments(eta, sigma, omega, lam)
        assert abs(b_inf - 2.0) == 0.0
        assert abs(a_inf - 0.7 * (-0.5 + 0.1j) / 0.26) < 1e-15
        assert abs(v_inf.beta[0, 0] - b_inf) < 1e-12
        assert abs(v_inf.alpha[0, 0] - a_inf) < 1e-12

    def test_thermal_limit_without_coupling(self):
        eta, sigma = 1.0, 0.5
        v_inf = steady_state(collective_sector_bath(eta, sigma, 0.3, 0.0))
        assert abs(v_inf.alpha[0, 0]) < 1e-14
        assert abs(v_inf.beta[0, 0] - eta / (eta - sigma)) < 1e-12

    def test_full_collective_bath_is_unstable(self):
        with pytest.raises(Unstable):
            steady_state(collective_bath(1.0, 0.5, 0.1, 0.7))

    def test_convergence_from_generic_start(self, rng):
        bath = random_cp_bath(rng)
        v_inf = steady_state(bath)
        far = propagate_exact(thermal(2, [2.0, 0.1]), bath, 60.0)
        assert np.abs(far.v - v_inf.v).max() < 1e-8
        assert is_physical(v_inf)[0]

    def test_refuses_non_cp(self):
        with pytest.raises(NotCP):
            steady_state(collective_bath(1.0, 0.5, 0.0, 0.8))
