"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy: a bath is returned as a dict of the four
coefficient matrices (``omega``, ``eta``, ``sigma``, ``lam``), a state as its
squeezing parameters, and a CLI configuration as a JSON-ready dict.  The
workloads turn these into library objects during set-up, so the library only
ever sees the generated values.  The same seed always gives the same inputs.

The two bath families follow the distributions of the test suite's helpers
(random completely positive baths with a damping-dominated diagonal, and
rank-one collective baths along a random mode direction).
"""

import numpy as np

WORKLOAD_STREAMS = {"oracle_verify": 1, "witness_scan": 2, "covariance_flow": 3, "cli_configs": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Independent random stream per (workload, seed)."""
    return np.random.default_rng([int(seed), WORKLOAD_STREAMS[workload]])


def bath_from_kossakowski(c: np.ndarray, omega: np.ndarray) -> dict:
    """Read (eta, sigma, lam) out of a 4x4 Kossakowski matrix laid out as
    [[eta, lam*], [lam^T, sigma]]."""
    return {"omega": omega, "eta": c[:2, :2], "sigma": c[2:, 2:], "lam": c[2:, :2].T}


OMEGA_SCALE = 0.5


def random_cp_bath(rng, strength: float, damping_bias: float = 0.8) -> dict:
    """Random completely positive bath: a random PSD Kossakowski matrix of
    spectral norm ``strength`` plus ``damping_bias`` on the decay block, and a
    random PSD Hamiltonian of norm up to OMEGA_SCALE."""
    r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = r @ r.conj().T
    c *= strength / np.linalg.eigvalsh(c).max()
    c[:2, :2] += damping_bias * np.eye(2)
    q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    om = q @ q.conj().T
    om *= rng.uniform(0.0, OMEGA_SCALE) / np.linalg.eigvalsh(om).max()
    return bath_from_kossakowski(c, om)


def rotated_collective_bath(rng) -> dict:
    """Rank-one dissipative bath along a random mode direction, inside the
    asymptotic-entanglement window (vacuum trajectories entangle by t ~ 1)."""
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w /= np.linalg.norm(w)
    eta = rng.uniform(0.7, 1.0)
    sigma = rng.uniform(0.3, 0.55) * eta
    lam = np.sqrt(rng.uniform(0.9, 1.0) * eta * sigma) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c22 = np.array([[eta, np.conj(lam)], [lam, sigma]])
    c = np.kron(c22, np.outer(w, w.conj()))
    return bath_from_kossakowski(c, np.zeros((2, 2)))


def random_squeezing(rng, max_abs: float) -> complex:
    return complex(rng.uniform(0.0, max_abs) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


# oracle_verify ------------------------------------------------------------

ORACLE_KINDS = ("random", "random", "collective")
ORACLE_BATHS = 12


def oracle_inputs(seed: int) -> list:
    """Baths for the oracle workload, repeating random, random, collective.

    The fixed kind pattern keeps the per-run mix of jump-operator counts (4
    for random baths, 2 for collective ones) independent of the seed."""
    rng = rng_for("oracle_verify", seed)
    out = []
    for i in range(ORACLE_BATHS):
        kind = ORACLE_KINDS[i % len(ORACLE_KINDS)]
        if kind == "random":
            bath = random_cp_bath(rng, strength=rng.uniform(0.5, 1.2))
        else:
            bath = rotated_collective_bath(rng)
        out.append({"kind": kind, "bath": bath})
    return out


# witness_scan -------------------------------------------------------------


WITNESS_ITEMS = 24


def witness_inputs(seed: int) -> list:
    """(bath, start) pairs: random and collective baths, each starting from
    the vacuum or from a pure product with random squeezing.  Both starts lie
    on the separability boundary with a 2-D null space."""
    rng = rng_for("witness_scan", seed)
    out = []
    for i in range(WITNESS_ITEMS):
        bath = random_cp_bath(rng, strength=rng.uniform(0.5, 1.2)) if i % 2 == 0 else rotated_collective_bath(rng)
        if (i // 2) % 2 == 0:
            omegas = (0j, 0j)
        else:
            omegas = (random_squeezing(rng, 0.8), random_squeezing(rng, 0.8))
        out.append({"bath": bath, "omega1": omegas[0], "omega2": omegas[1]})
    return out


# covariance_flow ----------------------------------------------------------

HORIZONS = tuple(float(t) for t in np.logspace(-2.0, 4.0, 25))
GRID_SAMPLES = 100
FLOW_BATHS = 32


def covariance_inputs(seed: int) -> list:
    """Strictly stable random baths (extra decay keeps every drift
    eigenvalue well inside the left half plane, so steady_state exists and
    the longest horizon has converged to it), a start state, and the base
    span of the dense propagate_steps grids."""
    rng = rng_for("covariance_flow", seed)
    out = []
    for i in range(FLOW_BATHS):
        bath = random_cp_bath(rng, strength=rng.uniform(0.3, 1.0), damping_bias=1.2)
        if i % 2 == 0:
            omegas = (0j, 0j)
        else:
            omegas = (random_squeezing(rng, 0.6), random_squeezing(rng, 0.6))
        t_max = float(rng.uniform(0.5, 5.0))
        out.append({"bath": bath, "omega1": omegas[0], "omega2": omegas[1], "t_max": t_max})
    return out


# cli_configs --------------------------------------------------------------


def _c(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix(m) -> list:
    return [[_c(z) for z in row] for row in np.asarray(m, dtype=complex)]


def cli_variant_configs(seed: int) -> dict:
    """Three seeded variants of the shipped configurations, as JSON dicts:

    - ``matrix_vacuum``: a random CP bath in matrix form from the vacuum
      (the shape of vacuum_generation.json);
    - ``collective_pure``: a collective bath from a pure product (the shape
      of pure_pair_generation.json); its initial state has a null space, so
      ``sweep`` runs the witness scan at every point;
    - ``collective_mixed``: a collective bath from the collective mixed
      state with beta0 = 1 (the shape of asymptotic_entanglement.json).
    """
    rng = rng_for("cli_configs", seed)
    bath = random_cp_bath(rng, strength=rng.uniform(0.5, 1.0))
    matrix_vacuum = {
        "modes": 2,
        "bath": {
            "matrices": {
                "omega": _matrix(bath["omega"]),
                "eta": _matrix(bath["eta"]),
                "sigma": _matrix(bath["sigma"]),
                "lambda": _matrix(bath["lam"]),
            }
        },
        "initial_state": {"kind": "vacuum"},
        "time": {"t_max": 0.5, "dt": 0.02},
        "flags": {"allow_non_cp": False},
    }

    # Pumping and squeezing stay moderate so that the oracle comparison at
    # cutoff 10 keeps the top number level under its leak tolerance.
    eta = float(rng.uniform(1.0, 1.5))
    sigma = float(rng.uniform(0.3, 0.5) * eta)
    lam_abs = float(np.sqrt(rng.uniform(0.5, 0.95) * eta * sigma))
    collective_pure = {
        "modes": 2,
        "bath": {"collective": {"eta": eta, "sigma": sigma, "omega": float(rng.uniform(0.0, 0.3)), "lambda": [lam_abs, 0.0]}},
        "initial_state": {"kind": "pure", "omega1": _c(random_squeezing(rng, 0.2)), "omega2": _c(random_squeezing(rng, 0.2))},
        "time": {"t_max": 0.5, "dt": 0.02},
        "flags": {"allow_non_cp": False},
    }

    eta = float(rng.uniform(0.8, 1.2))
    sigma = float(rng.uniform(0.4, 0.6) * eta)
    lam_abs = float(np.sqrt(rng.uniform(0.5, 0.95) * eta * sigma))
    collective_mixed = {
        "modes": 2,
        "bath": {"collective": {"eta": eta, "sigma": sigma, "omega": float(rng.uniform(0.0, 0.3)), "lambda": [lam_abs, 0.0]}},
        "initial_state": {"kind": "collective", "beta0": 1.0},
        "time": {"t_max": 20.0, "dt": 0.5},
        "flags": {"allow_non_cp": False},
    }
    return {"matrix_vacuum": matrix_vacuum, "collective_pure": collective_pure, "collective_mixed": collective_mixed}
