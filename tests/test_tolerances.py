"""The one tolerance policy of matkit's Tolerances section: every cut is
relative to the size of what it tests, so an answer does not change when a
bath, or the unit of time, is rescaled; and no module writes a cut of its
own."""

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from quasifree import (
    BathSpec,
    initial_null_basis,
    matkit,
    propagate_exact,
    propagate_steps,
    pt_min_eigenvalue,
    pure_product,
    steady_state,
)
from quasifree.cli import main
from quasifree.dynamics import _grid_times
from quasifree.errors import NumericalFailure

SRC = Path(__file__).resolve().parent.parent / "src" / "quasifree"


def tour_bath(s=1.0):
    """The README's quick-tour bath, with a Hamiltonian added, times s."""
    return BathSpec(
        omega=s * np.diag([0.3, 0.2]),
        eta=s * np.diag([1.0, 2.0]),
        sigma=s * np.diag([1.0, 0.1]),
        lam=s * np.array([[0.0, 0.0], [1.2, 0.0]]),
    )


class TestNullSpaceCut:
    @pytest.mark.parametrize("omega1", [0.5, 1 - 1e-9, 1 - 1e-10, 1 - 1e-14])
    def test_squeezed_product_has_a_two_dimensional_null_space(self, omega1):
        # the genuine PT eigenvalues go down to ~(1 - |Omega|) max|w|, far
        # above roundoff but below a fixed fraction of max|w|
        v0 = pure_product(omega1, 0.0)
        basis = initial_null_basis(v0)
        assert basis.shape == (4, 2)
        m = v0.v[np.ix_([2, 1, 0, 3], [2, 1, 0, 3])] + 0.5 * np.diag([1, 1, -1, -1])
        assert np.linalg.norm(m @ basis, axis=0).max() <= 16 * np.finfo(float).eps * np.abs(v0.pt_spectrum).max()

    def test_witness_verdict_matches_the_pt_slope(self, tmp_path, capsys):
        doc = {
            "modes": 2,
            "bath": {
                "matrices": {
                    "omega": [[0.0, 0.0], [0.0, 0.0]],
                    "eta": [[0.5, 0.0], [0.0, 0.0]],
                    "sigma": [[0.0, 0.0], [0.0, 0.5]],
                    "lambda": [[0.0, 0.5], [0.0, 0.0]],
                }
            },
            "initial_state": {"kind": "pure", "omega1": [0.999999999, 0.0], "omega2": [0.0, 0.0]},
            "time": {"t_max": 0.01, "dt": 0.001},
        }
        path = tmp_path / "squeezed.json"
        path.write_text(json.dumps(doc))
        bath = BathSpec(
            omega=np.zeros((2, 2)),
            eta=np.diag([0.5, 0.0]),
            sigma=np.diag([0.0, 0.5]),
            lam=np.array([[0.0, 0.5], [0.0, 0.0]]),
        )
        later = pt_min_eigenvalue(propagate_exact(pure_product(0.999999999, 0.0), bath, 1e-3))
        assert later > 0  # the state stays separable: no generation
        assert main(["witness", "--config", str(path)]) == 3
        assert "entanglement generation at t=0+: no" in capsys.readouterr().out


class TestTimeScale:
    @pytest.mark.parametrize("s", [1e-100, 1e-12, 1.0, 1e12, 1e100])
    def test_rescaled_bath_and_time_give_the_same_trajectory(self, s):
        # bath x s and time / s describe the same flow
        v0 = pure_product(0.3, -0.2j)
        ref = propagate_steps(v0, tour_bath(), 2.5, 1.0)
        run = propagate_steps(v0, tour_bath(s), 2.5 / s, 1.0 / s)
        assert len(run.times) == len(ref.times) == 4
        for a, b in zip(run.states, ref.states):
            assert np.abs(a.v - b.v).max() < 1e-14

    def test_grid_counts_steps_at_the_scale_of_t_over_dt(self):
        assert len(_grid_times(1e-12, 1e-13)) == 11
        times = _grid_times(2e-12, 1e-13)
        assert len(times) == 21 and times[-1] - times[-2] <= 1e-13

    def test_late_short_interval_gains_no_step(self):
        # (1e6 + 0.1) - 1e6 carries roundoff ~1e-10, so the quotient is
        # 2 + 1.9e-9: two steps, at the scale of t rather than of the interval
        assert matkit.step_count(1e6, 1e6 + 0.1, 0.05) == (2, True)
        assert matkit.step_count(0.0, 0.25, 0.1) == (3, False)
        assert matkit.step_count(0.0, 0.0, 0.1) == (0, True)


class TestSteadyStateScale:
    @pytest.mark.parametrize("s", [1e-250, 1e-13, 1.0, 1e200])
    def test_steady_state_does_not_depend_on_the_bath_scale(self, s):
        ref = steady_state(tour_bath())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on the way
            v = steady_state(tour_bath(s))
        assert np.abs(v.v - ref.v).max() < 1e-14

    @pytest.mark.parametrize("s", [1.0, 1e200])
    def test_sylvester_residual_is_checked_at_any_scale(self, monkeypatch, s):
        honest = scipy.linalg.solve_sylvester
        monkeypatch.setattr(scipy.linalg, "solve_sylvester", lambda a, b, c: 1.5 * honest(a, b, c))
        with pytest.raises(NumericalFailure, match="Sylvester residual"):
            steady_state(tour_bath(s))


# Float literals below this size are cuts, and belong in matkit's
# Tolerances section.
SMALL = 1e-2
# Small literals that are not cuts, by module and the name they define.
NOT_CUTS = {
    ("fock_oracle.py", "DEFAULT_DT"),  # the oracle's default RK4 step
}


def _section_lines(text: str) -> range:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith(" Tolerances") and line.startswith("# ---"))
    end = next(i for i, line in enumerate(lines) if line.endswith(" end Tolerances"))
    return range(start + 1, end + 2)


def test_no_cut_outside_the_tolerances_section():
    strays, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        allowed = set(_section_lines(text)) if path.name == "matkit.py" else set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and (path.name, target.id) in NOT_CUTS:
                        seen.add((path.name, target.id))
                        allowed.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < SMALL
                and node.lineno not in allowed
            ):
                strays.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert strays == []
    assert seen == NOT_CUTS  # no stale allowlist entry
