import csv
import json
from pathlib import Path

import numpy as np
import pytest

from quasifree import (
    asymptotic_covariance,
    collective_steady_moments,
)
from quasifree.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def collective_config(eta=1.0, sigma=0.5, omega=0.1, lam=0.7, state=None, t_max=20.0, dt=0.5):
    return {
        "modes": 2,
        "bath": {"collective": {"eta": eta, "sigma": sigma, "omega": omega, "lambda": [lam, 0.0]}},
        "initial_state": state or {"kind": "collective", "beta0": 1.0},
        "time": {"t_max": t_max, "dt": dt},
    }


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestCheckCp:
    def test_cp_bath_exits_zero(self, capsys):
        assert main(["check-cp", "--config", str(CONFIG_DIR / "vacuum_generation.json")]) == 0
        assert "completely positive: yes" in capsys.readouterr().out

    def test_non_cp_bath_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, collective_config(eta=1.0, sigma=0.5, lam=0.8))
        assert main(["check-cp", "--config", cfg]) == 2

    def test_malformed_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check-cp", "--config", str(path)]) == 1

    def test_missing_file_exits_one(self):
        assert main(["check-cp", "--config", "/nonexistent/nowhere.json"]) == 1


class TestEvolve:
    def test_zero_bath_rows_identical(self, tmp_path):
        doc = {
            "modes": 2,
            "bath": {"matrices": {}},
            "initial_state": {"kind": "thermal", "occupations": [0.5, 0.2]},
            "time": {"t_max": 1.0, "dt": 0.25},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 5
        for key in rows[0]:
            if key != "t":
                assert len({row[key] for row in rows}) == 1

    def test_oversized_grid_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, collective_config(t_max=1.0, dt=1e-7))
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 1
        assert "limit is" in capsys.readouterr().err
        assert not out.exists()

    def test_strongly_squeezed_product_start_reads_separable(self, tmp_path):
        # the t = 0 row is a product state whose PT eigenvalue is roundoff,
        # -1.18e-10 at |Omega| = 0.999999: the CSV verdict is ppt_test's
        doc = json.loads((CONFIG_DIR / "pure_pair_generation.json").read_text())
        doc["initial_state"] = {"kind": "pure", "omega1": 0.999999, "omega2": 0.999999}
        doc["time"] = {"t_max": 0.02, "dt": 0.02}
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 0
        first = read_csv(out)[0]
        assert float(first["t"]) == 0.0
        assert -1e-9 < float(first["min_pt_eig"]) < -1e-10
        assert first["entangled"] == "false"

    def test_vacuum_noise_scenario_entangles(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["evolve", "--config", str(CONFIG_DIR / "vacuum_generation.json"), "--output", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        flags = [row["entangled"] for row in rows]
        assert flags[0] == "false" and "true" in flags

    def test_collective_scenario_reaches_asymptote(self, tmp_path):
        out = tmp_path / "steady.csv"
        code = main(
            [
                "evolve",
                "--config",
                str(CONFIG_DIR / "asymptotic_entanglement.json"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        a_inf, b_inf = collective_steady_moments(1.0, 0.5, 0.1, 0.7)
        v_inf = asymptotic_covariance(a_inf, b_inf)
        last = rows[-1]
        labels = [f"{i}{j}" for i in range(1, 5) for j in range(1, 5)]
        rebuilt = np.array(
            [float(last[f"re_V_{s}"]) + 1j * float(last[f"im_V_{s}"]) for s in labels]
        ).reshape(4, 4)
        assert np.abs(rebuilt - v_inf.v).max() < 1e-6
        assert last["entangled"] == "true"

    def test_non_cp_refused_and_no_partial_file(self, tmp_path):
        cfg = write_config(tmp_path, collective_config(lam=0.8, t_max=1.0, dt=0.1))
        out = tmp_path / "never.csv"
        assert main(["evolve", "--config", cfg, "--output", str(out)]) == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_non_cp_override(self, tmp_path):
        cfg = write_config(tmp_path, collective_config(lam=0.8, t_max=0.5, dt=0.25))
        out = tmp_path / "risky.csv"
        assert main(["evolve", "--config", cfg, "--output", str(out), "--allow-non-cp"]) == 0
        assert out.exists()

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = str(CONFIG_DIR / "vacuum_generation.json")
        assert main(["evolve", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["evolve", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_tol_override_suppresses_verdicts(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = str(CONFIG_DIR / "vacuum_generation.json")
        assert main(["evolve", "--config", cfg, "--output", str(out), "--tol", "10.0"]) == 0
        assert all(row["entangled"] == "false" for row in read_csv(out))

    def test_blocks_initial_state(self, tmp_path):
        doc = {
            "modes": 2,
            "bath": {"matrices": {"eta": [[1.0, 0.0], [0.0, 1.0]]}},
            "initial_state": {
                "kind": "blocks",
                "alpha": [[0.0, 0.0], [0.0, 0.0]],
                "beta": [[1.5, 0.0], [0.0, 1.0]],
            },
            "time": {"t_max": 0.2, "dt": 0.1},
        }
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[0]["re_V_11"]) == 1.0  # beta_11 - 1/2

    def test_collective_state_needs_collective_bath(self, tmp_path):
        doc = {
            "modes": 2,
            "bath": {"matrices": {"eta": [[1.0, 0.0], [0.0, 1.0]]}},
            "initial_state": {"kind": "collective", "beta0": 1.0},
            "time": {"t_max": 0.2, "dt": 0.1},
        }
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--output", str(out)]) == 1
        assert not out.exists()


class TestWitness:
    def test_vacuum_scenario_detects_generation(self, capsys):
        assert main(["witness", "--config", str(CONFIG_DIR / "vacuum_generation.json")]) == 0
        assert "generation at t=0+: yes" in capsys.readouterr().out

    def test_pure_pair_scenario_detects_generation(self):
        assert main(["witness", "--config", str(CONFIG_DIR / "pure_pair_generation.json")]) == 0

    def test_purely_decohering_bath_detects_nothing(self, tmp_path):
        doc = {
            "modes": 2,
            "bath": {
                "matrices": {
                    "eta": [[1.0, 0.0], [0.0, 2.0]],
                    "sigma": [[1.0, 0.0], [0.0, 0.1]],
                }
            },
            "initial_state": {"kind": "vacuum"},
            "time": {"t_max": 0.5, "dt": 0.1},
        }
        assert main(["witness", "--config", write_config(tmp_path, doc)]) == 3

    def test_interior_state_is_inapplicable(self, tmp_path):
        doc = collective_config(state={"kind": "thermal", "occupations": [1.0, 1.0]})
        assert main(["witness", "--config", write_config(tmp_path, doc)]) == 4


class TestSteady:
    def test_entangled_asymptote(self, capsys):
        assert main(["steady", "--config", str(CONFIG_DIR / "asymptotic_entanglement.json")]) == 0
        assert "asymptotically entangled: yes" in capsys.readouterr().out

    def test_separable_below_threshold(self, tmp_path):
        cfg = write_config(tmp_path, collective_config(lam=0.6))
        assert main(["steady", "--config", cfg]) == 3

    def test_no_equilibrium(self, tmp_path):
        cfg = write_config(tmp_path, collective_config(eta=0.5, sigma=0.5, lam=0.3))
        assert main(["steady", "--config", cfg]) == 5

    def test_pure_decay_relaxes_to_the_vacuum(self, tmp_path, capsys):
        # eta = 1, sigma = 0: the unique asymptotic state is the vacuum, which
        # sits on the separability boundary
        cfg = write_config(tmp_path, collective_config(eta=1.0, sigma=0.0, omega=0.0, lam=0.0))
        assert main(["steady", "--config", cfg]) == 3
        out = capsys.readouterr().out
        assert "beta_inf = 1\n" in out
        assert "asymptotically entangled: boundary/indeterminate" in out

    def test_boundary_is_reported_as_indeterminate(self, tmp_path, capsys):
        # sitting exactly on the threshold |lambda|^2 = lambda_sq_min
        lam_star = float(np.sqrt(0.46222222222222226))
        cfg = write_config(tmp_path, collective_config(lam=lam_star))
        code = main(["steady", "--config", cfg, "--tol", "1e-6"])
        assert code == 3
        assert "boundary/indeterminate" in capsys.readouterr().out


class TestSweep:
    def test_threshold_crossing(self, tmp_path):
        cfg = write_config(tmp_path, collective_config())
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--param",
                "lambda_abs",
                "--range",
                "0.5:0.72:23",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 23
        crossing = None
        for before, after in zip(rows, rows[1:]):
            a = float(before["steady_min_pt_eig"])
            b = float(after["steady_min_pt_eig"])
            if a >= 0 > b:
                crossing = (float(before["param_value"]), float(after["param_value"]))
        assert crossing is not None
        lam_star = np.sqrt(0.46222222222222226)
        assert crossing[0] <= lam_star <= crossing[1]
        # the grid straddles the CP boundary sqrt(eta sigma) as well
        cp_flags = [(float(r["param_value"]), r["cp_ok"]) for r in rows]
        for value, flag in cp_flags:
            assert flag == ("true" if value**2 <= 0.5 + 1e-12 else "false")

    def test_single_point(self, tmp_path):
        cfg = write_config(tmp_path, collective_config())
        out = tmp_path / "one.csv"
        assert main(
            ["sweep", "--config", cfg, "--param", "eta", "--range", "1.0:1.0:1", "--output", str(out)]
        ) == 0
        assert len(read_csv(out)) == 1

    def test_unknown_param(self, tmp_path):
        cfg = write_config(tmp_path, collective_config())
        out = tmp_path / "x.csv"
        assert (
            main(["sweep", "--config", cfg, "--param", "beta", "--range", "0:1:2", "--output", str(out)])
            == 1
        )


class TestOracleCompare:
    def test_zero_bath_agrees_exactly(self, tmp_path, capsys):
        doc = {
            "modes": 2,
            "bath": {"matrices": {}},
            "initial_state": {"kind": "vacuum"},
            "time": {"t_max": 0.2, "dt": 0.1},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["oracle-compare", "--config", cfg, "--cutoff", "4"]) == 0
        assert "max absolute moment deviation: 0" in capsys.readouterr().out

    def test_vacuum_noise_scenario_agrees(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "vacuum_generation.json").read_text())
        doc["time"] = {"t_max": 0.3, "dt": 0.1}
        cfg = write_config(tmp_path, doc)
        assert main(["oracle-compare", "--config", cfg, "--cutoff", "10", "--oracle-dt", "0.002"]) == 0

    def test_tol_override_reaches_the_gaussian_verdict(self, tmp_path, capsys):
        # every sample is entangled in both pictures; a --tol above the PT
        # margin makes the Gaussian side read separable, so all three disagree
        doc = json.loads((CONFIG_DIR / "vacuum_generation.json").read_text())
        doc["time"] = {"t_max": 0.3, "dt": 0.1}
        cfg = write_config(tmp_path, doc)
        args = ["oracle-compare", "--config", cfg, "--cutoff", "10", "--oracle-dt", "0.002"]
        assert main(args) == 0
        assert capsys.readouterr().out.endswith("verdict disagreements: 0 of 3\n")
        assert main(args + ["--tol", "10.0"]) == 6
        assert capsys.readouterr().out.endswith("verdict disagreements: 3 of 3\n")

    def test_invalid_initial_state_exits_one(self, tmp_path, capsys):
        # the config is validated before the oracle builds its Fock state,
        # so the error matches the one 'evolve' reports
        doc = json.loads((CONFIG_DIR / "vacuum_generation.json").read_text())
        doc["initial_state"] = {"kind": "thermal", "occupations": [-0.5, 0.1]}
        cfg = write_config(tmp_path, doc)
        assert main(["oracle-compare", "--config", cfg, "--cutoff", "4"]) == 1
        assert "invalid initial state" in capsys.readouterr().err

    def test_truncation_leak_exits_six(self, tmp_path, capsys):
        doc = {
            "modes": 2,
            "bath": {
                "matrices": {
                    "eta": [[0.2, 0.0], [0.0, 0.2]],
                    "sigma": [[2.0, 0.0], [0.0, 2.0]],
                }
            },
            "initial_state": {"kind": "vacuum"},
            "time": {"t_max": 2.0, "dt": 0.5},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["oracle-compare", "--config", cfg, "--cutoff", "3"]) == 6
        assert "truncation leak" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name,deviation",
        [("vacuum_generation", "4.7007313034308496e-05"), ("pure_pair_generation", "0.0003055296210674463")],
    )
    def test_shipped_configs_output_is_fixed(self, capsys, name, deviation):
        # the exact bytes of the oracle trajectory on the shipped configs
        cfg = str(CONFIG_DIR / f"{name}.json")
        assert main(["oracle-compare", "--config", cfg, "--cutoff", "10", "--oracle-dt", "5e-3"]) == 0
        out = capsys.readouterr().out
        assert out == f"max absolute moment deviation: {deviation}\nverdict disagreements: 0 of 25\n"

    def test_unstable_oracle_step_exits_six(self, capsys):
        # RK4 at dt = 0.02 is unstable for this bath at cutoff 10; the oracle
        # must stop when its density matrix leaves the physical set instead of
        # failing later while reading moments off it
        cfg = str(CONFIG_DIR / "pure_pair_generation.json")
        assert main(["oracle-compare", "--config", cfg, "--cutoff", "10", "--oracle-dt", "0.02"]) == 6
        out = capsys.readouterr().out
        assert out.startswith("oracle integration failed: ") and out.count("\n") == 1
        assert "smaller --oracle-dt" in out
