"""The one error contract: every error the package raises is a
QuasifreeError, and cli.main turns each one into its exit code and its line
through one table, _OUTCOMES, whatever the config or the flags hold."""

import ast
import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasifree import cli
from quasifree.cli import main
from quasifree.config import load_config
from quasifree.errors import ConfigError, EmptyNullSpace, NotCP, OracleFailure, QuasifreeError, TruncationLeak, Unstable

from test_cli import CONFIG_DIR, collective_config, write_config

SRC = Path(__file__).resolve().parent.parent / "src" / "quasifree"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}

# |lambda|^2 = 0.81 > eta * sigma = 0.5: not completely positive
NON_CP = collective_config(eta=1.0, sigma=0.5, omega=0.0, lam=0.9)
OVERFLOW = {
    "modes": 2,
    "bath": {"matrices": {"eta": [[0.1, 0.0], [0.0, 0.1]], "sigma": [[1.0, 0.0], [0.0, 1.0]]}},
    "initial_state": {"kind": "vacuum"},
    "time": {"t_max": 1000.0, "dt": 10.0},
}
LEAKY = {
    "modes": 2,
    "bath": {"matrices": {"eta": [[0.2, 0.0], [0.0, 0.2]], "sigma": [[2.0, 0.0], [0.0, 2.0]]}},
    "initial_state": {"kind": "vacuum"},
    "time": {"t_max": 2.0, "dt": 0.5},
}


def run(capsys, argv):
    """main's exit code, stdout and stderr, asserting that it did not raise."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _config_path(tmp_path, doc):
    if isinstance(doc, str):
        return str(CONFIG_DIR / f"{doc}.json")
    if isinstance(doc, dict):
        return write_config(tmp_path, doc)
    path = tmp_path / "raw.json"
    path.write_text(doc[0])
    return str(path)


# One case per row of cli._OUTCOMES (two for the last): the row's class, the
# verb and its flags, the config (a shipped name, a dict, or (raw text,)),
# the exit code, the stream, and a pattern for the whole of that stream.
TABLE_CASES = {
    "not-cp": (
        NotCP, ["steady"], NON_CP, 2, "out",
        r"bath is not completely positive: min Kossakowski eigenvalue -0\.368\d+; "
        r"pass --allow-non-cp to go on anyway\n",
    ),
    "no-null-vector": (
        EmptyNullSpace, ["witness"], "asymptotic_entanglement", 4, "out",
        re.escape(
            "the initial state has no null vector of V~(0) + Sigma/2;\n"
            "the derivative witness does not apply -- track the evolution with 'evolve' instead\n"
        ),
    ),
    "unstable": (
        Unstable, ["steady"], collective_config(eta=0.5, sigma=0.5, lam=0.3), 5, "out",
        re.escape("no unique asymptotic state: equilibrium requires eta > sigma, got eta=0.5, sigma=0.5\n"),
    ),
    "truncation-leak": (
        TruncationLeak, ["oracle-compare", "--cutoff", "3"], LEAKY, 6, "out",
        r"truncation leak: top number level holds [0-9.e+-]+ > 1e-04; increase the cutoff or shorten the evolution\n",
    ),
    "oracle-failure": (
        OracleFailure, ["oracle-compare", "--cutoff", "10", "--oracle-dt", "0.02"], "pure_pair_generation", 6, "out",
        r"oracle integration failed: integrated density matrix has eigenvalue .*; "
        r"retry with a smaller --oracle-dt\n",
    ),
    "config-error": (
        (QuasifreeError, OSError), ["check-cp"], ("{not json",), 1, "err",
        r"error: config is not valid JSON: .*\n",
    ),
    "os-error": (
        (QuasifreeError, OSError), ["evolve", "--output", "/nonexistent-dir/traj.csv"], "vacuum_generation", 1, "err",
        r"error: \[Errno 2\] No such file or directory: .*\n",
    ),
}


def test_every_table_row_has_a_case():
    assert {case[0] for case in TABLE_CASES.values()} == {row[0] for row in cli._OUTCOMES}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_table_row_gives_its_code_stream_and_line(tmp_path, capsys, name):
    _, verb, doc, want_code, stream, pattern = TABLE_CASES[name]
    argv = [verb[0], "--config", _config_path(tmp_path, doc), *verb[1:]]
    code, out, err = run(capsys, argv)
    assert code == want_code
    shown, silent = (out, err) if stream == "out" else (err, out)
    assert re.fullmatch(pattern, shown), shown
    assert silent == ""


def test_no_bare_value_or_type_error_in_src():
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


class TestConfigValues:
    """A number in a config is a finite JSON number: anything else is a
    ConfigError at load time, exit 1 with one stderr line."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"bath": {"matrices": {}}, "time": {"t_max": NaN}}',
            '{"bath": {"matrices": {}}, "time": {"t_max": Infinity}}',
            '{"bath": {"matrices": {}}, "time": {"dt": -Infinity}}',
            '{"bath": {"matrices": {}}, "time": {"t_max": 1e400}}',
            '{"bath": {"matrices": {}}, "time": {"t_max": "abc"}}',
            '{"bath": {"matrices": {}}, "time": {"t_max": [1.0]}}',
            '{"bath": {"matrices": {}}, "time": {"t_max": true}}',
            '{"bath": {"matrices": {"eta": [[NaN, 0], [0, 0.1]]}}}',
            '{"bath": {"matrices": {"eta": [[1, "0"], [0, 0.1]]}}}',
            '{"bath": {"collective": {"eta": 1e400, "sigma": 0.5}}}',
            '{"bath": {"collective": {"eta": null, "sigma": 0.5}}}',
            '{"bath": {"matrices": {}}, "modes": true}',
            '{"bath": {"matrices": {}}, "flags": {"allow_non_cp": "yes"}}',
        ],
    )
    def test_load_config_refuses(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_config(_config_path(tmp_path, (text,)))

    def _shipped(self, name, *path_and_value):
        doc = copy.deepcopy(SHIPPED[name])
        *path, key, value = path_and_value
        node = doc
        for k in path:
            node = node[k]
        node[key] = "__VALUE__"
        return (json.dumps(doc).replace('"__VALUE__"', value),)

    @pytest.mark.parametrize(
        "verb,name,path_and_value,message",
        [
            ("evolve", "asymptotic_entanglement", ("time", "t_max", "NaN"), "config numbers must be finite, got NaN"),
            ("evolve", "asymptotic_entanglement", ("time", "dt", "Infinity"), "config numbers must be finite, got Infinity"),
            ("evolve", "asymptotic_entanglement", ("time", "t_max", '"abc"'), "time.t_max must be a finite number, got 'abc'"),
            ("check-cp", "vacuum_generation", ("bath", "matrices", "eta", "[[NaN, 0], [0, 0.1]]"), "config numbers must be finite, got NaN"),
            ("check-cp", "asymptotic_entanglement", ("bath", "collective", "eta", "[1]"), "bath.collective.eta must be a finite number, got [1]"),
            ("steady", "asymptotic_entanglement", ("bath", "collective", "sigma", "null"), "bath.collective.sigma must be a finite number, got None"),
        ],
    )
    def test_cli_refuses_with_one_line(self, tmp_path, capsys, verb, name, path_and_value, message):
        argv = [verb, "--config", _config_path(tmp_path, self._shipped(name, *path_and_value))]
        if verb == "evolve":
            argv += ["--output", str(tmp_path / "traj.csv")]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_occupations_must_be_numbers(self, tmp_path, capsys):
        doc = collective_config(state={"kind": "thermal", "occupations": ["x", 1]})
        code, out, err = run(capsys, ["witness", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (1, "")
        assert err == "error: invalid initial state: initial_state.occupations must be a finite number, got 'x'\n"


class TestCpRefusal:
    """evolve, witness, steady and oracle-compare refuse a non-CP bath before
    any output, with exit 2, unless given --allow-non-cp."""

    @pytest.mark.parametrize("verb", ["evolve", "witness", "steady", "oracle-compare"])
    def test_refused_before_any_output(self, tmp_path, capsys, verb):
        doc = collective_config(eta=1.0, sigma=0.5, omega=0.0, lam=0.9, state={"kind": "vacuum"}, t_max=1.0)
        argv = [verb, "--config", write_config(tmp_path, doc)]
        if verb == "evolve":
            argv += ["--output", str(tmp_path / "traj.csv")]
        code, out, err = run(capsys, argv)
        assert (code, err) == (2, "")
        assert out.startswith("bath is not completely positive: ") and out.count("\n") == 1
        assert not list(tmp_path.glob("*.csv*"))

    def test_steady_no_longer_claims_an_entangled_asymptote(self, tmp_path, capsys):
        # check-cp says no (|lambda|^2 = 0.81 > eta sigma = 0.5); steady used
        # to print "asymptotically entangled: yes" and exit 0
        cfg = write_config(tmp_path, NON_CP)
        assert run(capsys, ["check-cp", "--config", cfg])[0] == 2
        assert run(capsys, ["steady", "--config", cfg])[0] == 2
        code, out, _ = run(capsys, ["steady", "--config", cfg, "--allow-non-cp"])
        assert code == 0 and "asymptotically entangled: yes" in out

    def test_negative_pumping_is_not_cp_rather_than_unstable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, collective_config(eta=1.0, sigma=-0.1, omega=0.0, lam=0.0))
        code, out, _ = run(capsys, ["steady", "--config", cfg])
        assert code == 2 and "no unique asymptotic state" not in out

    def test_witness_prints_no_basis_first(self, tmp_path, capsys):
        cfg = write_config(tmp_path, collective_config(eta=1.0, sigma=0.5, omega=0.0, lam=0.9, state={"kind": "vacuum"}))
        code, out, _ = run(capsys, ["witness", "--config", cfg])
        assert code == 2 and "null-space basis" not in out


class TestOverflow:
    def _evolve(self, tmp_path, capsys, t_max, dt):
        doc = copy.deepcopy(OVERFLOW)
        doc["time"] = {"t_max": t_max, "dt": dt}
        out = tmp_path / "traj.csv"
        result = run(capsys, ["evolve", "--config", write_config(tmp_path, doc), "--output", str(out)])
        return result, out

    @pytest.mark.parametrize("dt,first", [(10.0, "790"), (1000.0, "1000")])
    def test_overflow_exits_one_naming_the_sample(self, tmp_path, capsys, dt, first):
        # V grows as e^{0.9 t}, past the float range after t ~ 788
        (code, out, err), path = self._evolve(tmp_path, capsys, 1000.0, dt)
        assert (code, out) == (1, "")
        assert err == f"error: matrix entries must be finite; the propagation overflowed at t = {first}\n"
        assert not path.exists() and not list(tmp_path.glob("*.tmp"))

    def test_the_sample_before_the_named_one_is_finite(self, tmp_path, capsys):
        (code, _, err), path = self._evolve(tmp_path, capsys, 780.0, 10.0)
        assert (code, err) == (0, "")
        assert path.exists()


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--tol", "nan"],
            ["evolve", "--tol", "-1"],
            ["evolve", "--tol", "inf"],
            ["steady", "--tol", "abc"],
            ["oracle-compare", "--oracle-dt", "nan"],
            ["oracle-compare", "--oracle-dt", "0"],
            ["oracle-compare", "--oracle-dt", "-1e-3"],
            ["check-cp", "--tol", "1e-6"],
            ["witness", "--tol", "1e-6"],
            ["check-cp", "--allow-non-cp"],
            ["sweep", "--allow-non-cp"],
            ["sweep", "--param", "beta"],
        ],
    )
    def test_bad_flag_exits_one_with_one_line(self, tmp_path, capsys, argv):
        args = [argv[0], "--config", str(CONFIG_DIR / "vacuum_generation.json"), *argv[1:]]
        if argv[0] in ("evolve", "sweep"):
            args += ["--output", str(tmp_path / "out.csv")]
        if argv[0] == "sweep" and "--param" not in argv:
            args += ["--param", "eta"]
        if argv[0] == "sweep":
            args += ["--range", "0:1:2"]
        code, out, err = run(capsys, args)
        assert (code, out) == (1, "")
        assert err.startswith("error: quasifree") and err.count("\n") == 1
        assert not list(tmp_path.glob("out.csv*"))

    def test_tol_defaults_to_the_verdict_floor(self):
        args = cli.build_parser().parse_args(["evolve", "--config", "c.json", "--output", "o.csv"])
        assert args.tol == cli.ENT_TOL


# A leaf of a shipped config is replaced by one of these JSON texts, or
# deleted (None).
PROBES = ["NaN", "Infinity", "1e400", '"x"', "[]", "null", "true", "-1", None]
VERBS = ["check-cp", "evolve", "witness", "steady"]


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


LEAVES = [(name, path) for name, doc in SHIPPED.items() for path in _leaves(doc)]


def _mutated(name, path, probe) -> str:
    doc = copy.deepcopy(SHIPPED[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if probe is None:
        del node[path[-1]]
        return json.dumps(doc)
    node[path[-1]] = "__PROBE__"
    return json.dumps(doc).replace('"__PROBE__"', probe)


@settings(
    derandomize=True,
    database=None,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(leaf=st.sampled_from(LEAVES), probe=st.sampled_from(PROBES), verb=st.sampled_from(VERBS))
def test_a_spoiled_config_leaf_gets_a_readme_code(tmp_path, capsys, leaf, probe, verb):
    config = tmp_path / "spoiled.json"
    config.write_text(_mutated(*leaf, probe))
    argv = [verb, "--config", str(config)]
    if verb == "evolve":
        argv += ["--output", str(tmp_path / "traj.csv")]
    code, out, err = run(capsys, argv)
    assert code in range(7)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
