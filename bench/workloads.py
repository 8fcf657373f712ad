"""The four benchmark workloads.

Each workload builds library objects from the seeded inputs in ``setup``,
runs a cheap ``warm_up``, and then serves a closed loop: ``op(i)`` performs
operation ``i`` (the part that is timed) and returns a plain result, and
``check(i, result)`` returns the list of problems found in it.  The checks
test invariants with plain numpy on the returned values; they do not pin
the outputs of a particular seed.

The library's own functions are traced by patching (see tracing.py); the
one span recorded here is ``cli.<verb>`` around each command-line call, when
a tracer is attached.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

import inputs
import quasifree as qf
from quasifree import cli
from quasifree import fock_oracle as fo

SIGMA_HALF = 0.5 * np.diag([1.0, 1.0, -1.0, -1.0])
T_MATRIX = np.eye(4)[[2, 1, 0, 3]]

# Gates shared with the acceptance criteria.
MOMENT_GATE = 1e-3
NEGATIVITY_CUT = 1e-6
ENT_TOL = 1e-10
PHYSICAL_TOL = 1e-8
SEMIGROUP_RTOL = 1e-9
STEADY_RTOL = 1e-7


def bath_spec(b: dict) -> qf.BathSpec:
    return qf.BathSpec(omega=b["omega"], eta=b["eta"], sigma=b["sigma"], lam=b["lam"])


def min_phys_eig(v: np.ndarray) -> float:
    """Smallest eigenvalue of V + Sigma/2 (>= 0 for a physical state)."""
    return float(np.linalg.eigvalsh(0.5 * (v + v.conj().T) + SIGMA_HALF)[0])


def min_pt_eig(v: np.ndarray) -> float:
    """Smallest eigenvalue of T V T + Sigma/2 (< 0 iff entangled)."""
    w = T_MATRIX @ v @ T_MATRIX
    return float(np.linalg.eigvalsh(0.5 * (w + w.conj().T) + SIGMA_HALF)[0])


class Workload:
    name = ""
    tracer = None  # set by a traced run

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup created."""

    def details(self) -> dict:
        """Workload-specific figures for the report."""
        return {}


# -- oracle_verify ----------------------------------------------------------

ORACLE_CUTOFF = 15
ORACLE_DT = 5e-3
ORACLE_TIMES = (0.3, 0.65, 1.0)


def check_oracle(result: dict) -> list:
    problems = []
    if not result["cp"]:
        problems.append("bath is not completely positive")
    for s in result["samples"]:
        if not s["dev"] <= MOMENT_GATE:
            problems.append(f"t={s['t']}: moment deviation {s['dev']:.3e} > {MOMENT_GATE:.0e}")
        if s["pt_entangled"] != (s["negativity"] > NEGATIVITY_CUT):
            problems.append(
                f"t={s['t']}: PT verdict {s['pt_entangled']} but negativity {s['negativity']:.3e}"
            )
    return problems


class OracleVerify(Workload):
    """Criterion-7 shape: evolve the vacuum of each bath in the Fock oracle
    and compare moments and entanglement verdicts with the covariance
    route."""

    name = "oracle_verify"

    def setup(self, seed, workdir):
        self.baths = [bath_spec(x["bath"]) for x in inputs.oracle_inputs(seed)]
        self.v0 = qf.vacuum(2)
        self.max_dev = 0.0

    def warm_up(self):
        bath = self.baths[0]
        rho = fo.evolve_rho(fo.vacuum_state(ORACLE_CUTOFF), bath, 4 * ORACLE_DT, dt=ORACLE_DT)
        fo.extract_moments(rho)
        fo.negativity(rho)
        qf.ppt_test(qf.propagate_exact(self.v0, bath, 4 * ORACLE_DT))

    def op(self, i):
        bath = self.baths[i % len(self.baths)]
        cp = qf.check_cp(bath)[0]
        rho = fo.vacuum_state(ORACLE_CUTOFF)
        samples = []
        t_prev = 0.0
        for t in ORACLE_TIMES:
            rho = fo.evolve_rho(rho, bath, t - t_prev, dt=ORACLE_DT)
            t_prev = t
            blocks = fo.extract_moments(rho)
            neg = fo.negativity(rho)
            state = qf.propagate_exact(self.v0, bath, t)
            entangled, _ = qf.ppt_test(state)
            dev = max(
                float(np.abs(blocks.alpha - state.alpha).max()),
                float(np.abs(blocks.beta - state.beta).max()),
            )
            samples.append({"t": t, "dev": dev, "pt_entangled": bool(entangled), "negativity": neg})
        return {"cp": cp, "samples": samples}

    def check(self, i, result):
        self.max_dev = max([self.max_dev] + [s["dev"] for s in result["samples"]])
        return check_oracle(result)

    def details(self):
        return {"max_moment_dev": self.max_dev, "max_moment_dev_gate": MOMENT_GATE}


# -- witness_scan -----------------------------------------------------------


def check_witness(result: dict) -> list:
    problems = []
    if result["null_dim"] != 2:
        problems.append(f"null space has dimension {result['null_dim']}, expected 2")
    for name in ("symmetric", "scan"):
        r = result[name]
        scale = max(1.0, abs(r["lhs"]), abs(r["rhs"]))
        if abs(r["q"] - 0.5 * (r["lhs"] - r["rhs"])) > 1e-10 * scale:
            problems.append(f"{name}: dQ/dt(0) {r['q']!r} != (lhs - rhs)/2")
        if abs(r["q"]) > 1e-12 * scale and r["verdict"] != (r["q"] < 0):
            problems.append(f"{name}: verdict {r['verdict']} disagrees with dQ/dt(0) = {r['q']!r}")
    sym, scan = result["symmetric"]["q"], result["scan"]["q"]
    if scan > sym + 1e-12 * max(1.0, abs(sym)):
        problems.append(f"scan minimum {scan!r} exceeds the symmetric vector's value {sym!r}")
    return problems


def _report(rep) -> dict:
    return {"q": rep.q_derivative, "lhs": rep.lhs, "rhs": rep.rhs, "verdict": bool(rep.verdict)}


class WitnessScan(Workload):
    """Generation witness on boundary-separable starts: null basis, the
    symmetric null vector, then the full null-space scan."""

    name = "witness_scan"

    def setup(self, seed, workdir):
        self.items = []
        for x in inputs.witness_inputs(seed):
            v0 = qf.pure_product(x["omega1"], x["omega2"])
            psi = qf.symmetric_null_vector(x["omega1"], x["omega2"])
            self.items.append((v0, bath_spec(x["bath"]), psi))

    def warm_up(self):
        v0, bath, psi = self.items[0]
        qf.initial_null_basis(v0)
        qf.generation_witness(v0, bath, psi)

    def op(self, i):
        v0, bath, psi = self.items[i % len(self.items)]
        basis = qf.initial_null_basis(v0)
        sym = qf.generation_witness(v0, bath, psi)
        scan = qf.scan_generation_witness(v0, bath)
        return {"null_dim": basis.shape[1], "symmetric": _report(sym), "scan": _report(scan)}

    def check(self, i, result):
        return check_witness(result)


# -- covariance_flow --------------------------------------------------------

# Per bath: sixteen dense grids over different spans, the horizon ladder in
# the middle, and the steady state last (checked against the longest horizon
# of the same bath).  The ladder is the slowest operation and about one in
# eighteen, so op_tail_ms lands inside the ladder operations while
# op_p50_ms is a grid.
FLOW_CYCLE = ("grid",) * 8 + ("horizons",) + ("grid",) * 8 + ("steady",)


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))


def check_flow(result: dict) -> list:
    problems = []
    for k, v in enumerate(result["states"]):
        m = min_phys_eig(v)
        if m < -PHYSICAL_TOL:
            problems.append(f"sample {k} is not physical (min eigenvalue {m:.3e})")
    for k, (v, entangled) in enumerate(zip(result["states"], result["verdicts"])):
        m = min_pt_eig(v)
        if abs(m) > 1e-8 and entangled != (m < -ENT_TOL):
            problems.append(f"sample {k}: PPT verdict {entangled} but min PT eigenvalue {m:.3e}")
    if "semigroup" in result:
        once, twice = result["semigroup"]
        dev = _rel_dev(twice, once)
        if dev > SEMIGROUP_RTOL:
            problems.append(f"semigroup law off by {dev:.3e}")
    if "steady" in result:
        v_ss, v_long = result["steady"]
        if v_long is None:
            problems.append("no longest-horizon state to compare the steady state with")
        else:
            dev = _rel_dev(v_ss, v_long)
            if dev > STEADY_RTOL:
                problems.append(f"steady state differs from V(t={inputs.HORIZONS[-1]:g}) by {dev:.3e}")
    return problems


class CovarianceFlow(Workload):
    """Covariance propagation: dense propagate_steps grids, propagate_exact
    over a log-spaced horizon ladder, and steady_state."""

    name = "covariance_flow"

    def setup(self, seed, workdir):
        self.items = []
        for x in inputs.covariance_inputs(seed):
            v0 = qf.pure_product(x["omega1"], x["omega2"])
            self.items.append((v0, bath_spec(x["bath"]), x["t_max"]))
        self.longest = {}

    def warm_up(self):
        v0, bath, t_max = self.items[0]
        qf.propagate_steps(v0, bath, t_max, t_max / 4)
        qf.ppt_test(qf.propagate_exact(v0, bath, 1.0))
        qf.steady_state(bath)

    def op(self, i):
        b = (i // len(FLOW_CYCLE)) % len(self.items)
        pos = i % len(FLOW_CYCLE)
        kind = FLOW_CYCLE[pos]
        v0, bath, t_max = self.items[b]
        if kind == "grid":
            span = t_max * (1.0 + pos / len(FLOW_CYCLE))
            traj = qf.propagate_steps(v0, bath, span, span / inputs.GRID_SAMPLES)
            verdicts = [qf.ppt_test(s)[0] for s in traj.states]
            direct = qf.propagate_exact(v0, bath, float(traj.times[-1]))
            states = [s.v for s in traj.states]
            return {"states": states, "verdicts": verdicts, "semigroup": (direct.v, states[-1])}
        if kind == "horizons":
            states = [qf.propagate_exact(v0, bath, t) for t in inputs.HORIZONS]
            verdicts = [qf.ppt_test(s)[0] for s in states]
            # one consecutive pair per operation, cycling over the ladder
            k = 1 + (i // len(FLOW_CYCLE)) % (len(inputs.HORIZONS) - 1)
            dt = inputs.HORIZONS[k] - inputs.HORIZONS[k - 1]
            twice = qf.propagate_exact(states[k - 1], bath, dt)
            self.longest[b] = states[-1].v
            return {"states": [s.v for s in states], "verdicts": verdicts, "semigroup": (states[k].v, twice.v)}
        v_ss = qf.steady_state(bath)
        entangled, _ = qf.ppt_test(v_ss)
        return {"states": [v_ss.v], "verdicts": [entangled], "steady": (v_ss.v, self.longest.pop(b, None))}

    def check(self, i, result):
        return check_flow(result)


# -- cli_configs ------------------------------------------------------------

SHIPPED_CONFIGS = ("vacuum_generation", "pure_pair_generation", "asymptotic_entanglement")
ORACLE_ARGS = ("--cutoff", "10", "--oracle-dt", "5e-3")
SWEEP_POINTS = 3
EVOLVE_COLUMNS = 35
SWEEP_COLUMNS = 5

_FLOAT = r"([-+0-9.eEnaif]+)"


def expected_exit(verb: str, stdout: str):
    """Exit code the README table assigns to the outcome printed on stdout,
    or None when stdout does not state an outcome."""
    if verb == "check-cp":
        m = re.search(r"completely positive: (yes|no)", stdout)
        return None if m is None else (0 if m.group(1) == "yes" else 2)
    if verb in ("evolve", "sweep"):
        return 0 if stdout.startswith("wrote ") else None
    if verb == "witness":
        if "does not apply" in stdout:
            return 4
        m = re.search(r"entanglement generation at t=0\+: (yes|no)", stdout)
        return None if m is None else (0 if m.group(1) == "yes" else 3)
    if verb == "steady":
        if stdout.startswith("no unique asymptotic state"):
            return 5
        m = re.search(r"asymptotically entangled: (yes|no|boundary)", stdout)
        return None if m is None else (0 if m.group(1) == "yes" else 3)
    if verb == "oracle-compare":
        if stdout.startswith("truncation leak"):
            return 6
        dev = re.search(r"max absolute moment deviation: " + _FLOAT, stdout)
        dis = re.search(r"verdict disagreements: (\d+) of", stdout)
        if dev is None or dis is None:
            return None
        return 0 if float(dev.group(1)) <= MOMENT_GATE and int(dis.group(1)) == 0 else 6
    raise ValueError(f"unknown verb {verb}")


def check_cli_call(call: dict, previous_csv) -> list:
    """Problems with one CLI call: its exit code against the README table,
    the outcome the workload's configs must have, the CSV shape, and byte
    identity with an earlier CSV from the same config bytes."""
    verb, rc, out = call["verb"], call["rc"], call["stdout"]
    problems = []
    want = expected_exit(verb, out)
    if want is None:
        problems.append(f"{verb}: stdout states no outcome (exit {rc}): {out[-200:]!r}")
    elif rc != want:
        problems.append(f"{verb}: exit code {rc}, README table gives {want}")
    if verb in ("check-cp", "evolve", "sweep", "oracle-compare") and rc != 0:
        problems.append(f"{verb}: expected success on this config, got exit {rc}")
    if verb == "witness":
        qs = [float(x) for x in re.findall(r"dQ/dt\(0\) = " + _FLOAT, out)]
        says_yes = "t=0+: yes" in out
        if want != 4 and (not qs or (abs(min(qs)) > 1e-12 and says_yes != (min(qs) < 0))):
            problems.append(f"witness: verdict does not follow the printed dQ/dt(0) values {qs}")
    csv = call.get("csv")
    if csv is not None:
        rows = csv.decode().splitlines()
        width = EVOLVE_COLUMNS if verb == "evolve" else SWEEP_COLUMNS
        if any(len(r.split(",")) != width for r in rows):
            problems.append(f"{verb}: CSV rows do not all have {width} columns")
        if verb == "sweep":
            if len(rows) != SWEEP_POINTS + 1:
                problems.append(f"sweep: {len(rows) - 1} rows, expected {SWEEP_POINTS}")
            elif call["null_space"] and any(r.split(",")[2] == "nan" for r in rows[1:]):
                problems.append("sweep: dq0 is nan although the initial state has a null space")
        if previous_csv is not None and previous_csv != csv:
            problems.append(f"{verb}: CSV differs from an earlier call on the same config bytes")
    return problems


SCAN_VERBS = ("witness", "sweep")


def _has_null_space(doc: dict) -> bool:
    """Whether the initial state lies on the separability boundary, so that
    witness and sweep run the null-space scan."""
    return doc["initial_state"]["kind"] in ("vacuum", "pure")


def config_verbs(doc: dict) -> tuple:
    """The verbs a configuration supports."""
    collective = "collective" in doc["bath"]
    kind = doc["initial_state"]["kind"]
    verbs = ["check-cp", "evolve", "witness"]
    if collective:
        verbs += ["steady", "sweep"]
    if kind in ("vacuum", "pure", "thermal"):
        verbs.append("oracle-compare")
    return tuple(verbs)


class CliConfigs(Workload):
    """The command line, called in process on the shipped configurations
    and on seeded variants written to a temporary directory.

    One operation is one step of a session on one configuration: either
    ``inspect`` (check-cp, steady when supported, evolve twice, whose CSVs
    must be byte-identical, and witness and sweep when the initial state has
    no null space, which makes them cheap) or a single heavier verb
    (witness or sweep running the scan, or oracle-compare).
    """

    name = "cli_configs"

    def setup(self, seed, workdir):
        root = Path(__file__).resolve().parent.parent / "configs"
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        docs = {}
        for name in SHIPPED_CONFIGS:
            path = root / f"{name}.json"
            docs[name] = (path, json.loads(path.read_text()))
        for name, doc in inputs.cli_variant_configs(seed).items():
            path = self.tmp / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            docs[name] = (path, doc)
        self.schedule = []
        for name, (path, doc) in docs.items():
            self.schedule.append(("inspect", name, path, doc))
            for verb in config_verbs(doc):
                if verb in SCAN_VERBS and _has_null_space(doc):
                    self.schedule.append((verb, name, path, doc))
            if "oracle-compare" in config_verbs(doc):
                self.schedule.append(("oracle-compare", name, path, doc))
        self.csvs = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warm_up(self):
        _, name, path, doc = self.schedule[0]
        self._cli("check-cp", name, path, doc)
        self._cli("evolve", name, path, doc)

    def _argv(self, verb, name, path, doc):
        argv = [verb, "--config", str(path)]
        if verb in ("evolve", "sweep"):
            argv += ["--output", str(self.tmp / f"{name}.{verb}.csv")]
        if verb == "sweep":
            p = doc["bath"]["collective"]
            lam_cp = float(np.sqrt(p["eta"] * p["sigma"]))
            argv += ["--param", "lambda_abs", "--range", f"{0.6 * lam_cp:.6g}:{0.95 * lam_cp:.6g}:{SWEEP_POINTS}"]
        if verb == "oracle-compare":
            argv += list(ORACLE_ARGS)
        return argv

    def _cli(self, verb, name, path, doc) -> dict:
        argv = self._argv(verb, name, path, doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                rc = self.tracer.span(f"cli.{verb}", cli.main, argv)
        call = {
            "verb": verb,
            "config": name,
            "null_space": _has_null_space(doc),
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        }
        if verb in ("evolve", "sweep") and rc == 0:
            call["csv"] = Path(argv[argv.index("--output") + 1]).read_bytes()
        return call

    def op(self, i):
        step, name, path, doc = self.schedule[i % len(self.schedule)]
        if step != "inspect":
            return [self._cli(step, name, path, doc)]
        calls = [self._cli("check-cp", name, path, doc)]
        if "steady" in config_verbs(doc):
            calls.append(self._cli("steady", name, path, doc))
        calls += [self._cli("evolve", name, path, doc), self._cli("evolve", name, path, doc)]
        if not _has_null_space(doc):
            # no null vector: witness exits 4 and sweep writes dq0 = nan at
            # once, so both belong with the cheap verbs
            calls += [self._cli(v, name, path, doc) for v in config_verbs(doc) if v in SCAN_VERBS]
        return calls

    def check(self, i, result):
        problems = []
        for call in result:
            key = (call["verb"], call["config"])
            problems += check_cli_call(call, self.csvs.get(key))
            if "csv" in call:
                self.csvs.setdefault(key, call["csv"])
        return problems


WORKLOADS = {w.name: w for w in (OracleVerify, WitnessScan, CovarianceFlow, CliConfigs)}
