"""Run-configuration files: a JSON document describing bath, initial state,
time grid and flags.

Complex scalars are written as [re, im] pairs (a bare number is accepted as a
real value); complex matrices are nested lists of such entries.  The bath is
given either entrywise under "matrices" or, for the collective scenario, as
four scalars under "collective" (which commands that need the scalar closed
forms require).  See the repository configs/ directory for worked examples.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import BathSpec, collective_bath, collective_steady_moments
from .errors import ConfigError, QuasifreeError
from .gaussian_state import (
    Covariance,
    collective_covariance,
    from_blocks,
    pure_product,
    thermal,
    vacuum,
)

_STATE_KINDS = ("vacuum", "pure", "thermal", "blocks", "collective")


@dataclass(frozen=True)
class CollectiveParams:
    eta: float
    sigma: float
    omega: float
    lam: complex


@dataclass(frozen=True)
class RunConfig:
    modes: int
    bath: BathSpec
    collective: "CollectiveParams | None"
    initial_kind: str
    initial_params: dict
    t_max: float
    dt: float
    allow_non_cp: bool


def _number(value, name: str) -> float:
    """A config number as a float: a JSON integer or float in the float
    range.  A bool, a string, a list, null or a non-finite value is refused
    (load_config's JSON hooks already refuse NaN, Infinity and 1e400)."""
    if not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _json_number(text: str) -> float:
    """The JSON hook for floats, NaN and +-Infinity: only finite values pass."""
    value = float(text)
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def parse_complex(value, name: str = "value") -> complex:
    """A config complex: a finite number, or an [re, im] pair of them."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], name), _number(value[1], name))
    return complex(_number(value, name))


def parse_matrix(rows, n: int, name: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise ConfigError(f"{name} must be a {n}x{n} matrix")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{name} row {i} must have {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = parse_complex(entry, f"{name}[{i}][{j}]")
    return out


def _parse_bath(section, modes: int) -> tuple[BathSpec, "CollectiveParams | None"]:
    if not isinstance(section, dict):
        raise ConfigError("bath section must be an object")
    if "collective" in section:
        raw = section["collective"]
        if not isinstance(raw, dict):
            raise ConfigError("bath.collective must be an object")
        try:
            params = CollectiveParams(
                eta=_number(raw["eta"], "bath.collective.eta"),
                sigma=_number(raw["sigma"], "bath.collective.sigma"),
                omega=_number(raw.get("omega", 0.0), "bath.collective.omega"),
                lam=parse_complex(raw.get("lambda", 0.0), "bath.collective.lambda"),
            )
        except KeyError as exc:
            raise ConfigError(f"bath.collective is missing {exc}") from exc
        if modes != 2:
            raise ConfigError("collective baths are defined for 2 modes")
        return collective_bath(params.eta, params.sigma, params.omega, params.lam), params
    if "matrices" in section:
        raw = section["matrices"]
        if not isinstance(raw, dict):
            raise ConfigError("bath.matrices must be an object")
        mats = {}
        for name in ("omega", "eta", "sigma", "lambda"):
            mats[name] = parse_matrix(raw.get(name, [[0.0] * modes] * modes), modes, f"bath.{name}")
        try:
            bath = BathSpec(omega=mats["omega"], eta=mats["eta"], sigma=mats["sigma"], lam=mats["lambda"])
        except QuasifreeError as exc:
            raise ConfigError(f"invalid bath matrices: {exc}") from exc
        return bath, None
    raise ConfigError("bath section needs either 'matrices' or 'collective'")


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_json_number, parse_constant=_json_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")

    modes = doc.get("modes", 2)
    if isinstance(modes, bool) or not isinstance(modes, int) or modes < 1:
        raise ConfigError(f"modes must be a positive integer, got {modes!r}")
    if "bath" not in doc:
        raise ConfigError("config is missing the bath section")
    bath, collective = _parse_bath(doc["bath"], modes)

    state = doc.get("initial_state", {"kind": "vacuum"})
    if not isinstance(state, dict) or "kind" not in state:
        raise ConfigError("initial_state must be an object with a 'kind'")
    kind = state["kind"]
    if kind not in _STATE_KINDS:
        raise ConfigError(f"unknown initial_state kind {kind!r}; expected one of {_STATE_KINDS}")

    time = doc.get("time", {})
    if not isinstance(time, dict):
        raise ConfigError("time section must be an object")
    t_max = _number(time.get("t_max", 1.0), "time.t_max")
    dt = _number(time.get("dt", 0.05), "time.dt")
    if t_max < 0 or dt <= 0:
        raise ConfigError(f"need t_max >= 0 and dt > 0, got t_max={t_max}, dt={dt}")

    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise ConfigError("flags section must be an object")
    allow_non_cp = flags.get("allow_non_cp", False)
    if not isinstance(allow_non_cp, bool):
        raise ConfigError(f"flags.allow_non_cp must be true or false, got {allow_non_cp!r}")

    return RunConfig(
        modes=modes,
        bath=bath,
        collective=collective,
        initial_kind=kind,
        initial_params={k: v for k, v in state.items() if k != "kind"},
        t_max=t_max,
        dt=dt,
        allow_non_cp=allow_non_cp,
    )


def squeezing(cfg: RunConfig) -> tuple[complex, complex]:
    """The squeezing parameters (Omega_1, Omega_2) of a pure product start;
    (0, 0), the vacuum's, for any other kind."""
    if cfg.initial_kind != "pure":
        return 0.0, 0.0
    return tuple(parse_complex(cfg.initial_params.get(k, 0.0), f"initial_state.{k}") for k in ("omega1", "omega2"))


def build_initial_covariance(cfg: RunConfig) -> Covariance:
    kind, params = cfg.initial_kind, cfg.initial_params
    try:
        if kind == "vacuum":
            return vacuum(cfg.modes)
        if kind == "pure":
            if cfg.modes != 2:
                raise ConfigError("pure product initial states are defined for 2 modes")
            return pure_product(*squeezing(cfg))
        if kind == "thermal":
            occ = params.get("occupations")
            if not isinstance(occ, list) or len(occ) != cfg.modes:
                raise ConfigError(f"thermal state needs {cfg.modes} occupations")
            return thermal(cfg.modes, [_number(x, "initial_state.occupations") for x in occ])
        if kind == "blocks":
            alpha = parse_matrix(params.get("alpha"), cfg.modes, "initial_state.alpha")
            beta = parse_matrix(params.get("beta"), cfg.modes, "initial_state.beta")
            return from_blocks(alpha, beta)
        if kind == "collective":
            if cfg.collective is None:
                raise ConfigError("a 'collective' initial state requires a collective bath")
            beta0 = _number(params.get("beta0", 1.0), "initial_state.beta0")
            _, beta_inf = collective_steady_moments(
                cfg.collective.eta, cfg.collective.sigma, cfg.collective.omega, cfg.collective.lam
            )
            return collective_covariance(0.0, beta0, beta_inf)
    except QuasifreeError as exc:
        raise ConfigError(f"invalid initial state: {exc}") from exc
    raise ConfigError(f"unhandled initial state kind {kind!r}")
