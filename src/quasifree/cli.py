"""Command-line interface.

Verbs: check-cp, evolve, witness, steady, sweep, oracle-compare.  Commands
are deterministic (identical config bytes give identical output bytes) and
never leave partial output files behind: CSV files are written to a
temporary sibling and renamed on success.

Exit codes:
    0  success / positive verdict
    1  usage or configuration error
    2  bath not completely positive
    3  negative verdict (no generation / separable)
    4  witness inapplicable (no null vector)
    5  no unique asymptotic state
    6  oracle disagreement, truncation leak or failed oracle integration
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import fock_oracle, matkit
from .config import RunConfig, build_initial_covariance, load_config, parse_complex
from .dynamics import (
    check_cp,
    collective_bath,
    collective_steady_moments,
    propagate_steps,
)
from .entanglement import (
    ENT_TOL,
    asymptotic_covariance,
    asymptotic_pt_eigenvalues,
    asymptotic_threshold,
    generation_witness,
    initial_null_basis,
    pt_entangled,
    pt_margin,
    pt_spectrum,
    scan_generation_witness,
    symmetric_null_vector,
)
from .errors import (
    ConfigError,
    EmptyNullSpace,
    NotCP,
    NumericalFailure,
    QuasifreeError,
    TruncationLeak,
    UnknownParam,
    Unstable,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CP = 2
EXIT_NEGATIVE = 3
EXIT_NO_WITNESS = 4
EXIT_UNSTABLE = 5
EXIT_ORACLE = 6

# Exit code of an error that escapes a verb: the first entry that matches.
_EXIT_CODES = (
    (NotCP, EXIT_NOT_CP),
    (EmptyNullSpace, EXIT_NO_WITNESS),
    (Unstable, EXIT_UNSTABLE),
    (TruncationLeak, EXIT_ORACLE),
    ((QuasifreeError, OSError), EXIT_USAGE),
)

_SWEEP_PARAMS = ("lambda_abs", "eta", "sigma", "omega")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_c(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _write_atomic(path: str, text: str) -> None:
    out = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(out.parent) or ".", prefix=out.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "allow_non_cp", False):
        cfg = RunConfig(**{**cfg.__dict__, "allow_non_cp": True})
    return cfg


def cmd_check_cp(args) -> int:
    cfg = _load(args)
    ok, min_eig = check_cp(cfg.bath)
    print(f"min Kossakowski eigenvalue: {_fmt(min_eig)}")
    print(f"completely positive: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_NOT_CP


def cmd_evolve(args) -> int:
    cfg = _load(args)
    if cfg.modes != 2:
        raise ConfigError("evolve writes the two-mode schema; set modes = 2")
    v0 = build_initial_covariance(cfg)
    tol = args.tol if args.tol is not None else ENT_TOL
    trajectory = propagate_steps(v0, cfg.bath, cfg.t_max, cfg.dt, allow_non_cp=cfg.allow_non_cp)
    if not trajectory.cp_certified:
        print("warning: bath is not completely positive; output not certified", file=sys.stderr)

    labels = [f"{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    header = (
        ["t"]
        + [f"re_V_{s}" for s in labels]
        + [f"im_V_{s}" for s in labels]
        + ["min_pt_eig", "entangled"]
    )
    lines = [",".join(header)]
    for t, state in zip(trajectory.times, trajectory.states):
        w = pt_spectrum(state)
        row = [_fmt(t)]
        row += [_fmt(x) for x in state.v.real.reshape(-1)]
        row += [_fmt(x) for x in state.v.imag.reshape(-1)]
        row += [_fmt(w[0]), "true" if pt_entangled(w, tol) else "false"]
        lines.append(",".join(row))
    _write_atomic(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(trajectory.times)} samples to {args.output}")
    return EXIT_OK


def cmd_witness(args) -> int:
    cfg = _load(args)
    if cfg.modes != 2:
        raise ConfigError("the witness is defined for 2 modes")
    v0 = build_initial_covariance(cfg)
    try:
        basis = initial_null_basis(v0)
    except EmptyNullSpace:
        print("the initial state has no null vector of V~(0) + Sigma/2;")
        print("the derivative witness does not apply -- track the evolution with 'evolve' instead")
        return EXIT_NO_WITNESS

    print("null-space basis (columns):")
    for row in basis:
        print("  " + "  ".join(_fmt_c(z) for z in row))

    reports = []
    if cfg.initial_kind in ("vacuum", "pure"):
        if cfg.initial_kind == "pure":
            omega1 = parse_complex(cfg.initial_params.get("omega1", 0.0))
            omega2 = parse_complex(cfg.initial_params.get("omega2", 0.0))
        else:
            omega1 = omega2 = 0.0
        psi_sym = symmetric_null_vector(omega1, omega2)
        reports.append(("symmetric", generation_witness(v0, cfg.bath, psi_sym, allow_non_cp=cfg.allow_non_cp)))
    reports.append(("scan", scan_generation_witness(v0, cfg.bath, allow_non_cp=cfg.allow_non_cp)))

    best = min((r for _, r in reports), key=lambda r: r.q_derivative)
    for name, rep in reports:
        print(f"[{name}] lhs = {_fmt(rep.lhs)}  rhs = {_fmt(rep.rhs)}  dQ/dt(0) = {_fmt(rep.q_derivative)}")
    print("best psi: " + "  ".join(_fmt_c(z) for z in best.psi))
    print(f"entanglement generation at t=0+: {'yes' if best.verdict else 'no'}")
    return EXIT_OK if best.verdict else EXIT_NEGATIVE


def cmd_steady(args) -> int:
    cfg = _load(args)
    if cfg.collective is None:
        raise ConfigError("'steady' needs the collective bath form (bath.collective)")
    p = cfg.collective
    tol = args.tol if args.tol is not None else ENT_TOL
    try:
        alpha_inf, beta_inf = collective_steady_moments(p.eta, p.sigma, p.omega, p.lam)
        lam_sq_min, cp_max, feasible = asymptotic_threshold(p.eta, p.sigma, p.omega)
    except QuasifreeError as exc:
        print(f"no unique asymptotic state: {exc}")
        return EXIT_UNSTABLE

    v_inf = asymptotic_covariance(alpha_inf, beta_inf)
    print(f"alpha_inf = {_fmt_c(alpha_inf)}")
    print(f"beta_inf = {_fmt(beta_inf)}")
    print("V_inf:")
    for row in v_inf.v:
        print("  " + "  ".join(_fmt_c(z) for z in row))
    spectrum = asymptotic_pt_eigenvalues(alpha_inf, beta_inf)
    print("asymptotic PT spectrum: " + "  ".join(_fmt(x) for x in spectrum))
    print(f"threshold |lambda|^2 > {_fmt(lam_sq_min)} (CP bound {_fmt(cp_max)}, window {'open' if feasible else 'empty'})")
    print(f"|lambda|^2 = {_fmt(abs(p.lam) ** 2)}")
    entangled = pt_entangled(spectrum, tol)
    if abs(spectrum[0]) <= pt_margin(spectrum, tol):
        # too close to the separability boundary for a firm claim
        print("asymptotically entangled: boundary/indeterminate")
    else:
        print(f"asymptotically entangled: {'yes' if entangled else 'no'}")
    return EXIT_OK if entangled else EXIT_NEGATIVE


def _sweep_values(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {spec!r}: {exc}") from exc
    if count < 1:
        raise ConfigError("range count must be >= 1")
    return np.linspace(start, stop, count)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if cfg.collective is None:
        raise ConfigError("'sweep' needs the collective bath form (bath.collective)")
    if args.param not in _SWEEP_PARAMS:
        raise UnknownParam(f"param must be one of {_SWEEP_PARAMS}, got {args.param!r}")
    base = cfg.collective
    values = _sweep_values(args.range)
    tol = args.tol if args.tol is not None else ENT_TOL

    lines = ["param_value,cp_ok,dq0,steady_min_pt_eig,steady_entangled"]
    for value in values:
        eta, sigma, omega = base.eta, base.sigma, base.omega
        lam = base.lam
        if args.param == "lambda_abs":
            phase = lam / abs(lam) if abs(lam) > 0 else 1.0
            lam = value * phase
        elif args.param == "eta":
            eta = value
        elif args.param == "sigma":
            sigma = value
        else:
            omega = value
        bath = collective_bath(eta, sigma, omega, lam)
        cp_ok = check_cp(bath)[0]

        cfg_point = RunConfig(**{**cfg.__dict__, "bath": bath})
        try:
            v0 = build_initial_covariance(cfg_point)
            dq0 = scan_generation_witness(v0, bath, allow_non_cp=True).q_derivative
        except QuasifreeError:
            dq0 = float("nan")

        if eta > sigma:
            alpha_inf, beta_inf = collective_steady_moments(eta, sigma, omega, lam)
            spectrum = asymptotic_pt_eigenvalues(alpha_inf, beta_inf)
            min_pt, entangled = float(spectrum[0]), pt_entangled(spectrum, tol)
        else:
            min_pt, entangled = float("nan"), False
        lines.append(
            ",".join(
                [
                    _fmt(value),
                    "true" if cp_ok else "false",
                    _fmt(dq0),
                    _fmt(min_pt),
                    "true" if entangled else "false",
                ]
            )
        )
    _write_atomic(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(values)} rows to {args.output}")
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    cfg = _load(args)
    if cfg.modes != 2:
        raise ConfigError("the oracle is built for 2 modes")
    ok, min_eig = check_cp(cfg.bath)
    if not ok and not cfg.allow_non_cp:
        print(f"bath is not completely positive (min eigenvalue {_fmt(min_eig)})")
        return EXIT_NOT_CP

    v0 = build_initial_covariance(cfg)
    if cfg.initial_kind == "vacuum":
        rho = fock_oracle.vacuum_state(args.cutoff)
    elif cfg.initial_kind == "pure":
        rho = fock_oracle.pure_product_state(
            parse_complex(cfg.initial_params.get("omega1", 0.0)),
            parse_complex(cfg.initial_params.get("omega2", 0.0)),
            args.cutoff,
        )
    elif cfg.initial_kind == "thermal":
        rho = fock_oracle.thermal_state(
            [float(x) for x in cfg.initial_params["occupations"]], args.cutoff
        )
    else:
        raise ConfigError(f"oracle comparison supports vacuum/pure/thermal initial states, not {cfg.initial_kind!r}")

    tol = args.tol if args.tol is not None else ENT_TOL
    trajectory = propagate_steps(v0, cfg.bath, cfg.t_max, cfg.dt, allow_non_cp=cfg.allow_non_cp)

    max_dev = 0.0
    disagreements = 0
    # One oracle trajectory over the covariance sample times: the generator
    # is built once and each sample continues from the one before it.
    oracle = fock_oracle.evolve_trajectory(rho, cfg.bath, trajectory.times[1:], dt=args.oracle_dt)
    try:
        for rho, state in zip(oracle, trajectory.states[1:]):
            blocks = fock_oracle.extract_moments(rho)
            dev = max(
                float(np.abs(blocks.alpha - state.alpha).max()),
                float(np.abs(blocks.beta - state.beta).max()),
            )
            max_dev = max(max_dev, dev)
            neg = fock_oracle.negativity(rho)
            gauss_entangled = pt_entangled(pt_spectrum(state), tol)
            if gauss_entangled != (neg > matkit.NEGATIVITY_TOL):
                disagreements += 1
    except TruncationLeak as exc:
        print(f"truncation leak: {exc}")
        return EXIT_ORACLE
    except NumericalFailure as exc:
        print(f"oracle integration failed: {exc}; retry with a smaller --oracle-dt")
        return EXIT_ORACLE

    print(f"max absolute moment deviation: {_fmt(max_dev)}")
    print(f"verdict disagreements: {disagreements} of {len(trajectory.times) - 1}")
    if max_dev <= matkit.MOMENT_TOL and disagreements == 0:
        return EXIT_OK
    return EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasifree",
        description="Gaussian bath dynamics and partial-transpose entanglement tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=False):
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--allow-non-cp", action="store_true", help="propagate even if the bath is not CP")
        p.add_argument("--tol", type=float, default=None, help="verdict tolerance override")
        if output:
            p.add_argument("--output", required=True, help="CSV output path")

    p = sub.add_parser("check-cp", help="test complete positivity of the bath")
    common(p)
    p.set_defaults(func=cmd_check_cp)

    p = sub.add_parser("evolve", help="propagate the covariance and write a CSV trajectory")
    common(p, output=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("witness", help="evaluate the entanglement-generation witness at t=0")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("steady", help="asymptotic state of the collective bath scenario")
    common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep", help="scan one collective-bath parameter and write a CSV")
    common(p, output=True)
    p.add_argument("--param", required=True, help=f"one of {_SWEEP_PARAMS}")
    p.add_argument("--range", required=True, help="start:stop:count")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-compare", help="compare the covariance flow against the Fock oracle")
    common(p)
    p.add_argument("--cutoff", type=int, default=15, help="per-mode Fock cutoff")
    p.add_argument("--oracle-dt", type=float, default=fock_oracle.DEFAULT_DT, help="oracle integrator step")
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (QuasifreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
