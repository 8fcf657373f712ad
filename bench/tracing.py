"""Span tracing around the library's public functions, from outside it.

``Tracer.install()`` replaces each traced public function with a timing
wrapper in every ``quasifree`` module namespace that holds it (modules import
each other's functions by name, so one function can be bound in several
places); ``uninstall()`` puts the originals back.  Nothing inside ``src/`` is
modified.  ``Covariance`` is traced through its ``__post_init__`` validation,
which is where constructing one costs time.

Each call records a span (name, start, end, parent span index, operation id)
in memory.  A span's self time is its duration minus the durations of its
direct children.  The four ``matkit`` kernels are not spanned: a light
recorder counts their calls and keeps a bounded sample of the arguments, and
``replay_kernels()`` times the original kernels on those arguments after the
traced phase.  Their time therefore also sits inside the self time of the
spanned caller.
"""

import functools
import json
import time

import quasifree
from quasifree import cli, config, dynamics, entanglement, fock_oracle, gaussian_state, matkit

# (module, public function) pairs timed as spans; the metric prefix is the
# module's short name.
SPANNED = {
    fock_oracle: ("build_generator", "evolve_rho", "extract_moments", "negativity", "vacuum_state"),
    dynamics: ("check_cp", "drift_diffusion", "propagate_exact", "propagate_steps", "steady_state"),
    entanglement: (
        "ppt_test",
        "pt_min_eigenvalue",
        "initial_null_basis",
        "generation_witness",
        "scan_generation_witness",
        "asymptotic_pt_eigenvalues",
        "asymptotic_threshold",
    ),
    gaussian_state: ("is_physical", "pure_product", "vacuum"),
    config: ("load_config", "build_initial_covariance"),
}
KERNELS = ("expm", "hermitian_eigensystem", "solve_sylvester", "null_space")
CLI_VERBS = ("check-cp", "evolve", "witness", "steady", "sweep", "oracle-compare")

# Arguments kept per kernel for the replay, and timings taken of each (the
# best one counts).
_REPLAY_SAMPLES = 64
_REPLAY_REPEATS = 3


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def rk4_steps(t: float, dt: float) -> int:
    """Number of integration steps evolve_rho takes for (t, dt), following
    its loop: steps of dt, a shorter last step, until under 1e-15 remains."""
    steps, remaining = 0, float(t)
    while remaining > 1e-15:
        remaining -= min(dt, remaining)
        steps += 1
    return steps


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, child seconds]
        self.op_id = -1
        self.rk4_steps = 0
        self.kernel_calls = {k: 0 for k in KERNELS}
        self.kernel_args = {k: [] for k in KERNELS}
        self._kernel_stride = {k: 1 for k in KERNELS}
        self._stack = []  # open span indices
        self._child = []  # summed child durations of open spans
        self._kernel_depth = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        child = self._child.pop()
        span.append(child)
        if self._child:
            self._child[-1] += end - span[1]

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def _wrap_kernel(self, name: str, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if self._kernel_depth == 0:
                n = self.kernel_calls[name]
                self.kernel_calls[name] = n + 1
                if n % self._kernel_stride[name] == 0:
                    kept = self.kernel_args[name]
                    kept.append((args, kwargs))
                    if len(kept) == 2 * _REPLAY_SAMPLES:
                        # keep every other sample and halve the sampling rate,
                        # so the kept calls stay spread over the whole run
                        del kept[1::2]
                        self._kernel_stride[name] *= 2
            self._kernel_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._kernel_depth -= 1

        return recorded

    def _count_rk4(self, fn):
        @functools.wraps(fn)
        def counted(rho0, bath, t, dt=fock_oracle.DEFAULT_DT):
            self.rk4_steps += rk4_steps(t, dt)
            return fn(rho0, bath, t, dt)

        return counted

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        owners = [quasifree, cli, config, dynamics, entanglement, fock_oracle, gaussian_state, matkit]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, funcs in SPANNED.items():
            for f in funcs:
                original = getattr(module, f)
                wrapped = self._wrap(f"{_short(module)}.{f}", original)
                if module is fock_oracle and f == "evolve_rho":
                    wrapped = self._count_rk4(wrapped)
                self._replace_everywhere(original, wrapped)
        post_init = gaussian_state.Covariance.__post_init__
        self._patches.append((gaussian_state.Covariance, "__post_init__", post_init))
        gaussian_state.Covariance.__post_init__ = self._wrap("gaussian_state.Covariance", post_init)
        for k in KERNELS:
            original = getattr(matkit, k)
            self._replace_everywhere(original, self._wrap_kernel(k, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        out = {}
        for span in self.spans:
            row = out.setdefault(span[0], [0, 0.0, 0.0])
            duration = span[2] - span[1]
            row[0] += 1
            row[1] += duration
            row[2] += duration - span[5]
        return out

    def replay_kernels(self) -> dict:
        """kernel -> estimated total seconds: calls x mean per-call time of
        the original kernel over the kept arguments (best of
        _REPLAY_REPEATS)."""
        out = {}
        for k in KERNELS:
            fn = getattr(matkit, k)
            per_call = []
            for args, kwargs in self.kernel_args[k]:
                best = float("inf")
                for _ in range(_REPLAY_REPEATS):
                    t0 = time.perf_counter()
                    fn(*args, **kwargs)
                    best = min(best, time.perf_counter() - t0)
                per_call.append(best)
            mean = sum(per_call) / len(per_call) if per_call else 0.0
            out[k] = self.kernel_calls[k] * mean
        return out

    def dump(self, handle) -> None:
        """Write the spans to a text handle as JSON lines:
        [name, start, end, parent index, operation id]."""
        for name, start, end, parent, op, _ in self.spans:
            handle.write(json.dumps([name, start, end, parent, op]) + "\n")
