"""Tests of the benchmark itself: seeded inputs, output checks, fail counting.

    python3 -m pytest -q bench/tests

The oracle workload's check is tested on hand-made results, because one real
oracle operation takes several seconds; the other checks are tested on real
results, corrupted afterwards.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import rk4_steps  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


GENERATORS = [inputs.oracle_inputs, inputs.witness_inputs, inputs.covariance_inputs, inputs.cli_variant_configs]


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_inputs_are_deterministic_per_seed(gen):
    assert _same(gen(7), gen(7))
    assert not _same(gen(7), gen(8))


def test_cli_variants_serialize_identically():
    a = json.dumps(inputs.cli_variant_configs(3), sort_keys=True)
    assert a == json.dumps(inputs.cli_variant_configs(3), sort_keys=True)


def test_oracle_kind_pattern_is_seed_independent():
    for seed in (1, 2, 3):
        kinds = [x["kind"] for x in inputs.oracle_inputs(seed)]
        assert kinds[:3] == ["random", "random", "collective"]


def test_rk4_step_count_follows_the_integrator_loop():
    assert rk4_steps(0.3, 5e-3) in (60, 61)
    assert rk4_steps(1e-2, 5e-3) in (2, 3)
    assert rk4_steps(0.0, 5e-3) == 0


# -- corrupted results are caught -------------------------------------------


def _oracle_result():
    return {
        "cp": True,
        "samples": [
            {"t": 0.3, "dev": 2e-5, "pt_entangled": False, "negativity": 0.0},
            {"t": 1.0, "dev": 4e-5, "pt_entangled": True, "negativity": 3e-3},
        ],
    }


def test_oracle_check_catches_perturbed_moment_and_flipped_verdict():
    good = _oracle_result()
    assert workloads.check_oracle(good) == []
    moved = copy.deepcopy(good)
    moved["samples"][0]["dev"] = 2e-3
    assert workloads.check_oracle(moved)
    flipped = copy.deepcopy(good)
    flipped["samples"][1]["pt_entangled"] = False
    assert workloads.check_oracle(flipped)


def _ready(cls, seed=1, tmp=None):
    w = cls()
    w.setup(seed, tmp)
    return w


def test_witness_check_catches_flipped_verdict_and_wrong_derivative():
    w = _ready(workloads.WitnessScan)
    good = w.op(0)
    assert w.check(0, good) == []
    flipped = copy.deepcopy(good)
    flipped["scan"]["verdict"] = not flipped["scan"]["verdict"]
    assert w.check(0, flipped)
    moved = copy.deepcopy(good)
    moved["symmetric"]["q"] += 1e-3
    assert w.check(0, moved)
    above = copy.deepcopy(good)
    above["scan"]["q"] = above["symmetric"]["q"] + 1.0
    above["scan"]["lhs"] += 2.0
    assert any("exceeds" in p for p in w.check(0, above))


def test_flow_check_catches_nonphysical_sample_and_broken_semigroup():
    w = _ready(workloads.CovarianceFlow)
    for i in range(len(workloads.FLOW_CYCLE)):
        good = w.op(i)
        assert w.check(i, good) == []
    grid = w.op(0)
    bad = copy.deepcopy(grid)
    bad["states"][3] = bad["states"][3] - 0.6 * np.eye(4)
    assert w.check(0, bad)
    bad = copy.deepcopy(grid)
    once, twice = bad["semigroup"]
    bad["semigroup"] = (once, twice + 1e-6)
    assert w.check(0, bad)


def test_cli_check_catches_wrong_exit_code_and_changed_csv(tmp_path):
    w = _ready(workloads.CliConfigs, tmp=tmp_path)
    try:
        calls = w.op(0)  # inspect: check-cp, evolve, evolve
        assert w.check(0, calls) == []
        wrong = copy.deepcopy(calls)
        wrong[0]["rc"] = 3
        assert w.check(0, wrong)
        changed = copy.deepcopy(calls)
        evolve = next(c for c in changed if c["verb"] == "evolve")
        evolve["csv"] = evolve["csv"].replace(b"0", b"1", 1)
        assert w.check(0, changed)
    finally:
        w.close()


def test_expected_exit_follows_the_readme_table():
    assert workloads.expected_exit("check-cp", "completely positive: no\n") == 2
    assert workloads.expected_exit("witness", "... does not apply ...") == 4
    assert workloads.expected_exit("witness", "entanglement generation at t=0+: no\n") == 3
    assert workloads.expected_exit("steady", "no unique asymptotic state: x\n") == 5
    out = "max absolute moment deviation: 0.002\nverdict disagreements: 0 of 25\n"
    assert workloads.expected_exit("oracle-compare", out) == 6


class _Corrupting(workloads.CovarianceFlow):
    """Makes the last state of every other operation non-physical."""

    def op(self, i):
        result = super().op(i)
        if i % 2 == 1:
            result["states"][-1] = result["states"][-1] - 0.6 * np.eye(4)
        return result


def test_corrupted_results_are_counted_as_failed():
    w = _ready(_Corrupting)
    out = run.closed_loop(w, 0.3)
    assert out["attempted"] >= 2
    assert out["failed"] == out["attempted"] // 2
    assert len(out["latencies"]) == out["attempted"]


def test_raised_errors_are_counted_as_failed():
    class Raising(workloads.CovarianceFlow):
        def op(self, i):
            raise ValueError("boom")

    out = run.closed_loop(_ready(Raising), 0.05)
    assert out["failed"] == out["attempted"] >= 1
    assert out["ops_per_s"] == 0.0


def test_tail_is_the_percentile_with_ten_samples_beyond():
    lat = [i / 1000 for i in range(1, 101)]
    s = run.latency_summary(lat)
    assert s["tail_ms"] == pytest.approx(90.0)
    assert s["tail_percentile"] == pytest.approx(90.0)
    assert run.latency_summary(lat[:5])["tail_ms"] == pytest.approx(5.0)


# -- BENCHMARK.json lists what the runs report --------------------------------


def test_workloads_and_traced_layers_are_listed_in_benchmark_json():
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    listed = {m["name"] for m in run.SPEC["per_layer"]}
    traced = [f"{tracing._short(m)}.{f}" for m, funcs in tracing.SPANNED.items() for f in funcs]
    traced += ["gaussian_state.Covariance"]
    traced += [f"cli.{verb}" for verb in tracing.CLI_VERBS]
    traced += [f"matkit.{k}" for k in tracing.KERNELS]
    for name in traced:
        assert {f"{name}.calls", f"{name}.self_ms"} <= listed, name


def test_traced_run_reports_every_per_layer_metric():
    w = _ready(workloads.CovarianceFlow)
    w.warm_up()
    _, _, metrics, _ = run.traced_run(w, 0.4)
    assert list(metrics) == [m["name"] for m in run.SPEC["per_layer"]]
    assert metrics["dynamics.propagate_steps.calls"]["value"] > 0
    assert metrics["matkit.expm.self_ms"]["value"] > 0


def test_unlisted_metric_is_refused():
    with pytest.raises(KeyError):
        run.with_units({"ops_per_s": 1.0, "not_a_metric": 2.0}, "end_to_end")


# -- a second seed runs clean -----------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_runs_without_failures(name, tmp_path):
    w = workloads.WORKLOADS[name]()
    w.setup(2, tmp_path)
    try:
        w.warm_up()
        out = run.closed_loop(w, 0.01)
    finally:
        w.close()
    assert out["attempted"] >= 1
    assert out["failed"] == 0, out["problems"]
