"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Covers every metric path on every workload, the output checks, and the
counting of failed calls.  Takes a few seconds.
"""

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402
import run  # noqa: E402  (pins the thread count before numpy loads)
import workloads  # noqa: E402


def quiet(*_):
    pass


def measure(workload, trace, seed=0):
    return run.measure("tiny", workload, seed, 0, trace, emit=quiet)


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_every_metric_on_every_workload(name):
    tiny = workloads.TINY[name]
    timed = measure(tiny, False)
    assert timed["correct"] and timed["failed"] == 0
    assert timed["attempted"] == run.MIN_CALLS
    assert [k for k, _ in run.END_TO_END] == list(timed["metrics"])
    for key, m in timed["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0.0, key

    traced = measure(tiny, True)
    assert traced["correct"] and traced["failed"] == 0
    assert traced["attempted"] == 1 + run.MIN_CALLS
    assert [k for k, _ in run.PER_LAYER] == list(traced["metrics"])
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["schemes.steps"] > 0 and values["linalg.solves"] > 0
    assert values["fem.system_nnz"] > 0 and values["characteristics.images"] > 0
    assert values["src.lines"] > 0
    # the dual scheme reads only forward images, so every backward one is unused
    if name in ("bell-dcgm-400", "heston-desk"):
        assert (values["characteristics.unused_projections"]
                == values["characteristics.projected.bwd"] > 0)
    spans = traced["spans"]
    assert {s[4] for s in spans} == {0, 1, 2}
    if name == "heston-desk":
        assert values["heston.price_s"] > 0.0 and values["heston.min_u"] != 0.0
    if name == "compare-200":
        assert all(values[f"turn_s.{s}"] > 0.0 for s in run.SCHEMES)
        assert values["linalg.bicgstab_s"] > 0.0


def test_every_wrapped_function_is_seen():
    """Each layer boundary in ``probes.FULL`` records spans on some workload,
    so no layer's time silently falls into its caller's self time."""
    seen = set()
    for tiny in workloads.TINY.values():
        tracer = probes.Tracer()
        with tracer.installed(probes.FULL):
            with tracer.span(probes.ROOT):
                tiny.run(0)
        seen |= {probes.base_name(s[0]) for s in tracer.spans}
        if tiny is workloads.TINY["compare-200"]:
            segments = probes.scheme_segments(tracer.spans)
            assert [s[0] for s in segments] == list(run.SCHEMES)
            for label, setup, intervals, turn in segments:
                assert 0.0 < setup + sum(intervals) <= turn
    expected = {f"{m}.{f}" for m, f, _, _ in probes.FULL} | {probes.ROOT}
    assert seen == expected
    assert seen <= set(probes.SELF_TIME_METRIC)


def test_wrappers_are_removed_afterwards():
    from dcgm import bench, mesh, schemes
    before = (bench.run_one_turn, mesh.locate_point, schemes.dcgm_step, bench.dcgm_step)
    with probes.Tracer().installed(probes.FULL):
        assert bench.dcgm_step is schemes.dcgm_step is not before[2]
    assert (bench.run_one_turn, mesh.locate_point, schemes.dcgm_step,
            bench.dcgm_step) == before


@dataclass(frozen=True)
class Faulty:
    """A tiny workload with an injected fault on chosen calls."""

    inner: object
    fault: str
    calls: list

    def run(self, seed):
        self.calls.append(seed)
        out = self.inner.run(seed)
        if self.fault == "check":
            out.failures.append("injected check failure")
        elif self.fault == "raise" and len(self.calls) == 2:
            raise RuntimeError("injected error")
        elif self.fault == "drift" and len(self.calls) == 2:
            out.finals[0] = out.finals[0] + 1e-9
        return out


def faulty(fault):
    return Faulty(workloads.TINY["bell-dcgm-400"], fault, [])


@pytest.mark.parametrize("trace", [False, True])
def test_failed_check_counts_as_failed(trace):
    result = measure(faulty("check"), trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_raising_call_counts_as_failed():
    result = measure(faulty("raise"), False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["wall_s"]["value"] > 0.0


def test_output_that_changes_between_calls_fails():
    result = measure(faulty("drift"), False)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_bell_reference_check_catches_a_wrong_answer(monkeypatch):
    monkeypatch.setitem(workloads.REFERENCE_BELL_L2, 60, 1.0)
    result = measure(workloads.TINY["bell-dcgm-400"], False)
    assert result["failed"] == result["attempted"]
    # the reference belongs to seed 0 only
    assert measure(workloads.TINY["bell-dcgm-400"], False, seed=4)["correct"]


def test_seeded_inputs():
    assert workloads.seeded_inputs(0) == ((0.35, 0.0), 50.0)
    for seed in (1, 2, 99):
        (x, y), mu = workloads.seeded_inputs(seed)
        assert math.hypot(x, y) == pytest.approx(0.35)
        assert 45.0 <= mu <= 55.0
        assert workloads.seeded_inputs(seed) == ((x, y), mu)
    assert workloads.seeded_inputs(1) != workloads.seeded_inputs(2)
    with pytest.raises(ValueError):
        workloads.seeded_inputs(-1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(workloads.TINY) == set(workloads.WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
