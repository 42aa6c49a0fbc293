"""Benchmark of the dcgm package: whole runs timed end to end, and a traced
run that splits the time over the package's layers.

    python3 perfbench/run.py --workload bell-dcgm-400 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the root of a checkout; the package is imported from its ``src/``.
Each run is a closed loop in one process: one caller makes one workload call
at a time until ``--seconds`` are used, and at least two calls.  Every call's
output is checked (see ``workloads.py``), a call that raises or fails a check
counts as failed, and calls with the same seed must give bit-identical final
coefficients and identical counts.

``--trace 0`` reports the end-to-end metrics with only the scheme runners
and step functions wrapped: the wall time of a call and its set-up time
(each scheme runner's start to its first step, summed over the schemes);
the p50 and p90 of the time between step returns, each step's time the
fastest over the calls, summed over the schemes; the least wall and
set-up time over the calls; and the peak RSS of the process, which runs
with the C library's default allocator settings.  Each call's values go
to ``.perfbench-out/``.  ``failed_frac`` is printed, and carried by
``attempted`` and ``failed`` in the result.

``--trace 1`` makes one such call and then traced calls that wrap every
layer boundary (``probes.FULL``); it reports per-layer self times and
counts, the overhead of tracing, and writes the spans to
``.perfbench-out/``.  ``--workload all`` runs every workload, untraced
then traced, each in its own process, one at a time.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# pinned before numpy loads: each run is one single-threaded process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_CALLS = 2


def _import_package():
    """Import dcgm from this checkout's sources, never from elsewhere."""
    if not (SRC / "dcgm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'dcgm'}")
    sys.path.insert(0, str(SRC))
    import dcgm

    if Path(dcgm.__file__).resolve().parent != (SRC / "dcgm").resolve():
        sys.exit(f"perfbench: imported dcgm from {dcgm.__file__}, not {SRC}")
    return dcgm


dcgm = _import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of what a run reports; BENCHMARK.json lists the same names
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("bench.self_s", "s"),
    ("mesh.build_s", "s"),
    ("mesh.project_s", "s"),
    ("mesh.locate_s", "s"),
    ("mesh.project_calls", "count"),
    ("mesh.locate_point_calls", "count"),
    ("characteristics.trace_s", "s"),
    ("characteristics.images", "count"),
    ("characteristics.projected.fwd", "count"),
    ("characteristics.projected.bwd", "count"),
    ("characteristics.unused_projections", "count"),
    ("fem.assemble_s", "s"),
    ("fem.diag_s", "s"),
    ("fem.system_nnz", "count"),
    ("schemes.prepare_s", "s"),
    ("schemes.step_s", "s"),
    ("schemes.steps", "count"),
    ("linalg.cg_s", "s"),
    ("linalg.bicgstab_s", "s"),
    ("linalg.solves", "count"),
    ("linalg.iters", "count"),
    ("linalg.iters_per_solve", "count"),
    ("linalg.unconverged", "count"),
    ("linalg.residual_max", "norm"),
    ("heston.run_self_s", "s"),
    ("heston.assemble_s", "s"),
    ("heston.price_s", "s"),
    ("heston.boundary_mass_s", "s"),
    ("heston.min_u", "density"),
    ("turn_s.dcgm", "s"),
    ("turn_s.pcgm", "s"),
    ("turn_s.supg", "s"),
    ("turn_s.centered", "s"),
    ("src.lines", "count"),
)
SCHEMES = ("dcgm", "pcgm", "supg", "centered")
# per-layer counts that must repeat exactly between traced calls
EXACT_COUNTS = (
    "mesh.project_calls", "mesh.locate_point_calls", "characteristics.images",
    "characteristics.projected.fwd", "characteristics.projected.bwd",
    "characteristics.unused_projections", "fem.system_nnz", "schemes.steps",
    "linalg.solves", "linalg.iters", "linalg.unconverged",
)


@dataclass
class Call:
    """One workload call: its spans, its outcome, and why it failed."""

    tracer: probes.Tracer
    outcome: workloads.Outcome | None
    failures: list[str]

    @property
    def wall(self) -> float:
        root = self.tracer.spans[0]
        return root[2] - root[1]


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "dcgm": dcgm.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def one_call(workload, seed: int, targets, run_id: int) -> Call:
    tracer = probes.Tracer(run_id)
    outcome = None
    failures: list[str] = []
    with tracer.installed(targets):
        with tracer.span(probes.ROOT):
            try:
                outcome = workload.run(seed)
            except Exception:  # a raising call is a failed call, not a crash
                failures.append("raised:\n" + traceback.format_exc())
    if outcome is not None:
        failures += outcome.failures
    return Call(tracer, outcome, failures)


def _same_outputs(ref: workloads.Outcome, out: workloads.Outcome) -> list[str]:
    failures = []
    if len(ref.finals) != len(out.finals) or any(
            a.shape != b.shape or a.tobytes() != b.tobytes()
            for a, b in zip(ref.finals, out.finals)):
        failures.append("final coefficients differ from the first call's")
    if ref.counts != out.counts:
        failures.append(f"counts {out.counts} differ from the first call's {ref.counts}")
    return failures


def _loop(workload, seed: int, seconds: float, targets, calls: list[Call],
          t0: float, min_calls: int, max_calls: int | None = None) -> None:
    """Call the workload until ``seconds`` since ``t0`` would be exceeded by
    one more call, at least ``min_calls`` and at most ``max_calls`` times."""
    made = 0
    while max_calls is None or made < max_calls:
        call = one_call(workload, seed, targets, len(calls))
        ref = next((c.outcome for c in calls if c.outcome is not None), None)
        if ref is not None and call.outcome is not None:
            call.failures += _same_outputs(ref, call.outcome)
        calls.append(call)
        made += 1
        elapsed = time.perf_counter() - t0
        if made >= min_calls and elapsed * (1.0 + 1.0 / len(calls)) > seconds:
            return


def _step_percentile(spans, q: float) -> float:
    """Step-interval percentile of one call in ms, summed over its schemes."""
    return 1e3 * sum(float(np.percentile(seg[2], q))
                     for seg in probes.scheme_segments(spans))


def per_call_series(done: list[Call]) -> dict[str, list[float]]:
    """The timed quantities of each call that returned."""
    return {
        "wall_s": [c.wall for c in done],
        "setup_s": [sum(s[1] for s in probes.scheme_segments(c.tracer.spans))
                    for c in done],
        "step_ms_p50": [_step_percentile(c.tracer.spans, 50) for c in done],
        "step_ms_p90": [_step_percentile(c.tracer.spans, 90) for c in done],
    }


def fastest_step_percentiles(done: list[Call]) -> dict[str, float]:
    """Step-time p50 and p90 in ms, summed over the schemes.

    Every call repeats the same steps, so each step's time is its fastest
    over the calls, and the percentiles are taken over the steps.  A burst
    of load from outside that slows some steps of one call then moves them
    little; a change that slows a step in every call moves them in full.
    """
    by_scheme = defaultdict(list)
    for c in done:
        for label, _, intervals, _ in probes.scheme_segments(c.tracer.spans):
            by_scheme[label].append(intervals)
    out = {"step_ms_p50": 0.0, "step_ms_p90": 0.0}
    for runs in by_scheme.values():
        n = min(map(len, runs))  # step counts differ only in a failed call
        fastest = np.min([r[:n] for r in runs], axis=0)
        out["step_ms_p50"] += 1e3 * float(np.percentile(fastest, 50))
        out["step_ms_p90"] += 1e3 * float(np.percentile(fastest, 90))
    return out


def end_to_end(calls: list[Call]) -> tuple[dict, dict, dict]:
    """End-to-end metrics over the calls that returned, with their sample
    counts and the per-call series; and the peak RSS of the process.

    Wall time and set-up time are each their minimum over the calls: load
    from outside the process only ever adds time, so the minimum is the
    statistic it moves least.  Each call sets up afresh.
    """
    done = [c for c in calls if c.outcome is not None]
    series = per_call_series(done)
    metrics = {"wall_s": min(series["wall_s"]), "setup_s": min(series["setup_s"])}
    metrics.update(fastest_step_percentiles(done))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_steps = " + ".join(f"{len(s[2])} {s[0]}"
                         for s in probes.scheme_segments(done[0].tracer.spans))
    steps = f"over {n_steps} steps, each the fastest of {len(done)} calls"
    per_call = f"minimum of {len(done)} calls"
    samples = {"wall_s": per_call, "setup_s": per_call, "step_ms_p50": steps,
               "step_ms_p90": steps, "peak_rss_mb": "whole process"}
    return metrics, samples, series


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "dcgm").glob("*.py"))


def per_layer(untraced: Call, traced: list[Call]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians of the traced calls, counts from the first.

    Returns the metrics and the failures found on the way: counts that do
    not repeat, and self times that do not add up to the traced wall time.
    """
    failures = []
    layers = []
    for call in traced:
        layers.append(probes.layer_metrics(call.tracer))
        call.tracer.release()
    first = layers[0]
    for m in layers[1:]:
        for key in EXACT_COUNTS:
            if m.get(key, 0) != first.get(key, 0):
                failures.append(f"{key} is {m.get(key, 0)} in one traced call and "
                                f"{first.get(key, 0)} in another")
    metrics = {}
    for name, unit in PER_LAYER:
        if name in EXACT_COUNTS:
            metrics[name] = first.get(name, 0)
        else:
            metrics[name] = statistics.median(m.get(name, 0.0) for m in layers)
    metrics["trace.wall_s"] = statistics.median(c.wall for c in traced)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced.wall - 1.0
    for seg in probes.scheme_segments(untraced.tracer.spans):
        if seg[0] in SCHEMES:
            metrics[f"turn_s.{seg[0]}"] = seg[3]
    for name in ("turn_s." + s for s in SCHEMES):
        metrics.setdefault(name, 0.0)
    metrics["heston.min_u"] = traced[0].outcome.values.get("min_u", 0.0)
    metrics["src.lines"] = source_lines()
    return metrics, failures


def measure(name: str, workload, seed: int, seconds: float, trace: bool,
            warmup=None, emit=print) -> dict:
    """Run one workload as set out in the module docstring; returns the
    result object and prints the metrics by name with their units."""
    if warmup is not None:
        try:  # loads lazily imported code; its errors show in the timed calls
            warmup.run(seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
    calls: list[Call] = []
    t0 = time.perf_counter()
    if trace:
        _loop(workload, seed, seconds, probes.LIGHT, calls, t0, 1, max_calls=1)
        _loop(workload, seed, seconds, probes.FULL, calls, t0, MIN_CALLS)
    else:
        _loop(workload, seed, seconds, probes.LIGHT, calls, t0, MIN_CALLS)
    failed = [c for c in calls if c.failures]
    if all(c.outcome is None for c in calls):
        for i, c in enumerate(calls):
            print(f"call {i}: " + "; ".join(c.failures), file=sys.stderr)
        raise RuntimeError(f"{name}: every call raised; nothing to measure")
    if trace:
        traced = [c for c in calls[1:] if c.outcome is not None]
        if calls[0].outcome is None or not traced:
            raise RuntimeError(f"{name}: the untraced or every traced call raised")
        metrics, extra = per_layer(calls[0], traced)
        if extra:
            traced[0].failures += extra
            failed = [c for c in calls if c.failures]
        units = dict(PER_LAYER)
        samples = {"trace.wall_s": f"median of {len(traced)} traced calls"}
        series = None
    else:
        metrics, samples, series = end_to_end(calls)
        units = dict(END_TO_END)
    for i, c in enumerate(calls):
        for failure in c.failures:
            print(f"call {i} failed: {failure}", file=sys.stderr)
    emit(f"workload {name} seed {seed} trace {int(trace)}: {len(calls)} calls "
         f"in {time.perf_counter() - t0:.1f} s")
    for key, unit in units.items():
        note = f"  ({samples[key]})" if key in samples else ""
        emit(f"  {key} = {metrics[key]:.6g} {unit}{note}")
    emit(f"  failed_frac = {len(failed) / len(calls):.6g} ({len(failed)} of {len(calls)})")
    return {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "spans": [s for c in calls for s in c.tracer.spans] if trace else None,
        "per_call": series,
    }


def write_out(result: dict, env: dict) -> None:
    """Keep the result, its environment, the per-call values of the timed
    metrics and, when traced, the spans."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    spans = result.pop("spans")
    per_call = result.pop("per_call")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "result": result, "per_call": per_call}, fh, indent=1)
    if spans is not None:
        t0 = spans[0][1]
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, run in spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "run": run}) + "\n")


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, one process at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit code {proc.returncode}", flush=True)
                total["correct"] = False
                continue
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                total["metrics"][f"{name}:{key}"] = value
    print(f"all workloads: failed_frac = {total['failed'] / max(1, total['attempted']):.6g}"
          f" ({total['failed']} of {total['attempted']})")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env), flush=True)
    result = measure(args.workload, workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), warmup=workloads.TINY[args.workload])
    write_out(result, env)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
