"""Spans around calls into the dcgm package, recorded from outside it.

A :class:`Tracer` replaces public functions of the package with wrappers
that record one span per call: name, start, end, parent span and run id.
Every module of the package that imported a function by name gets the
wrapper too, so calls between modules are seen; the originals come back
when the ``installed`` block ends.  Spans stay in memory until the harness
writes them out.

Two sets of wrapped functions exist.  ``LIGHT`` holds only the scheme
runners and the step functions: that is what the timed runs need for
set-up time and step latency, about one span per time step.  ``FULL`` adds
one wrapper per layer boundary for the traced run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

STEP_FUNCTIONS = ("dcgm_step", "pcgm_step", "supg_step", "centered_step")
ROOT = "workload"


def _scheme_label(args, kwargs):
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return f"[{scheme.lower()}]"


# observers read counts from arguments and results, after the span has ended


def _count_traced(tracer, args, kwargs, traced):
    c = tracer.counts
    c["characteristics.images"] += 2 * traced.n_points
    c["characteristics.projected.fwd"] += int(traced.fwd_projected.sum())
    c["characteristics.projected.bwd"] += int(traced.bwd_projected.sum())


def _note_read(tracer, traced, side):
    """Remember which images of a traced point set a scheme reads."""
    tracer.traced[id(traced)] = traced
    tracer.reads.add((id(traced), side))


def _read_dcgm(tracer, args, kwargs, out):
    op = args[0] if args else kwargs["op"]
    _note_read(tracer, op.traced, "fwd" if op.dual else "bwd")


def _read_pcgm(tracer, args, kwargs, out):
    op = args[4] if len(args) > 4 else kwargs.get("op")
    if op is not None:
        _note_read(tracer, op.traced, "bwd")


def _count_solve(tracer, args, kwargs, out):
    matrix = args[0] if args else kwargs["A"]
    if id(matrix) not in tracer.matrices:
        tracer.matrices[id(matrix)] = matrix
        tracer.counts["fem.system_nnz"] += matrix.nnz
    report = out[1]
    c = tracer.counts
    c["linalg.solves"] += 1
    c["linalg.iters"] += report.iterations
    c["linalg.unconverged"] += int(not report.converged)
    tracer.residual_max = max(tracer.residual_max, report.residual)


# (module, function, observer, span label) per wrapped function; the light
# set has no observers, so it keeps no object alive longer than the library
RUNNERS = (
    ("bench", "run_one_turn", None, _scheme_label),
    ("heston", "heston_run", None, None),
)

LIGHT = RUNNERS + tuple(("schemes", f, None, None) for f in STEP_FUNCTIONS)

FULL = RUNNERS + (
    ("schemes", "dcgm_step", _read_dcgm, None),
    ("schemes", "pcgm_step", _read_pcgm, None),
    ("schemes", "supg_step", None, None),
    ("schemes", "centered_step", None, None),
    ("mesh", "build_disk_mesh", None, None),
    ("mesh", "build_rect_mesh", None, None),
    ("mesh", "project_to_domain", None, None),
    ("mesh", "locate_point", None, None),
    ("characteristics", "build_traced_points", _count_traced, None),
    ("fem", "assemble_mass", None, None),
    ("fem", "assemble_stiffness", None, None),
    ("fem", "integral", None, None),
    ("fem", "nu_dt_norm", None, None),
    ("fem", "l2_error", None, None),
    ("schemes", "dcgm_prepare", None, None),
    ("schemes", "supg_prepare", None, None),
    ("schemes", "centered_prepare", None, None),
    ("linalg", "cg_solve", _count_solve, None),
    ("linalg", "bicgstab_solve", _count_solve, None),
    ("heston", "assemble_tensor_stiffness", None, None),
    ("heston", "put_price", None, None),
    ("heston", "boundary_mass", None, None),
)

# per-layer time metric that each span's self time is added to
SELF_TIME_METRIC = {
    ROOT: "bench.self_s",
    "bench.run_one_turn": "bench.self_s",
    "heston.heston_run": "heston.run_self_s",
    "schemes.dcgm_step": "schemes.step_s",
    "schemes.pcgm_step": "schemes.step_s",
    "schemes.supg_step": "schemes.step_s",
    "schemes.centered_step": "schemes.step_s",
    "mesh.build_disk_mesh": "mesh.build_s",
    "mesh.build_rect_mesh": "mesh.build_s",
    "mesh.project_to_domain": "mesh.project_s",
    "mesh.locate_point": "mesh.locate_s",
    "characteristics.build_traced_points": "characteristics.trace_s",
    "fem.assemble_mass": "fem.assemble_s",
    "fem.assemble_stiffness": "fem.assemble_s",
    "fem.integral": "fem.diag_s",
    "fem.nu_dt_norm": "fem.diag_s",
    "fem.l2_error": "fem.diag_s",
    "schemes.dcgm_prepare": "schemes.prepare_s",
    "schemes.supg_prepare": "schemes.prepare_s",
    "schemes.centered_prepare": "schemes.prepare_s",
    "linalg.cg_solve": "linalg.cg_s",
    "linalg.bicgstab_solve": "linalg.bicgstab_s",
    "heston.assemble_tensor_stiffness": "heston.assemble_s",
    "heston.put_price": "heston.price_s",
    "heston.boundary_mass": "heston.boundary_mass_s",
}


class Tracer:
    """In-memory span recorder for one workload call.

    A span is the list ``[name, start, end, parent, run]``; ``parent`` is
    the index of the enclosing span, -1 for the root.
    """

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.residual_max = 0.0
        # objects seen by observers, keyed by id; holding them keeps ids unique
        self.traced: dict[int, object] = {}
        self.matrices: dict[int, object] = {}
        self.reads: set[tuple[int, str]] = set()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, observe=None, label=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name + label(args, kwargs) if label else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Swap in wrappers for ``targets`` in every loaded dcgm module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dcgm" or n.startswith("dcgm."))]
        undo = []
        try:
            for module_name, func_name, observe, label in targets:
                original = getattr(sys.modules[f"dcgm.{module_name}"], func_name)
                wrapper = self.wrap(f"{module_name}.{func_name}", original,
                                    observe, label)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def release(self) -> None:
        """Drop the objects held for identity checks."""
        self.traced.clear()
        self.matrices.clear()


def base_name(name: str) -> str:
    return name.split("[", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time child spans cover.

    Children run one after another inside their parent, so the covered
    time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def scheme_segments(spans):
    """Per scheme runner span: (label, set-up seconds, step intervals, span
    duration).

    Set-up runs from the runner's start to its first step's start.  A step
    interval runs from one step's return to the next one's; the first runs
    from the first step's start.
    """
    steps = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and base_name(name).split(".")[-1] in STEP_FUNCTIONS:
            steps[parent].append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        if base_name(name) not in ("bench.run_one_turn", "heston.heston_run"):
            continue
        own = steps.get(i, [])
        if not own:
            continue
        label = name[name.find("[") + 1:-1] if "[" in name else "heston"
        intervals = [own[0][1] - own[0][0]]
        intervals += [b[1] - a[1] for a, b in zip(own, own[1:])]
        out.append((label, own[0][0] - start, intervals, end - start))
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced call."""
    spans = tracer.spans
    out: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        out[SELF_TIME_METRIC[base_name(name)]] += seconds
    calls: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        calls[base_name(name)] += 1
    out["mesh.project_calls"] = calls["mesh.project_to_domain"]
    out["mesh.locate_point_calls"] = calls["mesh.locate_point"]
    out["schemes.steps"] = sum(calls[f"schemes.{f}"] for f in STEP_FUNCTIONS)
    for key, value in tracer.counts.items():
        out[key] = value
    solves = tracer.counts["linalg.solves"]
    out["linalg.iters_per_solve"] = (
        tracer.counts["linalg.iters"] / solves if solves else 0.0)
    out["linalg.residual_max"] = tracer.residual_max
    used = sum(
        int(getattr(traced, f"{side}_projected").sum())
        for key, traced in tracer.traced.items()
        for side in ("fwd", "bwd") if (key, side) in tracer.reads)
    out["characteristics.unused_projections"] = (
        tracer.counts["characteristics.projected.fwd"]
        + tracer.counts["characteristics.projected.bwd"] - used)
    return dict(out)
