"""Span tracing of codim2flow from outside the package.

A Tracer replaces the public functions of every codim2flow module with
timing wrappers, under the defining module's name and under every name an
importing module holds for the same function (so `flow.recover_geometry`
and `mesh.recover_geometry` both record spans called `mesh.recover_geometry`).
Spans are kept in memory as (name, start, end, parent, run) and written out
at the end; `uninstall` puts every original back.

Per-layer statistics derive from the spans: self time is a span's duration
minus the part of it its children cover, and a percentile is reported only
when at least ten samples lie beyond it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("builders", "mesh", "curvature", "flow", "cli", "certifier", "identities", "gradients")
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None   # index into Tracer.spans
    run: str


class Tracer:
    """Records nested spans around wrapped calls; one run id at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.run = "main"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._after: dict[str, object] = {}

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(Span(name, time.perf_counter(), None, parent, tracer.run))
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx].end = time.perf_counter()
                tracer._stack.pop()
            hook = tracer._after.get(name)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def after(self, name: str, hook) -> None:
        """Call hook(counters, args, kwargs, result) after each `name` span."""
        self._after[name] = hook

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        pkg = importlib.import_module("codim2flow")
        modules = {layer: importlib.import_module(f"codim2flow.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        mesh = modules["mesh"]
        wrappers[mesh._build_topology] = self.wrap("mesh.topology", mesh._build_topology)
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        self._patch(mesh.SurfaceMesh, "triangle_areas",
                    self.wrap("mesh.triangle_areas", mesh.SurfaceMesh.triangle_areas))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.run}\n")


# ---------------------------------------------------------------------------
# statistics


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def samples_beyond(n: int, q: float) -> int:
    """Samples above the q-th percentile of n samples."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


def percentile(samples, q: float):
    """The q-th percentile, or None unless at least ten samples lie beyond it.

    The median is always reported when there is a sample.
    """
    if not len(samples) or (q != 50 and samples_beyond(len(samples), q) < MIN_BEYOND):
        return None
    return float(np.percentile(np.asarray(samples, dtype=float), q))


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)

    def ms(self, q: float) -> float | None:
        v = percentile(self.durations, q)
        return None if v is None else 1e3 * v


def layer_stats(spans: list[Span], run: str) -> dict[str, LayerStats]:
    """Per-name call count, inclusive time, self time and durations in one run."""
    selfs = self_times(spans)
    out = defaultdict(LayerStats)
    for s, st in zip(spans, selfs):
        if s.run != run:
            continue
        ls = out[s.name]
        ls.calls += 1
        ls.total_s += s.end - s.start
        ls.self_s += st
        ls.durations.append(s.end - s.start)
    return out


def outermost_total(spans: list[Span], run: str, prefix: str) -> float:
    """Time in spans named prefix* that have no ancestor of the same prefix."""
    total = 0.0
    for s in spans:
        if s.run != run or not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and not spans[p].name.startswith(prefix):
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


def time_under(spans: list[Span], run: str, name: str, ancestor: str) -> float:
    """Inclusive time of `name` spans that run inside an `ancestor` span."""
    total = 0.0
    for s in spans:
        if s.run != run or s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != ancestor:
            p = spans[p].parent
        if p is not None:
            total += s.end - s.start
    return total


# ---------------------------------------------------------------------------
# codim2flow counters and the per-layer metric table


def _count_step(counters, args, kwargs, result) -> None:
    """Accepted step plus the halvings inferred from the returned dt."""
    mesh = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    dt = result[1]
    max_a2 = float(np.max(mesh.frame_h ** 2 / 2
                          + 2 * (mesh.frame_a ** 2 + mesh.frame_b ** 2 + mesh.frame_c ** 2)))
    nominal = cfg.cfl * min(float(np.min(mesh.vertex_area)), 1.0 / max_a2)
    counters["flow.steps"] += 1
    counters["flow.step_attempts"] += 1 + max(0, round(math.log2(nominal / dt)))


def install_counters(tracer: Tracer) -> None:
    tracer.after("flow.step_mcf", _count_step)
    tracer.after("certifier.certify_negativity",
                 lambda c, a, k, r: c.update({"certifier.samples": r.sample_count}))
    tracer.after("certifier.threshold_scan",
                 lambda c, a, k, r: c.update({"certifier.threshold_scan.evaluations":
                                              r.evaluations}))


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, dict]:
    """Every per-layer metric by name, plus a note (base, sample count) for some.

    Metrics that move setup_s come from the "setup" run; the rest from "solve".
    """
    spans, counters = tracer.spans, tracer.counters
    solve, setup = layer_stats(spans, "solve"), layer_stats(spans, "setup")
    metrics, notes = {}, {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        if note:
            notes[name] = note

    def timing(prefix, stats, q):
        n = len(stats.durations)
        v = stats.ms(q)
        put(f"{prefix}.ms_p{q}", 0.0 if v is None else v, "ms",
            f"n = {n}, {samples_beyond(n, q)} beyond" + ("" if v is not None else "; n/a"))

    rg = solve["mesh.recover_geometry"]
    put("mesh.recover_geometry.calls", rg.calls, "count")
    put("mesh.recover_geometry.self_s", rg.self_s, "s")
    timing("mesh.recover_geometry", rg, 50)
    in_flow = time_under(spans, "solve", "mesh.recover_geometry", "flow.run_flow")
    run_flow = solve["flow.run_flow"].total_s
    put("mesh.recover_geometry.run_flow_share", in_flow / run_flow if run_flow else 0.0,
        "ratio", f"{in_flow:.3f} s of run_flow {run_flow:.3f} s")
    steps = counters["flow.steps"]
    ta = solve["mesh.triangle_areas"].calls
    put("mesh.triangle_areas.calls", ta, "count",
        f"{ta / steps:.3f} per accepted step, base {steps} steps" if steps else "")
    for name in ("mesh.shape_gradient_norm2", "mesh.vertex_gradients", "mesh.write_off4"):
        put(f"{name}.self_s", solve[name].self_s, "s")
    put("mesh.topology_s", setup["mesh.topology"].total_s, "s", "set-up run")

    sff = solve["curvature.special_frame_fields"]
    put("curvature.special_frame_fields.calls", sff.calls, "count")
    put("curvature.special_frame_fields.self_s", sff.self_s, "s")
    put("curvature.field_scalars.self_s", solve["curvature.field_scalars"].self_s, "s")

    st = solve["flow.step_mcf"]
    put("flow.step_mcf.calls", st.calls, "count")
    put("flow.step_mcf.self_s", st.self_s, "s")
    timing("flow.step_mcf", st, 50)
    timing("flow.step_mcf", st, 95)
    attempts = counters["flow.step_attempts"]
    put("flow.steps", steps, "count")
    put("flow.step_attempts", attempts, "count")
    put("flow.accept_ratio", steps / attempts if attempts else 0.0, "ratio",
        f"{steps} steps / {attempts} attempts" if attempts else "n/a: no steps")
    for name in ("flow.monitors", "flow.poincare_check"):
        put(f"{name}.calls", solve[name].calls, "count")
        put(f"{name}.self_s", solve[name].self_s, "s")
    put("flow.type_i_rescale.self_s", solve["flow.type_i_rescale"].self_s, "s")

    put("cli.run_scenario.self_s", solve["cli.run_scenario"].self_s, "s")
    put("cli.bytes_written", counters["cli.bytes_written"], "bytes")
    put("cli.files_written", counters["cli.files_written"], "count")

    cn = solve["certifier.certify_negativity"]
    put("certifier.certify_negativity.calls", cn.calls, "count")
    put("certifier.certify_negativity.self_s", cn.self_s, "s")
    put("certifier.samples", counters["certifier.samples"], "count")
    put("certifier.threshold_scan.evaluations",
        counters["certifier.threshold_scan.evaluations"], "count")
    put("certifier.threshold_scan.self_s", solve["certifier.threshold_scan"].self_s, "s")
    put("certifier.epsilon_z_scan.self_s", setup["certifier.epsilon_z_scan"].self_s, "s",
        "set-up run")

    put("identities.identity_report.self_s", solve["identities.identity_report"].self_s, "s")
    put("gradients.sweep_inequalities.self_s", solve["gradients.sweep_inequalities"].self_s, "s")
    put("builders.build_s", outermost_total(spans, "setup", "builders."), "s", "set-up run")

    put("process.minor_faults", counters["process.minor_faults"], "count", "traced solve")
    put("process.sys_s", counters["process.sys_s"], "s", "kernel time in the traced solve")
    put("tracing.overhead_s", overhead_s, "s", "traced solve minus untraced solve")
    put("tracing.spans", len(spans), "count")
    return metrics, notes
