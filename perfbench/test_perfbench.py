"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "solve"),
        Span("a", 1.0, 4.0, 0, "solve"),
        Span("b", 3.0, 6.0, 0, "solve"),       # overlaps a: union [1, 6]
        Span("a.leaf", 2.0, 3.0, 1, "solve"),
        Span("late", 9.0, 12.0, 0, "solve"),   # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])
    stats = tracing.layer_stats(spans, "solve")
    assert stats["root"].calls == 1 and stats["root"].self_s == pytest.approx(4.0)
    assert stats["a"].total_s == pytest.approx(3.0)
    assert tracing.layer_stats(spans, "setup") == {}


def test_outermost_and_nested_totals():
    spans = [
        Span("builders.icosphere", 0.0, 4.0, None, "setup"),
        Span("builders.unit_sphere_mesh", 0.5, 2.0, 0, "setup"),
        Span("flow.run_flow", 10.0, 20.0, None, "solve"),
        Span("flow.step_mcf", 11.0, 15.0, 2, "solve"),
        Span("mesh.recover_geometry", 12.0, 14.0, 3, "solve"),
        Span("mesh.recover_geometry", 21.0, 22.0, None, "solve"),
    ]
    assert tracing.outermost_total(spans, "setup", "builders.") == pytest.approx(4.0)
    assert tracing.time_under(spans, "solve", "mesh.recover_geometry",
                              "flow.run_flow") == pytest.approx(2.0)


def test_percentile_needs_ten_samples_beyond():
    assert tracing.samples_beyond(200, 95) == 10
    assert tracing.samples_beyond(199, 95) == 9
    assert tracing.percentile(list(range(199)), 95) is None
    assert tracing.percentile(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))
    assert tracing.percentile([3.0], 50) == 3.0        # the median is always reported
    assert tracing.percentile([], 50) is None
    assert tracing.percentile(list(range(19)), 50) == 9.0


def test_failed_check_counts_as_failed_operation(capsys):
    outcomes = iter([[], ["forced failure"], []])
    times, failed, _ = run.run_operations(lambda: {}, lambda out: next(outcomes),
                                          lambda out: {}, seconds=0.0)
    assert (len(times), failed) == (1, 0)
    times, failed, _ = run.run_operations(lambda: {}, lambda out: next(outcomes),
                                          lambda out: {}, seconds=0.0)
    assert (len(times), failed) == (1, 1)
    assert "forced failure" in capsys.readouterr().err


def test_no_solve_starts_that_would_overrun_the_run():
    now = [0.0]

    def solve():
        now[0] += 4.0            # every solve takes 4 s on this clock
        return {}
    times, failed, _ = run.run_operations(solve, lambda out: [], lambda out: {},
                                          seconds=10.0, clock=lambda: now[0])
    assert (times, failed) == ([4.0, 4.0], 0)     # a third would end at 12 s
    times, _, _ = run.run_operations(solve, lambda out: [], lambda out: {},
                                     seconds=1.0, clock=lambda: now[0])
    assert times == [4.0]                         # at least one solve


def test_raising_solve_counts_as_failed_operation(capsys):
    def boom():
        raise RuntimeError("solver blew up")
    times, failed, counts = run.run_operations(boom, lambda out: [], lambda out: {"x": 1},
                                               seconds=0.0)
    assert (len(times), failed, counts) == (1, 1, {})
    assert "solver blew up" in capsys.readouterr().err


def test_workload_checks_reject_wrong_outputs():
    inp = SimpleNamespace()
    assert workloads.sphere_check(inp, {"median_h": 2.0, "worst_rel_err": 3e-5, "steps": 9}) == []
    assert workloads.sphere_check(inp, {"median_h": 2.0, "worst_rel_err": 0.02, "steps": 9})
    assert workloads.sphere_check(inp, {"median_h": 2.1, "worst_rel_err": 0.0, "steps": 9})
    assert workloads.pinched_check(inp, {"rc": 3}) == ["exit code 3"]


def test_true_threshold_and_rotation():
    assert workloads.true_k_star() == pytest.approx(0.7030507, abs=1e-7)
    q = workloads.seeded_rotation(5)
    assert np.allclose(q @ q.T, np.eye(4)) and np.linalg.det(q) == pytest.approx(1.0)
    assert np.array_equal(q, workloads.seeded_rotation(5))
    assert not np.allclose(q, workloads.seeded_rotation(6))


def test_step_attempts_inferred_from_halved_dt():
    mesh = SimpleNamespace(frame_h=np.array([2.0]), frame_a=np.zeros(1), frame_b=np.zeros(1),
                           frame_c=np.zeros(1), vertex_area=np.array([0.01, 0.02]))
    cfg = SimpleNamespace(cfl=0.2)
    nominal = 0.2 * min(0.01, 1.0 / 2.0)
    counters = Counter()
    tracing._count_step(counters, (mesh, cfg), {}, (None, nominal))
    tracing._count_step(counters, (mesh, cfg), {}, (None, nominal / 8))
    assert counters["flow.steps"] == 2 and counters["flow.step_attempts"] == 5


def test_tracer_wraps_every_import_name_and_restores():
    from codim2flow import builders, flow, mesh
    originals = (mesh.recover_geometry, flow.recover_geometry,
                 mesh.SurfaceMesh.triangle_areas, mesh._build_topology)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert flow.recover_geometry is mesh.recover_geometry
        assert flow.recover_geometry is not originals[0]
        tracer.run = "solve"
        flow.recover_geometry(builders.icosphere(1.0, 2))
    finally:
        tracer.uninstall()
    assert (mesh.recover_geometry, flow.recover_geometry,
            mesh.SurfaceMesh.triangle_areas, mesh._build_topology) == originals
    names = Counter(s.name for s in tracer.spans)
    assert names["mesh.recover_geometry"] == 1
    assert names["builders.icosphere"] == 1 and names["mesh.topology"] == 1
    assert names["mesh.triangle_areas"] >= 1
    assert all(s.end >= s.start for s in tracer.spans)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _ = tracing.per_layer_metrics(tracing.Tracer(), 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, m["unit"]) for name, m in metrics.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
