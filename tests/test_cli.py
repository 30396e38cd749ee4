import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import codim2flow.certifier as certifier
import codim2flow.cli as cli
import codim2flow.identities as identities
from codim2flow.cli import (
    build_surface,
    flow_config,
    load_scenario,
    main,
    parse_scenario_text,
    run_scenario,
)
from codim2flow.flow import TRACE_COLUMNS, FlowConfig, run_flow
from codim2flow.gradients import sweep_inequalities
from codim2flow.identities import identity_report
from codim2flow.mesh import read_off4


# ---------------------------------------------------------------------------
# identity sweeps


def test_identity_report_passes():
    report = identity_report(seed=42, count=20_000)
    assert report["pass"]
    names = {p["property"] for p in report["properties"]}
    assert {"simons_closed_vs_tensor", "gauss_identity", "grad_trace_bound",
            "grad_kperp_evol_bound", "kperp_evol_closed_vs_raw",
            "reaction_reduction_oracle", "frame_invariance"} <= names


def test_identity_report_empty_for_zero_count():
    report = identity_report(seed=1, count=0)
    assert report["pass"] and report["properties"] == []


def test_identity_report_rejects_negative_count():
    with pytest.raises(ValueError):
        identity_report(seed=1, count=-5)


def test_ef_split_detects_missing_trace_part(monkeypatch):
    # E computed as zero leaves Pythagoras intact; the trace-bound slack must catch it
    monkeypatch.setattr(identities, "trace_part", np.zeros_like)
    report = identity_report(seed=0, count=10 ** 4)
    failed = {p["property"] for p in report["properties"] if not p["pass"]}
    assert failed == {"ef_orthogonal_split"}


def test_identity_sweep_detects_injected_sign_flip(monkeypatch):
    # mutate the closed-form route; the tensor oracle must catch it
    orig = identities.closed_z_batch
    monkeypatch.setattr(identities, "closed_z_batch", lambda h, a, b, c: -orig(h, a, b, c))
    report = identity_report(seed=3, count=5000)
    assert not report["pass"]
    failed = {p["property"] for p in report["properties"] if not p["pass"]}
    assert "simons_closed_vs_tensor" in failed


def test_identity_report_is_fixed_by_its_seed():
    same = [json.dumps(identity_report(seed=3, count=5003)) for _ in range(2)]
    assert same[0] == same[1]
    assert json.dumps(identity_report(seed=4, count=5003)) != same[0]


def test_identity_report_slices_extend_the_sweep(monkeypatch):
    # each sweep draws one stream a piece at a time, so count 140 sweeps count 70's
    # ten pieces and ten more
    monkeypatch.setattr(certifier, "_PIECE", 7)
    short, long = ({p["property"]: p["worst"] for p in identity_report(seed=3, count=n)["properties"]}
                   for n in (70, 140))
    assert short.keys() == long.keys()
    assert all(long[name] >= short[name] for name in short), (short, long)


def test_nan_in_last_chunk_fails_the_sweep(monkeypatch):
    # a NaN deviation in the last piece must not be dropped when piece maxima combine
    monkeypatch.setattr(certifier, "_PIECE", 7)
    orig = identities.closed_z_batch

    def nan_on_last_row(h, a, b, c):
        z = orig(h, a, b, c)
        if h.size < 7:  # 5003 rows: only the last piece is short
            z[-1] = np.nan
        return z

    monkeypatch.setattr(identities, "closed_z_batch", nan_on_last_row)
    report = identity_report(seed=3, count=5003)
    simons = next(p for p in report["properties"] if p["property"] == "simons_closed_vs_tensor")
    assert np.isnan(simons["worst"]) and not simons["pass"]
    assert report["pass"] is False


def test_worst_keeps_first_tie_and_any_nan():
    assert identities._worst([(1.0, 0), (2.0, 1), (2.0, 2)]) == (2.0, 1)
    value, row = identities._worst([(1.0, 0), (3.0, 1), (np.nan, 2), (np.nan, 3)])
    assert np.isnan(value) and row == 2


def test_gradient_sweep_matches_sweep_inequalities():
    # the identity sweep scales its one slack pass as criterion 4's sweep_inequalities does
    states = identities._gradient_draw(np.random.default_rng(5), 3001)
    got = identities._gradient_piece(*states)
    for name, entry in sweep_inequalities(np.hstack(states[:2])).items():
        assert got[name] == (-entry["slack_min"], entry["witness"])


def test_identity_sweep_memory_is_bounded():
    # each piece draws its own states, so the peak does not grow with the count
    peaks = []
    for count in (1 << 17, 10 ** 6):
        tracemalloc.start()
        try:
            identity_report(seed=0, count=count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 5e6, f"traced peaks {peaks[0] / 1e6:.1f} and {peaks[1] / 1e6:.1f} MB"
    # one piece's states and temporaries: 4.9 MB traced at 10^6 rows, plus 2 MB of margin
    assert peaks[1] < 7e6, f"traced peak {peaks[1] / 1e6:.1f} MB at 10^6 rows"


def test_cmd_identities_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["--out", str(tmp_path), "identities", "--count", "5000"]) == 0
    blob = json.loads((tmp_path / "identities.json").read_text())
    assert blob["pass"]
    orig = identities.closed_z_batch
    monkeypatch.setattr(identities, "closed_z_batch", lambda h, a, b, c: -orig(h, a, b, c))
    assert main(["identities", "--count", "5000"]) == 1


def test_global_options_after_the_subcommand(tmp_path):
    # a subcommand that is not given --seed must not reset one given before it
    before = ["--seed", "3", "--out", str(tmp_path / "before"), "identities", "--count", "10"]
    after = ["identities", "--seed", "3", "--out", str(tmp_path / "after"), "--count", "10"]
    for argv in (before, after):
        assert main(argv) == 0
    seeds = [json.loads((tmp_path / d / "identities.json").read_text())["seed"]
             for d in ("before", "after")]
    assert seeds == [3, 3]
    assert main(["identities", "--seed", "0", "--count", "10"]) == 0


def test_cmd_identities_count_zero():
    assert main(["identities", "--count", "0"]) == 0


def test_cmd_identities_negative_count_is_config_error():
    assert main(["identities", "--count", "-5"]) == 2


# ---------------------------------------------------------------------------
# certify / scan


def test_cmd_certify_writes_report(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "certify", "--k", "0.68",
               "--grid", "64", "--samples", "20000"])
    assert rc == 0
    blob = json.loads((tmp_path / "certificate.json").read_text())
    assert blob["maxValue"] < 0
    assert blob["k"] == 0.68
    lines = (tmp_path / "worst_samples.csv").read_text().splitlines()
    assert lines[0] == "a,b,c,value"
    assert len(lines) == 101


def test_cmd_certify_bad_k_is_usage_error():
    assert main(["certify", "--k", "0.4", "--grid", "64", "--samples", "1000"]) == 2
    assert main(["certify", "--k", "0.7", "--grid", "8", "--samples", "1000"]) == 2


@pytest.mark.parametrize("flag", ["--gamma-override", "--delta"])
def test_cmd_certify_nonfinite_delta_or_gamma_is_config_error(flag, capsys):
    for bad in ("nan", "inf"):
        assert main(["certify", "--k", "0.7", flag, bad, "--grid", "64", "--samples", "1000"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_cmd_certify_failed_oracle_check_exits_1(capsys):
    # gamma^2 overflows: the reduced and unreduced routes give NaN, which fails the check
    rc = main(["certify", "--k", "0.7", "--gamma-override", "1e200", "--grid", "64",
               "--samples", "1000"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("assertion failure: reduced/unreduced reaction mismatch")
    assert len(err.splitlines()) == 1


def test_cmd_scan(tmp_path):
    rc = main(["--out", str(tmp_path), "scan", "--k-low", "0.66", "--k-high", "0.75",
               "--tol", "5e-3", "--grid", "64", "--samples", "20000"])
    assert rc == 0
    blob = json.loads((tmp_path / "scan.json").read_text())
    assert 0.66 < blob["kStar"] < 0.75
    assert blob["negativeBelow"] and blob["positiveAbove"]


def test_cmd_scan_confirms_inside_the_bracket(capsys):
    # k* -+ tol lies outside [0.6, 0.75]; near k = 1/2 the cross-check would fail on rounding
    rc = main(["scan", "--k-low", "0.6", "--k-high", "0.75", "--grid", "64",
               "--samples", "1000", "--tol", "0.2"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["negativeBelow"] is True and blob["positiveAbove"] is True


def test_cmd_scan_invalid_bracket():
    rc = main(["scan", "--k-low", "0.55", "--k-high", "0.6",
               "--tol", "1e-2", "--grid", "64", "--samples", "5000"])
    assert rc == 2


# ---------------------------------------------------------------------------
# scenario parsing


def test_parse_scenario_key_value():
    sc = parse_scenario_text("""
# comment
name = tiny_sphere
surface = icosphere
r = 0.5
subdivisions = 2
cfl = 0.1
""")
    assert sc["name"] == "tiny_sphere"
    assert sc["surface"] == "icosphere"
    assert sc["r"] == 0.5
    assert sc["subdivisions"] == 2


def test_parse_scenario_json():
    sc = parse_scenario_text('{"name": "x", "surface": "icosphere", "r": 1.0}')
    assert sc["surface"] == "icosphere"


def test_parse_scenario_rejects_bad_line():
    with pytest.raises(ValueError):
        parse_scenario_text("surface icosphere")


def test_load_scenario_unknown():
    with pytest.raises(ValueError):
        load_scenario("no_such_scenario")


def test_presets_build():
    for name in ("sphere_r1", "clifford_r1", "pinched_ellipsoid"):
        sc = load_scenario(name)
        mesh = build_surface(sc)
        assert mesh.n_vertices > 100


def test_presets_pass_the_scenario_file_key_check(tmp_path):
    # presets skip load_scenario's unknown-key check; as files they must pass it
    for name, preset in cli.SCENARIO_PRESETS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(preset))
        sc = load_scenario(str(path))
        assert flow_config(sc) == flow_config(load_scenario(name))
        assert build_surface(sc).n_vertices == build_surface(load_scenario(name)).n_vertices


# ---------------------------------------------------------------------------
# flow scenarios end to end (small config files)


def tiny_scenario(tmp_path, **extra):
    lines = ["surface = icosphere", "r = 1.0", "subdivisions = 2",
             "stop_a2 = 18.0", "output_every = 5",
             "poincare_every = 50", "epsilon_z = 0.048"]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "tiny_sphere.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_scenario_artifacts(tmp_path):
    cfg = tiny_scenario(tmp_path)
    out = tmp_path / "out"
    summary = run_scenario(str(cfg), str(out), seed=0)
    assert summary["status"] == "blowup_threshold"
    assert not summary["hypothesis_violated"]
    assert (out / "trace.csv").exists()
    assert len((out / "trace.csv").read_text().splitlines()) > 4
    snaps = sorted((out / "snapshots").glob("snap_*.off4"))
    assert snaps
    mesh = read_off4(snaps[0])
    assert mesh.n_vertices == 162
    fields = (out / "snapshots" / "snap_000_fields.csv").read_text().splitlines()
    assert fields[0] == "vertex,H,A2,Q,fsigma,K,Kperp"
    assert summary["rejections"].keys() == {"inversion", "area"}
    assert summary["cg_iterations"] > 0
    assert json.loads((out / "run.json").read_text())["cg_iterations"] == summary["cg_iterations"]
    # a few percent on this coarse sphere, far below the order-one gap of a failed jet fit
    assert 0 < summary["max_h_gap"] < 0.2
    assert json.loads((out / "run.json").read_text())["max_h_gap"] == summary["max_h_gap"]
    assert (out / "rescale_summary.json").exists()
    with open(out / "trace.csv") as fh:
        trace = list(csv.DictReader(fh))
    for col in TRACE_COLUMNS:
        if col != "t":
            # gnuplot-ready: two plain floats per line, the trace's t and column
            lines = (out / "plot" / f"{col}.dat").read_text().splitlines()
            np.testing.assert_array_equal([[float(v) for v in ln.split(" ")] for ln in lines],
                                          [[float(r["t"]), float(r[col])] for r in trace])


def test_run_json_records_the_resolved_config(tmp_path):
    # the sphere_r1 preset sets neither cfl nor epsilon_z; two steps suffice
    path = tmp_path / "sphere_r1.json"
    path.write_text(json.dumps({**cli.SCENARIO_PRESETS["sphere_r1"], "max_steps": 2}))
    run_scenario(str(path), str(tmp_path / "out"), seed=0)
    summary = json.loads((tmp_path / "out" / "run.json").read_text())
    assert "cfl" not in summary["scenario"]
    config = summary["config"]
    assert config["cfl"] == 0.01
    assert config["epsilon_z"] == flow_config(load_scenario("sphere_r1")).resolved_epsilon_z()
    assert config["gamma"] == pytest.approx(1 / 30)


def test_nan_max_q_counts_as_hypothesis_violated(tmp_path, monkeypatch):
    # a NaN frame entry makes maxQ NaN; the run must not claim pinched data
    import codim2flow.flow as flowmod
    recover = flowmod.recover_geometry

    def recover_with_nan(mesh):
        recover(mesh)
        mesh.frame_a[0] = np.nan
        return mesh

    monkeypatch.setattr(flowmod, "recover_geometry", recover_with_nan)
    summary = run_scenario(str(tiny_scenario(tmp_path, max_steps=3)), str(tmp_path / "out"))
    assert summary["hypothesis_violated"] is True


def test_run_scenario_deterministic(tmp_path):
    cfg = tiny_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(str(cfg), str(out1), seed=7)
    run_scenario(str(cfg), str(out2), seed=7)
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    s1 = sorted((out1 / "snapshots").glob("*.off4"))
    s2 = sorted((out2 / "snapshots").glob("*.off4"))
    for a, b in zip(s1, s2):
        assert a.read_bytes() == b.read_bytes()


def test_cmd_flow_clifford_flags_violation(tmp_path, capsys):
    cfg = tmp_path / "tiny_torus.cfg"
    cfg.write_text("surface = product_torus\nr1 = 1.0\nr2 = 1.0\nn1 = 16\nn2 = 16\n"
                   "stop_a2 = 4.0\noutput_every = 5\nepsilon_z = 0.048\n"
                   "poincare_every = 1000\n")
    rc = main(["--out", str(tmp_path / "runs"), "flow", str(cfg)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "hypothesis violated" in captured.out
    summary = json.loads((tmp_path / "runs" / "tiny_torus" / "run.json").read_text())
    assert summary["hypothesis_violated"]


def _hex(values):
    """Each value as float.hex: equal lists mean bit-equal floats (any NaN reads 'nan')."""
    return [float(v).hex() for v in np.ravel(values)]


def test_every_artifact_ends_lines_with_lf_and_reads_back_exactly(tmp_path, monkeypatch):
    runs = []

    def run_and_keep(mesh, cfg):
        runs.append(run_flow(mesh, cfg))
        return runs[-1]

    monkeypatch.setattr(cli, "run_flow", run_and_keep)
    out = tmp_path / "out"
    run = out / "tiny_sphere"
    small = ["--grid", "64", "--samples", "2000"]
    for argv in (["flow", str(tiny_scenario(tmp_path))], ["rescale", "--run", str(run)],
                 ["certify", "--k", "0.68", *small],
                 ["scan", "--k-low", "0.66", "--k-high", "0.75", "--tol", "1e-2", *small],
                 ["identities", "--count", "1000"]):
        assert main(["--out", str(out), *argv]) == 0, argv
    written = [p for p in out.rglob("*") if p.is_file()]
    assert {p.suffix for p in written} == {".csv", ".dat", ".json", ".off4"}
    assert {"worst_samples.csv", "certificate.json", "scan.json", "identities.json",
            "rescaled_000.csv", "snap_000_fields.csv"} <= {p.name for p in written}
    assert [p.name for p in written if b"\r" in p.read_bytes()] == []

    (result,) = runs
    lines = (run / "trace.csv").read_text().splitlines()
    assert lines[0].split(",") == TRACE_COLUMNS
    assert len(lines) == 1 + len(result.trace.rows)
    for line, row in zip(lines[1:], result.trace.rows):
        step, *cells = line.split(",")
        assert step == str(row.step)
        assert _hex([float(x) for x in cells]) == _hex([getattr(row, c) for c in TRACE_COLUMNS[1:]])
    for i, snap in enumerate(result.snapshots):
        off4 = (run / "snapshots" / f"snap_{i:03d}.off4").read_text().splitlines()
        nv = snap.mesh.n_vertices
        assert off4[:2] == ["OFF4", f"{nv} {snap.mesh.n_triangles} {snap.mesh.n_edges}"]
        assert _hex([float(x) for ln in off4[2:2 + nv] for x in ln.split(" ")]) == \
            _hex(snap.mesh.vertices)
        assert off4[2 + nv:] == [f"3 {a} {b} {c}" for a, b, c in snap.mesh.triangles.tolist()]


def test_cmd_rescale_from_run_dir(tmp_path, capsys):
    # rescale reads the snapshots back from OFF4 and rewrites the flow's own files byte for byte
    cfg = tiny_scenario(tmp_path)
    out = tmp_path / "out"
    run_scenario(str(cfg), str(out), seed=0)
    files = sorted((out / "rescaled").glob("rescaled_*.csv")) + [out / "rescale_summary.json"]
    assert len(files) > 2
    assert files[0].read_text().splitlines()[0] == "vertex,h,acirc2,kperp_abs,pinch_num"
    written = {p: p.read_bytes() for p in files}
    for p in files:
        p.unlink()
    capsys.readouterr()
    assert main(["rescale", "--run", str(out)]) == 0
    assert {p: p.read_bytes() for p in files} == written
    assert capsys.readouterr().out == (out / "rescale_summary.json").read_text() + "\n"


def test_cmd_flow_unknown_scenario_is_config_error():
    assert main(["flow", "definitely_missing"]) == 2


@pytest.mark.parametrize("argv", [["--out", "file", "identities", "--count", "10"],
                                  ["--out", "file", "flow", "sphere_r1"], ["flow", "dir"]],
                         ids=["out_is_file", "flow_out_is_file", "scenario_is_dir"])
def test_os_errors_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)

    def no_flow(*args):
        raise AssertionError("the flow ran before the output directory was checked")

    monkeypatch.setattr(cli, "run_flow", no_flow)
    (tmp_path / "file").touch()
    (tmp_path / "dir").mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_scenario_unknown_keys_are_config_errors(tmp_path):
    for typo in ({"cfll": 0.1}, {"subdivisons": 3}):
        cfg = tiny_scenario(tmp_path, **typo)
        assert main(["--out", str(tmp_path / "runs"), "flow", str(cfg)]) == 2
    assert not (tmp_path / "runs").exists()


def test_scenario_sets_redistribution_and_pinch_fraction(tmp_path):
    cfg = flow_config(load_scenario(str(tiny_scenario(tmp_path, redistribution=0.1,
                                                       pinch_fraction=0.7))))
    assert cfg.redistribution == 0.1 and cfg.pinch_fraction == 0.7


def test_cmd_rescale_missing_run_dir_is_config_error(tmp_path):
    assert main(["rescale", "--run", str(tmp_path / "no_such_run")]) == 2


def test_cmd_rescale_malformed_run_json_is_config_error(tmp_path):
    (tmp_path / "snapshots").mkdir()
    (tmp_path / "snapshots" / "index.json").write_text("[]")
    (tmp_path / "run.json").write_text('{"scenario": {}}')
    assert main(["rescale", "--run", str(tmp_path)]) == 2


def test_empty_off4_is_config_error(tmp_path):
    (tmp_path / "snapshots").mkdir()
    empty = tmp_path / "snapshots" / "snap_000.off4"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_off4(empty)
    (tmp_path / "snapshots" / "index.json").write_text(
        '[{"index": 0, "step": 0, "t": 0.0, "maxA2": 2.0}]')
    (tmp_path / "run.json").write_text('{"scenario": {}, "stop_a2": 4.0}')
    assert main(["rescale", "--run", str(tmp_path)]) == 2


@pytest.mark.parametrize("verts, faces", [
    (3, [[0, 1, 2]]),
    (4, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),  # closed, but 2-rings too small
    (3, [[0, 1, 5]]),
], ids=["open_triangle", "tetrahedron", "index_out_of_range"])
def test_bad_off4_topology_is_config_error(tmp_path, verts, faces):
    (tmp_path / "snapshots").mkdir()
    off4 = tmp_path / "snapshots" / "snap_000.off4"
    rows = [f"{i} {i % 2} {i // 2} 0" for i in range(verts)]
    off4.write_text("\n".join(["OFF4", f"{verts} {len(faces)} 0", *rows,
                               *(f"3 {a} {b} {c}" for a, b, c in faces)]) + "\n")
    with pytest.raises(ValueError, match="snap_000.off4"):
        read_off4(off4)
    (tmp_path / "snapshots" / "index.json").write_text(
        '[{"index": 0, "step": 0, "t": 0.0, "maxA2": 2.0}]')
    (tmp_path / "run.json").write_text('{"scenario": {}, "stop_a2": 4.0}')
    assert main(["rescale", "--run", str(tmp_path)]) == 2


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("finished")
    run_scenario(str(tiny_scenario(tmp)), str(tmp / "run"), seed=0)
    return tmp / "run"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_off4_coordinates_are_config_errors(tmp_path, capsys, finished_run, value):
    run = shutil.copytree(finished_run, tmp_path / "run")
    off4 = run / "snapshots" / "snap_000.off4"
    lines = off4.read_text().splitlines()
    lines[2] = f"{value} 0.1 0.2 0.0"
    off4.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite vertex coordinate.*snap_000.off4"):
        read_off4(off4)
    assert main(["rescale", "--run", str(run)]) == 2
    err = capsys.readouterr().err
    assert "snap_000.off4" in err and "LinAlgError" not in err


@pytest.mark.parametrize("row, text", [
    (2, "0.1 0.2 0.3"), (-1, "3 1 2"), (2, None), (2, "abc 0 0 0"), (1, "42 80"),
], ids=["short_vertex_row", "short_face_row", "every_vertex_row_short", "word", "two_counts"])
def test_malformed_off4_rows_name_the_file_and_line(tmp_path, capsys, finished_run, row, text):
    run = shutil.copytree(finished_run, tmp_path / "run")
    off4 = run / "snapshots" / "snap_000.off4"
    lines = off4.read_text().splitlines()
    if text is None:  # drop the last coordinate of every vertex row
        nv = int(lines[1].split()[0])
        lines[2:2 + nv] = [ln.rsplit(" ", 1)[0] for ln in lines[2:2 + nv]]
    else:
        lines[row] = text
    off4.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"snap_000\.off4 line {row % len(lines) + 1}\b"):
        read_off4(off4)
    assert main(["rescale", "--run", str(run)]) == 2
    assert "snap_000.off4" in capsys.readouterr().err


@pytest.mark.parametrize("file, key, value", [
    ("run.json", "stop_a2", "abc"), ("run.json", "stop_a2", float("nan")),
    ("run.json", "stop_a2", float("inf")), ("run.json", "stop_a2", 0.0),
    ("run.json", "stop_a2", None), ("run.json", "stop_a2", True),
    ("index.json", "maxA2", "x"), ("index.json", "maxA2", float("nan")),
    ("index.json", "t", float("-inf")), ("index.json", "step", 1.5),
    ("index.json", "index", "0"), ("index.json", "index", 0.0),
    # math.isfinite would raise OverflowError
    pytest.param("index.json", "step", 10 ** 400, id="index.json-step-10**400"),
])
def test_bad_run_values_are_config_errors(tmp_path, capsys, finished_run, file, key, value):
    # a NaN or non-positive stop_a2 would skip the blow-up guard, a string would raise a TypeError
    run = shutil.copytree(finished_run, tmp_path / "run")
    path = run / file if file == "run.json" else run / "snapshots" / file
    blob = json.loads(path.read_text())
    (blob[-1] if file == "index.json" else blob)[key] = value
    path.write_text(json.dumps(blob))
    assert main(["rescale", "--run", str(run)]) == 2
    assert f"{key} must be a finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"output_every": 0}, {"poincare_every": 0},
                                 {"max_steps": -1}, {"cfl": '"abc"'},
                                 {"p": 1}, {"eta": -1}, {"sigma": 1.5},
                                 {"scheme": "bogus"},
                                 # NaN would switch off a stop rule or the epsilon_z guard
                                 {"stop_a2": "NaN", "max_steps": 3},
                                 {"min_angle_deg": "NaN", "max_steps": 3},
                                 {"epsilon_z": "NaN", "max_steps": 3},
                                 {"k": "NaN", "max_steps": 3},
                                 {"max_steps": "Infinity"},
                                 {"epsilon_z": -1.0, "max_steps": 3},
                                 # a non-positive stop_a2 would end the run at step 1 as a blow-up
                                 {"stop_a2": -1}, {"stop_a2": 0},
                                 # a truncated count would run 2.7 steps as 2
                                 {"output_every": 2.5}, {"poincare_every": 1.9},
                                 {"max_steps": 2.7},
                                 # JSON integers have no size limit; no float holds these
                                 {"stop_a2": 10 ** 400, "max_steps": 3},
                                 {"k": 10 ** 400, "max_steps": 3},
                                 {"eps": 10 ** 400, "max_steps": 3},
                                 # a sampled epsilon_z floor that is not positive
                                 {"k": 3.0, "epsilon_z": "null", "max_steps": 3},
                                 {"gamma": -3.0, "epsilon_z": "null", "max_steps": 3}])
def test_bad_flow_config_values_are_config_errors(tmp_path, bad):
    cfg = tiny_scenario(tmp_path, **bad)
    assert main(["--out", str(tmp_path / "runs"), "flow", str(cfg)]) == 2
    assert not (tmp_path / "runs").exists()


def test_integral_float_flow_counts_read_as_integers():
    cfg = FlowConfig(max_steps=3.0, output_every=2.0, poincare_every=1.0)
    assert (cfg.max_steps, cfg.output_every, cfg.poincare_every) == (3, 2, 1)
    assert all(type(v) is int for v in (cfg.max_steps, cfg.output_every, cfg.poincare_every))


_SURFACES = {
    "icosphere": {"r": 1.0, "subdivisions": 2},
    "ellipsoid_plus_bump": {"a1": 1.2, "a2": 1.0, "a3": 0.9, "eps4": 0.05, "subdivisions": 2},
    "product_torus": {"r1": 1.0, "r2": 1.0, "n1": 8, "n2": 8},
}


@pytest.mark.parametrize("surface, key, value", [
    ("icosphere", "r", "-1"), ("icosphere", "r", "0"), ("icosphere", "r", "NaN"),
    ("icosphere", "r", '"abc"'), ("icosphere", "subdivisions", "2.7"),
    ("icosphere", "subdivisions", "true"), ("icosphere", "subdivisions", "-1"),
    ("ellipsoid_plus_bump", "a1", "Infinity"), ("ellipsoid_plus_bump", "a3", "0"),
    ("ellipsoid_plus_bump", "eps4", "NaN"), ("product_torus", "n1", "8.9"),
    ("product_torus", "r2", "0"),
    pytest.param("icosphere", "r", "1" + "0" * 400, id="icosphere-r-10**400"),
])
def test_bad_surface_keys_are_config_errors(tmp_path, capsys, surface, key, value):
    keys = dict(_SURFACES[surface], **{key: value})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([f"surface = {surface}", "max_steps = 2",
                              *(f"{k} = {v}" for k, v in keys.items())]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--out", str(tmp_path / "runs"), "flow", str(cfg)])
    assert rc == 2
    assert f"surface key {key} must be" in capsys.readouterr().err
    assert caught == []


@pytest.mark.parametrize("r, size", [("1e200", "e+199"), ("1e-200", "e-201")])
def test_radius_out_of_squaring_range_is_a_degenerate_neighborhood(tmp_path, capsys, r, size):
    # the 2-ring distances overflow or underflow when squared: a numerical
    # failure naming the vertex and the offsets' size, with no warning first
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"surface = icosphere\nr = {r}\nsubdivisions = 2\nmax_steps = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--out", str(tmp_path / "runs"), "flow", str(cfg)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: DegenerateNeighborhood: vertex 0: 2-ring offsets of size" in err
    assert size in err and "not finite and positive" in err
    assert caught == []


def test_non_string_surface_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("surface = [1]\nr = 1.0\nsubdivisions = 2\nmax_steps = 2\n")
    assert main(["--out", str(tmp_path / "runs"), "flow", str(cfg)]) == 2
    assert "unknown surface [1]" in capsys.readouterr().err


def test_integral_float_counts_build_the_integer_surface():
    sc = {"surface": "icosphere", "r": 1.0, "subdivisions": 2.0}
    assert np.array_equal(build_surface(sc).triangles,
                          build_surface(dict(sc, subdivisions=2)).triangles)


@pytest.mark.parametrize("command", [["certify", "--k", "0.7"],
                                     ["scan", "--k-low", "0.66", "--k-high", "0.75"]])
@pytest.mark.parametrize("counts, names", [
    (["--grid", "64", "--samples", "-5"], ["--samples"]),
    # 10^16 rows: numpy refuses the request at once, before any memory is touched
    (["--grid", "100000000"], ["--grid", "--samples"]),
])
def test_bad_sample_count_is_config_error(command, counts, names, capsys):
    assert main([*command, *counts]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and len(err.splitlines()) == 1


def test_cmd_scan_nonpositive_tolerance_is_config_error():
    for tol in ("0", "-0.001", "1e-20"):
        assert main(["scan", "--k-low", "0.66", "--k-high", "0.75", "--tol", tol,
                     "--grid", "64", "--samples", "1000"]) == 2
    assert main(["scan", "--k-low", "0.75", "--k-high", "0.66", "--grid", "64",
                 "--samples", "1000"]) == 2


def test_usage_error_exit_code():
    assert main(["not-a-command"]) == 2


def test_cmd_flow_parallel_jobs(tmp_path):
    cfg_a = tiny_scenario(tmp_path)
    cfg_b = tmp_path / "tiny_b.cfg"
    cfg_b.write_text(cfg_a.read_text().replace("subdivisions = 2", "subdivisions = 2")
                     .replace("r = 1.0", "r = 0.9").replace("stop_a2 = 18.0", "stop_a2 = 22.0"))
    rc = main(["--out", str(tmp_path / "runs"), "--jobs", "2",
               "flow", str(cfg_a), str(cfg_b)])
    assert rc == 0
    assert (tmp_path / "runs" / "tiny_sphere" / "trace.csv").exists()
    assert (tmp_path / "runs" / "tiny_b" / "trace.csv").exists()


def test_cmd_flow_duplicate_output_dirs_are_config_error(tmp_path):
    # a/run.cfg and b/run.cfg would both write runs/run
    cfgs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        cfgs.append(str(tiny_scenario(tmp_path / sub).rename(tmp_path / sub / "run.cfg")))
    assert main(["--out", str(tmp_path / "runs"), "flow", *cfgs]) == 2
    assert not (tmp_path / "runs").exists()


def test_cmd_flow_jobs_capped_at_scenario_count(tmp_path, monkeypatch):
    # a synchronous stand-in that records the pool size it was asked for
    sizes = []

    class SyncPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SyncPool)
    cfg_a = tiny_scenario(tmp_path)
    cfg_b = tmp_path / "tiny_b.cfg"
    cfg_b.write_text(cfg_a.read_text().replace("r = 1.0", "r = 0.9"))
    rc = main(["--out", str(tmp_path / "runs"), "--jobs", "64",
               "flow", str(cfg_a), str(cfg_b)])
    assert rc == 0
    assert sizes == [2]
    assert (tmp_path / "runs" / "tiny_b" / "trace.csv").exists()


def _child_env():
    """Environment for a child Python that imports the same checkout as this suite.

    Also when only pytest's own pythonpath setting put it on sys.path.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "codim2flow.cli",
                           "identities", "--count", "0"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "codim2flow", "identities", "--count", "1000"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_setup_imports_neither_process_pools_nor_numpy_ma():
    # each costs a fresh process over 10 ms of imports that set-up never uses
    code = ("import sys\n"
            "import codim2flow.cli as cli\n"
            "from codim2flow.mesh import recover_geometry\n"
            "for name in cli.SCENARIO_PRESETS:\n"
            "    recover_geometry(cli.build_surface(cli.load_scenario(name)))\n"
            "print(sorted({'concurrent.futures.process', 'numpy.ma'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
