import json

import numpy as np
import pytest

import codim2flow.identities as identities
from codim2flow.cli import (
    build_surface,
    flow_config,
    load_scenario,
    main,
    parse_scenario_text,
    run_scenario,
)
from codim2flow.flow import TRACE_COLUMNS
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


def test_identity_sweep_detects_injected_sign_flip(monkeypatch):
    # mutate the closed-form route; the tensor oracle must catch it
    orig = identities.closed_z_batch
    monkeypatch.setattr(identities, "closed_z_batch", lambda h, a, b, c: -orig(h, a, b, c))
    report = identity_report(seed=3, count=5000)
    assert not report["pass"]
    failed = {p["property"] for p in report["properties"] if not p["pass"]}
    assert "simons_closed_vs_tensor" in failed


def test_cmd_identities_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["--out", str(tmp_path), "identities", "--count", "5000"]) == 0
    blob = json.loads((tmp_path / "identities.json").read_text())
    assert blob["pass"]
    orig = identities.closed_z_batch
    monkeypatch.setattr(identities, "closed_z_batch", lambda h, a, b, c: -orig(h, a, b, c))
    assert main(["identities", "--count", "5000"]) == 1


def test_cmd_identities_count_zero():
    assert main(["identities", "--count", "0"]) == 0


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


def test_cmd_scan(tmp_path):
    rc = main(["--out", str(tmp_path), "scan", "--k-low", "0.66", "--k-high", "0.75",
               "--tol", "5e-3", "--grid", "64", "--samples", "20000"])
    assert rc == 0
    blob = json.loads((tmp_path / "scan.json").read_text())
    assert 0.66 < blob["kStar"] < 0.75
    assert blob["negativeBelow"] and blob["positiveAbove"]


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


# ---------------------------------------------------------------------------
# flow scenarios end to end (small config files)


def tiny_scenario(tmp_path, **extra):
    lines = ["surface = icosphere", "r = 1.0", "subdivisions = 2",
             "cfl = 0.1", "stop_a2 = 18.0", "output_every = 5",
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
    assert (out / "run.json").exists()
    assert (out / "rescale_summary.json").exists()
    for col in TRACE_COLUMNS:
        if col != "t":
            assert (out / "plot" / f"{col}.dat").exists()


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
                   "cfl = 0.1\nstop_a2 = 4.0\noutput_every = 5\nepsilon_z = 0.048\n"
                   "poincare_every = 1000\n")
    rc = main(["--out", str(tmp_path / "runs"), "flow", str(cfg)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "hypothesis violated" in captured.out
    summary = json.loads((tmp_path / "runs" / "tiny_torus" / "run.json").read_text())
    assert summary["hypothesis_violated"]


def test_cmd_rescale_from_run_dir(tmp_path):
    cfg = tiny_scenario(tmp_path)
    out = tmp_path / "out"
    run_scenario(str(cfg), str(out), seed=0)
    rc = main(["rescale", "--run", str(out)])
    assert rc == 0
    files = sorted((out / "rescaled").glob("rescaled_*.csv"))
    assert files
    header = files[0].read_text().splitlines()[0]
    assert header == "vertex,h,acirc2,kperp_abs,pinch_num"


def test_cmd_flow_unknown_scenario_is_config_error():
    assert main(["flow", "definitely_missing"]) == 2


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


@pytest.mark.parametrize("bad", [{"output_every": 0}, {"poincare_every": 0},
                                 {"max_steps": -1}, {"cfl": '"abc"'},
                                 {"p": 1}, {"eta": -1}, {"sigma": 1.5}])
def test_bad_flow_config_values_are_config_errors(tmp_path, bad):
    cfg = tiny_scenario(tmp_path, **bad)
    assert main(["--out", str(tmp_path / "runs"), "flow", str(cfg)]) == 2


def test_cmd_scan_nonpositive_tolerance_is_config_error():
    for tol in ("0", "-0.001"):
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


def test_console_script_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import codim2flow
    # the child imports the same checkout as this suite, also when only
    # pytest's own pythonpath setting put it on sys.path
    src = str(Path(codim2flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "codim2flow.cli",
                           "identities", "--count", "0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
