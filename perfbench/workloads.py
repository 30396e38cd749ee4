"""The three benchmark workloads: seeded set-up, solve and output checks.

Each workload has
    setup(seed, workdir) -> inputs   timed as setup_s
    solve(inputs) -> outputs          timed together with check as wall_s
    check(inputs, outputs) -> list    failure messages; empty when correct
    finish(outputs) -> dict           untimed clean-up, returns output counts

Every call into codim2flow goes through a module attribute (`flow.step_mcf`,
not a name imported once), so the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from codim2flow import certifier, cli, flow, identities
from codim2flow import mesh as meshmod


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    solve: Callable
    check: Callable
    finish: Callable = lambda outputs: {}


# ---------------------------------------------------------------------------
# pinched_blowup: the headline run through the command line entry point

PINCHED = "pinched_ellipsoid"


def pinched_setup(seed: int, workdir: Path):
    sc = cli.load_scenario(PINCHED)
    mesh = cli.build_surface(sc)
    cfg = cli.flow_config(sc)
    meshmod.recover_geometry(mesh)
    cfg.resolved_epsilon_z()
    # cli.main rebuilds mesh and cfg itself; they are built here so that setup_s
    # times the same inputs as on sphere_oracle.  The preset is deterministic:
    # the seed only reaches --seed, for provenance.
    return SimpleNamespace(seed=seed, workdir=workdir, mesh=mesh, cfg=cfg)


def pinched_solve(inp) -> dict:
    root = Path(tempfile.mkdtemp(prefix="pinched-", dir=inp.workdir))
    rc = cli.main(["--out", str(root), "--seed", str(inp.seed), "flow", PINCHED])
    return {"rc": rc, "root": root, "dir": root / PINCHED}


def _read_csv(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def pinched_check(inp, out: dict) -> list:
    if out["rc"] != 0:
        return [f"exit code {out['rc']}"]
    d = out["dir"]
    bad = []
    status = json.loads((d / "run.json").read_text())["status"]
    if status != "blowup_threshold":
        bad.append(f"run.json status {status!r}")
    header, rows = _read_csv(d / "trace.csv")
    if header != flow.TRACE_COLUMNS:
        bad.append(f"trace.csv header {header}")
        return bad
    max_q = np.array([float(r[header.index("maxQ")]) for r in rows])
    fheader, frows = _read_csv(d / "snapshots" / "snap_000_fields.csv")
    q0 = np.array([float(r[fheader.index("Q")]) for r in frows])
    band = 0.05 * abs(float(q0.min()))
    out["maxQ"], out["band"] = float(max_q.max()), band
    if not np.all(max_q < band):
        bad.append(f"criterion 6b: maxQ {max_q.max():.4g} reaches the band {band:.4g}")
    nums = [r["maxPinchNumerator"]
            for r in json.loads((d / "rescale_summary.json").read_text())]
    last5 = nums[-5:]
    if len(last5) < 5 or not all(b < a for a, b in zip(last5, last5[1:])):
        bad.append(f"criterion 7a: last rescaled values not decreasing: {last5}")
    if not nums[-1] < 0.1 * nums[0]:
        bad.append(f"criterion 7b: final/first = {nums[-1] / nums[0]:.4g}")
    delta = json.loads((d / "decay_fit.json").read_text()).get("delta")
    out["delta"] = delta
    if delta is None or not delta > 0:
        bad.append(f"criterion 7c: decay_fit delta = {delta}")
    return bad


def pinched_finish(out: dict) -> dict:
    files = [p for p in out["root"].rglob("*") if p.is_file()]
    counts = {"cli.files_written": len(files),
              "cli.bytes_written": sum(p.stat().st_size for p in files)}
    shutil.rmtree(out["root"])
    return counts


# ---------------------------------------------------------------------------
# sphere_oracle: exact shrinking-sphere loop, rotated by a seeded SO(4) element

SPHERE = "sphere_r1"
SPHERE_R_STOP = 0.9
SPHERE_RTOL = 0.01


def seeded_rotation(seed: int) -> np.ndarray:
    """A Haar-random element of SO(4) from the seed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sphere_setup(seed: int, workdir: Path):
    sc = cli.load_scenario(SPHERE)
    base = cli.build_surface(sc)
    mesh = base.with_vertices(base.vertices @ seeded_rotation(seed).T)
    cfg = cli.flow_config(sc)
    meshmod.recover_geometry(mesh)
    cfg.resolved_epsilon_z()
    return SimpleNamespace(mesh=mesh, cfg=cfg)


def sphere_solve(inp) -> dict:
    mesh, cfg = inp.mesh, inp.cfg
    med_h = float(np.median(mesh.frame_h))
    t, worst, steps = 0.0, 0.0, 0
    while True:
        r_exact = math.sqrt(max(1.0 - 4.0 * t, 0.0))
        if r_exact <= SPHERE_R_STOP:
            break
        r_mesh = float(np.mean(np.linalg.norm(mesh.vertices, axis=1)))
        worst = max(worst, abs(r_mesh - r_exact) / r_exact)
        mesh, dt = flow.step_mcf(mesh, cfg)
        t += dt
        steps += 1
    return {"median_h": med_h, "worst_rel_err": worst, "steps": steps, "t": t}


def sphere_check(inp, out: dict) -> list:
    bad = []
    if not abs(out["median_h"] - 2.0) / 2.0 < SPHERE_RTOL:
        bad.append(f"criterion 5a: median |H| = {out['median_h']:.6f}, exact 2")
    if not out["worst_rel_err"] < SPHERE_RTOL:
        bad.append(f"criterion 5b: radius off sqrt(1-4t) by {out['worst_rel_err']:.4g}")
    if out["steps"] < 1:
        bad.append("no step taken")
    return bad


# ---------------------------------------------------------------------------
# certification: sampled reaction-sign certificates, threshold scans, identities

K_PIN = Fraction(29, 40)
WITNESS = Fraction(263, 405)    # reaction at (a, b, c) = (1, 0, 1/2), k = 29/40
K_STAR_TOL = 2e-3


def true_k_star() -> float:
    """The root in (1/2, 3/4) of 828 k^3 - 1648 k^2 + 1095 k - 243."""
    roots = np.roots([828.0, -1648.0, 1095.0, -243.0])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.5 < r.real < 0.75]
    return real[0]


def certification_setup(seed: int, workdir: Path):
    return SimpleNamespace(seed=seed, k_star=true_k_star())


def certification_solve(inp) -> dict:
    s = inp.seed
    cert = certifier.certify_negativity
    scan = certifier.threshold_scan
    return {
        "k_pin": cert(float(K_PIN), grid=256, random_samples=10 ** 6, seed=s),
        "k_075": cert(0.75, grid=256, random_samples=10 ** 6, seed=s),
        "k1_g1": cert(1.0, gamma_override=1.0, grid=256, random_samples=10 ** 6, seed=s),
        "scan_256": scan(0.70, 0.75, tol_k=1e-3, grid=256, random_samples=200_000, seed=s),
        "scan_512": scan(0.70, 0.75, tol_k=1e-3, grid=512, random_samples=200_000, seed=s),
        "identities": identities.identity_report(s, 10 ** 6),
    }


def certification_check(inp, out: dict) -> list:
    bad = []
    for key in ("k_pin", "k_075", "k1_g1"):
        if not out[key].oracle_max_reldev <= certifier.ORACLE_RTOL:
            bad.append(f"{key}: oracle deviation {out[key].oracle_max_reldev:.3g}")
    if not out["k_075"].max_value > 0:
        bad.append(f"criterion 1b: max at k = 3/4 is {out['k_075'].max_value:.4g}")
    if not out["k1_g1"].max_value <= 1e-10:
        bad.append(f"criterion 2: max at (1, 1) is {out['k1_g1'].max_value:.4g}")
    # criterion 1a against its true value: 29/40 lies above k*, so the max is positive
    if not out["k_pin"].max_value > 0:
        bad.append(f"criterion 1a: max at 29/40 is {out['k_pin'].max_value:.4g}, truly > 0")
    witness = certifier.reaction_expression(
        Fraction(1), Fraction(0), Fraction(1, 2), 0, K_PIN, certifier.gamma_for_k(K_PIN))
    if witness != WITNESS:
        bad.append(f"witness at (1, 0, 1/2) is {witness}, expected {WITNESS}")
    # criterion 1c against the true threshold, not the [0.725, 0.75) window
    for key in ("scan_256", "scan_512"):
        res = out[key].as_dict()
        if not abs(res["kStar"] - inp.k_star) <= K_STAR_TOL:
            bad.append(f"{key}: k* = {res['kStar']:.6f}, true {inp.k_star:.6f}")
        if res["negativeBelow"] is not True or res["positiveAbove"] is not True:
            bad.append(f"{key}: negativeBelow = {res['negativeBelow']}, "
                       f"positiveAbove = {res['positiveAbove']}")
    if not out["identities"]["pass"]:
        failed = [p["property"] for p in out["identities"]["properties"] if not p["pass"]]
        bad.append(f"identity_report failed: {failed}")
    return bad


WORKLOADS = {
    "pinched_blowup": Workload("pinched_blowup", pinched_setup, pinched_solve,
                               pinched_check, pinched_finish),
    "sphere_oracle": Workload("sphere_oracle", sphere_setup, sphere_solve, sphere_check),
    "certification": Workload("certification", certification_setup, certification_solve,
                              certification_check),
}
