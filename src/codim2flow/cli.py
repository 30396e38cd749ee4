"""Command-line front end: identity sweeps, certification, flow scenarios.

Subcommands
    identities   run the identity/inequality sweeps, nonzero exit on failure
    certify      sample the reaction sign at one pinching constant
    scan         bisect for the sign-change threshold in k
    flow         run a flow scenario (preset name or config file)
    rescale      parabolic rescaling of the snapshots of a finished run

Exit codes: 0 success, 1 assertion failure, 2 usage/config error,
3 numerical failure (step collapse, degenerate geometry, NaN).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import builders
from .certifier import certify_negativity, threshold_scan
from .curvature import pinching_fields
from .errors import BracketInvalid, Codim2FlowError, InvalidK, ResolutionTooCoarse
from .flow import (
    TRACE_COLUMNS,
    FlowConfig,
    Snapshot,
    decay_exponent_fit,
    finite_number,
    run_flow,
    type_i_rescale,
)
from .identities import identity_report
from .mesh import read_off4, write_off4, write_table

SCENARIO_PRESETS = {
    # exact-solution oracle: radius tracks sqrt(1 - 4t)
    "sphere_r1": {
        "name": "sphere_r1", "surface": "icosphere", "r": 1.0, "subdivisions": 4,
        "stop_a2": 2.0 / 0.2 ** 2 * 1.05, "output_every": 10, "k": 29.0 / 40.0,
    },
    # negative control: |A|^2 = |H|^2, pinching hypothesis violated
    "clifford_r1": {
        "name": "clifford_r1", "surface": "product_torus", "r1": 1.0, "r2": 1.0,
        "n1": 48, "n2": 48, "stop_a2": 2.0 / 0.3 ** 2 * 1.05, "output_every": 10,
        "k": 29.0 / 40.0,
    },
    # pinched, genuinely codimension-two initial data run into the blowup;
    # subdivision 3 holds monitor noise well below the acceptance bands and
    # keeps the 10^4x curvature run affordable
    "pinched_ellipsoid": {
        "name": "pinched_ellipsoid", "surface": "ellipsoid_plus_bump",
        "a1": 1.2, "a2": 1.0, "a3": 0.9, "eps4": 0.05, "subdivisions": 3,
        "stop_factor": 1e4, "output_every": 1, "k": 29.0 / 40.0,
    },
}

_SURFACE_KEYS = {
    "icosphere": ("r", "subdivisions"),
    "ellipsoid_plus_bump": ("a1", "a2", "a3", "eps4", "subdivisions"),
    "product_torus": ("r1", "r2", "n1", "n2"),
}

_FLOW_KEYS = tuple(f.name for f in fields(FlowConfig))

_SCENARIO_KEYS = {"name", "surface", *_FLOW_KEYS}

# rescaled CSV column -> pinching_fields key
_RESCALED_COLUMNS = {"h": "h", "acirc2": "norm_acirc2", "kperp_abs": "kperp_abs",
                     "pinch_num": "pinch_num"}


def parse_scenario_text(text: str) -> dict:
    """Flat key = value scenario (or a JSON object)."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"scenario line {lineno}: empty key")
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def load_scenario(scenario: str) -> dict:
    if scenario in SCENARIO_PRESETS:
        return dict(SCENARIO_PRESETS[scenario])
    path = Path(scenario)
    if not path.exists():
        raise ValueError(f"unknown scenario {scenario!r}: not a preset "
                         f"({', '.join(sorted(SCENARIO_PRESETS))}) and no such file")
    sc = parse_scenario_text(path.read_text())
    kind = sc.get("surface")
    if not isinstance(kind, str) or kind not in _SURFACE_KEYS:  # a list is no dict key
        raise ValueError(f"unknown surface {kind!r}; options: {sorted(_SURFACE_KEYS)}")
    unknown = set(sc) - _SCENARIO_KEYS - set(_SURFACE_KEYS[kind])
    if unknown:
        raise ValueError(f"scenario {scenario}: unknown keys {sorted(unknown)}")
    sc.setdefault("name", path.stem)
    return sc


def build_surface(sc: dict):
    """The surface of a scenario that load_scenario returned."""
    kind = sc["surface"]
    kwargs = {k: sc[k] for k in _SURFACE_KEYS[kind] if k in sc}
    for k, v in kwargs.items():
        # eps4 takes any sign; every key besides it and the counts is a radius or a semi-axis
        count = k in ("n1", "n2", "subdivisions")
        v = kwargs[k] = finite_number(f"surface key {k}", v, integral=count)
        if not (v >= 0 if count else k == "eps4" or v > 0):
            raise ValueError(f"surface key {k} must be {'non-negative' if count else 'positive'}, "
                             f"got {v!r}")
    return getattr(builders, kind)(**kwargs)


def flow_config(sc: dict) -> FlowConfig:
    return FlowConfig(**{k: sc[k] for k in _FLOW_KEYS if k in sc and sc[k] is not None})


def _write_json(path, obj) -> str:
    """Write obj as JSON indented by 1, under a made parent directory; returns the text."""
    text = json.dumps(obj, indent=1)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="\n")
    return text


def _write_vertex_csv(path, header, cols) -> None:
    """One row per vertex: its index, then each column's value."""
    write_table(path, [["vertex", *header], *zip(range(len(cols[0])), *(c.tolist() for c in cols))])


def _write_fields_csv(path, mesh, cfg: FlowConfig) -> None:
    pf = pinching_fields(mesh.frame_h, mesh.frame_a, mesh.frame_b, mesh.frame_c,
                         cfg.gamma, k=cfg.k, eps=cfg.eps, sigma=cfg.sigma)
    _write_vertex_csv(path, ["H", "A2", "Q", "fsigma", "K", "Kperp"],
                      [pf[key] for key in ("h", "norm_a2", "q", "fsigma", "gauss_k", "normal_kperp")])


def _write_rescaled(rescaled, out: Path) -> list:
    """rescaled/rescaled_NNN.csv per rescaled snapshot under out; returns the summary rows."""
    rows = []
    for i, rs in enumerate(rescaled):
        _write_vertex_csv(out / "rescaled" / f"rescaled_{i:03d}.csv", list(_RESCALED_COLUMNS),
                          [rs.fields[key] for key in _RESCALED_COLUMNS.values()])
        rows.append({"index": i, "step": rs.step, "t": rs.t, "lambda": rs.lam,
                     "maxPinchNumerator": rs.max_pinch_numerator})
    return rows


def run_scenario(scenario: str, out_dir: str, seed: int = 0) -> dict:
    """Run one flow scenario and write all artifacts under out_dir.

    The builders are deterministic; seed is recorded for provenance.
    """
    sc = load_scenario(scenario)
    out = Path(out_dir)
    mesh = build_surface(sc)
    cfg = flow_config(sc)
    # the last config check, then the run directory: a bad --out fails
    # before the flow, and a bad config leaves no directory
    cfg.resolved_epsilon_z()
    out.mkdir(parents=True, exist_ok=True)

    result = run_flow(mesh, cfg)
    trace = result.trace
    trace.to_csv(out / "trace.csv")

    snap_dir = out / "snapshots"
    for i, snap in enumerate(result.snapshots):
        write_off4(snap.mesh, snap_dir / f"snap_{i:03d}.off4")
        _write_fields_csv(snap_dir / f"snap_{i:03d}_fields.csv", snap.mesh, cfg)
    _write_json(snap_dir / "index.json", [{"index": i, "step": s.step, "t": s.t, "maxA2": s.max_a2}
                                          for i, s in enumerate(result.snapshots)])

    t = trace.column("t").tolist()
    for col in TRACE_COLUMNS:
        if col != "t":
            write_table(out / "plot" / f"{col}.dat", zip(t, trace.column(col).tolist()), sep=" ")

    try:
        rescaled = type_i_rescale(result.snapshots, result.stop_a2, cfg.gamma)
        rescale_summary = _write_rescaled(rescaled, out)
    except Codim2FlowError as exc:
        rescale_summary = {"skipped": str(exc)}
    _write_json(out / "rescale_summary.json", rescale_summary)

    try:
        c0, delta = decay_exponent_fit(trace)
        decay = {"c0": c0, "delta": delta}
    except Codim2FlowError as exc:
        decay = {"skipped": str(exc)}
    _write_json(out / "decay_fit.json", decay)

    summary = {
        "scenario": sc,
        # run_flow has resolved gamma and epsilon_z
        "config": asdict(cfg),
        "seed": seed,
        "status": result.status,
        "steps": trace.rows[-1].step,
        "final_t": trace.rows[-1].t,
        "r0": result.r0,
        "stop_a2": result.stop_a2,
        # a NaN maxQ leaves the hypothesis unchecked, so the run does not claim it
        "hypothesis_violated": not trace.rows[0].maxQ < 0,
        "decay_fit": decay,
        "rejections": result.rejections,
        "cg_iterations": result.cg_iterations,
        "max_h_gap": result.max_h_gap,
    }
    _write_json(out / "run.json", summary)
    return summary


# ---------------------------------------------------------------------------
# subcommands


def _cmd_identities(args) -> int:
    report = identity_report(args.seed, args.count)
    if args.out:
        _write_json(Path(args.out) / "identities.json", report)
    else:
        print(json.dumps(report, indent=1))
    if not report["pass"]:
        failed = [p["property"] for p in report["properties"] if not p["pass"]]
        print(f"FAILED properties: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_certify(args) -> int:
    report = certify_negativity(args.k, delta=args.delta, grid=args.grid,
                                random_samples=args.samples, seed=args.seed,
                                gamma_override=args.gamma_override)
    if args.out:
        write_table(Path(args.out) / "worst_samples.csv", [["a", "b", "c", "value"], *report.worst])
    print(_write_json(Path(args.out) / "certificate.json", report.as_dict()) if args.out
          else json.dumps(report.as_dict(), indent=1))
    return 0


def _cmd_scan(args) -> int:
    res = threshold_scan(args.k_low, args.k_high, tol_k=args.tol, grid=args.grid,
                         random_samples=args.samples, seed=args.seed)
    print(_write_json(Path(args.out) / "scan.json", res.as_dict()) if args.out
          else json.dumps(res.as_dict(), indent=1))
    return 0


def _cmd_flow(args) -> int:
    names = args.scenario
    outs = []
    for name in names:
        stem = Path(name).stem if Path(name).exists() else name
        outs.append(str(Path(args.out or "runs") / stem))
    # checked before any run starts: two runs would write one directory
    clash = sorted({o for o in outs if outs.count(o) > 1})
    if clash:
        raise ValueError(f"scenarios share output directories {clash}; rename the files "
                         f"so that their stems differ")

    def report(summary):
        print(f"{summary['scenario']['name']}: {summary['status']} "
              f"after {summary['steps']} steps (t = {summary['final_t']:.5f})"
              + (" [hypothesis violated]" if summary["hypothesis_violated"] else ""))

    if args.jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: serial runs skip it
        # a forked pool starts all its workers at once: no more than scenarios
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(names))) as pool:
            futs = [pool.submit(run_scenario, s, o, args.seed) for s, o in zip(names, outs)]
            for fut in futs:
                report(fut.result())
    else:
        for s, o in zip(names, outs):
            report(run_scenario(s, o, args.seed))
    return 0


def _cmd_rescale(args) -> int:
    run_dir = Path(args.run)
    try:
        index = json.loads((run_dir / "snapshots" / "index.json").read_text())
        summary = json.loads((run_dir / "run.json").read_text())
        cfg, stop_a2 = flow_config(summary["scenario"]), summary["stop_a2"]
        for key, v in [("stop_a2", stop_a2),
                       *((k, e[k]) for e in index for k in ("index", "step", "t", "maxA2"))]:
            name, count = f"malformed flow run {run_dir}: {key}", key in ("index", "step")
            finite_number(name, v, integral=count)
            # index and step are written as integers, so 0.0 is refused; a non-positive
            # stop_a2 would switch off type_i_rescale's blow-up guard
            if count and not isinstance(v, int) or key == "stop_a2" and not v > 0:
                raise ValueError(f"{name} must be a finite {'integer' if count else 'number > 0'}, "
                                 f"got {v!r}")
        snaps = [Snapshot(e["step"], e["t"], e["maxA2"],
                          read_off4(run_dir / "snapshots" / f"snap_{e['index']:03d}.off4"))
                 for e in index]
    except OSError as exc:
        raise ValueError(f"cannot read flow run {run_dir}: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed flow run {run_dir}: {type(exc).__name__}: {exc}") from None
    out = Path(args.out) if args.out else run_dir
    rows = _write_rescaled(type_i_rescale(snaps, stop_a2, cfg.gamma), out)
    print(_write_json(out / "rescale_summary.json", rows))
    return 0


def make_parser() -> argparse.ArgumentParser:
    # options for before or after the subcommand; main holds their defaults, so
    # a subparser that is not given one cannot reset a value given before it
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=str, help="output directory")
    common.add_argument("--jobs", type=int)
    ap = argparse.ArgumentParser(prog="codim2flow", parents=[common],
                                 description="codimension-two mean curvature flow toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", parents=[common], help="identity/inequality sweeps")
    p.add_argument("--count", type=int, default=100_000)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("certify", parents=[common], help="reaction-sign certificate at one k")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--gamma-override", type=float, default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", parents=[common], help="threshold bisection in k")
    p.add_argument("--k-low", type=float, required=True)
    p.add_argument("--k-high", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--samples", type=int, default=200_000)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("flow", parents=[common], help="run flow scenarios")
    p.add_argument("scenario", nargs="+",
                   help=f"preset ({', '.join(sorted(SCENARIO_PRESETS))}) or config file")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("rescale", parents=[common], help="type-I rescaling of a finished run")
    p.add_argument("--run", type=str, required=True, help="flow output directory")
    p.set_defaults(func=_cmd_rescale)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv, argparse.Namespace(seed=0, out=None, jobs=1))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError, OSError, InvalidK, ResolutionTooCoarse,
            BracketInvalid) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1
    except Codim2FlowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
