"""codim2flow benchmark: three workloads, time to solution, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload pinched_blowup --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): pinched_blowup,
sphere_oracle, certification; `--workload all` runs each in turn in its own
process and ends with one JSON line of all three results.  With --trace 0 a
run measures, untraced:

    wall_s       mean time of one solve, inputs built to outputs checked, over
                 every solve of the run; solves repeat while the next one would
                 end within --seconds (at least one).  The mean, not the
                 median, because other tenants slow a shared host in spells:
                 the median of a few solves jumps between a slow and a fast
                 spell, where the mean follows the share of time in each
    setup_s      median over fresh processes of importing codim2flow plus
                 building the workload's inputs
    peak_rss_mb  peak resident memory of this process

With --trace 1 the run solves once untraced and once with every public
codim2flow function wrapped in a span, prints the per-layer table and the
tracing overhead, and reports the per-layer metrics.  Every solve's outputs
are checked; a failed check counts as a failed operation.  The last stdout
line is the JSON result; a result file with provenance, and in traced runs
the spans, go to perfbench/results/.
"""

import os
import sys

BLAS_THREADS = 1
# pin BLAS threads before numpy is first imported, here and in set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("pinched_blowup", "sphere_oracle", "certification")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120


def _import_package():
    """Import codim2flow from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import codim2flow
    if Path(codim2flow.__file__).resolve().parent != SRC / "codim2flow":
        raise ImportError(f"codim2flow resolved to {codim2flow.__file__}, not under {SRC}")
    import codim2flow.cli  # noqa: F401  (pulls in every layer)


# ---------------------------------------------------------------------------
# provenance


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():    # a plain source tree: never ask an enclosing repo
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "codim2flow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
    }


# ---------------------------------------------------------------------------
# measuring


def run_operations(solve, check, finish, seconds: float, clock=time.perf_counter):
    """Solve-and-check within `seconds`, at least once.

    A further solve starts only if, at the mean solve time so far, it would
    end within `seconds`, so a run never overruns by a partial solve.  Returns
    (times, failed, counts): the wall time of every solve including its check,
    the number of solves that raised or failed a check, and the output counts
    of the last solve.  A failure never stops the loop.
    """
    times, failed, counts = [], 0, {}
    deadline = clock() + seconds
    while True:
        t0 = clock()
        try:
            out = solve()
            problems = check(out)
        except Exception:
            out, problems = None, [traceback.format_exc()]
        times.append(clock() - t0)
        if problems:
            failed += 1
            print(f"FAILED operation {len(times)}:", *problems, sep="\n  ", file=sys.stderr)
        if out is not None:
            counts = finish(out)
        if clock() + statistics.fmean(times) > deadline:
            return times, failed, counts


def probe_setup(name: str, seed: int) -> dict:
    """Set-up in this fresh process: import, then build the inputs."""
    t0 = time.perf_counter()
    _import_package()
    t1 = time.perf_counter()
    import workloads
    RESULTS.mkdir(exist_ok=True)
    t2 = time.perf_counter()
    workloads.WORKLOADS[name].setup(seed, RESULTS)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t3 - t2}


def measure_setup(name: str, seed: int, count: int) -> list:
    """Set-up times from `count` fresh interpreter processes, one after another."""
    out = []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _usage() -> dict:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": r.ru_utime, "sys_s": r.ru_stime, "minor_faults": r.ru_minflt}


def _usage_since(before: dict) -> dict:
    now = _usage()
    return {k: now[k] - before[k] for k in now}


def run_untraced(wl, inputs, seconds: float, seed: int) -> tuple[dict, dict]:
    # half the set-up probes before the solves and half after, so that their
    # median samples the machine's speed over the whole run, as wall_s does
    probes = measure_setup(wl.name, seed, SETUP_PROBES // 2)
    before = _usage()
    times, failed, counts = run_operations(
        lambda: wl.solve(inputs), lambda out: wl.check(inputs, out), wl.finish, seconds)
    usage = _usage_since(before)
    probes += measure_setup(wl.name, seed, SETUP_PROBES - SETUP_PROBES // 2)
    setups = [p["import_s"] + p["build_s"] for p in probes]
    metrics = {
        "wall_s": {"value": statistics.fmean(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    detail = {"solve_s": times, "solve_usage": usage, "setup_probes": probes,
              "output_counts": counts, "attempted": len(times), "failed": failed}
    return metrics, detail


def run_traced(wl, seed: int) -> tuple[dict, dict, object]:
    """Per-layer metrics from one traced solve in this process.

    The untraced reference solve runs first, in a fresh process of its own,
    so that both solves start from a cold interpreter and allocator.
    """
    import tracing
    _, plain = run_child(wl.name, seed, 0, 0)
    tracer = tracing.Tracer()
    tracing.install_counters(tracer)
    tracer.install()
    try:
        tracer.run = "setup"
        inputs = wl.setup(seed, RESULTS)
        tracer.run = "solve"
        before = _usage()
        traced_s, failed, counts = run_operations(
            lambda: wl.solve(inputs), lambda out: wl.check(inputs, out), wl.finish, 0.0)
        usage = _usage_since(before)
    finally:
        tracer.uninstall()
    tracer.counters.update(counts)
    tracer.counters["process.minor_faults"] = usage["minor_faults"]
    tracer.counters["process.sys_s"] = usage["sys_s"]
    untraced_s = plain["metrics"]["wall_s"]["value"]
    metrics, notes = tracing.per_layer_metrics(tracer, traced_s[0] - untraced_s)
    detail = {"untraced_s": untraced_s, "traced_s": traced_s[0], "solve_usage": usage,
              "notes": notes, "attempted": 1 + plain["attempted"],
              "failed": failed + plain["failed"]}
    return metrics, detail, tracer


def print_layer_table(metrics: dict, notes: dict, detail: dict) -> None:
    print(f"{'metric':44s} {'value':>14s}  unit")
    for name, m in metrics.items():
        v = m["value"]
        shown = f"{v:d}" if isinstance(v, int) else f"{v:.6g}"
        note = notes.get(name, "")
        print(f"{name:44s} {shown:>14s}  {m['unit']}" + (f"   ({note})" if note else ""))
    print(f"tracing overhead: traced {detail['traced_s']:.3f} s - untraced "
          f"{detail['untraced_s']:.3f} s = {detail['traced_s'] - detail['untraced_s']:+.3f} s")


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[list, dict]:
    """One benchmark run in a fresh process: its printed lines and its result."""
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{name} run exited with code {res.returncode}")
    lines = res.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, each in its own process so that peak_rss_mb stays its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        lines, results[name] = run_child(name, args.seed, args.seconds, args.trace)
        print(*lines, sep="\n")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)

    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import codim2flow from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    RESULTS.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail, tracer = run_traced(wl, args.seed)
        print_layer_table(metrics, detail["notes"], detail)
        tracer.write_csv(RESULTS / f"{stem}-spans.csv")
    else:
        inputs = wl.setup(args.seed, RESULTS)
        metrics, detail = run_untraced(wl, inputs, args.seconds, args.seed)
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
         "provenance": prov, "detail": detail, "result": result}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
