"""Run one nhchain benchmark workload and print its metrics.

    python3 bench/run.py --workload sp_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; nhchain is imported from its src/.
Each call is one fresh process.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run (see README.md).  `--workload all`
runs every workload in its own process, one after the other.
"""

import os

# One BLAS thread, set before numpy loads: with two threads timings on a
# two-core machine vary by up to 7x.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from calibrate import REF_S, SETUP_MIX, calibrate, normalized
from layers import LAYERS, PER_LAYER, Health, install, metrics
from spans import Patcher, Tracer
from workloads import WORKLOADS, Check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5            # set-ups before every unit and after the last
M_MMAP_THRESHOLD = -3          # glibc mallopt parameter
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [  # (name, unit)
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
]


def pin_malloc() -> bool:
    """Fix glibc's mmap threshold at its initial 128 KiB; False without glibc.

    By default glibc raises the threshold whenever a large block is freed,
    so whether a later large array reuses heap pages depends on the
    allocation history.  The peak RSS of the same mb_statics unit then
    came out as either 180 or 193 MB.  With the threshold fixed, every
    large array goes back to the system when it is freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision(root: str):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            info = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(ROOT),
    }


def import_program():
    """(Re)import nhchain from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "nhchain" or m.startswith("nhchain.")]:
        del sys.modules[name]
    nh = importlib.import_module("nhchain")
    importlib.import_module("nhchain.cli")      # not imported by the package itself
    if not os.path.abspath(nh.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"nhchain imported from {nh.__file__}, not from this checkout")
    return nh


def load_reference(workload, seed: int) -> dict:
    path = os.path.join(HERE, "reference", f"{workload.name}.json")
    with open(path) as fh:
        return json.load(fh)["variants"][workload.variant(seed)]


def run_unit(workload, nh, inp, health, tracer=None, run_id=0):
    """Time one unit; returns (wall seconds, result, error or None)."""
    if tracer is not None:
        tracer.run = run_id
        install(tracer, nh, health)
        root = tracer.open("bench.unit")
    elif workload.keeps_decomps:
        tap = Patcher()
        tap.patch(nh.sweep, "decompose", lambda decompose: _keeping(health, decompose))
    result, error = None, None
    t0 = perf_counter()
    try:
        result = workload.unit(nh, inp)
    except Exception as exc:          # counted as a failure, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.restore()
    elif workload.keeps_decomps:
        tap.restore()
    return wall, result, error


def _keeping(health, decompose):
    """decompose, keeping each result for the checks; nothing is timed."""
    def keep(*args, **kwargs):
        decomp = decompose(*args, **kwargs)
        health.decomps.append(decomp)
        return decomp
    return keep


def check_unit(workload, inp, result, error, ref, residuals) -> list:
    if error is not None:
        return [Check("error", False, error)]
    try:
        out = workload.outputs(inp, result)
    except (OSError, ValueError, KeyError) as exc:
        return [Check("outputs", False, f"{type(exc).__name__}: {exc}")]
    return workload.checks(inp, out, ref, residuals)


def tally(checks: list) -> tuple:
    """(attempted, failed); fail_frac is failed / attempted."""
    return len(checks), sum(1 for c in checks if not c.ok)


def measure(workload, seed: int, workdir: str, ref: dict, seconds: float, traced: bool):
    """Timed units until `seconds` would be exceeded (at least one).

    Untraced: every unit is untraced.  The calibrations (see calibrate.py)
    of the set-ups and of the workload's units, if it has one, are timed
    before the first unit and after every unit, after one untimed warm-up
    call each.  Traced: units alternate untraced, traced, untraced, ...;
    the untraced ones give the overhead baseline.
    SETUP_REPEATS set-ups precede every unit and follow the last, so the
    set-up times sample the whole run and not one moment of it.  Peak RSS
    is read after the first unit, so it does not depend on how many units
    fit in the run.
    """
    setups = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            nh = import_program()
            inp = workload.inputs(nh, seed, workdir)
            setups.append(perf_counter() - t0)
        return nh, inp

    health = Health()
    tracer = Tracer() if traced else None
    walls, traced_walls, checks = [], [], []
    mixes = [] if traced else sorted({SETUP_MIX, workload.calibration} - {None})
    cals = {mix: [] for mix in mixes}

    def calibrate_all():
        for mix in mixes:
            cals[mix].append(calibrate(mix))

    start = perf_counter()
    for mix in mixes:
        calibrate(mix)                        # the first call pays one-time costs
    calibrate_all()
    while True:
        step_start = perf_counter()
        nh, inp = set_up()
        use_tracer = traced and len(walls) > len(traced_walls)
        wall, result, error = run_unit(workload, nh, inp, health,
                                       tracer if use_tracer else None, len(traced_walls))
        (traced_walls if use_tracer else walls).append(wall)
        if len(walls) + len(traced_walls) == 1:
            rss_mb = peak_rss_mb()
        checks += check_unit(workload, inp, result, error, ref, health.settle())
        calibrate_all()
        now = perf_counter()
        if traced and not traced_walls:
            continue
        if (now - start) + (now - step_start) > seconds:
            break
    set_up()
    return walls, traced_walls, cals, checks, setups, tracer, health, rss_mb


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "nhchain", "__init__.py")):
        print(f"error: no nhchain source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = WORKLOADS[args.workload]
    malloc_pinned = pin_malloc()
    workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref = load_reference(workload, args.seed)
        walls, traced_walls, cals, checks, setups, tracer, health, rss_mb = measure(
            workload, args.seed, workdir, ref, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(checks)
    env = environment()
    if args.trace:
        values = metrics(tracer.spans, health, statistics.mean(walls))
        units = {name: unit for name, unit, _ in PER_LAYER}
        trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path, {"workload": workload.name, "seed": args.seed,
                                        "env": env, "not_wrapped": tracer.missing})
        layer_sum = values["other.s"] + sum(values[f"{layer}.self_s"] for layer in LAYERS)
        notes = {"traced_units": len(traced_walls), "untraced_units": len(walls),
                 "self_time_sum_s": layer_sum, "trace_file": os.path.relpath(trace_path, ROOT),
                 "not_wrapped": tracer.missing}
    else:
        mix = workload.calibration
        norm_walls = walls if mix is None else normalized(walls, cals[mix], REF_S[mix])
        speed = REF_S[SETUP_MIX] / statistics.median(cals[SETUP_MIX])
        values = {"norm_wall_s": statistics.median(norm_walls),
                  "setup_s": statistics.median(setups) * speed,
                  "peak_rss_mb": rss_mb, "pass_frac": 1.0 - failed / attempted}
        units = dict(END_TO_END)
        notes = {"units": len(walls), "wall_s": statistics.median(walls),
                 "unit_walls_s": walls, "calibration_s": cals, "unit_norm_walls_s": norm_walls,
                 "setup_runs_s": setups, "fail_frac": failed / attempted}

    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{workload.name} wall_s = {notes['wall_s']:.6g} s (median unit, not normalized)")
    print(f"{workload.name} fail_frac = {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for c in [c for c in checks if not c.ok][:10]:
        print(f"  FAILED {c.name}: {c.detail}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": env, "malloc_pinned": malloc_pinned,
                      "peak_rss_mb_at_exit": peak_rss_mb(), **notes}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metric lines."""
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        print("\n".join(line for line in proc.stdout.splitlines() if not line.startswith("{")))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
