"""Benchmark runner for transectplan.

    python3 perfbench/run.py --workload markov_table --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

One invocation runs one workload in its own process: set-up, one untimed
warm-up op, whole rounds of timed ops until ``--seconds`` have passed, then
the reference checks of every op. The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer calls and self time per op.
The end-to-end timings are scaled to a reference host speed by a kernel timed
between ops (see ``calibration``); the ``info`` line before the result keeps
the raw wall-clock figures. ``--self-check`` runs one checked op of every
workload.
"""

import os
import time

STARTED = time.perf_counter()

# BLAS reads its thread count when numpy loads, so pin it before any import
# can load numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
# At most this many ops are checked per run, spread evenly over the run, so
# the checks stay bounded however fast the package gets.
MAX_CHECKED = 400

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import transectplan, transectplan.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )  # fmt: skip
    return float(done.stdout.split()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def setup_seconds(workload, seed: int) -> float:
    """Median package import plus median time to draw one round's inputs,
    each at the reference speed of the ``small`` calibration kernel."""
    import numpy as np

    def timed(fn) -> float:
        before = calibration.kernel_seconds("small")
        took = fn()
        after = calibration.kernel_seconds("small")
        return calibration.scaled(took, before, after, "small")

    def draw() -> float:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        for i in range(workload.ROUND):
            workload.inputs(rng, i)
        return time.perf_counter() - t0

    imports = [timed(import_seconds) for _ in range(SETUP_REPEATS)]
    draws = [timed(draw) for _ in range(SETUP_REPEATS)]
    return statistics.median(imports) + statistics.median(draws)


def checked(done: list) -> list:
    """Every op when there are few; otherwise MAX_CHECKED evenly spaced ones."""
    if len(done) <= MAX_CHECKED:
        return done
    step = (len(done) - 1) / (MAX_CHECKED - 1)
    return [done[round(j * step)] for j in range(MAX_CHECKED)]


def measure(workload, seed: int, seconds: float, tracer, trace: bool) -> dict:
    import numpy as np

    kernel = workload.CALIBRATION
    rng = np.random.default_rng(seed)
    done = [(inp := workload.inputs(rng, 0), workload.run(inp))]  # warm-up
    times, scaled, speeds, failed, i = [], [], [], 0, 1
    before = calibration.kernel_seconds(kernel)
    start = time.perf_counter()
    while True:
        for _ in range(workload.ROUND):
            inp = workload.inputs(rng, i)
            i += 1
            tracer.active = trace
            t0 = time.perf_counter()
            ok = True
            try:
                out = workload.run(inp)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            took = time.perf_counter() - t0
            tracer.active = False
            after = calibration.kernel_seconds(kernel)
            if not ok:
                failed += 1
            else:
                times.append(took)
                scaled.append(calibration.scaled(took, before, after, kernel))
                speeds.append(calibration.REFERENCE_S[kernel] / after)
                done.append((inp, out))
            before = after
        if time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_checks = time.perf_counter()
    errors = []
    for inp, out in checked(done):
        errors += workload.check(inp, out)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(times) + failed,
        "failed": failed,
        "times": times,
        "scaled": scaled,
        "speeds": speeds,
        "window": window,
        "peak_rss_mb": peak_rss_mb,
        "checks_s": time.perf_counter() - t_checks,
    }


def self_check(workloads, workdir: Path) -> int:
    import numpy as np

    bad = 0
    for cls in workloads.values():
        wl = cls(workdir)
        inp = wl.inputs(np.random.default_rng(0), 0)
        t0 = time.perf_counter()
        errors = wl.check(inp, wl.run(inp))
        print(f"{cls.name}: {'ok' if not errors else 'FAIL'} ({time.perf_counter() - t0:.2f} s)")
        for e in errors:
            print(f"  {e}")
        bad += bool(errors)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "transectplan" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if not args.self_check and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    workdir = ROOT / ".perfbench_runs" / f"{args.workload or 'self-check'}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.self_check:
            return self_check(workloads.WORKLOADS, workdir)
        workload = workloads.WORKLOADS[args.workload](workdir)
        setup_s = setup_seconds(workload, args.seed)
        tracer = spans.Tracer()
        tracer.install()
        res = measure(workload, args.seed, args.seconds, tracer, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    times, scaled = res["times"], res["scaled"]
    if not times:
        print("error: no op completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = tracer.per_op(res["attempted"])
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    # The timings above are at the calibration kernel's reference speed; the
    # info line repeats the median op (traced runs too) and keeps the raw
    # wall-clock figures and the host speed beside it.
    info = {"workload": args.workload, "seed": args.seed, "ops": len(times),
            "op_p50_s": statistics.median(scaled),
            "wall_op_p50_s": statistics.median(times),
            "wall_ops_per_s": len(times) / res["window"],
            "host_speed_p50": statistics.median(res["speeds"]),
            "window_s": res["window"], "checks_s": res["checks_s"],
            "run_s": time.perf_counter() - STARTED, "env": environment()}  # fmt: skip
    print("info " + json.dumps(info))
    result = {k: res[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
