"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20
    python3 perfbench/sweep.py --workloads field_cli --seeds 1-5 --trace 1

Runs go one after another, each in its own process. For every workload and
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles over the median), which is how the bounds in
BENCHMARK.json are checked. With ``--trace 1`` it prints the per-layer
figures of each run instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("markov_table", "survey_bench", "bound_audit", "field_cli")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )  # fmt: skip
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2].removeprefix("info "))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        ok = all(r["correct"] for r in runs)
        failed = sorted({(r["failed"], r["attempted"]) for r in runs})
        ops = [r["info"]["ops"] for r in runs]
        run_s = [r["info"]["run_s"] for r in runs]
        print(f"## {workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, correct={ok}, "
              f"ops per run {min(ops)}-{max(ops)}, (failed, attempted) {failed}, "
              f"run {min(run_s):.0f}-{max(run_s):.0f} s")  # fmt: skip
        if args.trace:
            print(f"traced op_p50_s: {statistics.median(r['info']['op_p50_s'] for r in runs):.4g}")
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                if any(vals):
                    print(f"| {name} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")
            continue
        print("| metric | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|")
        for r in runs:
            for key in ("wall_op_p50_s", "wall_ops_per_s", "host_speed_p50"):
                r["metrics"][f"{key} (info line, no bound)"] = {"value": r["info"][key]}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")
        print()


if __name__ == "__main__":
    main()
