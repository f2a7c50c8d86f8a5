"""The benchmark's self-check passes against the source tree.

``perfbench/run.py --self-check`` runs one op of every workload and checks
it against the numpy-only references, so a package change that breaks a
workload or its reference check fails here, in the suite, and not first in
a benchmark run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check_passes():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    ok = re.findall(r"^(\w+): ok \(", res.stdout, re.M)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(ok) == sorted(w["name"] for w in declared), res.stdout
