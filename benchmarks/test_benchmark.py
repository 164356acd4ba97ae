"""Tests of the benchmark itself; run with ``python -m pytest benchmarks``."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import tracing  # noqa: E402

ONE_PASS = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
w = workloads.WORKLOADS["sample_mixed"]
w.write_inputs()
r = workloads.run_pass(w, 7, 0)
print(json.dumps({{"problems": r.problems, "stdout": r.stdout_sha256, "trace": r.trace_sha256}}))
"""


def _one_pass(hash_seed: int, cwd: Path) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    done = subprocess.run(
        [sys.executable, "-c", ONE_PASS.format(src=str(SRC), here=str(HERE))],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_sample_mixed_pass_is_independent_of_hash_seed(tmp_path):
    runs = []
    for hash_seed in (0, 1):
        cwd = tmp_path / str(hash_seed)
        cwd.mkdir()
        runs.append(_one_pass(hash_seed, cwd))
    assert runs[0]["problems"] == [] and runs[1]["problems"] == []
    assert runs[0]["trace"] is not None
    assert runs[0]["trace"] == runs[1]["trace"]
    assert runs[0]["stdout"] == runs[1]["stdout"]


def test_self_time_excludes_child_spans():
    t = tracing.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
               ["leaf", 2.0, 3.0, 1]]
    totals = t.layer_totals()
    assert totals["outer"] == (1, 6.0)
    assert totals["inner"] == (2, 3.0)
    assert totals["leaf"] == (1, 1.0)
