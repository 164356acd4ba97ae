"""Benchmark workloads: inputs made from a seed, one pass through the public
``formalchain.cli.main`` entry point in-process, and the check every pass's
output must satisfy.

A pass runs in the current directory, which holds the generated inputs and
receives the trace files the CLI writes; file names are relative so that a
pass's stdout does not depend on where the benchmark runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from formalchain import cli

# Acceptance-9 couplings, the paper's headline experiment; only h.1 differs
# between the free and the stiff run.
MIXED = {
    "g.0": "0.5", "g.1": "1", "g.2": "6",
    "f.0": "0.01", "f.1": "0.01", "f.2": "0.01",
    "Lambda.0": "0.05", "Lambda.1": "0", "Lambda.2": "0.5",
    "weight.extend": "0.15", "weight.fluctuate": "0.65", "weight.reweight": "0.2",
    "mock_stage": "true",
}


def pass_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th pass of a run with workload seed ``seed``."""
    return seed * 1000 + index


@dataclass
class Call:
    """One ``cli.main`` invocation; ``trace`` names the CSV it writes, if any."""

    argv: List[str]
    trace: Optional[str] = None


@dataclass
class Output:
    call: Call
    rc: int
    stdout: str
    trace_text: Optional[str]


@dataclass
class PassResult:
    seconds: float
    problems: List[str] = field(default_factory=list)
    stdout_sha256: str = ""
    trace_sha256: Optional[str] = None
    trace_bytes: int = 0


class Workload:
    name = ""

    def write_inputs(self) -> None:
        """Write the generated input files into the current directory."""

    def calls(self, seed: int, index: int) -> List[Call]:
        raise NotImplementedError

    def check(self, outputs: Sequence[Output]) -> List[str]:
        raise NotImplementedError


class Sample(Workload):
    """``formalchain sample`` once per config, each with ``--trace``.

    Every pass samples the same chains: config ``k`` gets sampler seed ``k``
    and the workload seed does not enter.  A chain's cost depends on its
    sampler seed (coefficient of variation about 0.8 at 100 sweeps), so
    chains drawn from the workload seed would make runs differ by their draw
    more than by the code.
    """

    def __init__(self, name: str, configs: Dict[str, Dict[str, str]], chains: int, sweeps: int):
        self.name = name
        self.configs = configs
        self.chains = chains
        self.sweeps = sweeps

    def write_inputs(self) -> None:
        for label, settings in self.configs.items():
            text = "".join(f"{k} = {v}\n" for k, v in settings.items())
            Path(f"{label}.cfg").write_text(text)

    def calls(self, seed: int, index: int) -> List[Call]:
        return [
            Call(
                ["sample", "--seed", str(k), "--config", f"{label}.cfg",
                 "--chains", str(self.chains), "--sweeps", str(self.sweeps),
                 "--trace", f"{label}.csv"],
                f"{label}.csv",
            )
            for k, label in enumerate(self.configs)
        ]

    def check(self, outputs: Sequence[Output]) -> List[str]:
        problems = []
        for out in outputs:
            label = out.call.trace
            if out.rc != 0:
                problems.append(f"{label}: exit {out.rc}")
                continue
            payload = json.loads(out.stdout)
            ended = sum(payload["termination_histogram"].values()) + payload["unterminated"]
            if ended != self.chains:
                problems.append(f"{label}: histogram + unterminated = {ended}, chains = {self.chains}")
            rows = out.trace_text.splitlines()[1:]
            if len(rows) != self.chains * self.sweeps:
                problems.append(f"{label}: {len(rows)} trace rows, expected {self.chains * self.sweeps}")
            if not all(math.isfinite(float(row.split(",")[2])) for row in rows):
                problems.append(f"{label}: non-finite S_total in trace")
        return problems


class TwoField(Workload):
    """``formalchain twofield`` on a 128 grid at lambda 0 and 0.5.

    The input is fixed; the seed does not enter it.
    """

    name = "twofield"
    lambdas = ("0", "0.5")
    steps = 1000
    dt = 1e-3

    def calls(self, seed: int, index: int) -> List[Call]:
        return [
            Call(["twofield", "--lambda", lam, "--steps", str(self.steps),
                  "--dt", repr(self.dt), "--grid", "128"])
            for lam in self.lambdas
        ]

    def check(self, outputs: Sequence[Output]) -> List[str]:
        problems = []
        horizon = self.steps * self.dt
        erased_drift = {}
        for out in outputs:
            lam = out.call.argv[2]
            if out.rc != 0:
                problems.append(f"lambda={lam}: exit {out.rc}")
                continue
            rows = [
                [float(x) for x in line.split(",")]
                for line in out.stdout.splitlines()[3:]
            ]
            joint = max(abs(r[1] - rows[0][1]) for r in rows)
            if not joint < 1e-10 * (horizon + 1.0):
                problems.append(f"lambda={lam}: joint-norm drift {joint:.3e}")
            erased_drift[lam] = max(abs(r[2] - rows[0][2]) for r in rows)
        if len(erased_drift) == 2:
            free, coupled = erased_drift["0"], erased_drift["0.5"]
            if not free < 1e-6:
                problems.append(f"lambda=0: erased drift {free:.3e} not below 1e-6")
            if not coupled > 10.0 * free:
                problems.append(f"lambda=0.5: erased drift {coupled:.3e} not above 10x {free:.3e}")
        return problems


class Positivity(Workload):
    """``formalchain positivity --points 6`` over a few random families."""

    name = "positivity"
    families = 4

    def calls(self, seed: int, index: int) -> List[Call]:
        return [Call(["positivity", "--seed", str(pass_seed(seed, index)),
                      "--points", "6", "--families", str(self.families)])]

    def check(self, outputs: Sequence[Output]) -> List[str]:
        out = outputs[0]
        if out.rc != 0:
            return [f"exit {out.rc}"]
        payload = json.loads(out.stdout)
        problems = []
        if payload["order_violations"] != 0:
            problems.append(f"{payload['order_violations']} order violations")
        if not payload["mock_null_residual"] <= 1e-8:
            problems.append(f"mock null residual {payload['mock_null_residual']:.3e}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Sample("sample_mixed", {"free": {**MIXED, "h.1": "0"}, "stiff": {**MIXED, "h.1": "100"}},
               chains=4, sweeps=100),
        TwoField(),
        Positivity(),
    )
}


def run_pass(workload: Workload, seed: int, index: int) -> PassResult:
    """Run pass ``index`` and check it; only the CLI calls are timed."""
    outputs = []
    problems = []
    start = time.perf_counter()
    try:
        for call in workload.calls(seed, index):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(call.argv)
            outputs.append(Output(call, rc, buf.getvalue(), None))
    except (Exception, SystemExit) as exc:  # a pass that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        problems.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    result = PassResult(seconds, problems)
    for out in outputs:
        if out.call.trace is not None and out.rc == 0:
            out.trace_text = Path(out.call.trace).read_text()
            result.trace_bytes += len(out.trace_text.encode())
    result.stdout_sha256 = hashlib.sha256("".join(o.stdout for o in outputs).encode()).hexdigest()
    traces = [o.trace_text for o in outputs if o.trace_text is not None]
    if traces:
        result.trace_sha256 = hashlib.sha256("".join(traces).encode()).hexdigest()
    if not problems:
        try:
            problems.extend(workload.check(outputs))
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result
