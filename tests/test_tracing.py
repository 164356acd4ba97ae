"""The benchmark's trace hooks still see every layer of the sampler.

``benchmarks/tracing.py`` wraps each layer function where its caller looks it
up.  A refactor that routes a call around that lookup (a memo, a local alias)
would silently zero the benchmark's per-layer counts; this test fails instead.
"""

import importlib.util
import json
from pathlib import Path

from formalchain import cli

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

# acceptance-9 couplings with free fluctuations, as in the sample_mixed workload
MIXED = [
    "g.0=0.5", "g.1=1", "g.2=6", "f.0=0.01", "f.1=0.01", "f.2=0.01",
    "Lambda.0=0.05", "Lambda.1=0", "Lambda.2=0.5", "h.1=0",
    "weight.extend=0.15", "weight.fluctuate=0.65", "weight.reweight=0.2",
]


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_see_every_sampler_layer(capsys):
    tracing = _tracing_module()
    # the size of one sample_mixed run: its chains reach a reweight, the only
    # step that walks a whole chain through total_action
    argv = ["sample", "--seed", "5000", "--chains", "4", "--sweeps", "100"]
    for item in MIXED:
        argv += ["--set", item]
    t = tracing.Tracer()
    with tracing.traced(t):
        assert cli.main(argv) == 0
    acceptance = json.loads(capsys.readouterr().out)["acceptance"]
    totals = t.layer_totals()
    for name in ("topo.iso_key", "growth.double_cross", "growth.grow_superposed",
                 "action.total_action", "topo.moves_for", "topo.apply_pachner",
                 "chains.propose_extend"):
        assert totals.get(name, (0, 0.0))[0] >= 1, name
    assert t.counts["action.s_d_parts.calls"] >= 1
    # the tracer counts steps by ``StepInfo.kind`` and ``StepInfo.accepted``;
    # its counts must be the run's own
    traced = {kind: {stat: t.counts[f"chains.accept.{kind}.{stat}"]
                     for stat in ("accepted", "proposed")}
              for kind in tracing.KINDS if t.counts[f"chains.accept.{kind}.proposed"]}
    assert traced == acceptance


def test_trace_hooks_see_every_positivity_search(capsys):
    # the four families go through one search and the mock family through a
    # second, both looked up as ``cli.lightlike_search``
    tracing = _tracing_module()
    t = tracing.Tracer()
    with tracing.traced(t):
        assert cli.main(["positivity", "--seed", "3", "--points", "6", "--families", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["min_residuals"]) == 4
    totals = t.layer_totals()
    assert totals["pairing.lightlike_search"][0] == 2
    assert totals["pairing.cauchy_schwarz_check"][0] == 1
