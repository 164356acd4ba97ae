"""Traced runs: spans and counters around the public layer functions.

The callers import layer functions by name, so each function is wrapped where
its caller looks it up: a module attribute, an entry of ``chains.PROPOSALS``
or the ``Superposition.collect`` static method.  Spans stay in memory until
the run ends.  A layer's self time is the duration of its spans minus the
time their child spans cover.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from formalchain import action, chains, cli, growth, pairing, superpose

KINDS = ("extend", "fluctuate", "reweight")


def _simplices(t) -> int:
    return len(t.vertex_sign) + len(t.edges) + len(t.faces)


class Tracer:
    """Spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span; ``on_call(args)`` and ``on_result(result)``
        add counts outside the span."""
        spans, open_, counts = self.spans, self._open, self.counts
        raised = name + ".raised"

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted, without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - inner)
        return out


def _patches(t: Tracer) -> List[Tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced lookup site."""
    c = t.counts

    def iso_key_faces(args):
        c["topo.iso_key.faces"] += _simplices(args[0])

    def action_sites(args):
        c["action.total_action.sites"] += sum(1 for _ in args[0].euclidean_sites())

    def step_outcome(result):
        info = result[1]
        if info.kind in KINDS:
            c[f"chains.accept.{info.kind}.proposed"] += 1
            c[f"chains.accept.{info.kind}.accepted"] += int(info.accepted)

    def none_counter(kind):
        def on_result(result):
            if result is None:
                c[f"chains.propose_{kind}.none"] += 1
        return on_result

    def evolve_work(args):
        p = args[1]
        n2 = p.grid_n * p.grid_n
        c["twofield.evolve.steps"] += p.steps
        # per step: fft2 and ifft2 at 5 N^2 log2(N^2) flops each, and 13 reads
        # or writes of a 16-byte N x N array (three for each of the two
        # half-step potential products and the kinetic product, two for each
        # transform); cache reuse and the transforms' inner passes ignored
        c["twofield.evolve.fft_flops_computed"] += p.steps * 2 * 5 * n2 * math.log2(n2)
        c["twofield.evolve.bytes_computed"] += p.steps * 13 * 16 * n2

    original_collect = superpose.Superposition.collect

    def collect(raw, *args, **kwargs):
        raw = list(raw)
        c["superpose.collect.terms_in"] += len(raw)
        out = original_collect(raw, *args, **kwargs)
        c["superpose.collect.terms_out"] += len(out)
        return out

    iso_key = t.wrap("topo.iso_key", chains.iso_key, on_call=iso_key_faces)
    pair = t.counter("pairing.pair.calls", pairing.pair)
    patches = [
        (cli, "main", t.wrap("cli.main", cli.main)),
        (cli, "run_chains", t.wrap("chains.run", cli.run_chains)),
        (cli, "lightlike_search", t.wrap("pairing.lightlike_search", cli.lightlike_search)),
        (cli, "cauchy_schwarz_check", t.wrap("pairing.cauchy_schwarz_check", cli.cauchy_schwarz_check)),
        (cli, "evolve", t.wrap("twofield.evolve", cli.evolve, on_call=evolve_work)),
        (cli, "pair", pair),
        (pairing, "pair", pair),
        (chains, "total_action", t.wrap("action.total_action", chains.total_action, on_call=action_sites)),
        (chains, "iso_key", iso_key),
        (growth, "iso_key", iso_key),
        (chains, "moves_for", t.wrap("topo.moves_for", chains.moves_for)),
        (chains, "apply_pachner", t.wrap("topo.apply_pachner", chains.apply_pachner)),
        (chains, "double_cross", t.wrap("growth.double_cross", chains.double_cross)),
        (chains, "grow_superposed", t.wrap("growth.grow_superposed", chains.grow_superposed)),
        (chains, "step", t.wrap("chains.step", chains.step, on_result=step_outcome)),
        (action, "classify_surface", t.wrap("topo.classify_surface", action.classify_surface)),
        (action, "s_d_parts", t.counter("action.s_d_parts.calls", action.s_d_parts)),
        (superpose.Superposition, "collect", staticmethod(t.wrap("superpose.collect", collect))),
    ]
    for kind in KINDS:
        fn = chains.PROPOSALS[kind]
        patches.append((chains.PROPOSALS, kind,
                        t.wrap(f"chains.propose_{kind}", fn, on_result=none_counter(kind))))
    return patches


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def traced(t: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, replacement in _patches(t):
            original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
            saved.append((owner, attr, original))
            _set(owner, attr, replacement)
        yield t
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


def layer_values(t: Tracer, names: Iterable[str], passes: int, trace_bytes: int) -> Dict[str, float]:
    """The named ``<layer>.<stat>`` metrics per traced pass.

    ``calls`` and ``self_s`` come from spans unless a counter of that name
    exists; derived ratios are filled in last.
    """
    totals = t.layer_totals()
    values: Dict[str, float] = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in t.counts:
            value = t.counts[name]
        elif stat == "calls":
            value = totals.get(layer, (0, 0.0))[0]
        elif stat == "self_s":
            value = totals.get(layer, (0, 0.0))[1]
        else:
            value = 0.0
        values[name] = value / passes
    for k in KINDS:
        proposed = t.counts.get(f"chains.accept.{k}.proposed", 0.0)
        accepted = t.counts.get(f"chains.accept.{k}.accepted", 0.0)
        values[f"chains.accept_ratio.{k}"] = accepted / proposed if proposed else 0.0
    evolve_s = totals.get("twofield.evolve", (0, 0.0))[1]
    flops = t.counts.get("twofield.evolve.fft_flops_computed", 0.0)
    values["twofield.evolve.gflops"] = flops / evolve_s / 1e9 if evolve_s else 0.0
    values["cli.trace_bytes"] = trace_bytes / passes
    return values
