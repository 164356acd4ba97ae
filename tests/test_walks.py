"""Oriented-curve walks: ``directed_walks`` against the walks it replaced.

The references below are the hand-written loops that ``growth``,
``curve_profile`` and ``glue_1d`` used before they shared one walker.
"""

import random
from typing import Dict, List, Tuple

import pytest

from formalchain.cli import _perfect_matchings
from formalchain.errors import BoundaryError, StructureError
from formalchain.growth import GrowthConfig, double_cross, grow_layer
from formalchain.pairing import Bounded1Ket, glue_1d
from formalchain.topo import Closed1Class, Triangulation, curve_profile
from formalchain.topo.complexes import directed_walks
from formalchain.topo.invariants import _min_rotation, _token
from support import signed_points


def reference_directed_cycles(y: Triangulation) -> List[List[Tuple[int, int, int]]]:
    succ = {}
    for e, (a, b) in y.edges.items():
        succ[a] = (e, a, b)
    cycles = []
    seen = set()
    for e0 in sorted(y.edges):
        if e0 in seen:
            continue
        a0 = y.edges[e0][0]
        cyc = []
        v = a0
        while True:
            e, a, b = succ[v]
            if e in seen:
                break
            seen.add(e)
            cyc.append((e, a, b))
            v = b
            if v == a0:
                break
        cycles.append(cyc)
    return cycles


def reference_curve_profile(t: Triangulation, metric: bool = True) -> Tuple:
    """Sorted tuple of canonical per-component profiles of a 1-manifold."""
    succ: Dict[int, Tuple[int, int]] = {}
    pred: Dict[int, int] = {}
    for e, (a, b) in t.edges.items():
        succ[a] = (b, e)
        pred[b] = a
    profiles = []
    seen_edges = set()

    def walk(start: int) -> Tuple[Tuple, bool]:
        lens = []
        v = start
        while v in succ:
            nxt, e = succ[v]
            if e in seen_edges:
                break
            seen_edges.add(e)
            lens.append(_token(t.edge_len2[e], metric))
            v = nxt
            if v == start:
                return tuple(lens), True
        return tuple(lens), False

    # open components start at vertices with an outgoing but no incoming edge
    for v in sorted(set(succ) - set(pred)):
        lens, _ = walk(v)
        profiles.append(("path",) + lens)
    # what remains are cycles
    for e in sorted(t.edges):
        if e in seen_edges:
            continue
        lens, closed = walk(t.edges[e][0])
        if not closed:
            raise StructureError("1-complex walk did not close; invalid structure")
        profiles.append(("circle",) + _min_rotation(lens))
    return tuple(sorted(profiles))


def reference_glue_1d(a: Bounded1Ket, b: Bounded1Ket) -> Closed1Class:
    if a.labels != b.labels:
        raise BoundaryError("kets do not share boundary labels")
    nxt_a = {x: y for x, y in a.matching} | {y: x for x, y in a.matching}
    nxt_b = {x: y for x, y in b.matching} | {y: x for x, y in b.matching}
    todo = set(a.labels)
    cycles = 0
    while todo:
        start = min(todo)
        cycles += 1
        x = start
        while True:
            todo.discard(x)
            y = nxt_a[x]
            todo.discard(y)
            x = nxt_b[y]
            if x == start:
                break
    return Closed1Class(cycles + a.free_circles + b.free_circles)


def test_directed_walks_open_arc():
    assert directed_walks({5: (0, 1), 3: (1, 2), 4: (2, 3)}) == [(False, [5, 3, 4])]


def test_directed_walks_self_loop_circle():
    assert directed_walks({7: (4, 4)}) == [(True, [7])]


def test_directed_walks_two_edge_circle():
    # the walk starts at the tail of the least edge id
    assert directed_walks({2: (0, 1), 1: (1, 0)}) == [(True, [1, 2])]


def test_directed_walks_order_of_paths_and_cycles():
    edges = {
        7: (16, 4), 5: (4, 5),              # path from vertex 16
        8: (1, 2),                          # path from vertex 1
        9: (20, 21), 1: (21, 20),           # cycle, least edge 1
        6: (30, 30),                        # self-loop, edge 6
        12: (40, 41), 3: (41, 42), 11: (42, 40),  # cycle, least edge 3
    }
    assert directed_walks(edges) == [
        (False, [8]), (False, [7, 5]), (True, [1, 9]), (True, [3, 11, 12]), (True, [6]),
    ]
    assert directed_walks({}) == []


def random_doubles(n: int, seed: int):
    """Cross doubles of random dimension-1 layers grown with topology change."""
    cfg = GrowthConfig(topology_change=True, p_circle=0.5)
    rng = random.Random(seed)
    for _ in range(n):
        y = signed_points(rng.randint(1, 4), rng.randint(0, 3))
        x1 = grow_layer(y, cfg, rng, subdivisions=rng.randint(1, 3))
        x2 = grow_layer(y, cfg, rng, subdivisions=rng.randint(1, 3))
        yield x1.space, double_cross(x1, x2)


def test_walks_match_references_on_random_doubles():
    for layer, d in random_doubles(60, seed=15):
        cycles = [[e for e, _, _ in c] for c in reference_directed_cycles(d)]
        assert directed_walks(d.edges) == [(True, c) for c in cycles]
        for t in (layer, d):
            for metric in (True, False):
                assert curve_profile(t, metric) == reference_curve_profile(t, metric)


def test_glue_1d_matches_reference_on_all_matchings_of_8_points():
    kets = _perfect_matchings(range(8))
    assert len(kets) == 105
    for a in kets:
        for b in kets:
            assert glue_1d(a, b) == reference_glue_1d(a, b)
    a, b = Bounded1Ket(kets[3].matching, 2), Bounded1Ket(kets[40].matching, 1)
    assert glue_1d(a, b) == reference_glue_1d(a, b)
    with pytest.raises(BoundaryError):
        glue_1d(kets[0], Bounded1Ket(((0, 1),)))
