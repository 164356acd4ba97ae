"""Canonical keys against the all-starts reference search; least rotations."""

import random
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalchain.topo import (
    Triangulation,
    curve_profile,
    circle,
    iso_key,
    sphere_triangulation,
    surface_code,
    torus_triangulation,
)
from formalchain.growth import GrowthConfig, grow_layer, mirror_double
from formalchain.topo import invariants, surface_from_faces
from formalchain.topo.invariants import _least_rotation, _min_rotation, _token
from support import genus2_triangulation, random_orbit, remove_faces


def reference_surface_code(t: Triangulation, metric: bool = True) -> Tuple:
    """The full O(D^2) search: one BFS code per start dart, minimum kept."""
    darts = [(f, i) for f in sorted(t.faces) for i in range(3)]
    if not darts:
        return ()
    twin: Dict[Tuple[int, int], Tuple[int, int]] = {}
    by_edge: Dict[int, List[Tuple[int, int]]] = {}
    for f, i in darts:
        e = t.faces[f][1][i]
        by_edge.setdefault(e, []).append((f, i))
    for ds in by_edge.values():
        if len(ds) == 2:
            twin[ds[0]] = ds[1]
            twin[ds[1]] = ds[0]

    def traverse(start):
        index = {start: 0}
        order = [start]
        qi = 0
        while qi < len(order):
            f, i = order[qi]
            qi += 1
            for nb in ((f, (i + 1) % 3), twin.get((f, i))):
                if nb is not None and nb not in index:
                    index[nb] = len(order)
                    order.append(nb)
        rec = []
        for f, i in order:
            nxt = index[(f, (i + 1) % 3)]
            tw = index.get(twin.get((f, i)), -1)
            tok = _token(t.edge_len2[t.faces[f][1][i]], metric)
            rec.append((nxt, tw, tok))
        return tuple(rec), order

    remaining = set(darts)
    codes = []
    while remaining:
        seed = min(remaining)
        _, members = traverse(seed)
        comp = set(members)
        best = min(traverse(d)[0] for d in sorted(comp))
        codes.append(best)
        remaining -= comp
    return tuple(sorted(codes))


def reference_min_rotation(seq: Tuple) -> Tuple:
    """Every rotation of the sequence and of its reverse, minimum kept."""
    if not seq:
        return seq
    best = None
    for s in (seq, tuple(reversed(seq))):
        for i in range(len(s)):
            rot = s[i:] + s[:i]
            if best is None or rot < best:
                best = rot
    return best


def relabelled(t: Triangulation, rng: random.Random) -> Triangulation:
    """The same oriented map under random vertex, edge and face ids."""
    def perm(ids):
        ids = sorted(ids)
        new = rng.sample(range(10 * len(ids) + 10), len(ids))
        return dict(zip(ids, new))

    pv, pe, pf = perm(t.vertex_sign), perm(t.edges), perm(t.faces)
    return Triangulation(
        t.dim,
        {pv[v]: s for v, s in t.vertex_sign.items()},
        {pe[e]: (pv[a], pv[b]) for e, (a, b) in t.edges.items()},
        {pe[e]: l for e, l in t.edge_len2.items()},
        {pf[f]: (tuple(pv[v] for v in fv), tuple(pe[e] for e in fe))
         for f, (fv, fe) in t.faces.items()},
        {pe[e]: m for e, m in t.boundary_mark.items()},
    )


def orbit_surfaces() -> List[Tuple[str, Triangulation]]:
    rng = random.Random(20)
    seeds = (
        ("sphere", sphere_triangulation()),
        ("torus", torus_triangulation()),
        ("genus2", genus2_triangulation()),
    )
    out = []
    for name, seed_t in seeds:
        for moves in (0, 5, 20, 60):
            out.append((f"{name}-{moves}", random_orbit(seed_t, moves, rng)))
    return out


ORBITS = orbit_surfaces()


@pytest.mark.parametrize("metric", [True, False])
@pytest.mark.parametrize("name,t", ORBITS, ids=[n for n, _ in ORBITS])
def test_surface_code_matches_reference_on_orbits(name, t, metric):
    expected = reference_surface_code(t, metric)
    assert surface_code(t, metric) == expected
    rng = random.Random(name)
    for _ in range(2):
        assert surface_code(relabelled(t, rng), metric) == expected


def test_surface_code_matches_reference_on_unions_and_boundaries():
    rng = random.Random(4)
    torus = random_orbit(torus_triangulation(), 8, rng)
    sphere = random_orbit(sphere_triangulation(Fraction(3, 2)), 8, rng)
    union = torus.disjoint_union(sphere).disjoint_union(sphere_triangulation())
    holed = remove_faces(torus, [min(torus.faces)])
    for t in (union, holed, holed.double()):
        for metric in (True, False):
            expected = reference_surface_code(t, metric)
            assert surface_code(t, metric) == expected
            assert surface_code(relabelled(t, rng), metric) == expected


def doubled_prism(lens: List[int]) -> Triangulation:
    """The double of the prism layer over a circle with these edge lengths:
    rotating the circle by a period of ``lens`` is an automorphism."""
    c = circle(len(lens))
    slice_ = Triangulation(1, c.vertex_sign, c.edges,
                           dict(zip(sorted(c.edges), map(Fraction, lens))))
    return mirror_double(grow_layer(slice_, GrowthConfig(), None, extra_closed=0))


def torus_grid(m: int, k: int, marked=Fraction(1)) -> Triangulation:
    """An m x k periodic grid of squares, each cut into two triangles; the
    edges of one grid line have length ``marked``, all others length 1.
    Every translation along that line is an automorphism, and every
    translation of the grid when ``marked`` is 1."""
    def v(i, j):
        return (i % m) * k + j % k

    faces = []
    for i in range(m):
        for j in range(k):
            faces.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            faces.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    lens = {frozenset((v(i, 0), v(i + 1, 0))): marked for i in range(m)}
    return surface_from_faces(faces, lens)


def symmetric_surfaces() -> List[Tuple[str, Triangulation]]:
    out = []
    for lens in ([1, 1], [1] * 3, [1] * 5, [1] * 8, [1, 2] * 4, [1, 2, 3] * 2):
        out.append(("doubled-prism-" + "".join(map(str, lens)), doubled_prism(lens)))
    for m, k, marked in ((3, 3, 1), (3, 4, 1), (4, 6, 1), (3, 3, Fraction(3, 2)),
                         (4, 6, Fraction(3, 2))):
        out.append((f"torus-grid-{m}x{k}-{marked}", torus_grid(m, k, marked)))
    return out


SYMMETRIC = symmetric_surfaces()


@pytest.mark.parametrize("metric", [True, False])
@pytest.mark.parametrize("name,t", SYMMETRIC, ids=[n for n, _ in SYMMETRIC])
def test_surface_code_matches_reference_on_symmetric_maps(name, t, metric):
    # many start darts tie the best code here, so orbit pruning skips most of
    # them; relabelling changes which starts are searched first
    expected = reference_surface_code(t, metric)
    assert surface_code(t, metric) == expected
    rng = random.Random(name)
    for _ in range(6):
        assert surface_code(relabelled(t, rng), metric) == expected


def test_surface_code_of_no_faces_is_empty():
    empty = Triangulation(2, {})
    assert surface_code(empty) == reference_surface_code(empty) == ()


def test_mixed_iso_key_matches_reference(monkeypatch):
    # a surface with dangling edges goes through iso_key's "mixed" branch
    base = random_orbit(genus2_triangulation(), 10, random.Random(9))
    vs = sorted(base.vertex_sign)
    top = max(base.edges) + 1
    edges = dict(base.edges)
    lens = dict(base.edge_len2)
    edges[top], lens[top] = (vs[0], vs[3]), 2.5
    edges[top + 1], lens[top + 1] = (vs[1], vs[2]), Fraction(1, 3)
    t = Triangulation(2, base.vertex_sign, edges, lens, base.faces)
    actual = [iso_key(t, metric) for metric in (True, False)]
    assert actual[0][0] == "mixed"
    with monkeypatch.context() as m:
        m.setattr(invariants, "surface_code", reference_surface_code)
        expected = [iso_key(t, metric) for metric in (True, False)]
    assert actual == expected


tokens = st.lists(st.sampled_from(["1", "1/2", "2", "*", "0.5"]), max_size=12).map(tuple)


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_min_rotation_matches_brute_force(seq):
    assert _min_rotation(seq) == reference_min_rotation(seq)


@settings(max_examples=300, deadline=None)
@given(tokens.filter(bool))
def test_least_rotation_index_is_least(seq):
    k = _least_rotation(seq)
    assert seq[k:] + seq[:k] == min(seq[i:] + seq[:i] for i in range(len(seq)))


def test_curve_profile_of_varied_circle_is_rotation_and_reflection_invariant():
    lens = [Fraction(n) for n in (3, 1, 2, 1, 2, 1)]
    c = circle(len(lens))
    keys = []
    for shift in range(len(lens)):
        for flip in (False, True):
            ls = lens[shift:] + lens[:shift]
            if flip:
                ls = ls[::-1]
            # circle(n) has edges in walking order
            t = Triangulation(1, c.vertex_sign, c.edges,
                              dict(zip(sorted(c.edges), ls)))
            keys.append(curve_profile(t))
    assert len(set(keys)) == 1
    assert keys[0] == (("circle", "1", "2", "1", "2", "1", "3"),)
