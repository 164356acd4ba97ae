"""Pachner moves: applicability, invariants, geometric validity."""

import random
from fractions import Fraction

import pytest

from formalchain.errors import GeometryError, MoveError
from formalchain.topo import (
    FLIP_2_2,
    MERGE_2_1,
    MOVE_1_3,
    MOVE_3_1,
    SUBDIVIDE_1_2,
    PachnerMove,
    apply_pachner,
    arc,
    barycentric_len2,
    circle,
    classify_curves,
    classify_surface,
    flip_edge,
    insert_vertex,
    iso_key,
    merge_vertex,
    moves_for,
    remove_vertex,
    sphere_triangulation,
    subdivide_edge,
    surface_from_faces,
    torus_triangulation,
)
from support import genus2_triangulation, random_orbit, remove_faces


def test_subdivide_circle_preserves_chi_and_class():
    c = circle(3)
    e = min(c.edges)
    c4 = apply_pachner(c, PachnerMove("subdivide_1_2", e))
    assert len(c4.edges) == 4
    assert c4.euler_characteristic() == 0
    assert classify_curves(c4) == classify_curves(c)


def test_merge_circle():
    c = circle(4)
    v = next(v for v in c.vertex_sign if v not in c.boundary_mark)
    c3 = merge_vertex(c, v)
    assert len(c3.edges) == 3
    assert classify_curves(c3) == classify_curves(c)


def test_merge_to_self_loop_allowed_in_dim1():
    c2 = circle(2)
    v = min(c2.vertex_sign)
    c1 = merge_vertex(c2, v)
    assert len(c1.edges) == 1
    assert classify_curves(c1).circles == 1


def test_flip_two_triangle_square():
    # two triangles over a square, diagonal 0-2
    sq = surface_from_faces([(0, 1, 2), (0, 2, 3)])
    assert sq.euler_characteristic() == 1  # a disk
    diag = next(
        e for e, (a, b) in sq.edges.items() if {a, b} == {0, 2}
    )
    flipped = flip_edge(sq, diag)
    assert flipped.euler_characteristic() == 1
    new_diag = [e for e, (a, b) in flipped.edges.items() if {a, b} == {1, 3}]
    assert len(new_diag) == 1


def test_insert_vertex_counts_and_chi():
    s = sphere_triangulation()
    f = min(s.faces)
    out = insert_vertex(s, f)
    assert len(out.vertex_sign) == len(s.vertex_sign) + 1
    assert len(out.edges) == len(s.edges) + 3
    assert len(out.faces) == len(s.faces) + 2
    assert out.euler_characteristic() == 2
    assert classify_surface(out) == classify_surface(s)


def test_insert_then_remove_roundtrip():
    s = torus_triangulation()
    f = min(s.faces)
    bigger = insert_vertex(s, f)
    new_v = max(bigger.vertex_sign)
    back = remove_vertex(bigger, new_v)
    assert iso_key(back, metric=False) == iso_key(s, metric=False)


def test_barycentric_lengths_exact():
    s = sphere_triangulation(len2=Fraction(1))
    f = min(s.faces)
    lens = barycentric_len2(s, f)
    assert all(l == Fraction(1, 3) for l in lens)


def test_inapplicable_moves_raise():
    c = circle(3)
    with pytest.raises(MoveError):
        apply_pachner(c, PachnerMove("subdivide_1_2", 99999))
    with pytest.raises(MoveError):
        apply_pachner(c, PachnerMove("move_1_3", 0))
    t = torus_triangulation()
    with pytest.raises(MoveError):
        apply_pachner(t, PachnerMove("move_3_1", min(t.vertex_sign)))  # degree 6


def test_degenerate_new_lengths_rejected():
    # squared sides 1, 1, 4 give a flat face and 1, 1, 9 an impossible one;
    # a barycentric squared length comes out 0 or negative
    for long_side in (4, 9):
        lengths = {(0, 1): Fraction(1), (1, 2): Fraction(1), (2, 0): Fraction(long_side)}
        s = surface_from_faces([(0, 1, 2)], edge_len2_by_pair=lengths)
        with pytest.raises(GeometryError, match="must be positive"):
            insert_vertex(s, min(s.faces))


def test_classification_invariant_under_random_orbits():
    rng = random.Random(11)
    for seed_t in (sphere_triangulation(), torus_triangulation()):
        want = classify_surface(seed_t)
        for _ in range(10):
            t = random_orbit(seed_t, 12, rng)
            assert classify_surface(t) == want
            assert t.euler_characteristic() == seed_t.euler_characteristic()
    c = circle(5)
    for _ in range(10):
        t = random_orbit(c, 12, rng)
        assert classify_curves(t) == classify_curves(c)
        assert t.euler_characteristic() == 0


def test_moves_for_lists_applicable_kinds():
    c = circle(3)
    kinds = {m.kind for m in moves_for(c)}
    assert kinds == {"subdivide_1_2", "merge_2_1"}
    s = sphere_triangulation()
    kinds2 = {m.kind for m in moves_for(s)}
    # every tetrahedron vertex is interior of degree 3, so all three kinds apply
    assert kinds2 == {"move_1_3", "move_3_1", "flip_2_2"}
    t = torus_triangulation()
    assert "move_3_1" not in {m.kind for m in moves_for(t)}  # all vertices degree 6


def reference_moves_for(t):
    """moves_for as a scan of every face or edge per vertex and per edge."""
    out = []
    if t.dim == 1:
        out += [PachnerMove(SUBDIVIDE_1_2, e) for e in sorted(t.edges)]
        for v in sorted(t.vertex_sign):
            if v in t.boundary_mark:
                continue
            deg = sum(1 for x, y in t.edges.values() if v in (x, y))
            loop = any(x == y == v for x, y in t.edges.values())
            if deg == 2 and not loop:
                out.append(PachnerMove(MERGE_2_1, v))
    elif t.dim == 2:
        out += [PachnerMove(MOVE_1_3, f) for f in sorted(t.faces)]
        for v in sorted(t.vertex_sign):
            star = [f for f, (fv, _) in t.faces.items() if v in fv]
            star_e = [e for e, (x, y) in t.edges.items() if v in (x, y)]
            if len(star) == 3 and len(star_e) == 3 and not any(
                e in t.boundary_mark for e in star_e
            ):
                out.append(PachnerMove(MOVE_3_1, v))
        for e in sorted(t.edges):
            if e not in t.boundary_mark:
                incident = [f for f, (_, fe) in t.faces.items() if e in fe]
                if len(incident) == 2:
                    out.append(PachnerMove(FLIP_2_2, e))
    return out


def test_moves_for_matches_reference_scan():
    rng = random.Random(31)
    torus = torus_triangulation()
    spaces = [circle(1), circle(2), circle(5), arc(3), remove_faces(torus, [min(torus.faces)])]
    for seed_t in (sphere_triangulation(), torus, genus2_triangulation(), circle(5)):
        spaces += [random_orbit(seed_t, n, rng) for n in (0, 5, 15, 30)]
    # marked edges next to vertices of every degree
    g2 = random_orbit(genus2_triangulation(), 15, rng)
    holed = remove_faces(g2, sorted(g2.faces)[:3])
    spaces += [holed, random_orbit(holed, 10, rng)]
    for t in spaces:
        assert moves_for(t) == reference_moves_for(t)
    kinds = {m.kind for t in spaces for m in moves_for(t)}
    assert kinds == {SUBDIVIDE_1_2, MERGE_2_1, MOVE_1_3, MOVE_3_1, FLIP_2_2}
