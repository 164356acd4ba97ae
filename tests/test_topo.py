"""Triangulation structure, classification, homology, text format."""

import random
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalchain.errors import ParseError, StructureError, UnsupportedError
from formalchain.growth import GrowthConfig, grow_layer, mirror_double
from formalchain.topo import (
    Closed0Class,
    Closed1Class,
    ClosedSurfaceClass,
    HomologyFingerprint,
    Triangulation,
    arc,
    circle,
    classify_0d,
    classify_curves,
    classify_surface,
    connected_groups,
    curve_profile,
    from_text,
    glue_along_boundary,
    homology_ranks,
    iso_key,
    point_set,
    sphere_triangulation,
    surface_code,
    surface_from_faces,
    to_text,
    torus_triangulation,
)
from support import (
    double,
    genus2_triangulation,
    random_orbit,
    remove_faces,
    signed_points,
    union,
)


def test_euler_circle():
    assert circle(5).euler_characteristic() == 0


def test_euler_sphere():
    s = sphere_triangulation()
    assert len(s.vertex_sign) == 4 and len(s.edges) == 6 and len(s.faces) == 4
    assert s.euler_characteristic() == 2


def test_euler_torus_counts():
    # the 7-vertex torus has 7 vertices, 21 edges, 14 faces
    t = torus_triangulation()
    assert (len(t.vertex_sign), len(t.edges), len(t.faces)) == (7, 21, 14)
    assert t.euler_characteristic() == 7 - 21 + 14 == 0


def test_classify_sphere():
    assert classify_surface(sphere_triangulation()) == ClosedSurfaceClass((0,))


def test_classify_torus():
    assert classify_surface(torus_triangulation()) == ClosedSurfaceClass((1,))


def test_classify_genus2():
    assert classify_surface(genus2_triangulation()) == ClosedSurfaceClass((2,))


def test_classify_disjoint_union_is_multiset_union():
    u = sphere_triangulation().disjoint_union(torus_triangulation())
    assert classify_surface(u) == ClosedSurfaceClass((0, 1))
    a = classify_surface(sphere_triangulation())
    b = classify_surface(torus_triangulation())
    assert union(a, b) == classify_surface(u)


def test_nonmanifold_edge_rejected():
    # three faces share the edge (0, 1)
    with pytest.raises(StructureError):
        surface_from_faces([(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_nonorientable_rejected():
    # the minimal Moebius band admits no consistent orientation
    strip = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    with pytest.raises(UnsupportedError):
        surface_from_faces(strip)


def test_only_outside_faces_are_reoriented():
    # the first face of a tetrahedron boundary turned against the others
    triples = [(0, 2, 1), (0, 3, 1), (1, 3, 2), (0, 2, 3)]
    t = surface_from_faces(triples)
    assert t.faces == {
        10: ((0, 2, 1), (4, 5, 6)),
        11: ((0, 1, 3), (6, 8, 7)),
        12: ((1, 2, 3), (5, 9, 8)),
        13: ((0, 3, 2), (7, 9, 4)),
    }
    parsed = from_text("dim=2\n" + "".join("s 2 %d %d %d\n" % f for f in triples))
    assert (parsed.faces, parsed.edges) == (t.faces, t.edges)
    # the constructor takes faces as given: one flipped face is an error
    faces = dict(t.faces)
    (a, b, c), (x, y, z) = faces[10]
    faces[10] = ((a, c, b), (z, y, x))
    with pytest.raises(UnsupportedError, match="disagree on orientation"):
        Triangulation(2, t.vertex_sign, t.edges, t.edge_len2, faces, t.boundary_mark)


def test_homology_circle():
    fp = homology_ranks(circle(6))
    assert fp.betti == (1, 1) and fp.torsion == ()


def test_homology_torus():
    fp = homology_ranks(torus_triangulation())
    assert fp.betti == (1, 2, 1) and fp.torsion == ()


def test_homology_two_spheres():
    u = sphere_triangulation().disjoint_union(sphere_triangulation())
    assert homology_ranks(u).betti == (2, 0, 2)


def test_homology_matches_classification_random():
    rng = random.Random(3)
    for seed_t in (sphere_triangulation(), torus_triangulation(), genus2_triangulation()):
        t = random_orbit(seed_t, rng.randrange(3, 9), rng)
        cls = classify_surface(t)
        fp = homology_ranks(t)
        assert fp.betti[0] == cls.components
        assert fp.betti[1] == sum(2 * g for g in cls.genera)
        assert fp.betti[2] == cls.components


def test_smith_normal_form_torsion():
    # Z/2 x Z/4 presentation
    diag = reference_smith_normal_form([[2, 0], [0, 4]])
    assert diag == [2, 4]
    diag2 = reference_smith_normal_form([[4, 0], [0, 2]])
    assert diag2 == [2, 4]
    assert reference_smith_normal_form([[2, 1], [0, 2]]) == [1, 4]


def homology_corpus() -> List[Triangulation]:
    """Every kind of complex the package builds, in dimensions 0 to 2."""
    rng = random.Random(7)
    spaces = [point_set(0), signed_points(3, 2), circle(1), circle(2), circle(6), arc(1), arc(4)]
    spaces.append(circle(3).disjoint_union(circle(1)).disjoint_union(arc(2)))
    for seed_t in (sphere_triangulation(), torus_triangulation(), genus2_triangulation()):
        spaces += [random_orbit(seed_t, n, rng) for n in (0, 4, 12)]
    torus = torus_triangulation()
    holed = remove_faces(torus, sorted(torus.faces)[:3])
    spaces += [holed, remove_faces(sphere_triangulation(), [min(sphere_triangulation().faces)])]
    spaces.append(sphere_triangulation().disjoint_union(holed))
    # a dimension-2 complex with only an edge and an isolated vertex
    spaces.append(Triangulation(2, {0: 1, 1: 1, 2: 1}, {3: (0, 1)}, {3: Fraction(1)}))
    grown = GrowthConfig(layer="partial", topology_change=True, p_circle=0.3)
    for i in range(24):
        y = signed_points(1 + i % 3, 1 + i % 2) if i % 4 == 0 else circle(3 + i % 5)
        x = grow_layer(y, grown if i % 2 else GrowthConfig(), rng)
        spaces += [x.space, mirror_double(x)]
    return spaces


def test_homology_counts_match_smith_normal_form():
    spaces = homology_corpus()
    for t in spaces:
        assert homology_ranks(t) == reference_homology_ranks(t)
    # the corpus reaches self-loops, marked surfaces and the dangling edges of
    # partial layers and their doubles
    assert any(a == b for t in spaces for a, b in t.edges.values())
    assert any(t.dim == 2 and t.boundary_mark for t in spaces)
    assert sum(1 for t in spaces if t.dim == 2 and not t.is_pure()) > 5


def test_gluing_chi_additive_over_circle_boundary():
    t = torus_triangulation()
    f0 = min(t.faces)
    holed = remove_faces(t, [f0])
    assert holed.euler_characteristic() == -1
    doubled = double(holed)
    # chi adds along circle boundaries: -1 + -1 = -2
    assert doubled.euler_characteristic() == -2
    assert classify_surface(doubled) == ClosedSurfaceClass((2,))


def test_point_set_classes():
    p = signed_points(2, 1)
    assert classify_0d(p) == Closed0Class(2, 1)
    assert classify_0d(p.mirrored()) == Closed0Class(1, 2)


def test_point_set_glue_is_the_disjoint_union():
    # a 0-manifold has no boundary, so gluing it to its mirror takes the
    # disjoint union, ids and insertion order included
    for t in (point_set(3), signed_points(2, 1)):
        glued = glue_along_boundary(t, t.mirrored())
        union = t.disjoint_union(t.mirrored())
        for name in ("vertex_sign", "edges", "edge_len2", "faces", "boundary_mark"):
            assert list(getattr(glued, name).items()) == list(getattr(union, name).items())


def test_curve_classes_and_profiles():
    c = circle(4)
    assert classify_curves(c) == Closed1Class(1)
    u = c.disjoint_union(circle(3))
    assert classify_curves(u) == Closed1Class(2)
    assert curve_profile(u) == (("circle", "1", "1", "1"), ("circle", "1", "1", "1", "1"))


def test_double_of_arc_is_circle():
    d = double(arc(3))
    assert classify_curves(d) == Closed1Class(1)
    assert len(d.edges) == 6


def test_surface_code_invariant_under_relabeling():
    t = torus_triangulation()
    # relabel vertices by shifting all ids
    shifted = Triangulation(
        2,
        {v + 100: s for v, s in t.vertex_sign.items()},
        {e + 500: (a + 100, b + 100) for e, (a, b) in t.edges.items()},
        {e + 500: l for e, l in t.edge_len2.items()},
        {f + 900: (tuple(v + 100 for v in fv), tuple(e + 500 for e in fe))
         for f, (fv, fe) in t.faces.items()},
        {},
    )
    assert surface_code(t) == surface_code(shifted)
    assert iso_key(t) == iso_key(shifted)


def test_surface_code_separates_sphere_and_torus():
    assert surface_code(sphere_triangulation()) != surface_code(torus_triangulation())


def test_iso_key_relabel_invariant_on_parallel_edge_complexes():
    # doubled annuli contain parallel edges; the canonical code must not
    # depend on ids there either
    import random as _random
    from formalchain.growth import GrowthConfig, grow_layer, mirror_double

    rng = _random.Random(0)
    keys = []
    for n in (3, 4, 5):
        d = mirror_double(grow_layer(circle(n), GrowthConfig(), rng))
        shifted = Triangulation(
            2,
            {v + 77: s for v, s in d.vertex_sign.items()},
            {e + 501: (a + 77, b + 77) for e, (a, b) in d.edges.items()},
            {e + 501: l for e, l in d.edge_len2.items()},
            {f + 901: (tuple(v + 77 for v in fv), tuple(e + 501 for e in fe))
             for f, (fv, fe) in d.faces.items()},
            {},
        )
        assert iso_key(shifted) == iso_key(d)
        keys.append(iso_key(d))
    assert len(set(keys)) == 3


def test_text_round_trip():
    for t in (circle(4), torus_triangulation(), signed_points(2, 1)):
        back = from_text(to_text(t))
        assert back.euler_characteristic() == t.euler_characteristic()
        assert iso_key(back) == iso_key(t)


def test_text_round_trip_with_boundary():
    t = remove_faces(torus_triangulation(), [min(torus_triangulation().faces)])
    back = from_text(to_text(t))
    assert back.euler_characteristic() == t.euler_characteristic()
    assert len(back.boundary_mark) == len(t.boundary_mark)


def test_text_form_refuses_cells_it_cannot_name():
    # a sphere of two triangles on the same three edges: its faces share a
    # vertex triple, so the text form would read them back as one triangle
    one = Fraction(1)
    pillow = Triangulation(2, {0: 1, 1: 1, 2: 1}, {10: (0, 1), 11: (1, 2), 12: (2, 0)},
                           {10: one, 11: one, 12: one},
                           {20: ((0, 1, 2), (10, 11, 12)), 21: ((0, 2, 1), (12, 11, 10))})
    assert pillow.euler_characteristic() == 2
    with pytest.raises(UnsupportedError, match="two faces on 0 1 2"):
        to_text(pillow)


def test_parse_errors_carry_line_numbers():
    tetra = "dim=2\ns 2 0 1 2\ns 2 0 3 1\ns 2 1 3 2\ns 2 0 2 3\n"
    cases = [
        ("dim=1\nv 0\nwhat is this\n", "line 3"),
        ("v 0\n", "line 1"),
        ("dim=1\nv 0\nv 0\n", "line 3"),
        ("dim=2\ns 2 0 1\n", "line 2"),
        ("dim=1\nv 0\nv 1\ns 1 0 1 len2=huh\n", "line 4"),
        # dimension 2: records the surface cannot hold are errors, not dropped
        (tetra + "b 5-6 lower\n", "line 6: boundary edge 5-6 is no side of a face"),
        ("dim=2\nv 0 -\n" + tetra[6:], "line 2: a dimension-2 vertex takes no sign"),
        ("dim=1\nv 0 -\nv 1\nv 2\ns 1 0 1\ns 1 1 2\ns 1 2 0\n",
         "line 2: a dimension-1 vertex takes no sign"),
        (tetra + "s 1 0 5\n", "line 6: edge 0-5 is no side of a face"),
        (tetra + "s 1 0 1 len2=2\ns 1 1 0 len2=3\n", "line 7: edge 1-0 is listed twice"),
    ]
    for text, where in cases:
        with pytest.raises(ParseError) as err:
            from_text(text)
        assert where in str(err.value)


def test_parser_rejects_bad_boundary_mark():
    with pytest.raises(ParseError):
        from_text("dim=1\nv 0\nv 1\ns 1 0 1\nb 0 sideways\n")


def test_wick_rotation_flips_sign():
    t = Triangulation(1, {0: 1, 1: 1}, {5: (0, 1)}, {5: Fraction(-1)}, {}, {0: "lower", 1: "upper"})
    w = t.wick_rotated()
    assert w.edge_len2[5] == Fraction(1)
    # involution on the stored metric
    again = Triangulation(
        1, w.vertex_sign, w.edges, {5: -w.edge_len2[5]}, {}, w.boundary_mark
    ).wick_rotated()
    assert again.edge_len2[5] == Fraction(1)


def _bfs_groups(nodes, links):
    adj = {n: [] for n in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    groups, seen = [], set()
    for n in nodes:
        if n in seen:
            continue
        comp, queue = {n}, [n]
        while queue:
            for y in adj[queue.pop()]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        groups.append([m for m in nodes if m in comp])
    return groups


graphs = st.lists(st.integers(-30, 30), unique=True, min_size=1, max_size=20).flatmap(
    lambda nodes: st.tuples(
        st.just(nodes),
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=25),
    )
)


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_connected_groups_match_bfs(graph):
    nodes, links = graph
    assert connected_groups(nodes, links) == _bfs_groups(nodes, links)


def test_connected_groups_empty():
    assert connected_groups([], []) == []


# -- homology reference: the integer Smith normal form that homology_ranks replaced ----


def reference_homology_ranks(t: Triangulation) -> HomologyFingerprint:
    """Betti numbers b_0..b_dim and H_* torsion via integer Smith normal form."""
    v_index = {v: i for i, v in enumerate(sorted(t.vertex_sign))}
    e_index = {e: i for i, e in enumerate(sorted(t.edges))}
    f_index = {f: i for i, f in enumerate(sorted(t.faces))}
    nv, ne, nf = len(v_index), len(e_index), len(f_index)

    d1 = [[0] * ne for _ in range(nv)]
    for e, (a, b) in t.edges.items():
        d1[v_index[b]][e_index[e]] += 1
        d1[v_index[a]][e_index[e]] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for f, (fv, fe) in t.faces.items():
        for i in range(3):
            a, b = fv[i], fv[(i + 1) % 3]
            sign = 1 if (a, b) == t.edges[fe[i]] else -1
            d2[e_index[fe[i]]][f_index[f]] += sign

    diag1 = reference_smith_normal_form(d1) if ne else []
    diag2 = reference_smith_normal_form(d2) if nf else []
    rank1 = sum(1 for x in diag1 if x != 0)
    rank2 = sum(1 for x in diag2 if x != 0)

    b0 = nv - rank1
    if t.dim == 0:
        return HomologyFingerprint((b0,), ())
    b1 = ne - rank1 - rank2
    if t.dim == 1:
        return HomologyFingerprint((b0, b1), ())
    b2 = nf - rank2
    torsion = tuple(x for x in diag2 if x not in (0, 1))
    return HomologyFingerprint((b0, b1, b2), torsion)


def reference_smith_normal_form(matrix: List[List[int]]) -> List[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the invariant factors (nonnegative, each dividing the next),
    padded with zeros up to min(rows, cols).
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: List[int] = []
    r = 0
    while r < min(rows, cols):
        pr, pc, best = -1, -1, None
        for i in range(r, rows):
            for j in range(r, cols):
                x = abs(m[i][j])
                if x and (best is None or x < best):
                    pr, pc, best = i, j, x
        if best is None:
            break
        m[r], m[pr] = m[pr], m[r]
        for row in m:
            row[r], row[pc] = row[pc], row[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, rows):
                if m[i][r]:
                    q = m[i][r] // m[r][r]
                    for j in range(r, cols):
                        m[i][j] -= q * m[r][j]
                    if m[i][r]:
                        m[r], m[i] = m[i], m[r]
                        changed = True
            for j in range(r + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][r]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][r]
                    if m[r][j]:
                        for i in range(rows):
                            m[i][r], m[i][j] = m[i][j], m[i][r]
                        changed = True
        # entry must divide the rest of the submatrix for true invariant factors
        pivot = abs(m[r][r])
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                if m[i][j] % pivot:
                    for jj in range(r, cols):
                        m[r][jj] += m[i][jj]
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        diag.append(pivot)
        r += 1
    diag += [0] * (min(rows, cols) - len(diag))
    return diag
