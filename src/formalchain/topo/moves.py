"""Bistellar (Pachner) moves on 1- and 2-dimensional triangulations.

Moves preserve the underlying manifold; only the local combinatorics and the
metric change.  New edges in dimension 1 get unit spacelike squared length;
the vertex-insertion move places the new vertex at the barycenter of the
target face (exact rational squared distances), and the flip gives the new
diagonal its length in the quad unfolded flat.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from ..errors import GeometryError, MoveError
from .complexes import Triangulation, _traversal, edge_faces

SUBDIVIDE_1_2 = "subdivide_1_2"
MERGE_2_1 = "merge_2_1"
MOVE_1_3 = "move_1_3"
MOVE_3_1 = "move_3_1"
FLIP_2_2 = "flip_2_2"

KINDS_1D = (SUBDIVIDE_1_2, MERGE_2_1)
KINDS_2D = (MOVE_1_3, MOVE_3_1, FLIP_2_2)


@dataclass(frozen=True)
class PachnerMove:
    """A single local retriangulation: kind and target simplex id."""

    kind: str
    target: int


def apply_pachner(t: Triangulation, m: PachnerMove) -> Triangulation:
    if t.dim == 1 and m.kind in KINDS_1D:
        if m.kind == SUBDIVIDE_1_2:
            return subdivide_edge(t, m.target)
        return merge_vertex(t, m.target)
    if t.dim == 2 and m.kind in KINDS_2D:
        if m.kind == MOVE_1_3:
            return insert_vertex(t, m.target)
        if m.kind == MOVE_3_1:
            return remove_vertex(t, m.target)
        return flip_edge(t, m.target)
    raise MoveError(f"move {m.kind} does not apply in dimension {t.dim}")


# -- dimension 1 ----------------------------------------------------------------


def subdivide_edge(t: Triangulation, edge_id: int) -> Triangulation:
    """Split one edge into two through a new vertex."""
    if t.dim != 1:
        raise MoveError("subdivide_1_2 requires dimension 1")
    if edge_id not in t.edges:
        raise MoveError(f"no edge {edge_id}")
    a, b = t.edges[edge_id]
    m = t.max_id() + 1
    e1, e2 = m + 1, m + 2
    vs = dict(t.vertex_sign)
    vs[m] = 1
    edges = {e: d for e, d in t.edges.items() if e != edge_id}
    len2 = {e: l for e, l in t.edge_len2.items() if e != edge_id}
    edges[e1] = (a, m)
    edges[e2] = (m, b)
    len2[e1] = len2[e2] = Fraction(1)
    return Triangulation(1, vs, edges, len2, {}, t.boundary_mark)


def merge_vertex(t: Triangulation, vertex_id: int) -> Triangulation:
    """Remove a degree-2 interior vertex, fusing its two edges into one."""
    if t.dim != 1:
        raise MoveError("merge_2_1 requires dimension 1")
    if vertex_id not in t.vertex_sign:
        raise MoveError(f"no vertex {vertex_id}")
    if vertex_id in t.boundary_mark:
        raise MoveError(f"vertex {vertex_id} lies on the boundary")
    incoming = [e for e, (x, y) in t.edges.items() if y == vertex_id]
    outgoing = [e for e, (x, y) in t.edges.items() if x == vertex_id]
    if len(incoming) != 1 or len(outgoing) != 1 or incoming[0] == outgoing[0]:
        raise MoveError(f"vertex {vertex_id} is not an interior degree-2 vertex")
    e_in, e_out = incoming[0], outgoing[0]
    a = t.edges[e_in][0]
    b = t.edges[e_out][1]
    g = t.max_id() + 1
    vs = {v: s for v, s in t.vertex_sign.items() if v != vertex_id}
    edges = {e: d for e, d in t.edges.items() if e not in (e_in, e_out)}
    len2 = {e: l for e, l in t.edge_len2.items() if e not in (e_in, e_out)}
    edges[g] = (a, b)
    len2[g] = Fraction(1)
    return Triangulation(1, vs, edges, len2, {}, t.boundary_mark)


# -- dimension 2 ----------------------------------------------------------------


def barycentric_len2(t: Triangulation, face_id: int) -> Tuple[object, object, object]:
    """Exact squared distances from the barycenter to the three face corners."""
    _, es = t.faces[face_id]
    p, q, r = (t.edge_len2[e] for e in es)  # sides v0v1, v1v2, v2v0
    return (
        (2 * p + 2 * r - q) / 9,
        (2 * p + 2 * q - r) / 9,
        (2 * q + 2 * r - p) / 9,
    )


def insert_vertex(t: Triangulation, face_id: int) -> Triangulation:
    """1->3 move: cone a face from a new interior vertex."""
    if t.dim != 2:
        raise MoveError("move_1_3 requires dimension 2")
    if face_id not in t.faces:
        raise MoveError(f"no face {face_id}")
    vs3, es3 = t.faces[face_id]
    l0, l1, l2 = barycentric_len2(t, face_id)
    _require_positive(l0, l1, l2)
    m = t.max_id() + 1
    em0, em1, em2 = m + 1, m + 2, m + 3
    f0, f1, f2 = m + 4, m + 5, m + 6
    vs = dict(t.vertex_sign)
    vs[m] = 1
    edges = dict(t.edges)
    len2 = dict(t.edge_len2)
    edges[em0] = (vs3[0], m)
    edges[em1] = (vs3[1], m)
    edges[em2] = (vs3[2], m)
    len2[em0], len2[em1], len2[em2] = l0, l1, l2
    faces = {f: fd for f, fd in t.faces.items() if f != face_id}
    faces[f0] = ((vs3[0], vs3[1], m), (es3[0], em1, em0))
    faces[f1] = ((vs3[1], vs3[2], m), (es3[1], em2, em1))
    faces[f2] = ((vs3[2], vs3[0], m), (es3[2], em0, em2))
    out = Triangulation(2, vs, edges, len2, faces, t.boundary_mark)
    _check_new_faces(out, (f0, f1, f2))
    return out


def remove_vertex(t: Triangulation, vertex_id: int) -> Triangulation:
    """3->1 move: delete an interior vertex surrounded by exactly three faces."""
    if t.dim != 2:
        raise MoveError("move_3_1 requires dimension 2")
    if vertex_id not in t.vertex_sign:
        raise MoveError(f"no vertex {vertex_id}")
    star_edges = [e for e, (x, y) in t.edges.items() if vertex_id in (x, y)]
    star_faces = [f for f, (fv, _) in t.faces.items() if vertex_id in fv]
    if len(star_edges) != 3 or len(star_faces) != 3:
        raise MoveError(f"vertex {vertex_id} is not interior of degree 3")
    outer = []
    for f in star_faces:
        fv, fe = t.faces[f]
        i = fv.index(vertex_id)
        # side opposite the apex: connects the two non-apex corners
        j = (i + 1) % 3
        outer.append((fv[j], fv[(j + 1) % 3], fe[j]))
    if len({e for _, _, e in outer}) != 3:
        raise MoveError(f"link of vertex {vertex_id} is degenerate")
    succ = {a: (b, e) for a, b, e in outer}
    start = outer[0][0]
    cycle_v, cycle_e = [start], []
    cur = start
    for _ in range(3):
        nxt, e = succ[cur]
        cycle_e.append(e)
        cycle_v.append(nxt)
        cur = nxt
    if cur != start or len(set(cycle_v[:3])) != 3:
        raise MoveError(f"link of vertex {vertex_id} is not a 3-cycle")
    g = t.max_id() + 1
    vs = {v: s for v, s in t.vertex_sign.items() if v != vertex_id}
    edges = {e: d for e, d in t.edges.items() if e not in star_edges}
    len2 = {e: l for e, l in t.edge_len2.items() if e not in star_edges}
    faces = {f: fd for f, fd in t.faces.items() if f not in star_faces}
    faces[g] = (tuple(cycle_v[:3]), tuple(cycle_e))
    out = Triangulation(2, vs, edges, len2, faces, t.boundary_mark)
    _check_new_faces(out, (g,))
    return out


def flip_edge(t: Triangulation, edge_id: int) -> Triangulation:
    """2->2 move: replace an interior edge with the opposite diagonal of its quad."""
    if t.dim != 2:
        raise MoveError("flip_2_2 requires dimension 2")
    if edge_id not in t.edges:
        raise MoveError(f"no edge {edge_id}")
    if edge_id in t.boundary_mark:
        raise MoveError(f"edge {edge_id} lies on the boundary")
    incident = [f for f, (_, fe) in t.faces.items() if edge_id in fe]
    if len(incident) != 2:
        raise MoveError(f"edge {edge_id} does not separate two faces")
    f1, f2 = incident
    a, b = t.edges[edge_id]
    c = _third_corner(t, f1, edge_id)
    d = _third_corner(t, f2, edge_id)
    if _traversal(t.faces[f1], edge_id, t.edges) == -1:
        f1, f2 = f2, f1
        c, d = d, c
    if c == d:
        raise MoveError("flip would create a self-loop edge")
    e_bc = _side_between(t, f1, b, c)
    e_ca = _side_between(t, f1, c, a)
    e_ad = _side_between(t, f2, a, d)
    e_db = _side_between(t, f2, d, b)
    diag_len2 = _unfolded_diagonal_len2(
        t.edge_len2[edge_id], t.edge_len2[e_ca], t.edge_len2[e_bc],
        t.edge_len2[e_ad], t.edge_len2[e_db],
    )
    _require_positive(diag_len2)
    g = t.max_id() + 1
    nf1, nf2 = g + 1, g + 2
    edges = {e: dd for e, dd in t.edges.items() if e != edge_id}
    len2 = {e: l for e, l in t.edge_len2.items() if e != edge_id}
    edges[g] = (c, d)
    len2[g] = diag_len2
    faces = {f: fd for f, fd in t.faces.items() if f not in (f1, f2)}
    faces[nf1] = ((a, d, c), (e_ad, g, e_ca))
    faces[nf2] = ((d, b, c), (e_db, e_bc, g))
    out = Triangulation(2, t.vertex_sign, edges, len2, faces, t.boundary_mark)
    _check_new_faces(out, (nf1, nf2))
    return out


def moves_for(t: Triangulation) -> List[PachnerMove]:
    """All structurally applicable moves (geometric validity checked on apply)."""
    out: List[PachnerMove] = []
    ends = Counter(v for ab in t.edges.values() for v in ab)
    if t.dim == 1:
        out += [PachnerMove(SUBDIVIDE_1_2, e) for e in sorted(t.edges)]
        # a self-loop puts both its ends on one vertex
        loops = {x for x, y in t.edges.values() if x == y}
        for v in sorted(t.vertex_sign):
            if v not in t.boundary_mark and ends[v] == 2 and v not in loops:
                out.append(PachnerMove(MERGE_2_1, v))
    elif t.dim == 2:
        out += [PachnerMove(MOVE_1_3, f) for f in sorted(t.faces)]
        # edges have two distinct ends and faces three distinct corners here
        # three faces and three edges at v put each edge at v in two faces: none is marked
        star = Counter(v for fv, _ in t.faces.values() for v in fv)
        for v in sorted(t.vertex_sign):
            if star[v] == 3 and ends[v] == 3:
                out.append(PachnerMove(MOVE_3_1, v))
        sides = edge_faces(t.faces)
        for e in sorted(t.edges):
            if e not in t.boundary_mark and len(sides.get(e, ())) == 2:
                out.append(PachnerMove(FLIP_2_2, e))
    return out


def _third_corner(t: Triangulation, f: int, e: int) -> int:
    fv, fe = t.faces[f]
    i = fe.index(e)
    return fv[(i + 2) % 3]


def _side_between(t: Triangulation, f: int, x: int, y: int) -> int:
    fv, fe = t.faces[f]
    for i in range(3):
        if (fv[i], fv[(i + 1) % 3]) == (x, y):
            return fe[i]
    raise MoveError(f"face {f} has no side {x}->{y}")


def _unfolded_diagonal_len2(e2, ca2, bc2, ad2, db2):
    """Squared length of the opposite diagonal after unfolding the quad flat.

    The shared edge a-b has squared length e2; c sits on one side with sides
    (c-a) = ca2, (b-c) = bc2, and d on the other with (a-d) = ad2, (d-b) = db2.
    """
    L2 = float(e2)
    if L2 <= 0:
        raise GeometryError("flip across a degenerate edge")
    L = math.sqrt(L2)
    xc = (L2 + float(ca2) - float(bc2)) / (2 * L)
    yc2 = float(ca2) - xc * xc
    xd = (L2 + float(ad2) - float(db2)) / (2 * L)
    yd2 = float(ad2) - xd * xd
    if yc2 <= 0 or yd2 <= 0:
        raise GeometryError("flip target quad is degenerate when unfolded")
    val = (xc - xd) ** 2 + (math.sqrt(yc2) + math.sqrt(yd2)) ** 2
    return Fraction(val)


def _require_positive(*lengths) -> None:
    for l in lengths:
        if float(l) <= 0.0:
            raise GeometryError(f"new edge squared length {l} must be positive")


def _check_new_faces(t: Triangulation, face_ids) -> None:
    # margin well above the global validity epsilon so repeated moves cannot
    # walk a face into near-degeneracy that later checks reject
    eps = 1e-9
    for f in face_ids:
        _, es = t.faces[f]
        p, q, r = (math.sqrt(abs(float(t.edge_len2[e]))) for e in es)
        if p + q - r <= eps or q + r - p <= eps or r + p - q <= eps:
            raise GeometryError("move produced a face violating the triangle inequality")
