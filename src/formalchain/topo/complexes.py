"""Combinatorial manifolds of dimension 0, 1, 2 with signed squared edge lengths.

The representation is a Delta-complex rather than a vertex-set simplicial
complex: every edge and face carries an explicit integer id.  Gluing a space
to its mirror image routinely produces parallel edges (two distinct edges
joining the same vertex pair), which vertex-pair-keyed edges cannot express.

Conventions:

* a face is an ordered vertex triple (v0, v1, v2) plus the edge ids of its
  three sides (v0-v1, v1-v2, v2-v0); the vertex order is the orientation,
* an edge id is stored with a direction (tail, head); a face side traverses
  it forwards or backwards,
* squared edge lengths are signed: positive = spacelike, negative = timelike,
* dimension-0 manifolds are oriented point sets, one sign per vertex.

All instances are immutable by convention; operations return new objects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import GeometryError, ParseError, StructureError, UnsupportedError

EPS_GEOM = 1e-12

Face = Tuple[Tuple[int, int, int], Tuple[int, int, int]]  # (vertex triple, edge-id triple)

LOWER = "lower"
UPPER = "upper"


class Triangulation:
    """A dimension 0, 1 or 2 combinatorial manifold (possibly with boundary).

    Faces are taken as given; ``surface_from_faces`` orients outside face lists.
    """

    __slots__ = ("dim", "vertex_sign", "edges", "edge_len2", "faces", "boundary_mark",
                 "action_memo")

    def __init__(
        self,
        dim: int,
        vertex_sign: Mapping[int, int],
        edges: Mapping[int, Tuple[int, int]] = (),
        edge_len2: Mapping[int, object] = (),
        faces: Mapping[int, Face] = (),
        boundary_mark: Mapping[int, str] = (),
    ):
        self.dim = dim
        self.vertex_sign: Dict[int, int] = dict(vertex_sign)
        self.edges: Dict[int, Tuple[int, int]] = dict(edges)
        self.edge_len2: Dict[int, object] = dict(edge_len2)
        self.faces: Dict[int, Face] = dict(faces)
        self.boundary_mark: Dict[int, str] = dict(boundary_mark)
        # ActionParams -> action.s_d_parts of this space, filled by action.s_d_superposed
        self.action_memo: Dict[object, Tuple[float, float]] = {}
        self._validate()

    # -- structural checks ---------------------------------------------------

    def _validate(self) -> None:
        if self.dim not in (0, 1, 2):
            raise UnsupportedError(f"dimension {self.dim} not supported")
        for v, s in self.vertex_sign.items():
            if s not in (-1, 1):
                raise StructureError(f"vertex {v} has orientation {s}, expected +/-1")
        for e, (a, b) in self.edges.items():
            if a not in self.vertex_sign or b not in self.vertex_sign:
                raise StructureError(f"edge {e} references unknown vertex")
            if e not in self.edge_len2:
                raise StructureError(f"edge {e} has no squared length")
        if self.dim == 0:
            if self.edges or self.faces:
                raise StructureError("0-manifold with edges or faces")
            if self.boundary_mark:
                raise StructureError("0-manifold cannot carry boundary marks")
            return
        if self.dim == 1:
            if self.faces:
                raise StructureError("1-manifold with faces")
            self._validate_dim1()
            return
        self._validate_dim2()

    def _validate_dim1(self) -> None:
        indeg: Dict[int, int] = {v: 0 for v in self.vertex_sign}
        outdeg: Dict[int, int] = {v: 0 for v in self.vertex_sign}
        for a, b in self.edges.values():
            outdeg[a] += 1
            indeg[b] += 1
        boundary = set()
        for v in self.vertex_sign:
            d = indeg[v] + outdeg[v]
            if d > 2:
                raise StructureError(f"vertex {v} lies on {d} edge ends; not a 1-manifold")
            if indeg[v] > 1 or outdeg[v] > 1:
                raise UnsupportedError(f"edges around vertex {v} are not consistently oriented")
            if d == 1:
                boundary.add(v)
            if d == 0 and self.edges:
                # isolated vertex inside a 1-complex is a singular point
                raise StructureError(f"isolated vertex {v} in a 1-dimensional complex")
        marked = set(self.boundary_mark)
        if marked != boundary:
            raise StructureError(
                f"boundary marks {sorted(marked)} do not match boundary vertices {sorted(boundary)}"
            )
        for v, m in self.boundary_mark.items():
            if m not in (LOWER, UPPER):
                raise StructureError(f"bad boundary mark {m!r} on vertex {v}")

    def _validate_dim2(self) -> None:
        for e, (a, b) in self.edges.items():
            if a == b:
                raise StructureError(f"edge {e} is a self-loop; not supported in dimension 2")
        usage: Dict[int, List[int]] = {e: [] for e in self.edges}  # edge -> traversal signs
        for f, (vs, es) in self.faces.items():
            if len(set(es)) != 3:
                raise StructureError(f"face {f} repeats an edge id")
            for i in range(3):
                a, b = vs[i], vs[(i + 1) % 3]
                tail, head = self.edges[es[i]]
                if (a, b) == (tail, head):
                    usage[es[i]].append(+1)
                elif (a, b) == (head, tail):
                    usage[es[i]].append(-1)
                else:
                    raise StructureError(f"face {f} side {i} does not match edge {es[i]}")
        boundary = set()
        for e, signs in usage.items():
            if len(signs) > 2:
                raise StructureError(f"edge {e} borders {len(signs)} faces; non-manifold")
            if len(signs) == 2 and signs[0] == signs[1]:
                raise UnsupportedError(f"faces disagree on orientation across edge {e}")
            if len(signs) == 1:
                boundary.add(e)
        dangling = {e for e, signs in usage.items() if not signs}
        marked = set(self.boundary_mark)
        if not (boundary <= marked <= boundary | dangling):
            raise StructureError(
                f"boundary marks {sorted(marked)} do not cover boundary edges {sorted(boundary)}"
                f" (dangling edges {sorted(dangling)} may be marked or not)"
            )
        for e, m in self.boundary_mark.items():
            if m not in (LOWER, UPPER):
                raise StructureError(f"bad boundary mark {m!r} on edge {e}")

    # -- basic queries ---------------------------------------------------------

    def euler_characteristic(self) -> int:
        return len(self.vertex_sign) - len(self.edges) + len(self.faces)

    def is_closed(self) -> bool:
        return not self.boundary_mark

    def is_pure(self) -> bool:
        """True when every simplex is a face of a top-dimensional one."""
        if self.dim == 0:
            return True
        if self.dim == 1:
            used = {v for a, b in self.edges.values() for v in (a, b)}
            return used == set(self.vertex_sign)
        used_e = {e for _, es in self.faces.values() for e in es}
        used_v = {v for vs, _ in self.faces.values() for v in vs}
        return used_e == set(self.edges) and used_v == set(self.vertex_sign)

    def require_euclidean(self) -> None:
        for e, l2 in self.edge_len2.items():
            if float(l2) <= 0.0:
                raise GeometryError(f"edge {e} has non-positive squared length {l2}")
        for f, (_, es) in self.faces.items():
            p, q, r = (math.sqrt(float(self.edge_len2[e])) for e in es)
            if p + q - r <= EPS_GEOM or q + r - p <= EPS_GEOM or r + p - q <= EPS_GEOM:
                raise GeometryError(
                    f"face {f} violates the triangle inequality with lengths {(p, q, r)}"
                )

    def component_count(self) -> int:
        return len(connected_groups(self.vertex_sign, self.edges.values()))

    def max_id(self) -> int:
        ids = [0]
        ids += list(self.vertex_sign)
        ids += list(self.edges)
        ids += list(self.faces)
        return max(ids)

    # -- metric helpers ----------------------------------------------------------

    def face_angles(self, f: int) -> Tuple[float, float, float]:
        """Interior angles at (v0, v1, v2) from the law of cosines."""
        _, es = self.faces[f]
        l01, l12, l20 = (float(self.edge_len2[e]) for e in es)
        return (
            _angle(l01, l20, l12),
            _angle(l01, l12, l20),
            _angle(l12, l20, l01),
        )

    def face_area(self, f: int) -> float:
        _, es = self.faces[f]
        p, q, r = (float(self.edge_len2[e]) for e in es)
        s = 2 * (p * q + q * r + r * p) - p * p - q * q - r * r
        if s <= 0.0:
            raise GeometryError(f"face {f} has degenerate metric")
        return math.sqrt(s) / 4.0

    def total_area(self) -> float:
        return math.fsum(self.face_area(f) for f in self.faces)

    def total_length(self) -> float:
        return math.fsum(math.sqrt(abs(float(l2))) for l2 in self.edge_len2.values())

    # -- orientation / signature operations ---------------------------------------

    def mirrored(self) -> "Triangulation":
        """Orientation-reversed copy (same ids)."""
        if self.dim == 0:
            signs = {v: -s for v, s in self.vertex_sign.items()}
            return Triangulation(0, signs)
        if self.dim == 1:
            edges = {e: (b, a) for e, (a, b) in self.edges.items()}
            return Triangulation(
                1, self.vertex_sign, edges, self.edge_len2, {}, self.boundary_mark
            )
        faces = {
            f: ((vs[0], vs[2], vs[1]), (es[2], es[1], es[0])) for f, (vs, es) in self.faces.items()
        }
        return Triangulation(
            2, self.vertex_sign, self.edges, self.edge_len2, faces, self.boundary_mark
        )

    def wick_rotated(self) -> "Triangulation":
        """Flip timelike squared lengths to spacelike; result must be Euclidean-valid."""
        new_len2 = {}
        for e, l2 in self.edge_len2.items():
            new_len2[e] = -l2 if float(l2) < 0 else l2
        t = Triangulation(
            self.dim, self.vertex_sign, self.edges, new_len2, self.faces, self.boundary_mark,
        )
        if self.dim == 2:
            try:
                t.require_euclidean()
            except GeometryError as exc:
                raise GeometryError(f"{exc}; {self._alpha_range_hint()}") from exc
        return t

    def _alpha_range_hint(self) -> str:
        """Valid aspect-ratio range for faces with one spacelike and two timelike sides."""
        for f, (_, es) in self.faces.items():
            l2s = [float(self.edge_len2[e]) for e in es]
            space = [l for l in l2s if l > 0]
            time = [l for l in l2s if l < 0]
            if len(space) == 1 and len(time) == 2 and abs(time[0] - time[1]) < 1e-15:
                return "a face of type (a, -alpha*a, -alpha*a) requires alpha > 1/4"
        return "no uniform aspect-ratio hint available"

    # -- assembling operations ------------------------------------------------------

    def disjoint_union(self, other: "Triangulation") -> "Triangulation":
        if self.dim != other.dim:
            raise StructureError("disjoint union requires equal dimensions")
        off = self.max_id() + 1
        vs = dict(self.vertex_sign)
        vs.update({v + off: s for v, s in other.vertex_sign.items()})
        edges = dict(self.edges)
        edges.update({e + off: (a + off, b + off) for e, (a, b) in other.edges.items()})
        len2 = dict(self.edge_len2)
        len2.update({e + off: l for e, l in other.edge_len2.items()})
        faces = dict(self.faces)
        faces.update(
            {
                f + off: (tuple(v + off for v in fv), tuple(e + off for e in fe))
                for f, (fv, fe) in other.faces.items()
            }
        )
        marks = dict(self.boundary_mark)
        marks.update({s + off: m for s, m in other.boundary_mark.items()})
        return Triangulation(self.dim, vs, edges, len2, faces, marks)

    def double(self) -> "Triangulation":
        """Glue this space to its mirror image along its entire boundary.

        Boundary simplices are shared between the two copies; interior
        simplices of the mirror copy get fresh ids.  A closed input doubles to
        the disjoint union with its mirror.
        """
        mirror = self.mirrored()
        return glue_along_boundary(self, mirror)


def connected_groups(nodes: Iterable, links: Iterable[Tuple[object, object]]) -> List[list]:
    """Connected components of the graph on ``nodes`` with edges ``links``.

    Each group lists its nodes in ``nodes`` order, and groups come in the
    order of their first node.
    """
    nodes = list(nodes)
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: Dict[object, list] = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


def directed_walks(edges: Mapping[int, Tuple[int, int]]) -> List[Tuple[bool, List[int]]]:
    """Components of a consistently oriented 1-manifold as ``(is_cycle, edge ids)``.

    ``edges`` maps edge id -> (tail, head), each vertex the tail of at most
    one edge and the head of at most one.  A walk lists its edge ids in the
    order it runs them, each head the next tail.  Paths come first, each from
    its source, sources in vertex order; then cycles, each from the tail of
    its least unvisited edge id.
    """
    succ = {a: (e, b) for e, (a, b) in edges.items()}  # unwalked edges by tail

    def walk(v: int) -> List[int]:
        out = []
        while v in succ:
            e, v = succ.pop(v)
            out.append(e)
        return out

    walks = [(False, walk(v)) for v in sorted(succ.keys() - {b for _, b in edges.values()})]
    for e in sorted(edges):
        if edges[e][0] in succ:
            walks.append((True, walk(edges[e][0])))
    return walks


def edge_faces(faces: Mapping[int, Face]) -> Dict[int, List[int]]:
    """Each edge used by a face -> the faces with that side, in ``faces`` order."""
    out: Dict[int, List[int]] = {}
    for f, (_, es) in faces.items():
        for e in es:
            out.setdefault(e, []).append(f)
    return out


def _traversal(face: Face, e: int, edges: Mapping[int, Tuple[int, int]]) -> int:
    """+1 when the face's side along edge e runs with the edge's direction."""
    vs, es = face
    i = es.index(e)
    return +1 if (vs[i], vs[(i + 1) % 3]) == edges[e] else -1


def _reoriented(faces: Mapping[int, Face], edges: Mapping[int, Tuple[int, int]]) -> Dict[int, Face]:
    """Faces flipped so neighbours traverse shared edges oppositely.

    Raises :class:`UnsupportedError` when no consistent choice exists,
    i.e. the surface is non-orientable.
    """
    side_of = edge_faces(faces)
    flipped: Dict[int, bool] = {}
    for start in sorted(faces):
        if start in flipped:
            continue
        flipped[start] = False
        queue = [start]
        while queue:
            f = queue.pop()
            _, es = faces[f]
            for e in es:
                sharers = side_of[e]
                if len(sharers) > 2:
                    continue  # non-manifold edge; validation reports it
                for g in sharers:
                    if g == f:
                        continue
                    # flipping a face negates its traversal of every edge, so
                    # opposed traversals demand flip_g = flip_f XOR (same stored direction)
                    same = _traversal(faces[f], e, edges) == _traversal(faces[g], e, edges)
                    need = flipped[f] ^ same
                    if g in flipped:
                        if flipped[g] != need:
                            raise UnsupportedError(
                                "complex is non-orientable (no consistent orientation exists)"
                            )
                    else:
                        flipped[g] = need
                        queue.append(g)
    return {
        f: ((vs[0], vs[2], vs[1]), (es[2], es[1], es[0])) if flipped[f] else (vs, es)
        for f, (vs, es) in faces.items()
    }


def _angle(p: float, q: float, r: float) -> float:
    """Angle between the sides of squared lengths p and q, opposite side r."""
    denom = 2.0 * math.sqrt(p * q)
    if denom <= 0.0:
        raise GeometryError("zero-length edge in angle computation")
    c = (p + q - r) / denom
    c = max(-1.0, min(1.0, c))
    return math.acos(c)


def glue_along_boundary(a: Triangulation, b: Triangulation) -> Triangulation:
    """Glue two spaces along their common boundary, matching simplices by id.

    Both inputs must carry identical boundary marks (same ids, same marks) and
    equal squared lengths on shared edges.  ``b`` is expected to already carry
    the orientation that makes the glued space orientable (use ``mirrored``).
    The result is closed.
    """
    if a.dim != b.dim:
        raise StructureError("cannot glue spaces of different dimensions")
    if set(a.boundary_mark) != set(b.boundary_mark):
        raise StructureError("boundary simplex ids differ; cannot glue")
    dim = a.dim
    if dim == 0:
        return a.disjoint_union(b)

    if dim == 1:
        shared_v = set(a.boundary_mark)
    else:
        shared_e = set(a.boundary_mark)
        shared_v = {v for e in shared_e for v in a.edges[e]}
        for e in shared_e:
            if set(a.edges[e]) != set(b.edges[e]):
                raise StructureError(f"boundary edge {e} joins different vertices in the two pieces")
            if a.edge_len2[e] != b.edge_len2[e]:
                raise StructureError(f"boundary edge {e} has mismatched lengths")

    off = max(a.max_id(), b.max_id()) + 1

    def map_v(v: int) -> int:
        return v if v in shared_v else v + off

    vs = dict(a.vertex_sign)
    for v, s in b.vertex_sign.items():
        vs[map_v(v)] = vs.get(map_v(v), s)

    edges = dict(a.edges)
    len2 = dict(a.edge_len2)
    faces = dict(a.faces)

    if dim == 1:
        for e, (x, y) in b.edges.items():
            edges[e + off] = (map_v(x), map_v(y))
            len2[e + off] = b.edge_len2[e]
        return Triangulation(1, vs, edges, len2, {}, {})

    def map_e(e: int) -> int:
        return e if e in shared_e else e + off

    for e, (x, y) in b.edges.items():
        if e in shared_e:
            continue
        edges[e + off] = (map_v(x), map_v(y))
        len2[e + off] = b.edge_len2[e]
    for f, (fv, fe) in b.faces.items():
        faces[f + off] = (tuple(map_v(v) for v in fv), tuple(map_e(e) for e in fe))
    return Triangulation(2, vs, edges, len2, faces, {})


# -- constructors -------------------------------------------------------------------


def point_set(plus: int, minus: int = 0) -> Triangulation:
    """Oriented 0-manifold with the given numbers of (+) and (-) points."""
    signs = {i: 1 for i in range(plus)}
    signs.update({plus + i: -1 for i in range(minus)})
    return Triangulation(0, signs)


def circle(n_edges: int, len2=Fraction(1)) -> Triangulation:
    """Closed combinatorial circle with n >= 1 edges of equal squared length."""
    if n_edges < 1:
        raise StructureError("a circle needs at least one edge")
    if n_edges == 1:
        return Triangulation(1, {0: 1}, {0: (0, 0)}, {0: len2}, {}, {})
    vs = {i: 1 for i in range(n_edges)}
    edges = {i: (i, (i + 1) % n_edges) for i in range(n_edges)}
    return Triangulation(1, vs, edges, {i: len2 for i in edges}, {}, {})


def arc(n_edges: int, len2=Fraction(1), upper_id: Optional[int] = None) -> Triangulation:
    """Path of n >= 1 edges from vertex 0; first vertex marked lower, last marked upper."""
    if n_edges < 1:
        raise StructureError("an arc needs at least one edge")
    if upper_id is None:
        upper_id = n_edges
    base = max(0, upper_id) + 1
    ids = [0] + [base + i for i in range(n_edges - 1)] + [upper_id]
    vs = {v: 1 for v in ids}
    edges = {base + n_edges + i: (ids[i], ids[i + 1]) for i in range(n_edges)}
    marks = {ids[0]: LOWER, ids[-1]: UPPER}
    return Triangulation(1, vs, edges, {e: len2 for e in edges}, {}, marks)


def surface_from_faces(
    face_vertices: Iterable[Tuple[int, int, int]],
    edge_len2_by_pair: Optional[Mapping[frozenset, object]] = None,
    default_len2=Fraction(1),
    boundary_by_pair: Optional[Mapping[frozenset, str]] = None,
) -> Triangulation:
    """Build a surface from vertex triples, creating one edge per vertex pair.

    This is the ordinary simplicial constructor: it cannot express parallel
    edges, which only arise from gluing operations.  The triples may come in
    any orientation; faces are flipped to a consistent one, and a
    non-orientable surface raises :class:`UnsupportedError`.
    """
    face_vertices = [tuple(fv) for fv in face_vertices]
    verts = sorted({v for fv in face_vertices for v in fv})
    vs = {v: 1 for v in verts}
    pair_to_id: Dict[frozenset, int] = {}
    edges: Dict[int, Tuple[int, int]] = {}
    len2: Dict[int, object] = {}
    next_e = max(verts, default=0) + 1
    lengths = {frozenset(p): l for p, l in (edge_len2_by_pair or {}).items()}
    for fv in face_vertices:
        for i in range(3):
            pair = frozenset((fv[i], fv[(i + 1) % 3]))
            if len(pair) == 1:
                raise StructureError(f"face {fv} has a repeated vertex")
            if pair not in pair_to_id:
                pair_to_id[pair] = next_e
                x, y = sorted(pair)
                edges[next_e] = (x, y)
                len2[next_e] = lengths.get(pair, default_len2)
                next_e += 1
    faces: Dict[int, Face] = {}
    next_f = next_e
    for fv in face_vertices:
        es = tuple(pair_to_id[frozenset((fv[i], fv[(i + 1) % 3]))] for i in range(3))
        faces[next_f] = (fv, es)
        next_f += 1
    faces = _reoriented(faces, edges)
    marks = {}
    if boundary_by_pair:
        for pair, m in boundary_by_pair.items():
            marks[pair_to_id[frozenset(pair)]] = m
    else:
        sides = edge_faces(faces)
        marks = {e: LOWER for e in edges if len(sides[e]) == 1}
    return Triangulation(2, vs, edges, len2, faces, marks)


def sphere_triangulation(len2=Fraction(1)) -> Triangulation:
    """Boundary of the 3-simplex: 4 vertices, 6 edges, 4 faces."""
    return surface_from_faces(
        [(0, 1, 2), (0, 3, 1), (1, 3, 2), (0, 2, 3)], default_len2=len2
    )


def torus_triangulation(len2=Fraction(1)) -> Triangulation:
    """The 7-vertex torus: faces (i, i+1, i+3) and (i, i+2, i+3) mod 7."""
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 2) % 7, (i + 3) % 7))
    return surface_from_faces(faces, default_len2=len2)


# -- text format ---------------------------------------------------------------------


def to_text(t: Triangulation) -> str:
    """Line-oriented text form (see ``from_text`` for the grammar)."""
    lines = [f"dim={t.dim}"]
    for v in sorted(t.vertex_sign):
        s = t.vertex_sign[v]
        lines.append(f"v {v}" + (" -" if s < 0 else ""))
    if t.dim >= 1:
        for e in sorted(t.edges):
            a, b = t.edges[e]
            lines.append(f"s 1 {a} {b} len2={_rat_str(t.edge_len2[e])}")
    for f in sorted(t.faces):
        vs, _ = t.faces[f]
        lines.append(f"s 2 {vs[0]} {vs[1]} {vs[2]}")
    for sid in sorted(t.boundary_mark):
        m = t.boundary_mark[sid]
        if t.dim == 1:
            lines.append(f"b {sid} {m}")
        else:
            a, b = t.edges[sid]
            lines.append(f"b {a}-{b} {m}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Triangulation:
    """Parse the line-oriented triangulation format.

    Grammar (one record per line, ``#`` starts a comment):

        dim=<d>
        v <id> [-]
        s 1 <a> <b> [len2=<rational>]
        s 2 <a> <b> <c>
        b <vertex-id> <lower|upper>        (d = 1)
        b <a>-<b> <lower|upper>            (d = 2, edge by vertex pair)

    Only a dimension-0 vertex takes a sign.  In dimension 2 each ``s 1`` or
    ``b`` pair is a side of some face, listed at most once by ``s 1``.
    Malformed lines raise :class:`ParseError` with the line number.
    """
    dim: Optional[int] = None
    vertex_sign: Dict[int, int] = {}
    edges: Dict[int, Tuple[int, int]] = {}
    len2: Dict[int, object] = {}
    edge_line: Dict[int, int] = {}
    face_triples: List[Tuple[int, int, int]] = []
    marks_raw: List[Tuple[int, str, str]] = []
    next_edge = [0]

    def fresh_edge() -> int:
        next_edge[0] += 1
        return 10**6 + next_edge[0]

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dim="):
            if dim is not None:
                raise ParseError(ln, "duplicate dim= header")
            try:
                dim = int(line[4:])
            except ValueError:
                raise ParseError(ln, f"bad dimension {line[4:]!r}")
            if dim not in (0, 1, 2):
                raise ParseError(ln, f"dimension {dim} out of range")
            continue
        if dim is None:
            raise ParseError(ln, "expected dim=<d> header before records")
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "-"):
                raise ParseError(ln, "vertex record is 'v <id> [-]'")
            try:
                vid = int(parts[1])
            except ValueError:
                raise ParseError(ln, f"bad vertex id {parts[1]!r}")
            if vid in vertex_sign:
                raise ParseError(ln, f"duplicate vertex {vid}")
            if dim != 0 and len(parts) == 3:
                raise ParseError(ln, f"a dimension-{dim} vertex takes no sign")
            vertex_sign[vid] = -1 if len(parts) == 3 else 1
        elif kind == "s":
            if len(parts) < 2:
                raise ParseError(ln, "simplex record needs a dimension")
            try:
                sd = int(parts[1])
            except ValueError:
                raise ParseError(ln, f"bad simplex dimension {parts[1]!r}")
            if sd == 1:
                body = parts[2:]
                l2 = Fraction(1)
                if body and body[-1].startswith("len2="):
                    try:
                        l2 = Fraction(body[-1][5:])
                        float(l2)  # read as a float later, so it must fit one
                    except (ValueError, ZeroDivisionError, OverflowError):
                        raise ParseError(ln, f"len2 {body[-1][5:]!r} is not a finite rational")
                    body = body[:-1]
                if len(body) != 2:
                    raise ParseError(ln, "edge record is 's 1 <a> <b> [len2=<r>]'")
                try:
                    a, b = int(body[0]), int(body[1])
                except ValueError:
                    raise ParseError(ln, "edge endpoints must be integers")
                e = fresh_edge()
                edges[e] = (a, b)
                len2[e] = l2
                edge_line[e] = ln
            elif sd == 2:
                if len(parts) != 5:
                    raise ParseError(ln, "face record is 's 2 <a> <b> <c>'")
                try:
                    tri = (int(parts[2]), int(parts[3]), int(parts[4]))
                except ValueError:
                    raise ParseError(ln, "face vertices must be integers")
                face_triples.append(tri)
            else:
                raise ParseError(ln, f"simplex dimension {sd} out of range")
        elif kind == "b":
            if len(parts) != 3:
                raise ParseError(ln, "boundary record is 'b <id> <lower|upper>'")
            if parts[2] not in (LOWER, UPPER):
                raise ParseError(ln, f"bad boundary mark {parts[2]!r}")
            marks_raw.append((ln, parts[1], parts[2]))
        else:
            raise ParseError(ln, f"unknown record kind {kind!r}")

    if dim is None:
        raise ParseError(1, "missing dim=<d> header")

    try:
        if dim == 0:
            t = Triangulation(0, vertex_sign)
        elif dim == 1:
            marks = {}
            for ln, tok, m in marks_raw:
                try:
                    marks[int(tok)] = m
                except ValueError:
                    raise ParseError(ln, f"bad vertex id {tok!r} in boundary record")
            t = Triangulation(1, vertex_sign, edges, len2, {}, marks)
        else:
            sides = {frozenset((tri[i], tri[i - 1])) for tri in face_triples for i in range(3)}
            pair_len2 = {}
            for e, (a, b) in edges.items():
                pair = frozenset((a, b))
                if pair not in sides:
                    raise ParseError(edge_line[e], f"edge {a}-{b} is no side of a face")
                if pair in pair_len2:
                    raise ParseError(edge_line[e], f"edge {a}-{b} is listed twice")
                pair_len2[pair] = len2[e]
            pair_marks = {}
            for ln, tok, m in marks_raw:
                bits = tok.split("-")
                if len(bits) != 2:
                    raise ParseError(ln, f"edge boundary record needs '<a>-<b>', got {tok!r}")
                try:
                    pair = frozenset((int(bits[0]), int(bits[1])))
                except ValueError:
                    raise ParseError(ln, f"bad edge token {tok!r}")
                if pair not in sides:
                    raise ParseError(ln, f"boundary edge {tok} is no side of a face")
                pair_marks[pair] = m
            t = surface_from_faces(
                face_triples, edge_len2_by_pair=pair_len2,
                boundary_by_pair=pair_marks if pair_marks else None,
            )
            missing = set(vertex_sign) - set(t.vertex_sign)
            if missing:
                raise ParseError(1, f"vertices {sorted(missing)} not used by any face")
    except ParseError:
        raise
    except (StructureError, UnsupportedError, GeometryError) as exc:
        raise ParseError(0, str(exc))
    return t


def _rat_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))
