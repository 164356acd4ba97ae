"""Classification keys, homology, and canonical forms for triangulations.

Closed manifolds are collected into classes:

* dimension 0 -- counts of (+) and (-) points,
* dimension 1 -- number of circles (topological) or the multiset of circle
  length profiles (isometry),
* dimension 2 -- sorted multiset of component genera (topological) or a
  canonical combinatorial-map code (isometry / combinatorial).

Every space the package builds is classified by these keys.  Homology Betti
numbers come from the same component searches (see ``homology_ranks``), and
the torsion is always empty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from ..errors import StructureError
from .complexes import Triangulation, connected_groups, directed_walks, edge_faces


@dataclass(frozen=True, order=True)
class Closed0Class:
    """Closed oriented 0-manifold: (+)-point and (-)-point counts."""

    plus_points: int
    minus_points: int

    def __post_init__(self):
        if self.plus_points < 0 or self.minus_points < 0:
            raise StructureError("point counts must be nonnegative")

    def __str__(self):
        return f"points(+{self.plus_points},-{self.minus_points})"


@dataclass(frozen=True, order=True)
class Closed1Class:
    """Closed 1-manifold: a number of circles."""

    circles: int

    def __post_init__(self):
        if self.circles < 0:
            raise StructureError("circle count must be nonnegative")

    def __str__(self):
        return f"circles({self.circles})"


@dataclass(frozen=True, order=True)
class ClosedSurfaceClass:
    """Closed orientable surface: sorted multiset of component genera."""

    genera: Tuple[int, ...]

    def __post_init__(self):
        if list(self.genera) != sorted(self.genera):
            object.__setattr__(self, "genera", tuple(sorted(self.genera)))
        if any(g < 0 for g in self.genera):
            raise StructureError("genus must be nonnegative")

    @property
    def components(self) -> int:
        return len(self.genera)

    def union(self, other: "ClosedSurfaceClass") -> "ClosedSurfaceClass":
        return ClosedSurfaceClass(tuple(sorted(self.genera + other.genera)))

    def __str__(self):
        return "surface(" + ",".join(f"g{g}" for g in self.genera) + ")"


def classify_0d(t: Triangulation) -> Closed0Class:
    if t.dim != 0:
        raise StructureError("expected a 0-manifold")
    plus = sum(1 for s in t.vertex_sign.values() if s > 0)
    return Closed0Class(plus, len(t.vertex_sign) - plus)


def classify_curves(t: Triangulation) -> Closed1Class:
    if t.dim != 1:
        raise StructureError("expected a 1-manifold")
    if not t.is_closed():
        raise StructureError("expected a closed 1-manifold")
    return Closed1Class(t.component_count())


def classify_surface(t: Triangulation) -> ClosedSurfaceClass:
    """Collect a closed oriented surface by genus per connected component.

    Components are found by union-find over faces sharing an edge; the genus
    of each comes from its Euler characteristic.
    """
    if t.dim != 2:
        raise StructureError("expected a 2-manifold")
    if not t.is_closed():
        raise StructureError("surface classification requires a closed surface")
    if not t.is_pure():
        raise StructureError("complex has simplices outside every face; singular")
    by_edge = edge_faces(t.faces)
    _require_manifold_links(t, by_edge)
    genera = []
    links = ((fs[0], g) for fs in by_edge.values() for g in fs[1:])
    for comp in connected_groups(t.faces, links):
        vset, eset = set(), set()
        for f in comp:
            fv, fe = t.faces[f]
            vset.update(fv)
            eset.update(fe)
        chi = len(vset) - len(eset) + len(comp)
        if chi % 2 != 0 or chi > 2:
            raise StructureError(f"component has impossible Euler characteristic {chi}")
        genera.append((2 - chi) // 2)
    return ClosedSurfaceClass(tuple(sorted(genera)))


def _require_manifold_links(t: Triangulation, side_faces: Dict[int, List[int]]) -> None:
    """Every vertex link must be a single cycle (closed surface assumed).

    ``side_faces`` is ``edge_faces(t.faces)``.  The corners (face, vertex) at
    a vertex are joined across each edge at it; a vertex whose corners fall
    into more than one group has a disconnected link.
    """
    corners = ((f, v) for f, (fv, _) in t.faces.items() for v in fv)
    links = (((fs[0], v), (g, v))
             for e, fs in side_faces.items() for g in fs[1:] for v in t.edges[e])
    groups = Counter(group[0][1] for group in connected_groups(corners, links))
    pinched = next((v for v, n in groups.items() if n > 1), None)
    if pinched is not None:
        raise StructureError(f"vertex {pinched} has a disconnected link; pinched point")


# -- homology -------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyFingerprint:
    betti: Tuple[int, ...]
    torsion: Tuple[int, ...]

    def __str__(self):
        tor = ",".join(map(str, self.torsion)) if self.torsion else "-"
        return "H(" + ",".join(map(str, self.betti)) + f";{tor})"


def homology_ranks(t: Triangulation) -> HomologyFingerprint:
    """Betti numbers b_0..b_dim, counted from vertex and face components.

    d_1 is the incidence matrix of a directed graph, so b_0 counts vertex
    components.  A cycle of d_2 is constant on a face component and vanishes
    on one with a side in a single face, so b_2 counts the other face
    components; b_1 follows from chi = b_0 - b_1 + b_2.  The torsion is empty:
    validation rejects an edge in over two faces, two faces running along an
    edge the same way, a face repeating an edge and 2D self-loops, so a row of
    d_2 has at most two nonzero entries, of opposite signs.  Both matrices are
    network matrices, hence totally unimodular (Schrijver 1986, ch. 19).
    """
    b0 = len(connected_groups(t.vertex_sign, t.edges.values()))
    by_edge = edge_faces(t.faces)
    links = ((fs[0], g) for fs in by_edge.values() for g in fs[1:])
    b2 = sum(
        all(len(by_edge[e]) == 2 for f in comp for e in t.faces[f][1])
        for comp in connected_groups(t.faces, links)
    )
    b1 = b0 + b2 - t.euler_characteristic()
    return HomologyFingerprint((b0, b1, b2)[: t.dim + 1], ())


# -- canonical isometry / combinatorial keys -----------------------------------


def iso_key(t: Triangulation, metric: bool = True):
    """Canonical hashable key for the isometry (or combinatorial) class."""
    if t.dim == 0:
        return classify_0d(t)
    if t.dim == 1:
        return ("curves",) + curve_profile(t, metric=metric)
    if t.is_pure():
        return ("surface", surface_code(t, metric=metric))
    # surface_code reads only the faces and their sides' lengths
    used_e = {e for _, fe in t.faces.values() for e in fe}
    dangling = [e for e in t.edges if e not in used_e]
    curve_part = tuple(sorted(_token(t.edge_len2[e], metric) for e in dangling))
    return ("mixed", surface_code(t, metric=metric), curve_part)


def curve_profile(t: Triangulation, metric: bool = True) -> Tuple:
    """Sorted tuple of canonical per-component profiles of a 1-manifold."""
    profiles = []
    for is_cycle, walk in directed_walks(t.edges):
        lens = tuple([_token(t.edge_len2[e], metric) for e in walk])
        profiles.append(("circle",) + _min_rotation(lens) if is_cycle else ("path",) + lens)
    return tuple(sorted(profiles))


def _min_rotation(seq: Tuple) -> Tuple:
    """Least rotation of ``seq`` or of its reverse."""
    if not seq:
        return seq
    rots = []
    for s in (seq, seq[::-1]):
        k = _least_rotation(s)
        rots.append(s[k:] + s[:k])
    return min(rots)


def _least_rotation(seq: Tuple) -> int:
    """Start index of the lexicographically least rotation (Booth, 1980), O(n)."""
    s = seq + seq
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _token(l2, metric: bool):
    if not metric:
        return "*"
    if isinstance(l2, Fraction):
        return str(l2)
    return repr(float(l2))


def surface_code(t: Triangulation, metric: bool = True) -> Tuple:
    """Canonical code of an oriented surface Delta-complex.

    Darts are face sides; the code records, per dart in breadth-first order
    from a start dart, the indices of its in-face successor and its twin (-1
    if none) plus the metric token of its edge.  Per connected component, the
    minimum over all start darts is a complete invariant of the combinatorial
    map (with lengths if metric); the full code is the sorted tuple of
    component codes.

    The minimum is found with an early abort: a dart's record is known as
    soon as the dart is dequeued, because dequeuing it numbers its successor
    and twin, so each start's code is compared with the best one record at a
    time and the start is dropped as soon as its prefix is larger.  Every
    start of a component numbers all of its darts, so all codes of a component
    have the same length and the surviving minimum is the one a full search
    would find.  Edge tokens are computed once per edge and compared through
    their sort ranks.

    A start whose code ties the best one over its full length yields an
    automorphism of the map, and a start in the orbit of an already searched
    start under the automorphisms found so far is skipped: it would repeat
    that start's code (automorphism pruning, McKay & Piperno 2014).
    """
    faces = sorted(t.faces)
    if not faces:
        return ()
    n = 3 * len(faces)
    by_edge: Dict[int, List[int]] = {}
    for pos, f in enumerate(faces):
        fe = t.faces[f][1]
        for i in range(3):
            by_edge.setdefault(fe[i], []).append(3 * pos + i)
    edge_tok = {e: _token(t.edge_len2[e], metric) for e in by_edge}
    names = sorted(set(edge_tok.values()))
    rank_of = {s: r for r, s in enumerate(names)}
    twin = [-1] * n
    rank = [0] * n
    for e, ds in by_edge.items():
        for d in ds:
            rank[d] = rank_of[edge_tok[e]]
        if len(ds) == 2:
            twin[ds[0]], twin[ds[1]] = ds[1], ds[0]
    nxt = [d + 1 if d % 3 < 2 else d - 2 for d in range(n)]
    # a record (successor, twin, token) packed into one int with the same order
    n_tok = len(names)
    width = (n + 1) * n_tok
    index = [-1] * n  # BFS number of each dart from the current start, -1 if none
    # darts joined by the automorphisms found so far, queried between unions
    # (unlike connected_groups); searched[root]: the orbit holds a searched start
    orbit = list(range(n))
    searched = [False] * n

    def find(d: int) -> int:
        while orbit[d] != d:
            orbit[d] = orbit[orbit[d]]
            d = orbit[d]
        return d

    def least_code(comp: List[int]) -> List[int]:
        best: List[int] = []
        best_order: List[int] = []
        for s in comp:
            root = find(s)
            if searched[root]:
                continue
            searched[root] = True
            index[s] = 0
            order = [s]
            code: List[int] = []
            tight = bool(best)  # code so far equals best's prefix
            k = 0
            while k < len(order):
                d = order[k]
                a = nxt[d]
                ia = index[a]
                if ia < 0:
                    ia = index[a] = len(order)
                    order.append(a)
                b = twin[d]
                ib = 0
                if b >= 0:
                    ib = index[b]
                    if ib < 0:
                        ib = index[b] = len(order)
                        order.append(b)
                    ib += 1
                rec = ia * width + ib * n_tok + rank[d]
                if tight:
                    if rec > best[k]:
                        break
                    tight = rec == best[k]
                code.append(rec)
                k += 1
            for d in order:
                index[d] = -1
            if len(code) < len(order):
                continue
            if not tight:
                best, best_order = code, order
                continue
            # equal codes: best_order[i] -> order[i] is an automorphism
            for a, b in zip(best_order, order):
                ra, rb = find(a), find(b)
                if ra != rb:
                    orbit[ra] = rb
                    searched[rb] = searched[rb] or searched[ra]
        return best

    # components by a BFS over the dart arrays rather than connected_groups,
    # whose link list and node dict made surface_code about 24 % slower under cProfile
    seen = [False] * n
    codes = []
    for seed in range(n):
        if seen[seed]:
            continue
        seen[seed] = True
        members = [seed]
        for d in members:
            for nb in (nxt[d], twin[d]):
                if nb >= 0 and not seen[nb]:
                    seen[nb] = True
                    members.append(nb)
        best = least_code(sorted(members))
        # a list first: tuple() of a generator grows the tuple by resizing,
        # which fragments the heap under these long-lived keys
        codes.append(tuple([
            (rec // width, rec % width // n_tok - 1, names[rec % n_tok]) for rec in best
        ]))
    return tuple(sorted(codes))
