"""Layered Lorentzian growth, Wick rotation, and mirror doubling.

Growth takes a closed Euclidean (d-1)-manifold to a Lorentzian d-dimensional
cobordism over it: timelike edges get squared length ``-alpha_d * a``,
spacelike edges ``+a``.  The single topological constraint on an acceptable
cobordism is chi(X) = chi(lower slice); proposals violating it raise
:class:`EulerConstraintError`.

Dimension 1 grows arcs (optionally with extra free circles) over points;
dimension 2 extrudes each circle into an annular layer of paired Lorentzian
triangles -- a full layer over every edge, or a partial layer over a subset
(the skipped edges pass through to the next slice, leaving a foliation
singularity that the action can penalize).  Optional extra closed torus
components model the compact directions the growth process can shed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import (
    EulerConstraintError,
    StructureError,
    SuperpositionForbiddenError,
    UnsupportedError,
)
from .topo import (
    LOWER,
    UPPER,
    Triangulation,
    glue_along_boundary,
    iso_key,
    torus_triangulation,
)
from .topo.complexes import directed_walks, edge_faces


@dataclass(frozen=True)
class GrowthConfig:
    """Aspect ratios and layer policy for the growth steps."""

    alpha: Tuple[object, object, object] = (Fraction(1), Fraction(1), Fraction(1))
    a: object = Fraction(1)
    layer: str = "full"  # "full" | "partial"
    topology_change: bool = False
    p_circle: float = 0.1

    def __post_init__(self):
        for name, values in (("alpha", self.alpha), ("a", (self.a,))):
            if not all(math.isfinite(float(x)) for x in values):
                raise StructureError(f"{name} must be finite, got {getattr(self, name)!r}")
        if any(float(x) <= 0 for x in self.alpha):
            raise StructureError("alpha must be positive in every dimension")
        if float(self.a) <= 0:
            raise StructureError("spacelike squared length a must be positive")
        if self.layer not in ("full", "partial"):
            raise StructureError(f"unknown layer policy {self.layer!r}")
        # grow_layer adds circles until a uniform draw reaches p_circle; a NaN fails too
        if not 0 <= self.p_circle < 1:
            raise StructureError(f"p_circle must lie in [0, 1), got {self.p_circle!r}")

    def alpha_for(self, d: int):
        return self.alpha[d] if d < len(self.alpha) else self.alpha[-1]

    def timelike_len2(self, d: int):
        return -(self.alpha_for(d) * self.a)


@dataclass(frozen=True)
class Cobordism:
    """A Lorentzian d-layer together with the Euler number of its lower slice.

    ``lower_key`` names the slice class the layer grew on; layers are only
    cross-glued against layers over the same slice.
    """

    space: Triangulation
    lower_chi: int
    lower_key: object = None

    def __post_init__(self):
        if self.space.euler_characteristic() != self.lower_chi:
            raise EulerConstraintError(
                f"chi(X) = {self.space.euler_characteristic()} differs from "
                f"chi(lower slice) = {self.lower_chi}"
            )

    @property
    def dim(self) -> int:
        return self.space.dim

    def upper_slice(self) -> Triangulation:
        """The slice the next growth step builds on.

        For dimension 2 this is the union of upper-marked edges and lower
        edges that no face touched (a partial layer passes them through).
        """
        t = self.space
        if t.dim == 1:
            pts = [v for v, m in t.boundary_mark.items() if m == UPPER]
            return Triangulation(0, {v: 1 for v in pts})
        used = {e for _, fe in t.faces.values() for e in fe}
        upper = [e for e, m in t.boundary_mark.items() if m == UPPER]
        upper += [e for e, m in t.boundary_mark.items() if m == LOWER and e not in used]
        return _oriented_curve(t, upper)


def _oriented_curve(t: Triangulation, edge_ids: Sequence[int]) -> Triangulation:
    """Closed 1-manifold on the given edges of t, reoriented into directed cycles."""
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for e in edge_ids:
        a, b = t.edges[e]
        adj.setdefault(a, []).append((e, b))
        adj.setdefault(b, []).append((e, a))
    for v, nb in adj.items():
        if len(nb) > 2:
            raise StructureError(f"upper slice is not a 1-manifold at vertex {v}")
    edges = {}
    len2 = {}
    remaining = set(edge_ids)
    while remaining:
        e = min(remaining)
        v = t.edges[e][0]
        while True:
            x, y = t.edges[e]
            nxt = y if x == v else x
            edges[e] = (v, nxt)
            len2[e] = abs(t.edge_len2[e]) if float(t.edge_len2[e]) < 0 else t.edge_len2[e]
            remaining.discard(e)
            cont = [(ee, w) for ee, w in adj[nxt] if ee in remaining]
            if not cont:
                break
            v, e = nxt, cont[0][0]
    verts = {v: 1 for e in edge_ids for v in t.edges[e]}
    # unmarked, so the constructor rejects an open curve
    return Triangulation(1, verts, edges, len2, {}, {})


def grow_layer(
    y: Triangulation,
    cfg: GrowthConfig,
    rng,
    subdivisions: int = 1,
    lower_key: object = None,
) -> Cobordism:
    """One Lorentzian layer over a closed Euclidean slice.

    ``subdivisions`` sets the number of timelike edges per arc (dimension 1);
    with topology change, ``rng`` draws the extra closed components with
    probability ``p_circle``.  ``lower_key`` defaults to the isometry class
    of the slice.
    """
    d = y.dim + 1
    if d > 2:
        raise UnsupportedError(f"growth into dimension {d} is not supported")
    if not y.is_closed():
        raise StructureError("growth needs a closed lower slice")
    if lower_key is None:
        lower_key = iso_key(y)
    extra_closed = 0
    if cfg.topology_change:
        while rng.random() < cfg.p_circle:
            extra_closed += 1
    if d == 1:
        return _grow_arcs(y, cfg, subdivisions, extra_closed, lower_key)
    return _grow_circle_layer(y, cfg, rng, extra_closed, lower_key)


def _grow_arcs(y: Triangulation, cfg: GrowthConfig, subdivisions: int, extra_circles: int,
               lower_key: object) -> Cobordism:
    if subdivisions < 1:
        raise StructureError("arcs need at least one edge")
    tl2 = cfg.timelike_len2(1)
    base = y.max_id() + 1
    vs: Dict[int, int] = {}
    edges: Dict[int, Tuple[int, int]] = {}
    len2: Dict[int, object] = {}
    marks: Dict[int, str] = {}
    next_id = base + 2 * len(y.vertex_sign)
    uppers = {v: base + 2 * i for i, v in enumerate(sorted(y.vertex_sign))}
    for i, v in enumerate(sorted(y.vertex_sign)):
        u = uppers[v]
        chain = [v] + [next_id + j for j in range(subdivisions - 1)] + [u]
        next_id += subdivisions - 1
        for w in chain:
            vs[w] = 1
        for j in range(subdivisions):
            e = next_id
            next_id += 1
            edges[e] = (chain[j], chain[j + 1])
            len2[e] = tl2
        marks[v] = LOWER
        marks[u] = UPPER
    for _ in range(extra_circles):
        c0, c1 = next_id, next_id + 1
        e0, e1 = next_id + 2, next_id + 3
        next_id += 4
        vs[c0] = vs[c1] = 1
        edges[e0] = (c0, c1)
        edges[e1] = (c1, c0)
        len2[e0] = len2[e1] = tl2
    space = Triangulation(1, vs, edges, len2, {}, marks)
    return Cobordism(space, y.euler_characteristic(), lower_key)


def _grow_circle_layer(y: Triangulation, cfg: GrowthConfig, rng, extra_tori: int,
                       lower_key: object) -> Cobordism:
    tl2 = cfg.timelike_len2(2)
    sl2 = cfg.a
    off_v = y.max_id() + 1
    vs = {v: 1 for v in y.vertex_sign}
    edges = dict(y.edges)
    len2 = {e: y.edge_len2[e] for e in y.edges}
    faces: Dict[int, Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = {}

    next_id = off_v + 2 * (y.max_id() + 1)
    for _, cycle in directed_walks(y.edges):  # y is closed: every walk is a cycle
        n = len(cycle)
        if cfg.layer == "partial":
            chosen = _partial_subset(n, rng)
        else:
            chosen = [True] * n
        ups: Dict[int, int] = {}
        for k, e in enumerate(cycle):
            if chosen[k]:
                for v in y.edges[e]:
                    if v not in ups:
                        ups[v] = off_v + v
                        vs[off_v + v] = 1
        verticals: Dict[int, int] = {}
        for v in sorted(ups):
            g = next_id
            next_id += 1
            edges[g] = (v, ups[v])
            len2[g] = tl2
            verticals[v] = g
        for k, e in enumerate(cycle):
            if not chosen[k]:
                continue
            a, b = y.edges[e]
            ua, ub = ups[a], ups[b]
            f_top, d_diag = next_id, next_id + 1
            t1, t2 = next_id + 2, next_id + 3
            next_id += 4
            edges[f_top] = (ua, ub)
            len2[f_top] = sl2
            edges[d_diag] = (b, ua)
            len2[d_diag] = tl2
            faces[t1] = ((a, b, ua), (e, d_diag, verticals[a]))
            faces[t2] = ((b, ub, ua), (verticals[b], f_top, d_diag))

    sides = edge_faces(faces)
    marks: Dict[int, str] = {}
    for e in edges:
        if e in y.edges:
            marks[e] = LOWER  # extruded bottoms are boundary, skipped ones dangle
        elif len(sides.get(e, ())) <= 1:
            marks[e] = UPPER  # tops and the end verticals of partial runs
    base = Triangulation(2, vs, edges, len2, faces, marks)
    out = base
    for _ in range(extra_tori):
        # a closed torus has chi = 0, so the constraint still holds; closed
        # components of a layer are the dimension-2 analog of the extra circles
        # of dimension-1 growth: compact directions shed by the process
        out = out.disjoint_union(torus_triangulation(len2=cfg.a))
    return Cobordism(out, y.euler_characteristic(), lower_key)


def _partial_subset(n: int, rng) -> List[bool]:
    """Random nonempty subset of layer positions (full subset allowed)."""
    for _ in range(64):
        chosen = [rng.random() < 0.7 for _ in range(n)]
        if any(chosen):
            return chosen
    return [True] * n


def double_cross(a: Cobordism, b: Cobordism) -> Triangulation:
    """Glue layer a to the mirror of layer b along their shared boundary ids."""
    if a.space.boundary_mark != b.space.boundary_mark:
        raise StructureError("cross doubling needs identical boundary marks")
    glued = glue_along_boundary(a.space, b.space.mirrored())
    return glued.wick_rotated()


def mirror_double(x: Cobordism) -> Triangulation:
    """Glue the layer to its mirror along all boundary and Wick-rotate.

    The double of a cobordism over Y with a full upper slice is closed with
    chi = 2 chi(X) - chi(boundary); for circles the boundary contributes 0.
    """
    return double_cross(x, x)


def grow_superposed(
    y_amp,
    y: Triangulation,
    cfg: GrowthConfig,
    candidates: int,
    rng,
    lower_key: object,
) -> List[Tuple[object, Cobordism]]:
    """Grow ``candidates`` distinct layers over y in equal superposition.

    Returns the ``(amplitude, layer)`` terms of the grown X site.  Candidate
    i uses i+1 timelike subdivisions per arc.  Amplitudes are
    ``y_amp / sqrt(candidates)``, and each layer carries ``lower_key``, the
    caller's key for y's class.  A superposition with a nonempty upper
    boundary is only meaningful when the boundary is 0-dimensional, i.e. for
    growth into dimension 1.
    """
    if candidates < 1:
        raise StructureError("need at least one candidate")
    d = y.dim + 1
    # extra closed components leave the boundary untouched, so candidates
    # with and without them still glue against each other
    cands = [
        grow_layer(y, cfg, rng, subdivisions=k + 1, lower_key=lower_key)
        for k in range(candidates)
    ]
    if candidates > 1 and d > 1 and any(
        UPPER in c.space.boundary_mark.values() for c in cands
    ):
        raise SuperpositionForbiddenError(
            f"superposed growth with nonempty upper boundary is not defined for d={d}"
        )
    w = 1.0 / math.sqrt(candidates)
    return [(y_amp * w, c) for c in cands]
