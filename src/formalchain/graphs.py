"""Nearest-neighbour graphs of combinatorial classes and their spectral gap.

Vertices are combinatorial classes at a fixed dimension and topology; two
classes are adjacent when a single Pachner move connects them.  The gap
(smallest nonzero eigenvalue of the combinatorial Laplacian) is computed by
deflated power iteration; tests check it against a dense eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from .errors import GeometryError, MoveError, StructureError, UnsupportedError
from .topo import (
    Triangulation,
    apply_pachner,
    connected_groups,
    iso_key,
    moves_for,
    sphere_triangulation,
)


@dataclass
class NeighborGraph:
    """Simple undirected graph on class labels."""

    vertices: List[object]
    edges: Set[Tuple[int, int]] = field(default_factory=set)
    truncated: bool = False

    def add_edge(self, i: int, j: int) -> None:
        if i == j:
            return
        self.edges.add((min(i, j), max(i, j)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.n, self.n))
        for i, j in self.edges:
            lap[i, i] += 1.0
            lap[j, j] += 1.0
            lap[i, j] -= 1.0
            lap[j, i] -= 1.0
        return lap

    def components(self) -> int:
        return len(connected_groups(range(self.n), self.edges))


def path_graph(n: int) -> NeighborGraph:
    g = NeighborGraph(vertices=list(range(n)))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> NeighborGraph:
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(leaves: int) -> NeighborGraph:
    g = NeighborGraph(vertices=list(range(leaves + 1)))
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g


# the most sphere classes a dimension-2 graph collects
CLASS_CAP = 64


def build_neighbor_graph(
    dim: int,
    size_cap: int,
    min_size: int = 3,
) -> NeighborGraph:
    """Classes of one topology linked by single Pachner moves.

    Dimension 1 enumerates circles by edge count in [min_size, size_cap];
    a subdivision links consecutive counts.  Dimension 2 explores the move
    graph from the minimal sphere, collecting combinatorial classes with at
    most ``size_cap`` vertices, up to ``CLASS_CAP`` classes (sets
    ``truncated`` beyond that).
    """
    if dim == 1:
        if min_size < 1:
            raise StructureError(f"min_size {min_size} is below 1, the fewest edges of a circle")
        sizes = list(range(min_size, size_cap + 1))
        g = NeighborGraph(vertices=[("circle", n) for n in sizes])
        for i in range(len(sizes) - 1):
            g.add_edge(i, i + 1)
        return g
    if dim != 2:
        raise UnsupportedError(f"no neighbor graph for dimension {dim}")
    seed = sphere_triangulation()
    if size_cap < len(seed.vertex_sign):
        raise StructureError(f"size cap {size_cap} is below the seed sphere's 4 vertices")
    key0 = iso_key(seed, metric=False)
    index: Dict[object, int] = {key0: 0}
    reps: List[Triangulation] = [seed]
    g = NeighborGraph(vertices=[key0])
    queue = [0]
    while queue:
        i = queue.pop(0)
        t = reps[i]
        for move in moves_for(t):
            try:
                t2 = apply_pachner(t, move)
            except (MoveError, GeometryError):
                continue
            if len(t2.vertex_sign) > size_cap:
                continue
            k2 = iso_key(t2, metric=False)
            if k2 not in index:
                if len(reps) >= CLASS_CAP:
                    g.truncated = True
                    continue
                index[k2] = len(reps)
                reps.append(t2)
                g.vertices.append(k2)
                queue.append(index[k2])
            g.add_edge(i, index[k2])
    return g


def spectral_gap(g: NeighborGraph) -> Tuple[float, bool]:
    """(smallest nonzero Laplacian eigenvalue, connected flag).

    Disconnected graphs report gap 0.  Connected graphs run inverse iteration
    on the Laplacian with the kernel filled in (L + ones ones^T / n is
    positive definite and agrees with L off the constant vector), deflating
    the constant direction each step.  Iteration stops once the residual
    ``|L v - ray v|`` is below 1e-9, which for a symmetric matrix bounds the
    distance from ``ray`` to the nearest eigenvalue, or after 500 solves.
    """
    n = g.n
    if n == 0:
        raise StructureError("empty graph")
    if g.components() > 1:
        return 0.0, False
    if n == 1:
        return 0.0, True
    lap = g.laplacian()
    filled = lap + np.ones((n, n)) / n
    ones = np.ones(n) / np.sqrt(n)
    rng = np.random.default_rng(12345)
    v = rng.normal(size=n)
    v -= ones * (ones @ v)
    v /= np.linalg.norm(v)
    ray = float(v @ (lap @ v))
    for _ in range(500):
        w = np.linalg.solve(filled, v)
        w -= ones * (ones @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        lv = lap @ v
        ray = float(v @ lv)
        if np.linalg.norm(lv - ray * v) < 1e-9:
            break
    return ray, True
