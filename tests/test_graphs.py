"""Neighbor graphs and the Laplacian spectral gap."""

import math

import numpy as np
import pytest

from formalchain.errors import StructureError, UnsupportedError
from formalchain.graphs import (
    CLASS_CAP,
    NeighborGraph,
    build_neighbor_graph,
    cycle_graph,
    path_graph,
    spectral_gap,
    star_graph,
)
from formalchain.topo import torus_triangulation


def dense_gap(g: NeighborGraph) -> float:
    vals = sorted(np.linalg.eigvalsh(g.laplacian()))
    return float(next((x for x in vals if x > 1e-9), 0.0))


def test_path2_gap_exact():
    gap, conn = spectral_gap(path_graph(2))
    assert conn and abs(gap - 2.0) < 1e-6


def test_cycle4_gap():
    gap, conn = spectral_gap(cycle_graph(4))
    assert conn and abs(gap - 2.0) < 1e-6


def test_star_gap():
    gap, conn = spectral_gap(star_graph(3))
    assert conn and abs(gap - 1.0) < 1e-6


def test_path5_matches_closed_form():
    gap, _ = spectral_gap(path_graph(5))
    assert abs(gap - (2 - 2 * math.cos(math.pi / 5))) < 1e-6


def test_iterative_matches_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(17)
    for n in (8, 20, 60):
        g = NeighborGraph(vertices=list(range(n)))
        # random connected graph: a spanning path plus random chords
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        for _ in range(n):
            i, j = rng.integers(0, n, size=2)
            g.add_edge(int(i), int(j))
        gap, conn = spectral_gap(g)
        assert conn
        assert abs(gap - dense_gap(g)) < 1e-6


def test_slow_mixing_graphs_match_oracle():
    # long paths, exact degeneracy, and bottlenecked cliques are the hard
    # cases for iterative eigensolvers; all must stay within 1e-6 of dense
    hard = [path_graph(200), cycle_graph(200)]
    barbell = NeighborGraph(vertices=list(range(24)))
    for i in range(10):
        for j in range(i + 1, 10):
            barbell.add_edge(i, j)
            barbell.add_edge(14 + i, 14 + j)
    for k in range(9, 14):
        barbell.add_edge(k, k + 1)
    hard.append(barbell)
    for g in hard:
        gap, conn = spectral_gap(g)
        assert conn
        assert abs(gap - dense_gap(g)) < 1e-6


def test_circle_class_graph_is_path():
    g = build_neighbor_graph(1, 7, min_size=3)
    assert g.vertices == [("circle", n) for n in range(3, 8)]
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    gap, conn = spectral_gap(g)
    assert conn and abs(gap - dense_gap(g)) < 1e-6


def test_single_class_graph():
    g = build_neighbor_graph(1, 3, min_size=3)
    assert g.n == 1 and not g.edges
    gap, conn = spectral_gap(g)
    assert conn and gap == 0.0


def test_sphere_class_graph_has_edges():
    g = build_neighbor_graph(2, 6)
    assert g.n >= 2
    assert len(g.edges) >= 1
    assert not g.truncated


def test_truncation_flag():
    g = build_neighbor_graph(2, 8)
    assert g.truncated
    assert g.n == CLASS_CAP


def test_gap_zero_iff_disconnected():
    d = NeighborGraph(vertices=[0, 1, 2, 3])
    d.add_edge(0, 1)
    d.add_edge(2, 3)
    gap, conn = spectral_gap(d)
    assert gap == 0.0 and not conn
    c = cycle_graph(6)
    gap_c, conn_c = spectral_gap(c)
    assert conn_c and gap_c > 0.0


def test_unsupported_dimension():
    with pytest.raises(UnsupportedError):
        build_neighbor_graph(0, 5)


def test_empty_graph_rejected():
    with pytest.raises(StructureError):
        spectral_gap(NeighborGraph(vertices=[]))
