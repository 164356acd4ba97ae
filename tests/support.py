"""Builders and readers that only the tests use.

The package keeps only code its commands run; the test inputs built here
(random move orbits, the genus-2 surface, surfaces with holes, random
unitary frames) and the readers of a run (toy-space visit counts, state
fidelity, norm drifts of a trajectory) live beside the tests instead.
"""

import random
from typing import Iterable, List, Sequence

import numpy as np

from formalchain.chains import metropolis_accept
from formalchain.errors import GeometryError, MoveError, StructureError
from formalchain.topo import LOWER, Triangulation, apply_pachner, moves_for, torus_triangulation
from formalchain.topo.complexes import edge_faces
from formalchain.twofield import Trajectory, TwoFieldState, grid_dx


def sample_discrete(actions: Sequence[float], sweeps: int, seed: int,
                    temperature: float) -> List[int]:
    """Metropolis over an explicit finite state set with uniform proposals.

    Uses the same acceptance rule as the chain sampler; returns visit counts.
    The stationary distribution is exp(-S_i/T) / Z.
    """
    n = len(actions)
    if n < 2:
        raise StructureError("need at least two states")
    rng = random.Random(f"{seed}:toy")
    state = 0
    counts = [0] * n
    for _ in range(sweeps):
        other = rng.randrange(n - 1)
        if other >= state:
            other += 1
        if metropolis_accept(actions[other] - actions[state], rng, temperature):
            state = other
        counts[state] += 1
    return counts


def random_orbit(t: Triangulation, n_moves: int, rng) -> Triangulation:
    """Apply ``n_moves`` random applicable moves, resampling failures up to 200 times each.

    Metric validity is preserved: moves whose new lengths would violate a
    triangle inequality are skipped, so every intermediate stays Euclidean
    when the seed is.
    """
    cur = t
    for _ in range(n_moves):
        applied = False
        for _ in range(200):
            options = moves_for(cur)
            if not options:
                break
            m = options[rng.randrange(len(options))]
            try:
                cur = apply_pachner(cur, m)
                applied = True
                break
            except (MoveError, GeometryError):
                continue
        if not applied:
            break
    return cur


def genus2_triangulation() -> Triangulation:
    """Closed genus-2 surface: the double of the 7-vertex torus minus one face."""
    t = torus_triangulation()
    return remove_faces(t, [min(t.faces)]).double()


def remove_faces(t: Triangulation, face_ids: Iterable[int]) -> Triangulation:
    """Delete faces from a closed surface, marking the exposed edges lower."""
    face_ids = set(face_ids)
    faces = {f: fd for f, fd in t.faces.items() if f not in face_ids}
    sides = edge_faces(faces)
    edges = {e: d for e, d in t.edges.items() if e in sides}
    len2 = {e: t.edge_len2[e] for e in edges}
    used_v = {v for fv, _ in faces.values() for v in fv}
    vs = {v: s for v, s in t.vertex_sign.items() if v in used_v}
    marks = {e: m for e, m in t.boundary_mark.items() if e in edges}
    marks.update({e: LOWER for e in edges if len(sides[e]) == 1})
    return Triangulation(2, vs, edges, len2, faces, marks)


def fidelity(a: TwoFieldState, b: TwoFieldState) -> float:
    """|<a|b>|^2 with the grid measure."""
    dx = grid_dx(a.params)
    ov = complex(np.sum(np.conj(a.joint()) * b.joint())) * dx * dx
    return abs(ov) ** 2


def random_unitary(m: int, seed: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def max_joint_drift(traj: Trajectory) -> float:
    return max(abs(n - traj.joint_norms[0]) for n in traj.joint_norms)


def max_erased_drift(traj: Trajectory) -> float:
    return max(abs(n - traj.erased_norms[0]) for n in traj.erased_norms)
