"""Regge-type action terms and the total action of a formal chain.

Per Euclidean site of dimension d the unscaled action is

    S_0 = 2 Lambda_0 * #points
    S_1 = 2 Lambda_1 * total length
    S_2 = -(2/G) * sum of angle deficits + 2 Lambda_2 * total area

extended over superpositions by weighting with squared amplitudes.  The total
action scales each site term and the per-move fugacities by c_d, adds the
volume term g_d |Y|^2 per Euclidean site, and a kinetic penalty
2 h_d |b_k - b_{k+1}|^2 across every fluctuation step (the penalty sign: a
Euclidean weight exp(-S) must grow when neighbouring amplitudes disagree for
the term to suppress cancellation).

Singular (non-manifold) components are priced at a large finite configurable
penalty instead of being rejected, so the sampler can pass through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import GeometryError, SingularError, StructureError, UnsupportedError
from .superpose import Superposition, abs2
from .topo import Triangulation, classify_surface

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ActionParams:
    """All coupling constants of the total action."""

    G: float = 1.0
    Lambda: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    c: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    f: Tuple[float, float, float] = (0.1, 0.1, 0.1)
    g: Tuple[float, float, float] = (10.0, 10.0, 10.0)
    h: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    singular_penalty: float = 1.0e6  # math.inf switches to hard rejection

    def __post_init__(self):
        for name in ("G", "Lambda", "c", "f", "g", "h"):
            value = getattr(self, name)
            if not all(map(math.isfinite, (value,) if name == "G" else value)):
                raise StructureError(f"{name} must be finite, got {value!r}")
        if math.isnan(self.singular_penalty):
            raise StructureError("singular_penalty must not be nan")
        if self.G <= 0:
            raise StructureError("G must be positive")
        for name in ("c", "f", "g", "h"):
            if any(x < 0 for x in getattr(self, name)):
                raise StructureError(f"{name}_d must be nonnegative")
        if self.singular_penalty < 0:
            raise StructureError("singular penalty must be nonnegative")

    def idx(self, d: int) -> int:
        """Per-dimension arrays cover d in {0,1,2}; the mock stage reuses d=2."""
        return min(max(d, 0), 2)


def regge_deficit_sum(t: Triangulation) -> float:
    """Sum over vertices of (2 pi - incident angles), angles via law of cosines.

    For any closed Euclidean surface this equals 2 pi chi exactly; the float
    value is accumulated with compensated summation.
    """
    if t.dim != 2:
        raise StructureError("deficits require a 2-dimensional triangulation")
    if not t.is_closed():
        raise StructureError("deficit sum requires a closed surface")
    t.require_euclidean()
    angles: List[float] = []
    for f in t.faces:
        angles.extend(t.face_angles(f))
    return TWO_PI * len(t.vertex_sign) - math.fsum(angles)


def s_d_parts(y: Triangulation, p: ActionParams) -> Tuple[float, float]:
    """(curvature term, cosmological term) of one closed Euclidean space.

    Non-manifold input yields (singular_penalty, 0) or raises
    :class:`SingularError` when the penalty is configured infinite.
    """
    try:
        if y.dim == 0:
            return 0.0, 2.0 * p.Lambda[0] * len(y.vertex_sign)
        if not y.is_closed():
            raise StructureError("action sites must be closed")
        if y.dim == 1:
            if not y.is_pure():
                raise StructureError("singular 1-complex")
            return 0.0, 2.0 * p.Lambda[1] * y.total_length()
        classify_surface(y)  # manifold, orientable, pure gate
        curv = -(2.0 / p.G) * regge_deficit_sum(y)
        cosm = 2.0 * p.Lambda[2] * y.total_area()
        return curv, cosm
    except (StructureError, UnsupportedError, GeometryError) as exc:
        if math.isinf(p.singular_penalty):
            raise SingularError(str(exc)) from exc
        return p.singular_penalty, 0.0


def s_d_superposed(
    state: Superposition, reps: Dict[object, Triangulation], p: ActionParams
) -> Tuple[float, float]:
    """Site action extended linearly over a superposition, |amplitude|^2 weights.

    Keys without a representative triangulation (opaque mock kets) contribute
    nothing to the geometric terms.
    """
    curv = 0.0
    cosm = 0.0
    for key, amp in state.items():
        rep = reps.get(key)
        if rep is None:
            continue
        w = float(abs2(amp))
        # a Triangulation is never changed after construction, so its parts
        # stay valid; SingularError escapes before anything is stored
        parts = rep.action_memo.get(p)
        if parts is None:
            parts = rep.action_memo[p] = s_d_parts(rep, p)
        cu, co = parts
        curv += w * cu
        cosm += w * co
    return curv, cosm


@dataclass(frozen=True)
class FluctuationStep:
    """One fluctuate link: amplitude tracking across the move.

    ``amp_pairs`` lists (before, after) amplitudes of tracked components: the
    moved component pairs its old key's amplitude with the amplitude at its
    landing key, every other key pairs with itself, and keys that appear or
    disappear pair with zero.
    """

    dim: int
    moved_amp: object
    amp_pairs: Tuple[Tuple[object, object], ...]


def fugacity_total(steps: Sequence[FluctuationStep], p: ActionParams) -> float:
    """Sum of c_d f_d |amplitude of the fluctuating term|^2 over moves."""
    total = 0.0
    for s in steps:
        k = p.idx(s.dim)
        total += p.c[k] * p.f[k] * float(abs2(s.moved_amp))
    return total


def kinetic_total(steps: Sequence[FluctuationStep], p: ActionParams) -> float:
    """Sum of 2 h_d |b_k - b_{k+1}|^2 over nearest-neighbour amplitude pairs."""
    total = 0.0
    for s in steps:
        hd = p.h[p.idx(s.dim)]
        if hd == 0.0:
            continue
        for before, after in s.amp_pairs:
            diff = complex(before) - complex(after)
            total += 2.0 * hd * (diff.real * diff.real + diff.imag * diff.imag)
    return total


@dataclass
class ActionBreakdown:
    """Diagnostic decomposition; total is the exact sum of the parts."""

    curvature: float = 0.0
    cosmological: float = 0.0
    fugacity: float = 0.0
    volume: float = 0.0
    kinetic: float = 0.0

    @property
    def total(self) -> float:
        return self.curvature + self.cosmological + self.fugacity + self.volume + self.kinetic


def total_action(chain, p: ActionParams) -> ActionBreakdown:
    """Total action of a formal chain.

    The chain contributes, per Euclidean site, c_d (S_d weighted over the
    superposition) plus g_d |Y|^2, and per fluctuation step c_d f_d |b|^2
    fugacity plus the kinetic penalty.  A site whose collected superposition
    is zero contributes nothing, which is what makes termination cheap.

    Sites are never changed after construction, so each site's
    (curvature, cosmological, volume) share is computed once per
    ``ActionParams`` and kept in ``site.action_memo``.
    """
    out = ActionBreakdown()
    for site in chain.euclidean_sites():
        shares = site.action_memo.get(p)
        if shares is None:
            k = p.idx(site.dim)
            curv, cosm = s_d_superposed(site.state, site.reps, p)
            shares = site.action_memo[p] = (
                p.c[k] * curv, p.c[k] * cosm, p.g[k] * float(site.state.norm2())
            )
        out.curvature += shares[0]
        out.cosmological += shares[1]
        out.volume += shares[2]
    steps = chain.steps
    out.fugacity = fugacity_total(steps, p)
    out.kinetic = kinetic_total(steps, p)
    return out
