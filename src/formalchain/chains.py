"""Formal chains and the Metropolis sampler over them.

A chain alternates grow / double / fluctuate links starting from the empty
set: a grow link raises the dimension by adding a Lorentzian layer (a
superposition of layers where allowed), a double link pairs the layer
superposition against itself into a closed Euclidean site, and fluctuate
links retriangulate one collected term at a time.  The sites say which link
led to each of them (see ``FormalChain``).  After dimension 2 a chain may
enter the mock stage, where kets are opaque ids glued through a
user-supplied equivalence table; that stage stands in for the dimension in
which cancellation becomes possible for purely topological reasons, and its
sites are labeled dimension 4.

Termination means the latest Euclidean site collects to the zero
superposition; a terminated chain is frozen, draws no proposal and
contributes nothing further to the action.

Each sampler step that draws a proposal ends in one of four outcomes:
``accepted``; ``not_applicable`` (the proposal returned ``None``);
``metropolis_reject`` (including the infinite action of a singular site);
``error:<Class>`` (the proposal raised that ``FormalChainError``).
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .action import ActionBreakdown, ActionParams, FluctuationStep, total_action
from .errors import (
    FormalChainError,
    SingularError,
    StructureError,
    UnsupportedError,
)
from .growth import Cobordism, GrowthConfig, double_cross, grow_superposed
from .pairing import pair_terms
from .superpose import Superposition
from .topo import Triangulation, apply_pachner, iso_key, moves_for, point_set

MOCK_DIM = 4  # the stage the opaque-ket mechanism stands in for


@dataclass(frozen=True)
class ChainSite:
    """One site of a formal chain."""

    dim: int
    kind: str  # "X", "Y", "mock_X", "mock_Y"
    state: Superposition
    reps: Dict[object, Triangulation] = field(default_factory=dict)
    x_terms: Tuple[Tuple[object, object], ...] = ()  # (amplitude, Cobordism | mock id)
    step: Optional[FluctuationStep] = None  # set on fluctuation sites only
    # ActionParams -> this site's action shares, filled by action.total_action
    action_memo: Dict[ActionParams, Tuple[float, float, float]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def is_euclidean(self) -> bool:
        return self.kind in ("Y", "mock_Y")


@dataclass(frozen=True)
class FormalChain:
    """Ordered sites, starting after the implicit empty set (dimension -1).

    The link into each site follows from the sites: an X site is grown, a
    Euclidean site after an X site is its double, and a Euclidean site after
    another Euclidean site is a fluctuation with its ``step``.

    ``doubles`` is the table of keys and doubles that ``_layer`` fills: the
    exact content of a grown space (``_content``) -> its ``iso_key``, and a
    pair of contents -> their cross double and its ``iso_key``.  Chains derived
    from this one share it, and so do all chains of one ``run``.
    """

    sites: Tuple[ChainSite, ...] = ()
    doubles: Dict[tuple, object] = field(default_factory=dict, compare=False, repr=False)

    @property
    def terminated_dim(self) -> Optional[int]:
        """The dimension of the latest Euclidean site if it is zero, else ``None``."""
        for site in reversed(self.sites):
            if site.is_euclidean():
                return site.dim if site.state.is_zero() else None
        return None

    @property
    def steps(self) -> Tuple[FluctuationStep, ...]:
        """The fluctuation steps, in chain order."""
        return tuple(s.step for s in self.sites if s.step is not None)

    def frontier(self) -> Optional[ChainSite]:
        return self.sites[-1] if self.sites else None

    def euclidean_sites(self) -> Iterator[ChainSite]:
        return (s for s in self.sites if s.is_euclidean())

    def extended(self, new_sites: Sequence[ChainSite]) -> "FormalChain":
        return FormalChain(self.sites + tuple(new_sites), self.doubles)

    def with_last_pair_replaced(self, x: ChainSite, y: ChainSite) -> "FormalChain":
        return FormalChain(self.sites[:-2] + (x, y), self.doubles)


# -- sampler -------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    chains: int = 20
    sweeps: int = 100
    max_dimension: int = 2
    mock_stage: bool = True
    initial_points: int = 1
    x1_candidates: int = 2
    weight_extend: float = 0.4
    weight_fluctuate: float = 0.4
    weight_reweight: float = 0.2
    temperature: float = 1.0
    growth: GrowthConfig = field(default_factory=GrowthConfig)

    def __post_init__(self):
        for name in ("chains", "sweeps"):
            if getattr(self, name) < 0:
                raise StructureError(f"{name} must be nonnegative")
        for name, least in (("initial_points", 0), ("x1_candidates", 1), ("max_dimension", 0)):
            if getattr(self, name) < least:
                raise StructureError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("weight_extend", "weight_fluctuate", "weight_reweight", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise StructureError(f"{name} must be finite, got {getattr(self, name)!r}")
        w = (self.weight_extend, self.weight_fluctuate, self.weight_reweight)
        if any(x < 0 for x in w) or sum(w) <= 0:
            raise StructureError("proposal weights must be nonnegative with positive sum")
        if self.max_dimension > 2:
            raise UnsupportedError("real growth is capped at dimension 2")
        if self.temperature <= 0:
            raise StructureError("temperature must be positive")


def metropolis_accept(delta_s: float, rng: random.Random, temperature: float) -> bool:
    """Accept with probability min(1, exp(-delta_s / T))."""
    if delta_s <= 0.0:
        return True
    if math.isinf(delta_s):
        return False
    return rng.random() < math.exp(-delta_s / temperature)


def _self_pair(x_terms: Sequence[Tuple[object, object]], part: Callable[[object], object],
               glue: Callable[[object, object], object]) -> Superposition:
    """Pair a layer superposition with itself, collected over all parts.

    Kets of different boundary parts share no boundary, so only kets of one
    part are glued to each other; parts go in first-seen order.
    """
    groups: Dict[object, List[Tuple[object, object]]] = {}
    for amp, ket in x_terms:
        groups.setdefault(part(ket), []).append((amp, ket))
    return Superposition.collect(
        term for group in groups.values() for term in pair_terms(group, group, glue)
    )


def _content(t: Triangulation) -> tuple:
    """The exact content of a space, as a dict key.

    Squared lengths enter with their type and repr, so values that compare
    equal but print differently (``Fraction(1)`` and ``1.0``, ``0.0`` and
    ``-0.0``) give different keys; dicts enter in insertion order.
    """
    return (
        t.dim, tuple(t.vertex_sign.items()), tuple(t.edges.items()),
        tuple((e, type(x), repr(x)) for e, x in t.edge_len2.items()),
        tuple(t.faces.items()), tuple(t.boundary_mark.items()),
    )


def _double_site(x_terms: Sequence[Tuple[object, Cobordism]], contents: Sequence[tuple],
                 dim: int, doubles: Dict[tuple, object]) -> ChainSite:
    """Pair an X layer superposition against itself, collected by isometry key.

    Candidates over different lower components never share a boundary, so
    cross terms only arise within one lower component; candidates are built
    over the same slice with identical boundary ids precisely so those cross
    gluings are defined.  ``contents[i]`` is ``_content`` of term i's space;
    each pair is glued and keyed once per ``doubles`` table.
    """
    reps: Dict[object, Triangulation] = {}

    def glue(i: int, j: int):
        pair = (contents[i], contents[j])
        hit = doubles.get(pair)
        if hit is None:
            glued = double_cross(x_terms[i][1], x_terms[j][1])
            hit = doubles[pair] = (glued, iso_key(glued))
        glued, key = hit
        reps.setdefault(key, glued)
        return key

    def part(i: int):
        cob = x_terms[i][1]
        return cob.lower_key, tuple(sorted(cob.space.boundary_mark.items()))

    state = _self_pair([(amp, i) for i, (amp, _) in enumerate(x_terms)], part, glue)
    reps = {k: reps[k] for k in state.keys()}
    return ChainSite(dim=dim, kind="Y", state=state, reps=reps)


def _layer(x_terms: Sequence[Tuple[object, object]], dim: int,
           doubles: Dict[tuple, object]) -> Tuple[ChainSite, ChainSite]:
    """The X site of a layer superposition and its Euclidean double.

    A cobordism is keyed by the isometry class of its space and doubled by
    cross gluing, both looked up by content in ``doubles`` (see
    ``FormalChain``) before they are built; nothing changes a space after
    construction, so a stored space and key stand for every space of equal
    content.  A build that raises stores nothing.  Mock-stage kets are their
    own keys: ("A", i) and ("B", i) cobound component i, and any two of them
    glue to its closed class ("S", i).
    """
    x_terms = tuple(x_terms)
    if dim == MOCK_DIM:
        x_site = ChainSite(dim=dim, kind="mock_X", state=Superposition(x_terms), x_terms=x_terms)
        y_state = _self_pair(x_terms, lambda ket: ket[1], lambda m, n: ("S", m[1]))
        return x_site, ChainSite(dim=dim, kind="mock_Y", state=y_state)
    contents = [_content(c.space) for _, c in x_terms]
    x_keys = []
    for (amp, c), content in zip(x_terms, contents):
        key = doubles.get(content)
        if key is None:
            key = doubles[content] = iso_key(c.space)
        x_keys.append((amp, key))
    x_site = ChainSite(dim=dim, kind="X", state=Superposition(x_keys), x_terms=x_terms)
    return x_site, _double_site(x_terms, contents, dim, doubles)


def propose_extend(chain: FormalChain, cfg: SamplerConfig, rng: random.Random) -> Optional[FormalChain]:
    """Grow the next X site over the frontier and double it: two new sites."""
    frontier = chain.frontier()
    if frontier is None:
        pts = point_set(cfg.initial_points)
        x_terms = [(1.0, Cobordism(pts, pts.euler_characteristic()))]
        return chain.extended(_layer(x_terms, 0, chain.doubles))
    if not frontier.is_euclidean() or frontier.state.is_zero():
        return None
    d_next = frontier.dim + 1
    if frontier.kind == "mock_Y":
        return None
    if d_next > cfg.max_dimension:
        if not cfg.mock_stage or frontier.dim != cfg.max_dimension:
            return None
        return _propose_mock_stage(chain, frontier)
    candidates = cfg.x1_candidates if d_next == 1 else 1
    x_terms: List[Tuple[object, Cobordism]] = []
    for key in sorted(frontier.state.keys(), key=str):
        b = frontier.state.amplitude(key)
        x_terms.extend(grow_superposed(b, frontier.reps[key], cfg.growth, candidates, rng,
                                       lower_key=key))
    return chain.extended(_layer(x_terms, d_next, chain.doubles))


def _propose_mock_stage(chain: FormalChain, frontier: ChainSite) -> FormalChain:
    """Enter the opaque-ket stage: two cobounding kets per component, all of
    whose mutual gluings are one closed class."""
    x_terms: List[Tuple[object, Tuple[str, int]]] = []
    w = 1.0 / math.sqrt(2.0)
    for i, key in enumerate(sorted(frontier.state.keys(), key=str)):
        b = frontier.state.amplitude(key)
        x_terms.append((b * w, ("A", i)))
        x_terms.append((b * w, ("B", i)))
    return chain.extended(_layer(x_terms, MOCK_DIM, chain.doubles))


def propose_fluctuate(chain: FormalChain, cfg: SamplerConfig, rng: random.Random) -> Optional[FormalChain]:
    """Apply one random Pachner move to one random term of the frontier."""
    frontier = chain.frontier()
    if frontier is None or frontier.kind != "Y" or frontier.dim < 1:
        return None
    if frontier.state.is_zero():
        return None
    keys = sorted(frontier.state.keys(), key=str)
    key = keys[rng.randrange(len(keys))]
    rep = frontier.reps[key]
    moves = moves_for(rep)
    if not moves:
        return None
    move = moves[rng.randrange(len(moves))]
    return _fluctuated(chain, frontier, key, apply_pachner(rep, move))


def _fluctuated(chain: FormalChain, frontier: ChainSite, key, new_rep: Triangulation) -> FormalChain:
    """The chain extended by a fluctuate link that moves the frontier term
    ``key`` onto the class of ``new_rep``, with its amplitude bookkeeping."""
    new_key = iso_key(new_rep)
    old_state = frontier.state
    new_state = old_state.map_key(key, new_key)
    moved_amp = old_state.amplitude(key)
    pairs: List[Tuple[object, object]] = [(moved_amp, new_state.amplitude(new_key))]
    for k in sorted(old_state.keys(), key=str):
        if k != key:
            pairs.append((old_state.amplitude(k), new_state.amplitude(k)))
    step_rec = FluctuationStep(dim=frontier.dim, moved_amp=moved_amp, amp_pairs=tuple(pairs))
    reps = {k: r for k, r in frontier.reps.items() if k in new_state}
    if new_key in new_state:
        reps.setdefault(new_key, new_rep)
    site = ChainSite(dim=frontier.dim, kind="Y", state=new_state, reps=reps, step=step_rec)
    return chain.extended([site])


def propose_reweight(chain: FormalChain, cfg: SamplerConfig, rng: random.Random) -> Optional[FormalChain]:
    """Flip the sign of one candidate amplitude in the latest fresh double.

    Norm-preserving, so the volume of the X site is untouched; the double is
    rebuilt from the reweighted amplitudes.
    """
    if len(chain.sites) < 2 or chain.sites[-2].is_euclidean():
        return None
    x_site = chain.sites[-2]
    if len(x_site.x_terms) < 2:
        return None
    idx = rng.randrange(len(x_site.x_terms))
    new_terms = list(x_site.x_terms)
    amp, ket = new_terms[idx]
    new_terms[idx] = (amp * -1, ket)
    return chain.with_last_pair_replaced(*_layer(new_terms, x_site.dim, chain.doubles))


PROPOSALS = {
    "extend": propose_extend,
    "fluctuate": propose_fluctuate,
    "reweight": propose_reweight,
}


ACCEPTED = "accepted"
NOT_APPLICABLE = "not_applicable"
METROPOLIS_REJECT = "metropolis_reject"


@dataclass
class StepInfo:
    kind: Optional[str]  # None: the chain was terminated and drew no proposal
    outcome: str  # ACCEPTED, NOT_APPLICABLE, METROPOLIS_REJECT or "error:<Class>"
    breakdown: ActionBreakdown  # action of the chain that step returned
    delta_s: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPTED


def step(
    chain: FormalChain,
    p: ActionParams,
    cfg: SamplerConfig,
    rng: random.Random,
    current: Optional[ActionBreakdown] = None,
) -> Tuple[FormalChain, StepInfo]:
    """One Metropolis step: propose extend/fluctuate/reweight, accept by exp(-dS).

    ``current`` is ``total_action(chain, p)`` if the caller has it, as from
    the previous step's ``StepInfo.breakdown``; each step then evaluates the
    action only of its proposal.
    """
    if current is None:
        current = total_action(chain, p)
    if chain.terminated_dim is not None:
        return chain, StepInfo(None, NOT_APPLICABLE, current)
    kinds = ["extend", "fluctuate", "reweight"]
    weights = [cfg.weight_extend, cfg.weight_fluctuate, cfg.weight_reweight]
    kind = rng.choices(kinds, weights=weights, k=1)[0]
    try:
        proposal = PROPOSALS[kind](chain, cfg, rng)
    except FormalChainError as exc:
        return chain, StepInfo(kind, f"error:{type(exc).__name__}", current)
    if proposal is None:
        return chain, StepInfo(kind, NOT_APPLICABLE, current)
    try:
        new = total_action(proposal, p)
    except SingularError:
        # an infinite singular_penalty: the proposal's action is +inf
        return chain, StepInfo(kind, METROPOLIS_REJECT, current, math.inf)
    delta = (new.total - current.total)
    if not metropolis_accept(delta, rng, cfg.temperature):
        return chain, StepInfo(kind, METROPOLIS_REJECT, current, delta)
    return proposal, StepInfo(kind, ACCEPTED, new, delta)


@dataclass
class ChainStats:
    termination_histogram: Dict[int, int]
    unterminated: int
    mean_y_norm2: Dict[int, float]
    outcomes: Dict[str, Dict[str, int]]  # kind -> step outcome -> count, per drawn proposal
    trace: List[Tuple[int, int, float, float, float, float, int]]
    seed: int
    chains: int
    sweeps: int

    def as_dict(self) -> dict:
        return {
            "termination_histogram": {str(k): v for k, v in sorted(self.termination_histogram.items())},
            "unterminated": self.unterminated,
            "mean_y_norm2": {str(k): v for k, v in sorted(self.mean_y_norm2.items())},
            "acceptance": {k: {"accepted": by.get(ACCEPTED, 0), "proposed": sum(by.values())}
                           for k, by in sorted(self.outcomes.items())},
            "seed": self.seed,
            "chains": self.chains,
            "sweeps": self.sweeps,
        }


def run(cfg: SamplerConfig, p: ActionParams) -> ChainStats:
    """Sample independent chains; reproducible bit-for-bit from the seed.

    The chains share one ``FormalChain.doubles`` table, dropped on return.
    A terminated chain is not stepped again.
    """
    histogram: Dict[int, int] = {}
    unterminated = 0
    outcomes: Dict[str, Dict[str, int]] = defaultdict(Counter)
    trace: List[Tuple[int, int, float, float, float, float, int]] = []
    norm_acc: Dict[int, List[float]] = {}
    doubles: Dict[tuple, object] = {}
    for ci in range(cfg.chains):
        rng = random.Random(f"{cfg.seed}:{ci}")
        chain = FormalChain(doubles=doubles)
        br, term_d = None, None
        for sweep in range(cfg.sweeps):
            if term_d is None:
                chain, info = step(chain, p, cfg, rng, br)
                br = info.breakdown
                outcomes[info.kind][info.outcome] += 1
                term_d = chain.terminated_dim
            trace.append((sweep, ci, br.total, br.curvature + br.cosmological, br.volume,
                          br.kinetic, -1 if term_d is None else term_d))
        if term_d is None:
            unterminated += 1
        else:
            histogram[term_d] = histogram.get(term_d, 0) + 1
        for site in chain.euclidean_sites():
            norm_acc.setdefault(site.dim, []).append(float(site.state.norm2()))
    mean = {d: math.fsum(v) / len(v) for d, v in norm_acc.items()}
    return ChainStats(
        termination_histogram=histogram,
        unterminated=unterminated,
        mean_y_norm2=mean,
        outcomes=dict(outcomes),
        trace=trace,
        seed=cfg.seed,
        chains=cfg.chains,
        sweeps=cfg.sweeps,
    )


# -- the cancellation example as a chain ----------------------------------------------


def example_cancellation_chain(fluctuations: int = 2) -> FormalChain:
    """The fluctuation-cancellation example as a chain fragment.

    One arc of one edge and one arc of two edges over the same two endpoints,
    with exact amplitudes +1 and -1 (the example is stated unnormalized).
    Doubling collects to circles of 2, 3, 4 edges with amplitudes 1, -2, 1;
    one subdivision of the 2-circle and one merge of the 4-circle land all
    three terms on the 3-edge circle, where they cancel exactly.
    """
    from .topo import arc

    a1 = arc(1)
    a2 = arc(2, upper_id=1)
    c1 = Cobordism(a1, 1)
    c2 = Cobordism(a2, 1)
    x_terms = ((Fraction(1), c1), (Fraction(-1), c2))
    chain = FormalChain(_layer(x_terms, 1, {}))
    for _ in range(fluctuations):
        nxt = _example_fluctuation(chain)
        if nxt is None:
            break
        chain = nxt
    return chain


def _example_fluctuation(chain: FormalChain) -> Optional[FormalChain]:
    """Move the smallest circle up or the largest down toward 3 edges."""
    from .topo import MERGE_2_1, SUBDIVIDE_1_2

    frontier = chain.frontier()
    sizes = {k: len(r.edges) for k, r in frontier.reps.items()}
    if not sizes:
        return None
    small = min(sizes, key=sizes.get)
    big = max(sizes, key=sizes.get)
    if sizes[small] < 3:
        key, rep = small, frontier.reps[small]
        move = next(m for m in moves_for(rep) if m.kind == SUBDIVIDE_1_2)
    elif sizes[big] > 3:
        key, rep = big, frontier.reps[big]
        move = next(m for m in moves_for(rep) if m.kind == MERGE_2_1)
    else:
        return None
    return _fluctuated(chain, frontier, key, apply_pachner(rep, move))
