"""Deficit sums, per-dimension actions, fugacity and kinetic terms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalchain.action import (
    ActionBreakdown,
    ActionParams,
    FluctuationStep,
    fugacity_total,
    kinetic_total,
    regge_deficit_sum,
    s_d_parts,
    total_action,
)
from formalchain.chains import (
    ChainSite,
    FormalChain,
    SamplerConfig,
    example_cancellation_chain,
    step,
)
from formalchain.errors import SingularError, StructureError
from formalchain.growth import GrowthConfig
from formalchain.superpose import Superposition, abs2
from formalchain.topo import (
    Triangulation,
    circle,
    classify_surface,
    flip_edge,
    iso_key,
    point_set,
    sphere_triangulation,
    surface_from_faces,
    torus_triangulation,
)
from support import genus2_triangulation, random_orbit

TWO_PI = 2 * math.pi


def test_deficit_sum_sphere():
    assert abs(regge_deficit_sum(sphere_triangulation()) - 2 * TWO_PI) < 1e-9


def test_deficit_sum_flat_torus():
    assert abs(regge_deficit_sum(torus_triangulation())) < 1e-9


def test_deficit_sum_genus2():
    assert abs(regge_deficit_sum(genus2_triangulation()) + 2 * TWO_PI) < 1e-9


def test_gauss_bonnet_under_random_orbits():
    rng = random.Random(4)
    cases = [
        (sphere_triangulation(), 2),
        (torus_triangulation(), 0),
        (genus2_triangulation(), -2),
    ]
    for seed_t, chi in cases:
        for _ in range(10):
            t = random_orbit(seed_t, 10, rng)
            target = TWO_PI * chi
            assert abs(regge_deficit_sum(t) - target) <= 1e-9 * max(1.0, abs(target))


def test_flat_flip_preserves_deficits():
    # a planar quad: flipping the diagonal leaves every deficit as is
    sq = surface_from_faces(
        [(0, 1, 2), (0, 2, 3)],
        edge_len2_by_pair={
            frozenset((0, 1)): Fraction(1), frozenset((1, 2)): Fraction(1),
            frozenset((2, 3)): Fraction(1), frozenset((3, 0)): Fraction(1),
            frozenset((0, 2)): Fraction(2),
        },
    )
    diag = next(e for e, (a, b) in sq.edges.items() if {a, b} == {0, 2})
    flipped = flip_edge(sq, diag)

    def interior_angle_sum(t):
        return math.fsum(sum(t.face_angles(f)) for f in t.faces)

    assert abs(interior_angle_sum(sq) - interior_angle_sum(flipped)) < 1e-9


def test_s_d_points():
    p = ActionParams(Lambda=(1.0, 0.0, 0.0))
    assert sum(s_d_parts(point_set(4), p)) == pytest.approx(8.0)


def test_s_d_circle_length():
    p = ActionParams(Lambda=(0.0, 1.0, 0.0))
    assert sum(s_d_parts(circle(5), p)) == pytest.approx(10.0)


def test_s_d_flat_torus_zero():
    p = ActionParams(Lambda=(0.0, 0.0, 0.0))
    assert sum(s_d_parts(torus_triangulation(), p)) == pytest.approx(0.0, abs=1e-9)


def test_s_d_sphere_curvature_sign():
    p = ActionParams(G=2.0, Lambda=(0.0, 0.0, 0.0))
    # -(2/G) * 4 pi = -4 pi for G = 2
    assert sum(s_d_parts(sphere_triangulation(), p)) == pytest.approx(-2 * TWO_PI, abs=1e-9)


def dangling_surface() -> Triangulation:
    """One triangle with a dangling edge: not closed, so priced as singular."""
    return Triangulation(
        2,
        {0: 1, 1: 1, 2: 1, 3: 1},
        {10: (0, 1), 11: (1, 2), 12: (2, 0), 13: (2, 3)},
        {10: Fraction(1), 11: Fraction(1), 12: Fraction(1), 13: Fraction(1)},
        {20: ((0, 1, 2), (10, 11, 12))},
        {10: "lower", 11: "lower", 12: "lower", 13: "lower"},
    )


def test_singular_penalty_finite():
    p = ActionParams(singular_penalty=123.0)
    curv, cosm = s_d_parts(dangling_surface(), p)
    assert (curv, cosm) == (123.0, 0.0)


def test_pinched_vertex_is_singular():
    # two tetrahedron boundaries sharing vertex 0: closed and pure, but the
    # link of vertex 0 is two circles
    pinched = surface_from_faces([(0, 1, 2), (0, 3, 1), (1, 3, 2), (0, 2, 3),
                                  (0, 4, 5), (0, 6, 4), (4, 6, 5), (0, 5, 6)])
    with pytest.raises(StructureError, match="vertex 0 has a disconnected link; pinched"):
        classify_surface(pinched)
    assert s_d_parts(pinched, ActionParams(singular_penalty=123.0)) == (123.0, 0.0)


def test_singular_penalty_infinite_raises():
    p = ActionParams(singular_penalty=math.inf)
    with pytest.raises(SingularError):
        s_d_parts(dangling_surface(), p)


def test_fugacity_examples():
    p = ActionParams(f=(0.3, 0.3, 1.0))
    assert fugacity_total([], p) == 0.0
    one = FluctuationStep(dim=1, moved_amp=1.0, amp_pairs=((1.0, 1.0),))
    assert fugacity_total([one], p) == pytest.approx(0.3)
    w = 1 / math.sqrt(2)
    two = [
        FluctuationStep(dim=2, moved_amp=w, amp_pairs=()),
        FluctuationStep(dim=2, moved_amp=w, amp_pairs=()),
    ]
    assert fugacity_total(two, p) == pytest.approx(1.0)


def test_total_action_fugacity_is_fugacity_total():
    # two dimension-1 moves of amplitude-1 terms, c_1 = 3, f_1 = 0.7
    chain = example_cancellation_chain()
    p = ActionParams(c=(1.0, 3.0, 1.0), f=(0.0, 0.7, 0.0))
    assert [s.dim for s in chain.steps] == [1, 1]
    br = total_action(chain, p)
    assert br.fugacity == fugacity_total(chain.steps, p)
    assert br.fugacity == pytest.approx(2 * 3.0 * 0.7)


def test_kinetic_examples():
    p = ActionParams(h=(1.0, 1.0, 1.0))
    equal = FluctuationStep(dim=1, moved_amp=1.0, amp_pairs=((0.5, 0.5), (1.0, 1.0)))
    assert kinetic_total([equal], p) == 0.0
    drop = FluctuationStep(dim=1, moved_amp=1.0, amp_pairs=((1.0, 0.0),))
    assert kinetic_total([drop], p) == pytest.approx(2.0)
    w = 1 / math.sqrt(2)
    flip = FluctuationStep(dim=1, moved_amp=w, amp_pairs=((w, -w),))
    assert kinetic_total([flip], p) == pytest.approx(4.0)


def test_total_action_empty_chain():
    p = ActionParams()
    assert total_action(FormalChain(), p).total == 0.0


def test_total_action_single_site_example():
    # Y^0 = 4 points at amplitude 1 with c0 = Lambda0 = g0 = 1: 8 + 1 = 9
    pts = point_set(4)
    key = iso_key(pts)
    site = ChainSite(dim=0, kind="Y", state=Superposition([(1.0, key)]), reps={key: pts})
    chain = FormalChain((site,))
    p = ActionParams(Lambda=(1.0, 0.0, 0.0), c=(1.0, 1.0, 1.0), g=(1.0, 1.0, 1.0))
    br = total_action(chain, p)
    assert br.total == pytest.approx(9.0)
    assert br.cosmological == pytest.approx(8.0)
    assert br.volume == pytest.approx(1.0)


def test_terminated_site_contributes_nothing():
    chain = example_cancellation_chain()
    p = ActionParams(Lambda=(1.0, 1.0, 1.0), g=(5.0, 5.0, 5.0), f=(0.0, 0.0, 0.0))
    br = total_action(chain, p)
    partial = example_cancellation_chain(fluctuations=0)
    br0 = total_action(partial, p)
    # after cancellation the frontier site adds no volume and no S_d
    frontier_volume = 5.0 * float(partial.sites[-1].state.norm2())
    assert frontier_volume > 0
    zero_site = chain.sites[-1]
    assert zero_site.state.is_zero()


def test_total_action_monotone_in_lambda():
    chain = example_cancellation_chain(fluctuations=0)
    lows, highs = [], []
    for lam in (0.0, 0.5, 1.0, 2.0):
        p = ActionParams(Lambda=(lam, lam, lam))
        highs.append(total_action(chain, p).total)
    assert all(b >= a for a, b in zip(highs, highs[1:]))


def test_large_g_prefers_smaller_volume():
    # chain A: six points at amplitude 1 (larger S_0, volume 1)
    # chain B: one point at amplitude 2 (smaller S_0, volume 4)
    # the argmin must move from B to A as g grows
    def one_site_chain(n_points, amp):
        pts = point_set(n_points)
        key = iso_key(pts)
        site = ChainSite(dim=0, kind="Y", state=Superposition([(amp, key)]),
                         reps={key: pts})
        return FormalChain((site,))

    a = one_site_chain(6, 1.0)
    b = one_site_chain(1, 2.0)
    vol = {  # total |Y|^2 per chain
        "a": float(a.sites[0].state.norm2()),
        "b": float(b.sites[0].state.norm2()),
    }
    assert vol["a"] < vol["b"]
    p_small = ActionParams(Lambda=(1.0, 0.0, 0.0), g=(0.1, 0.1, 0.1))
    p_large = ActionParams(Lambda=(1.0, 0.0, 0.0), g=(100.0, 100.0, 100.0))
    assert total_action(b, p_small).total < total_action(a, p_small).total
    assert total_action(a, p_large).total < total_action(b, p_large).total


def test_action_params_validation():
    with pytest.raises(StructureError):
        ActionParams(G=0.0)
    with pytest.raises(StructureError):
        ActionParams(g=(-1.0, 0.0, 0.0))
    with pytest.raises(StructureError):
        ActionParams(singular_penalty=-5.0)


@pytest.mark.parametrize("name, value", [
    ("G", math.nan), ("G", math.inf),
    ("Lambda", (0.0, math.nan, 0.0)), ("Lambda", (0.0, 0.0, -math.inf)),
    ("c", (math.nan, 1.0, 1.0)), ("f", (0.1, math.inf, 0.1)),
    ("g", (10.0, 10.0, math.nan)), ("h", (math.nan, 0.0, 0.0)),
    ("singular_penalty", math.nan),
])
def test_action_params_reject_non_finite(name, value):
    with pytest.raises(StructureError, match=name):
        ActionParams(**{name: value})


def test_action_params_keep_hard_rejection():
    assert ActionParams(singular_penalty=math.inf).singular_penalty == math.inf


def test_breakdown_total_is_sum_of_parts():
    chain = example_cancellation_chain(fluctuations=1)
    p = ActionParams(h=(0.0, 2.0, 0.0), Lambda=(0.1, 0.2, 0.3))
    br = total_action(chain, p)
    assert br.total == pytest.approx(
        br.curvature + br.cosmological + br.fugacity + br.volume + br.kinetic
    )
    assert br.kinetic > 0.0


def reference_total_action(chain, p: ActionParams) -> ActionBreakdown:
    """total_action without any memo: every site and term priced afresh."""
    out = ActionBreakdown()
    for site in chain.euclidean_sites():
        k = p.idx(site.dim)
        curv, cosm = reference_s_d_superposed(site.state, site.reps, p)
        vol = p.g[k] * float(site.state.norm2())
        out.curvature += p.c[k] * curv
        out.cosmological += p.c[k] * cosm
        out.volume += vol
    out.fugacity = fugacity_total(chain.steps, p)
    out.kinetic = kinetic_total(chain.steps, p)
    return out


def reference_s_d_superposed(state, reps, p: ActionParams):
    curv = 0.0
    cosm = 0.0
    for key, amp in state.items():
        rep = reps.get(key)
        if rep is None:
            continue
        w = float(abs2(amp))
        cu, co = s_d_parts(rep, p)
        curv += w * cu
        cosm += w * co
    return curv, cosm


def bits(br: ActionBreakdown):
    return tuple(x.hex() for x in (br.curvature, br.cosmological, br.fugacity,
                                   br.volume, br.kinetic))


# cheap volume, partial layers and extra circles: chains reach dimension 2,
# singular sites and the mock stage, and many reweights are accepted
TRAJECTORY_CFG = SamplerConfig(
    weight_extend=0.3, weight_fluctuate=0.4, weight_reweight=0.3,
    growth=GrowthConfig(layer="partial", topology_change=True, p_circle=0.3),
)
SAMPLED = ActionParams(g=(0.1, 0.1, 0.1), f=(0.01, 0.01, 0.01), Lambda=(0.05, 0.0, 0.5),
                       h=(0.0, 1.0, 0.0), singular_penalty=1.0)
OTHER = ActionParams(G=0.5, g=(2.0, 0.3, 1.5), f=(0.2, 0.0, 0.1), Lambda=(0.3, 0.7, 0.2),
                     c=(1.0, 0.5, 2.0), h=(1.0, 0.0, 3.0), singular_penalty=7.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_memoised_action_matches_reference_along_trajectories(seed, steps):
    # each chain is priced under two params in alternation, so a memo that
    # ignored the params would hand one params' shares to the other
    rng = random.Random(seed)
    chain = FormalChain()
    br = None
    for _ in range(steps):
        chain, info = step(chain, SAMPLED, TRAJECTORY_CFG, rng, br)
        br = info.breakdown
        assert bits(br) == bits(reference_total_action(chain, SAMPLED))
        for p in (OTHER, SAMPLED, OTHER):
            assert bits(total_action(chain, p)) == bits(reference_total_action(chain, p))


def test_trajectories_replace_the_last_pair():
    # the trajectories above reach with_last_pair_replaced through reweight
    rng = random.Random(3)
    chain = FormalChain()
    br = None
    replaced = 0
    for _ in range(80):
        before = chain
        chain, info = step(chain, SAMPLED, TRAJECTORY_CFG, rng, br)
        br = info.breakdown
        if info.kind == "reweight" and info.accepted:
            assert chain.sites[:-2] == before.sites[:-2]
            assert chain.sites[-1] is not before.sites[-1]
            replaced += 1
        assert bits(total_action(chain, OTHER)) == bits(reference_total_action(chain, OTHER))
    assert replaced > 0


def test_infinite_penalty_raises_on_every_call():
    site = ChainSite(dim=2, kind="Y", state=Superposition([(1.0, "k")]),
                     reps={"k": dangling_surface()})
    chain = FormalChain((site,))
    hard = ActionParams(singular_penalty=math.inf)
    for _ in range(2):
        with pytest.raises(SingularError):
            total_action(chain, hard)
    soft = ActionParams(singular_penalty=123.0)
    assert total_action(chain, soft).curvature == 123.0
    with pytest.raises(SingularError):
        total_action(chain, hard)
