"""Formal chains: structure, proposals, sampler behaviour, toy stationarity."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from formalchain import chains
from formalchain.action import ActionBreakdown, ActionParams, total_action
from formalchain.chains import (
    ChainSite,
    FormalChain,
    SamplerConfig,
    example_cancellation_chain,
    metropolis_accept,
    propose_extend,
    propose_fluctuate,
    propose_reweight,
    run,
    step,
)
from formalchain.errors import GeometryError, StructureError
from formalchain.growth import Cobordism, GrowthConfig
from formalchain.superpose import Superposition
from formalchain.topo import Triangulation, arc, iso_key, point_set
from support import chain_steps, relengthed, sample_discrete


def default_params(**kw):
    base = dict(
        g=(0.5, 1.0, 6.0), f=(0.01, 0.01, 0.01),
        Lambda=(0.05, 0.0, 0.5), c=(1.0, 1.0, 1.0),
    )
    base.update(kw)
    return ActionParams(**base)


def validate_chain(chain: FormalChain) -> None:
    """Structural invariants: link grammar, alternation, dimension growth.

    The link into a site is read off the sites: an X site is grown, a
    Euclidean site after an X site is its double, and a Euclidean site after
    a Euclidean site is a fluctuation, the only kind of site with a step.
    """
    prev_dim = -1  # the empty set
    prev_kind = None
    for site in chain.sites:
        if site.kind in ("X", "mock_X"):  # grow
            if site.dim <= prev_dim:
                raise StructureError("grow must raise dimension")
            if prev_kind not in (None, "Y", "mock_Y"):
                raise StructureError("grow must leave a Euclidean site")
        elif site.kind not in ("Y", "mock_Y"):
            raise StructureError(f"unknown site kind {site.kind!r}")
        elif prev_kind in ("X", "mock_X"):  # double
            if site.dim != prev_dim:
                raise StructureError("double must follow the X site of equal dimension")
        elif prev_kind is None:
            raise StructureError("a Euclidean site needs an X site or a Euclidean site before it")
        elif site.kind != "Y" or prev_kind != "Y" or site.dim != prev_dim:  # fluctuate
            raise StructureError("fluctuate connects Euclidean sites of one dimension")
        fluctuation = site.is_euclidean() and prev_kind in ("Y", "mock_Y")
        if (site.step is not None) != fluctuation:
            raise StructureError("a site carries a step if and only if it is a fluctuation")
        if fluctuation and site.step.dim != site.dim:
            raise StructureError("a fluctuation step has the dimension of its site")
        if site.kind == "Y" and set(site.reps) != set(site.state.keys()):
            raise StructureError("every term of a Euclidean site needs a representative")
        prev_dim, prev_kind = site.dim, site.kind


def default_cfg(**kw):
    base = dict(
        seed=0, chains=4, sweeps=30,
        weight_extend=0.25, weight_fluctuate=0.55, weight_reweight=0.2,
    )
    base.update(kw)
    return SamplerConfig(**base)


# -- cancellation example --------------------------------------------------------


def test_example_chain_terminates_exactly():
    chain = example_cancellation_chain()
    assert chain.terminated_dim == 1
    assert chain.sites[-1].state.is_zero()
    # exact arithmetic all the way through
    fresh = FormalChain(chain.sites[:2], chain.doubles)  # before the fluctuations
    amps = sorted(
        (len(rep.edges), fresh.sites[-1].state.amplitude(key))
        for key, rep in fresh.sites[-1].reps.items()
    )
    assert [(n, a) for n, a in amps] == [
        (2, Fraction(1)), (3, Fraction(-2)), (4, Fraction(1))
    ]


def test_example_chain_validates():
    chain = example_cancellation_chain()
    validate_chain(chain)
    validate_chain(FormalChain(chain.sites[:3], chain.doubles))  # after one fluctuation


def test_terminated_dim_nonzero():
    full = example_cancellation_chain()
    chain = FormalChain(full.sites[:3], full.doubles)  # after one fluctuation
    assert chain.terminated_dim is None


def test_terminated_dim_empty_chain():
    assert FormalChain().terminated_dim is None


def test_terminated_dim_matches_norm_threshold():
    chain = example_cancellation_chain()
    site = chain.sites[-1]
    assert float(site.state.norm2()) <= (1e-12) ** 2


# -- proposals -------------------------------------------------------------------


def test_extend_from_empty_builds_x0_y0():
    rng = random.Random(0)
    chain = propose_extend(FormalChain(), default_cfg(), rng)
    assert chain is not None
    validate_chain(chain)
    assert [s.kind for s in chain.sites] == ["X", "Y"]
    assert chain.sites[0].dim == 0
    y = chain.sites[1]
    assert float(y.state.norm2()) == pytest.approx(1.0)


def test_extend_chain_through_dimensions():
    rng = random.Random(1)
    cfg = default_cfg()
    chain = FormalChain()
    for _ in range(4):
        nxt = propose_extend(chain, cfg, rng)
        if nxt is None:
            break
        chain = nxt
        validate_chain(chain)
    dims = [s.dim for s in chain.sites]
    assert dims[:4] == [0, 0, 1, 1]
    assert dims[4:6] == [2, 2]
    # mock stage after dimension 2
    assert dims[6:] == [4, 4]
    kinds = [s.kind for s in chain.sites]
    assert kinds[-1] == "mock_Y"


def test_grow_steps_respect_euler_constraint():
    # every accepted grow in a sampler run satisfies chi(X) = chi(lower slice)
    rng = random.Random(2)
    cfg = default_cfg()
    p = default_params()
    chain = FormalChain()
    checked = 0
    for _ in range(120):
        chain, info = step(chain, p, cfg, rng, total_action(chain, p))
        if chain.terminated_dim is not None:
            break
    for site in chain.sites:
        if site.kind == "X":  # grown
            for amp, cob in site.x_terms:
                assert cob.space.euler_characteristic() == cob.lower_chi
                checked += 1
    assert checked > 0


def test_fluctuate_moves_one_term():
    rng = random.Random(3)
    full = example_cancellation_chain()
    chain = FormalChain(full.sites[:2], full.doubles)  # before the fluctuations
    out = propose_fluctuate(chain, default_cfg(), rng)
    assert out is not None
    validate_chain(out)
    assert [s.kind for s in out.sites[-2:]] == ["Y", "Y"]  # a fluctuation
    assert chain_steps(out) == (out.sites[-1].step,)


def test_fluctuate_errors_are_counted():
    # apply_pachner's MoveError reaches ChainStats.outcomes, not a plain rejection
    cfg = SamplerConfig(seed=1, chains=6, sweeps=80,
                        weight_extend=0.5, weight_fluctuate=0.3, weight_reweight=0.2)
    outcomes = run(cfg, ActionParams(g=(0.1,) * 3)).outcomes
    errors = {(kind, o): n for kind, by in outcomes.items() for o, n in by.items()
              if o.startswith("error:")}
    assert errors == {("fluctuate", "error:MoveError"): 4}


def test_reweight_requires_fresh_double():
    rng = random.Random(4)
    full = example_cancellation_chain()
    chain = FormalChain(full.sites[:3], full.doubles)  # after one fluctuation
    assert propose_reweight(chain, default_cfg(), rng) is None
    fresh = FormalChain(full.sites[:2], full.doubles)  # before the fluctuations
    out = propose_reweight(fresh, default_cfg(), rng)
    assert out is not None
    validate_chain(out)
    # norm of the X site is preserved
    assert float(out.sites[-2].state.norm2()) == pytest.approx(
        float(fresh.sites[-2].state.norm2())
    )


def test_reweight_not_applicable_right_after_a_fluctuation():
    # along a sampler trajectory, a chain whose latest site is a fluctuation
    # gets no reweight and draws nothing; a fresh double of two or more
    # candidates gets one
    cfg = default_cfg()
    p = default_params()
    rng = random.Random(9)
    chain, br = FormalChain(), ActionBreakdown()
    after_fluctuation = after_double = 0
    for _ in range(150):
        probe = random.Random(0)
        state = probe.getstate()
        out = propose_reweight(chain, cfg, probe)
        if chain.sites and chain.sites[-1].step is not None:
            assert out is None and probe.getstate() == state
            after_fluctuation += 1
        elif len(chain.sites) >= 2 and len(chain.sites[-2].x_terms) >= 2:
            assert out is not None
            after_double += 1
        chain, info = step(chain, p, cfg, rng, br)
        br = info.breakdown
        if chain.terminated_dim is not None:
            break
    assert after_fluctuation > 0 and after_double > 0


def test_metropolis_rules():
    rng = random.Random(5)
    assert metropolis_accept(0.0, rng, 1.0)
    assert metropolis_accept(-3.0, rng, 1.0)
    assert not metropolis_accept(math.inf, rng, 1.0)
    n = sum(metropolis_accept(1.0, rng, 1.0) for _ in range(4000))
    assert abs(n / 4000 - math.exp(-1.0)) < 0.03


def test_sampler_reproducible_bit_for_bit():
    cfg = default_cfg(chains=6, sweeps=40, seed=99)
    p = default_params()
    a = run(cfg, p)
    b = run(cfg, p)
    assert a.as_dict() == b.as_dict()
    assert a.trace == b.trace


def test_sampler_zero_sweeps_empty_histogram():
    stats = run(default_cfg(sweeps=0, chains=3), default_params())
    assert stats.termination_histogram == {}
    assert stats.unterminated == 3


def test_sampler_chains_validate():
    rng = random.Random(6)
    cfg = default_cfg()
    p = default_params()
    chain = FormalChain()
    for _ in range(80):
        chain, _ = step(chain, p, cfg, rng, total_action(chain, p))
        validate_chain(chain)


def test_mock_chain_cancellation():
    # drive a chain to the mock stage and flip the sign: Y collects to zero
    rng = random.Random(7)
    cfg = default_cfg()
    chain = FormalChain()
    for _ in range(6):
        nxt = propose_extend(chain, cfg, rng)
        if nxt is None:
            break
        chain = nxt
    assert chain.sites[-1].kind == "mock_Y"
    assert not chain.sites[-1].state.is_zero()
    flipped = chain
    for _ in range(40):
        out = propose_reweight(flipped, cfg, rng)
        if out is not None:
            flipped = out
        if flipped.sites[-1].state.is_zero():
            break
    assert flipped.terminated_dim == 4


def test_toy_space_stationarity():
    actions = [0.0, 1.0, 2.5]
    sweeps = 100000
    counts = sample_discrete(actions, sweeps, seed=11, temperature=1.0)
    z = sum(math.exp(-s) for s in actions)
    expected = [sweeps * math.exp(-s) / z for s in actions]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    # dof = 2: the p-value is exp(-chi2 / 2); demand p > 0.01
    p_value = math.exp(-chi2 / 2)
    assert p_value > 0.01
    # and the same seed is bit-identical
    assert counts == sample_discrete(actions, sweeps, seed=11, temperature=1.0)


@pytest.mark.parametrize("name, value", [
    ("weight_extend", math.nan), ("weight_extend", math.inf),
    ("weight_fluctuate", math.nan), ("weight_reweight", math.inf),
    ("temperature", math.nan), ("temperature", math.inf),
])
def test_sampler_config_rejects_non_finite(name, value):
    with pytest.raises(StructureError, match=name):
        SamplerConfig(**{name: value})


def test_toy_space_needs_two_states():
    with pytest.raises(StructureError):
        sample_discrete([1.0], 10, seed=0, temperature=1.0)


def test_sampler_runs_with_partial_layers_and_circles():
    # foliation singularities and extra closed components must stay priced,
    # deterministic, and structurally valid, never crash the sampler
    from formalchain.growth import GrowthConfig

    cfg = SamplerConfig(
        seed=21, chains=4, sweeps=50,
        weight_extend=0.3, weight_fluctuate=0.5, weight_reweight=0.2,
        growth=GrowthConfig(layer="partial", topology_change=True, p_circle=0.3),
    )
    p = default_params(singular_penalty=50.0)
    a = run(cfg, p)
    b = run(cfg, p)
    assert a.as_dict() == b.as_dict()
    total = sum(a.termination_histogram.values()) + a.unterminated
    assert total == cfg.chains
    # at singular_penalty 50 the chains stay in dimensions 0 and 1; cheap
    # volume and singularities let them sample partial dimension-2 layers
    p = default_params(g=(0.1, 0.1, 0.1), singular_penalty=1.0)
    c = run(cfg, p)
    assert c.as_dict() == run(cfg, p).as_dict()
    assert 2 in c.mean_y_norm2
    assert sum(c.termination_histogram.values()) + c.unterminated == cfg.chains


def test_superposed_growth_can_shed_circles():
    import random as _random
    from formalchain.growth import GrowthConfig, grow_superposed

    cfg = GrowthConfig(topology_change=True, p_circle=0.9)
    rng = _random.Random(2)
    seen = False
    for _ in range(10):
        terms = grow_superposed(1.0, point_set(1), cfg, 2, rng, iso_key(point_set(1)))
        if any(c.space.component_count() > 1 for _, c in terms):
            seen = True
        for _, c in terms:
            assert c.space.euler_characteristic() == c.lower_chi
    assert seen


def test_stats_histogram_consistency():
    cfg = default_cfg(chains=8, sweeps=60, seed=13)
    stats = run(cfg, default_params())
    total = sum(stats.termination_histogram.values()) + stats.unterminated
    assert total == cfg.chains
    plain = {"accepted", "not_applicable", "metropolis_reject"}
    for by in stats.outcomes.values():
        assert all(o in plain or o.startswith("error:") for o in by)
        assert all(n > 0 for n in by.values())
    # a chain draws one proposal per sweep until the sweep after it terminates
    rows = stats.trace
    live = sum(1 for prev, row in zip([None] + rows, rows) if row[0] == 0 or prev[6] < 0)
    assert sum(n for by in stats.outcomes.values() for n in by.values()) == live


def test_terminated_chain_draws_no_proposal():
    chain = example_cancellation_chain()
    assert chain.terminated_dim == 1
    rng = random.Random(0)
    state = rng.getstate()
    br = total_action(chain, default_params())
    out, info = step(chain, default_params(), default_cfg(), rng, br)
    assert out is chain and rng.getstate() == state
    assert (info.kind, info.outcome, info.accepted, info.breakdown) == \
        (None, "not_applicable", False, br)


def test_infinite_singular_penalty_rejects_singular_proposals():
    # hard rejection: a proposal with a singular site is priced at +inf and
    # rejected; it used to escape step() as SingularError and end the run
    cfg = SamplerConfig(
        seed=21, chains=4, sweeps=80,
        weight_extend=0.5, weight_fluctuate=0.3, weight_reweight=0.2,
        growth=GrowthConfig(layer="partial"),
    )
    p = ActionParams(g=(0.1,) * 3, singular_penalty=math.inf)
    stats = run(cfg, p)
    assert sum(stats.termination_histogram.values()) + stats.unterminated == cfg.chains
    assert all(math.isfinite(row[2]) for row in stats.trace)
    singular = 0
    for ci in range(cfg.chains):
        rng = random.Random(f"{cfg.seed}:{ci}")
        chain, br = FormalChain(), ActionBreakdown()
        for _ in range(cfg.sweeps):
            chain, info = step(chain, p, cfg, rng, br)
            br = info.breakdown
            singular += info.delta_s == math.inf
            if info.accepted:
                # raises SingularError if any site of the chain is singular
                assert math.isfinite(total_action(chain, p).total)
    assert singular > 0


# -- the doubles table of a run ----------------------------------------------------


def _point_chain():
    """X and Y sites of dimension 0 over one point: the frontier of every test below."""
    return propose_extend(FormalChain(), default_cfg(), random.Random(0))


def _grow_exactly(monkeypatch, terms):
    """Make every growth in propose_extend return ``terms``."""
    monkeypatch.setattr(chains, "grow_superposed", lambda *a, **k: list(terms))


def _count_double_cross(monkeypatch):
    """The list that gets one entry per ``chains.double_cross`` call."""
    calls = []
    double_cross = chains.double_cross

    def counted(a, b):
        calls.append(1)
        return double_cross(a, b)

    monkeypatch.setattr(chains, "double_cross", counted)
    return calls


def _arc_terms(lower_key, amp, len2):
    """Two arcs over one point pair, glueable against each other."""
    return [
        (amp, Cobordism(relengthed(arc(1), len2), 1, lower_key)),
        (amp, Cobordism(relengthed(arc(2, upper_id=1), len2), 1, lower_key)),
    ]


def _printed(x_terms):
    return [(repr(a), [repr(x) for x in c.space.edge_len2.values()]) for a, c in x_terms]


def test_double_table_keeps_equal_lengths_of_other_types_apart(monkeypatch):
    chain = _point_chain()
    (key,) = chain.frontier().state.keys()
    calls = _count_double_cross(monkeypatch)
    sizes, built = [], []
    # squared lengths that compare equal but print differently, each under
    # amplitudes that compare equal but print differently
    for len2 in (Fraction(1), 1.0, Fraction(1)):
        for amp in (Fraction(1, 2), 0.5):
            terms = _arc_terms(key, amp, len2)
            _grow_exactly(monkeypatch, terms)
            x, y = propose_extend(chain, default_cfg(), random.Random(1)).sites[-2:]
            assert _printed(x.x_terms) == _printed(terms)
            assert [type(a) for _, a in y.state.items()] == [type(amp)] * 3
            for rep in y.reps.values():
                assert {type(v) for v in rep.edge_len2.values()} == {type(len2)}
            sizes.append(len(chain.doubles))
            built.append(len(calls))
    # the table holds spaces, not amplitudes: one new set of entries per
    # length type, and four doubles (two arcs against two) for each
    assert sizes[0] == sizes[1] < sizes[2] == sizes[3] == sizes[4] == sizes[5]
    assert built == [4, 4, 8, 8, 8, 8]


def test_failing_double_is_not_remembered(monkeypatch):
    chain = _point_chain()

    def fail(a, b):
        raise GeometryError("no double")

    monkeypatch.setattr(chains, "double_cross", fail)
    with pytest.raises(GeometryError):
        propose_extend(chain, default_cfg(), random.Random(1))
    monkeypatch.undo()
    other = _point_chain()
    calls = _count_double_cross(monkeypatch)
    fresh = propose_extend(other, default_cfg(), random.Random(1))
    n_pairs = len(calls)
    calls.clear()
    got = propose_extend(chain, default_cfg(), random.Random(1))
    assert got is not None and len(calls) == n_pairs > 0
    assert list(got.sites[-1].state.items()) == list(fresh.sites[-1].state.items())
    calls.clear()
    propose_extend(chain, default_cfg(), random.Random(1))
    assert calls == []


def _propose_from(proposal, chain, cfg, rng_state):
    rng = random.Random()
    rng.setstate(rng_state)
    return proposal(chain, cfg, rng)


def test_double_table_hit_equals_a_table_free_layer(monkeypatch):
    # along a sampler chain, an extend or reweight proposed twice from one RNG
    # state hits the run's table the second time and equals the same proposal
    # from a copy of the chain with an empty table
    calls = _count_double_cross(monkeypatch)
    cfg = default_cfg(seed=7)
    p = default_params()
    rng = random.Random(7)
    chain, br = FormalChain(), ActionBreakdown()
    hits = {propose_extend: 0, propose_reweight: 0}
    for _ in range(200):
        state = rng.getstate()
        for proposal in hits:
            try:
                first = _propose_from(proposal, chain, cfg, state)
            except StructureError:  # growth over a one-edge circle
                continue
            if first is None or first.sites[-1].kind != "Y":
                continue
            total_action(first, p)  # fills the new doubles' action memos
            calls.clear()
            hit = _propose_from(proposal, chain, cfg, state)
            assert calls == []
            fresh = _propose_from(proposal, replace(chain, doubles={}), cfg, state)
            assert calls
            for got, first_site, want in zip(hit.sites[-2:], first.sites[-2:], fresh.sites[-2:]):
                assert [(k, repr(a)) for k, a in got.state.items()] == \
                    [(k, repr(a)) for k, a in want.state.items()]
                assert list(got.reps) == list(want.reps)
                assert all(got.reps[k] is first_site.reps[k] is not want.reps[k] for k in got.reps)
            got, want = total_action(hit, p), total_action(fresh, p)
            assert [x.hex() for x in vars(got).values()] == [x.hex() for x in vars(want).values()]
            hits[proposal] += 1
        chain, info = step(chain, p, cfg, rng, br)
        br = info.breakdown
        if chain.terminated_dim is not None:
            break
    assert hits[propose_extend] >= 5 and hits[propose_reweight] >= 5


def test_double_table_does_not_outlive_a_run(monkeypatch):
    # the table belongs to one run: a second identical run in the same
    # process doubles as many layers as the first
    calls = _count_double_cross(monkeypatch)
    cfg = default_cfg(seed=5, chains=3, sweeps=60)
    counts = []
    for _ in range(2):
        calls.clear()
        run(cfg, default_params())
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_chains_of_one_run_share_their_doubles(monkeypatch):
    calls = _count_double_cross(monkeypatch)
    cfg = default_cfg(seed=5, chains=3, sweeps=60)
    p = default_params()
    stats = run(cfg, p)
    shared, alone, totals = len(calls), 0, []
    for ci in range(cfg.chains):
        calls.clear()
        rng = random.Random(f"{cfg.seed}:{ci}")
        chain, br = FormalChain(), ActionBreakdown()
        for _ in range(cfg.sweeps):
            chain, info = step(chain, p, cfg, rng, br)
            br = info.breakdown
            totals.append(br.total.hex())
        alone += len(calls)
    assert 0 < shared < alone
    assert [row[2].hex() for row in stats.trace] == totals


def test_memoised_spaces_never_change(monkeypatch):
    # the doubles table, the site reps, the action memos, the move lists and
    # the key orders are sound only if nothing changes a stored space or
    # state: along the golden sample_mock_s1 run, which reaches the mock stage
    # and fluctuates, the content of every memoised space, the reps of every
    # site and the move list of every proposed-on rep are at the end what they
    # were when first stored, and every kept key order is the sorted one
    spaces, sites, move_lists = {}, {}, {}

    def remember(t):
        if id(t) not in spaces:
            spaces[id(t)] = (t, chains._content(t))

    def remember_site(site):
        if id(site) not in sites:
            sites[id(site)] = (site, dict(site.reps))
        for t in site.reps.values():
            remember(t)

    layer, fluctuated = chains._layer, chains._fluctuated
    fluctuations = []

    def spy_layer(x_terms, dim, doubles):
        x, y = layer(x_terms, dim, doubles)
        for value in doubles.values():
            if isinstance(value, tuple) and isinstance(value[0], Triangulation):
                remember(value[0])
        if x.kind == "X":  # the table's content keys stand for these spaces
            for _, c in x.x_terms:
                remember(c.space)
        remember_site(y)
        return x, y

    def spy_fluctuated(chain, frontier, key, new_rep):
        out = fluctuated(chain, frontier, key, new_rep)
        fluctuations.append(out.sites[-1])
        remember_site(out.sites[-1])
        return out

    moves_for = chains.moves_for

    def spy_moves_for(t):
        out = moves_for(t)
        move_lists.setdefault(id(t), (t, out, list(out)))
        return out

    monkeypatch.setattr(chains, "_layer", spy_layer)
    monkeypatch.setattr(chains, "_fluctuated", spy_fluctuated)
    monkeypatch.setattr(chains, "moves_for", spy_moves_for)
    cfg = SamplerConfig(seed=1, chains=6, sweeps=80, weight_extend=0.5,
                        weight_fluctuate=0.3, weight_reweight=0.2)
    stats = run(cfg, ActionParams(g=(0.1, 0.1, 0.1)))
    for t, content in spaces.values():
        assert chains._content(t) == content
    for site, reps in sites.values():
        assert site.reps.keys() == reps.keys()
        assert all(site.reps[k] is reps[k] for k in reps)
    for t, first, items in move_lists.values():
        assert moves_for(t) is first and list(first) == items
        # the list a fresh space of the same content gets
        fresh = Triangulation(t.dim, t.vertex_sign, t.edges, t.edge_len2, t.faces,
                              t.boundary_mark)
        assert moves_for(fresh) == first
    ordered = [site.state for site, _ in sites.values() if site.state._by_str is not None]
    for state in ordered:
        assert state.keys_by_str() == tuple(sorted(state.keys(), key=str))
    assert stats.termination_histogram == {4: 4}  # as in the golden fixture
    assert fluctuations and len(spaces) > 40 and len(move_lists) == 3 and len(ordered) > 20


def test_step_prices_only_the_sites_a_proposal_adds(monkeypatch):
    # extend and fluctuate append sites, so a step prices its proposal by
    # continuing the chain's breakdown over the appended sites: at acceptance
    # 9's free and stiff couplings, pricing asks only those sites whether they
    # are Euclidean, in chain order
    asked = []
    is_euclidean = ChainSite.is_euclidean

    def counted(site):
        asked.append(site)
        return is_euclidean(site)

    proposals = []

    def spy(propose):
        def proposed(chain, cfg, rng):
            out = propose(chain, cfg, rng)
            proposals.append(out)
            asked.clear()  # what the proposal asked is not pricing
            return out
        return proposed

    monkeypatch.setattr(ChainSite, "is_euclidean", counted)
    for kind in ("extend", "fluctuate"):
        monkeypatch.setitem(chains.PROPOSALS, kind, spy(chains.PROPOSALS[kind]))
    cfg = SamplerConfig(weight_extend=0.15, weight_fluctuate=0.65, weight_reweight=0.2)
    priced = fluctuations = 0
    for h1 in (0.0, 100.0):
        p = default_params(h=(0.0, h1, 0.0))
        for ci in range(4):
            rng = random.Random(f"5000:{ci}")
            chain, br = FormalChain(), ActionBreakdown()
            for _ in range(200):
                proposals.clear()
                before = chain
                chain, info = step(chain, p, cfg, rng, br)
                br = info.breakdown
                if proposals and proposals[0] is not None:
                    added = proposals[0].sites[len(before.sites):]
                    assert asked == list(added)
                    priced += 1
                    fluctuations += info.kind == "fluctuate"
                if chain.terminated_dim is not None:
                    break
    assert priced > 200 and fluctuations > 100


def test_replaced_site_is_priced_afresh():
    # dataclasses.replace must not hand the new site the old site's shares
    full = example_cancellation_chain()
    chain = FormalChain(full.sites[:2], full.doubles)  # before the fluctuations
    p = ActionParams()
    y = chain.sites[-1]
    assert total_action(chain, p).volume == 60.0  # norm 6 at g = 10; fills y's memo
    emptied = replace(y, state=Superposition())
    fresh = ChainSite(dim=y.dim, kind=y.kind, state=Superposition(), reps=y.reps)
    assert total_action(FormalChain((fresh,)), p).total == 0.0
    assert total_action(FormalChain((emptied,)), p).total == 0.0
