"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds; a failure shows
up as an ordinary assertion error.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from formalchain.action import ActionParams, regge_deficit_sum, total_action
from formalchain.chains import (
    FormalChain,
    SamplerConfig,
    example_cancellation_chain,
    run as run_chains,
    step,
)
from formalchain.cli import main
from formalchain.errors import EulerConstraintError
from formalchain.graphs import (
    build_neighbor_graph,
    cycle_graph,
    path_graph,
    spectral_gap,
    star_graph,
)
from formalchain.growth import Cobordism
from formalchain.pairing import (
    Bounded1Ket,
    cauchy_schwarz_check,
    example_mock_null_family,
    example_superposed_arcs,
    glue_1d,
    glue_closed,
    l2_handle_series,
    lightlike_search,
    order_circle_count,
    pair,
    square_partial_sums,
)
from formalchain.superpose import RC, Superposition, abs2
from formalchain.topo import (
    circle,
    insert_vertex,
    sphere_triangulation,
    torus_triangulation,
)
from formalchain.twofield import (
    TwoFieldParams,
    erase_twice,
    evolve,
    gaussian_packet,
    product_state,
)
from support import (
    chain_steps,
    fidelity,
    genus2_triangulation,
    max_erased_drift,
    max_joint_drift,
    random_orbit,
    random_unitary,
    remove_faces,
    sample_discrete,
)

TWO_PI = 2 * math.pi


def report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def all_matchings(labels):
    labels = list(labels)
    if not labels:
        return [()]
    out = []
    first = labels[0]
    for i in range(1, len(labels)):
        rest = labels[1:i] + labels[i + 1:]
        for sub in all_matchings(rest):
            out.append(((first, labels[i]),) + tuple(sub))
    return out


def test_acceptance_01_example_31(capsys):
    t0 = time.time()
    code = main(["pair", "--example", "freedman-3.1"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["norm2_exact"] == "7/4"
    # and through the library, in exact rationals with zero tolerance
    v, glue = example_superposed_arcs()
    assert pair(v, v, glue).norm2() == Fraction(7, 4)
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"|Y|^2 = 7/4 exactly in {elapsed:.3f}s")


def test_acceptance_02_example_32(capsys):
    t0 = time.time()
    chain = example_cancellation_chain()
    at_dim = chain.terminated_dim
    elapsed = time.time() - t0
    assert chain.sites[-1].state.is_zero()
    assert at_dim == 1
    fresh = FormalChain(chain.sites[:2], chain.doubles)  # before the fluctuations
    amps = sorted(
        (len(rep.edges), fresh.sites[-1].state.amplitude(k))
        for k, rep in fresh.sites[-1].reps.items()
    )
    assert amps == [(2, Fraction(1)), (3, Fraction(-2)), (4, Fraction(1))]
    assert len(chain_steps(chain)) == 2
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, f"three-term pairing cancels exactly after two moves in {elapsed:.3f}s")


def test_acceptance_03_handle_series(capsys):
    t0 = time.time()
    series = dict(l2_handle_series(lambda n: Fraction(1, n + 1), 3))
    assert series[0] == Fraction(1)
    assert series[1] == Fraction(1)
    assert series[2] == Fraction(11, 12)
    # independent brute-force convolution oracle for genus 3
    oracle_g3 = Fraction(0)
    for i in range(4):
        j = 3 - i
        oracle_g3 += Fraction(1, i + 1) * Fraction(1, j + 1)
    assert series[3] == oracle_g3 == Fraction(5, 6)
    rows = square_partial_sums(l2_handle_series(lambda n: 1.0 / (n + 1), 10000))
    assert rows[-1][0] == 10000
    assert rows[2][1] == pytest.approx(11 / 12, rel=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        report(3, f"1, 1, 11/12 exact; g=3 oracle 5/6; sums to g=1e4 in {elapsed:.2f}s")


def test_acceptance_04_gauss_bonnet(capsys):
    t0 = time.time()
    rng = random.Random(20260808)
    orbits = 0
    for seed_t, chi in (
        (sphere_triangulation(), 2),
        (torus_triangulation(), 0),
        (genus2_triangulation(), -2),
    ):
        for _ in range(34):
            t = random_orbit(seed_t, 10, rng)
            target = TWO_PI * chi
            err = abs(regge_deficit_sum(t) - target)
            assert err <= 1e-9 * max(1.0, abs(target))
            orbits += 1
    elapsed = time.time() - t0
    assert orbits >= 100
    assert elapsed < 30.0
    with capsys.disabled():
        report(4, f"sum of deficits = 2 pi chi to 1e-9 on {orbits} orbits in {elapsed:.1f}s")


def test_acceptance_05_positivity(capsys):
    t0 = time.time()
    # exhaustive order check on matchings of 4 and 6 points
    for n in (4, 6):
        labels = tuple(range(n))
        kets = [Bounded1Ket(m) for m in all_matchings(list(labels))]
        assert cauchy_schwarz_check(kets, glue_1d, order_circle_count) == []
    # documented: free-circle kets also show no violations for this order
    labels4 = (0, 1, 2, 3)
    kets_free = [
        Bounded1Ket(m, f) for m in all_matchings(list(labels4)) for f in (0, 1, 2)
    ]
    free_violations = cauchy_schwarz_check(kets_free, glue_1d, order_circle_count)
    assert free_violations == []
    # light-like search floor over 20 random matching families
    rng = random.Random(31)
    floors = []
    for fam_i in range(20):
        pts = (0, 1, 2, 3) if fam_i % 2 else (0, 1, 2, 3, 4, 5)
        ms = all_matchings(list(pts))
        size = min(len(ms), 2 + fam_i % 5)
        fam = [Bounded1Ket(m) for m in rng.sample(ms, size)]
        [res] = lightlike_search([fam], glue_1d, trials=20, steps=200, seed=1000 + fam_i,
                                 step_size=0.1)
        floors.append(res.min_residual)
    assert min(floors) > 0.05
    # the constructed null family must be found
    kets, mock = example_mock_null_family()
    [res] = lightlike_search([kets], mock.glue, trials=10, steps=200, seed=7, step_size=0.1)
    assert res.min_residual < 1e-8
    amps = {k: complex(a) for k, a in res.argmin.items()}
    assert abs(amps["B"] / amps["A"] + 1.0) < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(5, f"no order violations; residual floor {min(floors):.3f} > 0.05; "
                  f"mock null {res.min_residual:.1e} in {elapsed:.1f}s")


def test_acceptance_06_fixed_triangulation_no_cancellation(capsys):
    t0 = time.time()
    kets = [circle(n) for n in range(3, 9)]
    rng = random.Random(41)
    checked = 0
    for _ in range(1000):
        amps = [
            RC(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)),
               Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)))
            for _ in kets
        ]
        if all(abs2(a) == 0 for a in amps):
            continue
        v = Superposition(list(zip(amps, kets)))
        assert not pair(v, v, glue_closed).is_zero()
        checked += 1
    elapsed = time.time() - t0
    assert checked >= 990
    assert elapsed < 30.0
    with capsys.disabled():
        report(6, f"pair(v,v) != 0 for {checked} exact rational vectors in {elapsed:.1f}s")


def test_acceptance_07_euler_constraint(capsys):
    # every sampler-accepted grow step satisfies chi(X) = chi(lower slice)
    p = ActionParams(g=(0.5, 1.0, 6.0), f=(0.01, 0.01, 0.01),
                     Lambda=(0.05, 0.0, 0.5))
    cfg = SamplerConfig(seed=5, chains=1, sweeps=1,
                        weight_extend=0.25, weight_fluctuate=0.55,
                        weight_reweight=0.2)
    grow_count = 0
    for ci in range(6):
        rng = random.Random(f"acc7:{ci}")
        chain = FormalChain()
        for _ in range(120):
            chain, _ = step(chain, p, cfg, rng, total_action(chain, p))
        for site in chain.sites:
            if site.kind == "X":  # grown
                for _, cob in site.x_terms:
                    assert cob.space.euler_characteristic() == cob.lower_chi
                    grow_count += 1
    assert grow_count > 0
    # the pair-of-pants proposal over one circle is refused
    s = sphere_triangulation()
    for _ in range(2):
        for f in sorted(s.faces):
            s = insert_vertex(s, f)
    disjoint = []
    for f, (fv, _) in sorted(s.faces.items()):
        if all(not (set(fv) & set(s.faces[g][0])) for g in disjoint):
            disjoint.append(f)
        if len(disjoint) == 3:
            break
    pants = remove_faces(s, disjoint)
    assert pants.euler_characteristic() == -1
    with pytest.raises(EulerConstraintError):
        Cobordism(pants, 0)
    with capsys.disabled():
        report(7, f"{grow_count} accepted grow layers all satisfy the constraint; "
                  "pair of pants rejected")


def test_acceptance_08_toy_stationarity(capsys):
    t0 = time.time()
    actions = [0.0, 0.8, 2.0]
    sweeps = 100000
    counts = sample_discrete(actions, sweeps, seed=77, temperature=1.0)
    z = sum(math.exp(-s) for s in actions)
    expected = [sweeps * math.exp(-s) / z for s in actions]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    p_value = math.exp(-chi2 / 2)  # chi-squared survival with 2 dof
    assert p_value > 0.01
    assert counts == sample_discrete(actions, sweeps, seed=77, temperature=1.0)
    cfg = SamplerConfig(seed=3, chains=4, sweeps=30)
    p = ActionParams(g=(0.5, 1.0, 6.0))
    s1 = run_chains(cfg, p)
    s2 = run_chains(cfg, p)
    assert s1.as_dict() == s2.as_dict() and s1.trace == s2.trace
    elapsed = time.time() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, f"chi^2 p-value {p_value:.3f} > 0.01; stats bit-identical; {elapsed:.1f}s")


def test_acceptance_09_kinetic_term_effect(capsys):
    t0 = time.time()
    base = dict(g=(0.5, 1.0, 6.0), f=(0.01, 0.01, 0.01),
                Lambda=(0.05, 0.0, 0.5), c=(1.0, 1.0, 1.0))
    p_free = ActionParams(h=(0.0, 0.0, 0.0), **base)
    p_stiff = ActionParams(h=(0.0, 100.0 * base["g"][1], 0.0), **base)
    wins = losses = ties = 0
    for pair_i in range(20):
        cfg = SamplerConfig(
            seed=5000 + pair_i, chains=12, sweeps=200,
            weight_extend=0.15, weight_fluctuate=0.65, weight_reweight=0.2,
        )
        f_free = run_chains(cfg, p_free).termination_histogram.get(1, 0) / cfg.chains
        f_stiff = run_chains(cfg, p_stiff).termination_histogram.get(1, 0) / cfg.chains
        if f_free > f_stiff:
            wins += 1
        elif f_stiff > f_free:
            losses += 1
        else:
            ties += 1
    informative = wins + losses
    assert informative > 0
    p_sign = sum(math.comb(informative, k) for k in range(wins, informative + 1)) / 2 ** informative
    elapsed = time.time() - t0
    assert p_sign < 0.05
    assert elapsed < 300.0
    with capsys.disabled():
        report(9, f"wins={wins} losses={losses} ties={ties}, sign test p={p_sign:.2e} "
                  f"in {elapsed:.0f}s")


def test_acceptance_10_spectral_gap(capsys):
    t0 = time.time()
    cases = [
        ("P2", path_graph(2), 2.0),
        ("C4", cycle_graph(4), 2.0),
        ("K13", star_graph(3), 1.0),
        ("circles 3..7", build_neighbor_graph(1, 7, min_size=3), None),
    ]
    for name, g, closed_form in cases:
        gap, conn = spectral_gap(g)
        assert conn
        dense = sorted(np.linalg.eigvalsh(g.laplacian()))
        oracle = next(x for x in dense if x > 1e-9)
        assert abs(gap - oracle) < 1e-6
        if closed_form is not None:
            assert abs(gap - closed_form) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        report(10, f"iterative gap matches dense oracle to 1e-6 on all graphs in {elapsed:.2f}s")


def test_acceptance_11_two_field(capsys):
    t0 = time.time()
    horizon = 2 * TWO_PI  # t in [0, 4 pi]
    dt = 1e-3
    steps = int(round(horizon / dt))
    drifts = {}
    for lam in (0.0, 0.5):
        p = TwoFieldParams(lam=lam, grid_n=128, dt=dt, steps=steps, sample_stride=250)
        psi = gaussian_packet(p, center=1.0)
        traj = evolve(product_state(p, psi, psi), p)
        assert max_joint_drift(traj) < 1e-10 * (horizon + 1.0)
        drifts[lam] = max_erased_drift(traj)
    assert drifts[0.0] < 1e-6
    assert drifts[0.5] > 10 * drifts[0.0]
    p = TwoFieldParams(lam=0.0, grid_n=128, dt=dt, steps=int(round(TWO_PI / dt)),
                       sample_stride=500)
    psi = gaussian_packet(p, center=1.0)
    st = product_state(p, psi, psi)
    traj = evolve(st, p)
    fid = fidelity(st, traj.final)
    assert fid > 1 - 1e-6
    elapsed = time.time() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(11, f"joint norm exact; drift(0)={drifts[0.0]:.1e} < 1e-6, "
                   f"drift(0.5)={drifts[0.5]:.1e}; fidelity {fid:.9f}; {elapsed:.0f}s")


def test_acceptance_12_erasure_identity(capsys):
    t0 = time.time()
    for m in range(2, 9):
        frame = random_unitary(m, seed=900 + m)
        out = erase_twice(frame, component=0)
        c = float(np.sum(np.abs(frame[:, 0]) ** 2))
        basis = np.zeros(m, complex)
        basis[0] = 1.0
        off = float(np.linalg.norm(out - out[0] * basis))
        assert off < 1e-10
        assert abs(out[0] - c) < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(12, f"alpha o alpha o e = c id with off-residual < 1e-10 in {elapsed:.2f}s")
