"""Universal pairings, light-like search, order checks, handle series."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from formalchain import cli
from formalchain.errors import BoundaryError, ConfigError, StructureError
from formalchain.pairing import (
    Bounded1Ket,
    BoundedSurfaceKet,
    MockEquivalence,
    OrderViolation,
    _columns,
    _descend,
    _gradient,
    _key_matrices,
    _polish,
    _residual,
    cauchy_schwarz_check,
    example_mock_null_family,
    example_superposed_arcs,
    glue_1d,
    glue_2d,
    glue_closed,
    l2_handle_series,
    lightlike_search,
    order_circle_count,
    pair,
    square_partial_sums,
)
from formalchain.superpose import RC, Superposition, abs2, conj, rc
from formalchain.topo import (
    Closed0Class,
    Closed1Class,
    ClosedSurfaceClass,
    circle,
    sphere_triangulation,
)
from support import add, disk_with_handles, remove_faces, scale, signed_points


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


# -- 1d gluing ---------------------------------------------------------------


def test_glue_1d_self_doubles_arcs_to_circles():
    k = Bounded1Ket(((1, 2), (3, 4)))
    assert glue_1d(k, k) == Closed1Class(2)


def test_glue_1d_cross_matching_single_cycle():
    # brute-force trace: 1-2, 2-3 (mirror of (2,3)... ), alternating walk closes once
    a = Bounded1Ket(((1, 2), (3, 4)))
    b = Bounded1Ket(((1, 4), (2, 3)))
    assert glue_1d(a, b) == Closed1Class(1)
    # oracle: union of the two matchings is a single 4-cycle
    edges = set(a.matching) | set(b.matching)
    deg = {}
    for x, y in edges:
        deg[x] = deg.get(x, 0) + 1
        deg[y] = deg.get(y, 0) + 1
    assert all(d == 2 for d in deg.values())


def test_glue_1d_free_circles_add():
    a = Bounded1Ket(((1, 2),), free_circles=1)
    b = Bounded1Ket(((1, 2),))
    assert glue_1d(a, b) == Closed1Class(2)
    assert glue_1d(b, a) == Closed1Class(2)


def test_glue_1d_boundary_mismatch():
    with pytest.raises(BoundaryError):
        glue_1d(Bounded1Ket(((1, 2),)), Bounded1Ket(((3, 4),)))


# -- 2d gluing ---------------------------------------------------------------


def test_glue_2d_disks_to_sphere():
    d = disk_with_handles(0)
    assert glue_2d(d, d) == ClosedSurfaceClass((0,))


def test_glue_2d_handles_add():
    for i, j in itertools.product(range(4), repeat=2):
        got = glue_2d(disk_with_handles(i), disk_with_handles(j))
        assert got == ClosedSurfaceClass((i + j,))


def test_glue_2d_annulus_and_disks():
    annulus = BoundedSurfaceKet(((0, frozenset(["c0", "c1"])),))
    two_disks = BoundedSurfaceKet(((0, frozenset(["c0"])), (0, frozenset(["c1"]))))
    # chi = 0 + 2 = 2 in one component: a sphere
    assert glue_2d(annulus, two_disks) == ClosedSurfaceClass((0,))
    assert glue_2d(two_disks, two_disks) == ClosedSurfaceClass((0, 0))


def test_glue_2d_boundary_mismatch():
    with pytest.raises(BoundaryError):
        glue_2d(disk_with_handles(0, "c0"), disk_with_handles(0, "other"))


# -- the pairing --------------------------------------------------------------


def test_pair_single_ket_diagonal():
    v = Superposition([(1, Bounded1Ket(((1, 2),)))])
    res = pair(v, v, glue_1d)
    assert list(res.items()) == [(Closed1Class(1), 1)]


def example_superposed_arcs_profile():
    """The published coefficient profile of the four-ket arc family, keyed by circle count."""
    vals = [
        Fraction(1, 4), Fraction(-1, 2), Fraction(-1, 4), Fraction(1),
        Fraction(-1, 4), Fraction(-1, 2), Fraction(1, 4),
    ]
    return {Closed1Class(n + 1): vals[n] for n in range(7)}


def test_example_superposed_arcs_profile_and_norm():
    v, glue = example_superposed_arcs()
    res = pair(v, v, glue)
    want = example_superposed_arcs_profile()
    assert {k: a for k, a in res.items()} == {k: rc(x) for k, x in want.items()}
    assert res.norm2() == Fraction(7, 4)


def test_example_arcs_reconstructed_by_brute_force():
    """Search kets = (matching, free circles <= 3) on 2 or 4 points with
    amplitudes +-1/2 until the collected profile matches the published
    coefficients; the family must exist and must be the built-in one."""
    want = {k.circles: v for k, v in example_superposed_arcs_profile().items()}
    hits = []
    for n_pts in (2, 4):
        labels = tuple(range(n_pts))
        kets = [
            Bounded1Ket(m, free)
            for m in all_matchings(list(labels))
            for free in range(4)
        ]
        for combo in itertools.combinations(kets, 4):
            for signs in itertools.product((1, -1), repeat=4):
                if signs[0] != 1:
                    continue  # global sign is irrelevant
                v = Superposition(
                    [(rc(Fraction(s, 2)), k) for s, k in zip(signs, combo)]
                )
                res = pair(v, v, glue_1d)
                profile = {k.circles: a for k, a in res.items()}
                if {c: rc(x) for c, x in want.items()} == profile:
                    hits.append((n_pts, combo, signs))
    assert hits, "no ket family reproduces the published profile"
    pts, combo, signs = hits[0]
    assert pts == 2
    assert sorted(k.free_circles for k in combo) == [0, 1, 2, 3]
    assert all(k.matching == ((0, 1),) for k in combo)


def test_pair_mock_family_cancels():
    kets, mock = example_mock_null_family()
    v = Superposition([(1, "A"), (-1, "B")])
    assert pair(v, v, mock.glue).is_zero()


def test_pair_boundary_error_propagates():
    v = Superposition([(1, Bounded1Ket(((1, 2),)))])
    w = Superposition([(1, Bounded1Ket(((3, 4),)))])
    with pytest.raises(BoundaryError):
        pair(v, w, glue_1d)


def test_glue_closed_rejects_bounded_kets():
    sphere = sphere_triangulation()
    disk = remove_faces(sphere, [min(sphere.faces)])
    assert glue_closed(sphere, sphere) == glue_closed(sphere, sphere_triangulation())
    for a, b in ((sphere, disk), (disk, sphere), (disk, disk)):
        with pytest.raises(BoundaryError, match="needs closed kets"):
            glue_closed(a, b)


def test_mock_glue_rejects_unknown_kets():
    _, mock = example_mock_null_family()
    for a, b in (("A", "C"), ("C", "A")):
        with pytest.raises(BoundaryError, match="unknown mock ket 'C'"):
            mock.glue(a, b)
    # a table entry does not make a ket known; a ket file may not name one
    mock = MockEquivalence(["A"], {("A", "A"): "s", ("A", "C"): "t"})
    assert mock.glue("A", "A") == "s"
    with pytest.raises(BoundaryError):
        mock.glue("A", "C")
    with pytest.raises(ConfigError, match=r"mock glue key 'A\|C' must be 'A\|B' over names in"):
        cli._kets_from_json({"mock": {"kets": ["A"], "glue": {"A|A": "s", "A|C": "t"}}, "kets": []})


def mismatched_families():
    """(glue, family) pairs whose kets do not all share one boundary."""
    sphere = sphere_triangulation()
    _, mock = example_mock_null_family()
    return [
        (glue_1d, [Bounded1Ket(((0, 1),)), Bounded1Ket(((2, 3),))]),
        (glue_2d, [disk_with_handles(0, "c0"), disk_with_handles(1, "c1")]),
        (glue_closed, [sphere, remove_faces(sphere, [min(sphere.faces)])]),
        (mock.glue, ["A", "B", "C"]),
    ]


def test_pairing_functions_raise_on_mismatched_families():
    for glue, kets in mismatched_families():
        v = Superposition([(1.0, k) for k in kets])
        with pytest.raises(BoundaryError):
            pair(v, v, glue)
        # every family is glued before any descent starts
        with pytest.raises(BoundaryError):
            lightlike_search([kets[:1], kets], glue, trials=2, steps=5, seed=0, step_size=0.1)
        with pytest.raises(BoundaryError):
            cauchy_schwarz_check(kets, glue, lambda key: 0)


def test_sesquilinearity_random():
    rng = random.Random(5)
    labels = (0, 1, 2, 3)
    kets = [Bounded1Ket(m) for m in all_matchings(list(labels))]
    for _ in range(20):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        v = Superposition([(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), k) for k in kets])
        w = Superposition([(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), k) for k in kets])
        left = pair(scale(v, a), w, glue_1d)
        right = scale(pair(v, w, glue_1d), a)
        for key in set(left.keys()) | set(right.keys()):
            assert abs(complex(left.amplitude(key)) - complex(right.amplitude(key))) < 1e-12
        left2 = pair(v, scale(w, a), glue_1d)
        right2 = scale(pair(v, w, glue_1d), conj(a))
        for key in set(left2.keys()) | set(right2.keys()):
            assert abs(complex(left2.amplitude(key)) - complex(right2.amplitude(key))) < 1e-12
        # additivity in both slots
        u = Superposition([(complex(rng.uniform(-1, 1)), k) for k in kets])
        lhs = pair(add(u, v), w, glue_1d)
        rhs = add(pair(u, w, glue_1d), pair(v, w, glue_1d))
        for key in set(lhs.keys()) | set(rhs.keys()):
            assert abs(complex(lhs.amplitude(key)) - complex(rhs.amplitude(key))) < 1e-12
        lhs2 = pair(v, add(u, w), glue_1d)
        rhs2 = add(pair(v, u, glue_1d), pair(v, w, glue_1d))
        for key in set(lhs2.keys()) | set(rhs2.keys()):
            assert abs(complex(lhs2.amplitude(key)) - complex(rhs2.amplitude(key))) < 1e-12


def test_hermitian_norm_symmetry_real_amplitudes():
    rng = random.Random(6)
    labels = (0, 1, 2, 3)
    kets = [Bounded1Ket(m, f) for m in all_matchings(list(labels)) for f in (0, 1)]
    for _ in range(20):
        v = Superposition([(rng.uniform(-1, 1), k) for k in kets])
        w = Superposition([(rng.uniform(-1, 1), k) for k in kets])
        n_vw = float(pair(v, w, glue_1d).norm2())
        n_wv = float(pair(w, v, glue_1d).norm2())
        assert math.isclose(n_vw, n_wv, rel_tol=1e-10, abs_tol=1e-12)


# -- light-like search -----------------------------------------------------------


def test_lightlike_single_ket_residual_one():
    [res] = lightlike_search([[Bounded1Ket(((0, 1),))]], glue_1d, trials=3, steps=50, seed=0,
                             step_size=0.1)
    assert math.isclose(res.min_residual, 1.0, abs_tol=1e-9)
    # step 0.5 maps a unit vector to (1 - |v|^2) v, often exactly 0: rows are redrawn
    [res] = lightlike_search(
        [[Bounded1Ket(((0, 1),))]], glue_1d, trials=8, steps=20, seed=0, step_size=0.5
    )
    assert math.isclose(res.min_residual, 1.0, abs_tol=1e-9)
    assert math.isclose(res.argmin.norm2(), 1.0, abs_tol=1e-12)


def test_lightlike_matching_families_bounded_below():
    rng = random.Random(7)
    for points in ((0, 1, 2, 3), (0, 1, 2, 3, 4, 5)):
        ms = all_matchings(list(points))
        for fam_i in range(3):
            size = min(len(ms), 2 + fam_i)
            fam = [Bounded1Ket(m) for m in rng.sample(ms, size)]
            [res] = lightlike_search([fam], glue_1d, trials=10, steps=150, seed=fam_i,
                                     step_size=0.1)
            assert res.min_residual > 0.05


def test_lightlike_mock_finds_null_vector():
    kets, mock = example_mock_null_family()
    [res] = lightlike_search([kets], mock.glue, trials=8, steps=150, seed=3, step_size=0.1)
    assert res.min_residual < 1e-8
    amps = {k: complex(a) for k, a in res.argmin.items()}
    ratio = amps["B"] / amps["A"]
    assert abs(ratio + 1.0) < 1e-4


def test_lightlike_gradient_matches_finite_differences():
    # the residual is a smooth quartic; check the gradient the descent steps
    # along, every column pair at once, on a family with several keys
    labels = (0, 1, 2, 3)
    kets = [Bounded1Ket(m, f) for m in all_matchings(list(labels)) for f in (0, 1)]
    mats = _key_matrices(kets, glue_1d)
    assert mats.shape[0] > 1
    n = len(kets)
    stack = mats.reshape(1, -1, n)
    rng = np.random.default_rng(0)
    V = rng.normal(size=(1, 5, n)) + 1j * rng.normal(size=(1, 5, n))
    [r], [grad] = _residual(stack, _columns(V)), _gradient(stack, _columns(V))
    for t in range(V.shape[1]):
        q = np.einsum("i,kij,j->k", V[0, t].conj(), mats, V[0, t]).real
        assert math.isclose(r[t], float(np.sum(q * q)), rel_tol=1e-12)
    eps = 1e-6
    for i in range(n):
        for part, direction in enumerate((1.0, 1j)):
            dV = np.zeros_like(V)
            dV[:, :, i] = direction * eps
            [num] = (_residual(stack, _columns(V + dV))
                     - _residual(stack, _columns(V - dV))) / (2 * eps)
            # the step's gradient is 2 sum_k q_k M_k v, half the real gradient
            ana = 2 * grad[i, part]
            assert np.all(np.abs(num - ana) < 1e-5)


def test_lightlike_surface_families_positive():
    # enumerate bounded surfaces with <= 2 labeled boundary circles and
    # component genus <= 3; every unit vector keeps a positive residual
    kets = []
    for g in range(4):
        kets.append(BoundedSurfaceKet(((g, frozenset(["c0", "c1"])),)))
    for g1 in range(4):
        for g2 in range(4):
            kets.append(
                BoundedSurfaceKet(((g1, frozenset(["c0"])), (g2, frozenset(["c1"]))))
            )
    rng = random.Random(13)
    for _ in range(4):
        fam = rng.sample(kets, 5)
        [res] = lightlike_search([fam], glue_2d, trials=8, steps=150, seed=99, step_size=0.1)
        assert res.min_residual > 1e-6


def test_lightlike_deterministic_given_seed():
    kets, mock = example_mock_null_family()
    [a] = lightlike_search([kets], mock.glue, trials=5, steps=100, seed=42, step_size=0.1)
    [b] = lightlike_search([kets], mock.glue, trials=5, steps=100, seed=42, step_size=0.1)
    assert a.min_residual == b.min_residual
    assert {k: complex(x) for k, x in a.argmin.items()} == {
        k: complex(x) for k, x in b.argmin.items()
    }


def test_lightlike_rejects_empty_families():
    with pytest.raises(StructureError):
        lightlike_search([], glue_1d, trials=2, steps=5, seed=0, step_size=0.1)
    with pytest.raises(StructureError):
        lightlike_search([[Bounded1Ket(((0, 1),))], []], glue_1d, trials=2, steps=5, seed=0,
                         step_size=0.1)


def reference_lightlike_search(kets, glue, trials=200, steps=500, seed=0, step_size=0.1):
    """The restart-by-restart search the batched one replaced, kept verbatim
    except that it takes a glue function and returns ``(min_residual, argmin)``."""
    if not kets:
        raise StructureError("need at least one ket")
    n = len(kets)
    key_of = {}
    keys = []
    key_index = {}
    for i, j in itertools.product(range(n), repeat=2):
        k = glue(kets[i], kets[j])
        key_of[(i, j)] = k
        if k not in key_index:
            key_index[k] = len(keys)
            keys.append(k)
    mats = np.zeros((len(keys), n, n))
    for (i, j), k in key_of.items():
        mats[key_index[k], i, j] = 1.0

    def residual_and_grad(v: np.ndarray):
        q = np.einsum("i,kij,j->k", v.conj(), mats, v).real
        r = float(np.sum(q * q))
        grad = 2.0 * np.einsum("k,kij,j->i", q, mats, v)
        return r, grad

    def polish(v: np.ndarray, iters: int = 40) -> np.ndarray:
        # Gauss-Newton on the residual system q_k(v) = 0, |v|^2 = 1.  The
        # quartic objective is flat near a null vector, where plain descent
        # crawls; solving the quadratic system converges quadratically.
        for _ in range(iters):
            av = np.einsum("kij,j->ki", mats, v)
            q = np.einsum("i,ki->k", v.conj(), av).real
            res = np.concatenate([q, [np.vdot(v, v).real - 1.0]])
            jac = np.concatenate(
                [2.0 * av.real, 2.0 * av.imag], axis=1
            )
            norm_row = np.concatenate([2.0 * v.real, 2.0 * v.imag])[None, :]
            jac = np.concatenate([jac, norm_row], axis=0)
            delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            v = v + delta[:n] + 1j * delta[n:]
            nv = np.linalg.norm(v)
            if nv == 0.0:
                break
            v = v / nv
        return v

    seq = np.random.SeedSequence(seed)
    children = seq.spawn(max(trials, 1))
    best_r = None
    best_v = None
    for ti in range(max(trials, 1)):
        rng = np.random.default_rng(children[ti])
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        for _ in range(steps):
            r, grad = residual_and_grad(v)
            v = v - step_size * grad
            nv = np.linalg.norm(v)
            if nv == 0.0:
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                nv = np.linalg.norm(v)
            v /= nv
        polished = polish(v)
        r, _ = residual_and_grad(polished)
        r_raw, _ = residual_and_grad(v)
        if r_raw < r:
            r, polished = r_raw, v
        if best_r is None or r < best_r:
            best_r, best_v = r, polished.copy()
    argmin = Superposition([(complex(best_v[i]), kets[i]) for i in range(n)])
    return float(best_r), argmin


def row_by_row_polish(mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The Gauss-Newton polish of ``pairing._polish``, one row of ``V`` at a time.

    Each row takes at most 40 steps on ``q_k(v) = 0, |v|^2 = 1``, each the
    minimum-norm least-squares solution with ``lstsq``'s default cutoff, and
    stops before the first step that is not shorter than the one before.
    """
    n = V.shape[1]
    out = V.copy()
    for t, v in enumerate(V):
        last = np.inf
        for _ in range(40):
            # one row M_k v per key, then v itself for the norm constraint
            rows = np.concatenate([np.einsum("kij,j->ki", mats, v), v[None, :]])
            res = np.einsum("i,ki->k", v.conj(), rows).real
            res[-1] -= 1.0
            jac = 2.0 * np.concatenate([rows.real, rows.imag], axis=1)
            u, s, wh = np.linalg.svd(jac, full_matrices=False)
            keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
            delta = np.einsum("ri,r->i", wh, inv * np.einsum("kr,k->r", u, -res))
            size = np.linalg.norm(delta, axis=-1)
            if not size < last:
                break
            last = size
            v = v + delta[:n] + 1j * delta[n:]
            nv = np.linalg.norm(v, axis=-1)
            if nv != 0.0:
                v = v / nv
        out[t] = v
    return out


def assert_matches_reference(kets, glue, step_size=0.1, **kw):
    [res] = lightlike_search([kets], glue, step_size=step_size, **kw)
    ref_r, _ = reference_lightlike_search(kets, glue, step_size=step_size, **kw)
    assert abs(res.min_residual - ref_r) <= 1e-12
    return res


def assert_bit_equal_to_single_family(families, glue, seed, step_size=0.1, **kw):
    """Search ``families`` at once; family i must equal a search of it alone from ``seed + i``."""
    results = lightlike_search(families, glue, seed=seed, step_size=step_size, **kw)
    assert len(results) == len(families)
    for i, (fam, res) in enumerate(zip(families, results)):
        [ref] = lightlike_search([fam], glue, seed=seed + i, step_size=step_size, **kw)
        assert res.min_residual == ref.min_residual
        assert list(res.argmin.items()) == list(ref.argmin.items())
    return results


def test_lightlike_matches_reference_on_positivity_families():
    # the families and the mock search of ``positivity --points 6``
    labels = tuple(range(6))
    matchings = cli._perfect_matchings(labels)
    for seed in (3000, 3001, 3002):
        rng = random.Random(f"{seed}:positivity")
        for fam_i in range(4):
            fam = cli._random_family(matchings, 4, rng)
            assert_matches_reference(fam, glue_1d, trials=40, steps=300, seed=seed + fam_i)
        kets, mock = example_mock_null_family()
        [res] = lightlike_search([kets], mock.glue, trials=10, steps=300, seed=seed, step_size=0.1)
        _, ref_argmin = reference_lightlike_search(kets, mock.glue, trials=10, steps=300, seed=seed)
        assert res.min_residual < 1e-8
        amps = {k: complex(a) for k, a in res.argmin.items()}
        ref_amps = {k: complex(a) for k, a in ref_argmin.items()}
        assert abs(amps["B"] / amps["A"] - ref_amps["B"] / ref_amps["A"]) <= 1e-9


def test_lightlike_matches_reference_on_surface_families():
    kets = [BoundedSurfaceKet(((g, frozenset(["c0", "c1"])),)) for g in range(4)]
    kets += [
        BoundedSurfaceKet(((g1, frozenset(["c0"])), (g2, frozenset(["c1"]))))
        for g1 in range(4)
        for g2 in range(4)
    ]
    rng = random.Random(13)
    for _ in range(4):
        assert_matches_reference(rng.sample(kets, 5), glue_2d, trials=8, steps=150, seed=99)


def test_lightlike_matches_reference_single_ket_and_mock():
    assert_matches_reference([Bounded1Ket(((0, 1),))], glue_1d, trials=3, steps=50, seed=0)
    kets, mock = example_mock_null_family()
    for seed in (3, 7, 42):
        res = assert_matches_reference(kets, mock.glue, trials=8, steps=150, seed=seed)
        _, ref_argmin = reference_lightlike_search(kets, mock.glue, trials=8, steps=150, seed=seed)
        assert res.min_residual < 1e-8
        amps = {k: complex(a) for k, a in res.argmin.items()}
        ref_amps = {k: complex(a) for k, a in ref_argmin.items()}
        assert abs(amps["B"] / amps["A"] - ref_amps["B"] / ref_amps["A"]) <= 1e-9


def test_multi_family_search_bit_equal_on_positivity_families():
    # ``positivity --points 6`` searches its four families in one call and the
    # mock family in another
    labels = tuple(range(6))
    matchings = cli._perfect_matchings(labels)
    kets, mock = example_mock_null_family()
    for seed in (3000, 3001, 3002):
        rng = random.Random(f"{seed}:positivity")
        families = [cli._random_family(matchings, 4, rng) for _ in range(4)]
        assert_bit_equal_to_single_family(families, glue_1d, seed, trials=40, steps=300)
        [res] = assert_bit_equal_to_single_family([kets], mock.glue, seed, trials=10, steps=300)
        assert res.min_residual < 1e-8


def test_multi_family_search_bit_equal_with_free_circles():
    labels = tuple(range(6))
    matchings = cli._perfect_matchings(labels)
    rng = random.Random("7:positivity")
    families = [cli._random_family(matchings, 4, rng, max_free_circles=2) for _ in range(4)]
    # the families differ in key count, so the descent pads and the polish splits
    assert len({len(_key_matrices(fam, glue_1d)) for fam in families}) > 1
    assert_bit_equal_to_single_family(families, glue_1d, 7, trials=20, steps=200)


def test_multi_family_search_bit_equal_with_one_trial_and_many_keys():
    # with one trial a sum over 8 or more keys can run innermost, in blocks,
    # where zero padding moves the rounding; no such sum may see the padding
    labels = tuple(range(6))
    matchings = cli._perfect_matchings(labels)
    rng = random.Random(1)
    families = [cli._random_family(matchings, 5, rng, max_free_circles=6) for _ in range(4)]
    counts = [len(_key_matrices(fam, glue_1d)) for fam in families]
    assert len(set(counts)) > 1 and max(counts) >= 8
    assert_bit_equal_to_single_family(families, glue_1d, 1, trials=1, steps=60)


def test_multi_family_search_bit_equal_on_surface_families():
    kets = [BoundedSurfaceKet(((g, frozenset(["c0", "c1"])),)) for g in range(4)]
    kets += [
        BoundedSurfaceKet(((g1, frozenset(["c0"])), (g2, frozenset(["c1"]))))
        for g1 in range(4)
        for g2 in range(4)
    ]
    rng = random.Random(13)
    families = [rng.sample(kets, 5) for _ in range(4)]
    assert_bit_equal_to_single_family(families, glue_2d, 99, trials=8, steps=150)


def test_multi_family_search_bit_equal_through_restart_redraws():
    # step 0.5 sends a unit vector of a one-ket family to (1 - |v|^2) v,
    # often exactly 0, so those restarts redraw from their own generators
    k = [Bounded1Ket(((0, 1),), c) for c in range(4)]
    families = [[k[0]], [k[1]], [k[0], k[1]], [k[2]], [k[2], k[3]]]
    results = assert_bit_equal_to_single_family(
        families, glue_1d, 0, trials=8, steps=20, step_size=0.5
    )
    for res in (results[0], results[1], results[3]):
        assert math.isclose(res.min_residual, 1.0, abs_tol=1e-9)


def test_multi_family_search_groups_ket_counts_in_input_order():
    # ``_random_family`` returns short families when the pool is small or its
    # 10,000-draw guard runs out; each ket count descends as its own group
    labels = tuple(range(6))
    matchings = cli._perfect_matchings(labels)
    rng = random.Random(5)
    families = [cli._random_family(matchings, size, rng) for size in (4, 2, 5, 4, 1, 2, 3)]
    assert [len(fam) for fam in families] == [4, 2, 5, 4, 1, 2, 3]
    results = assert_bit_equal_to_single_family(families, glue_1d, 11, trials=10, steps=100)
    for fam, res in zip(families, results):
        assert [ket for ket, _ in res.argmin.items()] == list(fam)


def test_polish_rows_match_row_by_row_polish():
    # the batched polish steps only the rows still contracting; each row must
    # follow the path it takes polished alone, converging (mock) or not
    labels = tuple(range(6))
    matchings = cli._perfect_matchings(labels)
    rng = random.Random("3000:positivity")
    mock_kets, mock = example_mock_null_family()
    families = [cli._random_family(matchings, 4, rng) for _ in range(2)] + [mock_kets]
    for i, (fam, glue) in enumerate(zip(families, [glue_1d, glue_1d, mock.glue])):
        mats = _key_matrices(fam, glue)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(i).spawn(10)]
        V = _descend(mats[None], [rngs], 300, 0.1)
        polished = _polish(mats[None], V)
        assert np.array_equal(polished[0], row_by_row_polish(mats, V[0]))


def test_polish_stops_diverging_rows_early(monkeypatch, capsys):
    # 40 steps for each of 4 x 40 family restarts and 10 mock restarts would
    # be 6,800 matrices; the two-ket mock's Jacobians have 4 columns
    svd = np.linalg.svd
    matrices = {}

    def counting_svd(a, *args, **kw):
        matrices[a.shape[-1]] = matrices.get(a.shape[-1], 0) + math.prod(a.shape[:-2])
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert cli.main(["positivity", "--seed", "3", "--points", "6", "--families", "4"]) == 0
    capsys.readouterr()
    # the mock restarts converge linearly, so each takes all 40 steps
    assert matrices[4] == 400
    assert sum(matrices.values()) < 1000


# -- topological Cauchy-Schwarz order ----------------------------------------------


def test_cs_check_matchings_circle_count_no_violations():
    for n in (4, 6):
        labels = tuple(range(n))
        kets = [Bounded1Ket(m) for m in all_matchings(list(labels))]
        assert cauchy_schwarz_check(kets, glue_1d, order_circle_count) == []


def test_cs_check_free_circles_documented():
    # with free circles the circle-count order still has no violations:
    # mixed gluings reach k + c_a + c_b circles, diagonals k + 2 max(c) more
    labels = (0, 1, 2, 3)
    kets = [
        Bounded1Ket(m, f)
        for m in all_matchings(list(labels))
        for f in (0, 1, 2)
    ]
    assert cauchy_schwarz_check(kets, glue_1d, order_circle_count) == []


def test_cs_check_single_ket_empty():
    assert cauchy_schwarz_check([Bounded1Ket(((0, 1),))], glue_1d, order_circle_count) == []


def test_cs_check_point_sets_naive_orders_fail():
    """Dimension-0 kets under disjoint-union gluing: orders by total point
    count (either sign) admit violations, documented by exhaustive search."""
    kets = [signed_points(p, m) for p in range(3) for m in range(3) if p + m > 0]

    def order_total(key):
        return key.plus_points + key.minus_points

    def order_neg_total(key):
        return -(key.plus_points + key.minus_points)

    v1 = cauchy_schwarz_check(kets, glue_closed, order_total)
    v2 = cauchy_schwarz_check(kets, glue_closed, order_neg_total)
    assert v1 and v2
    # yet the pairing itself is positive: the diagonal key coefficient of
    # <v, v> is a sum of |amplitude|^2 over kets sharing a diagonal class
    rng = random.Random(8)
    for _ in range(20):
        v = Superposition([(rng.uniform(-1, 1), k) for k in kets])
        if v.is_zero():
            continue
        assert not pair(v, v, glue_closed).is_zero()


# -- fixed-triangulation pairing -----------------------------------------------------


def test_fixed_triangulation_pairing_never_cancels():
    kets = [circle(n) for n in range(3, 9)]
    rng = random.Random(9)
    for _ in range(100):
        amps = [
            RC(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)),
               Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)))
            for _ in kets
        ]
        if all(abs2(a) == 0 for a in amps):
            continue
        v = Superposition(list(zip(amps, kets)))
        res = pair(v, v, glue_closed)
        assert not res.is_zero()


# -- handle series --------------------------------------------------------------------


def test_handle_series_exact_values():
    series = l2_handle_series(lambda n: Fraction(1, n + 1), 3)
    vals = dict(series)
    assert vals[0] == Fraction(1)
    assert vals[1] == Fraction(1)
    assert vals[2] == Fraction(11, 12)
    # the direct convolution at genus 3: 1/4 + 1/6 + 1/6 + 1/4
    assert vals[3] == Fraction(1, 4) + Fraction(1, 6) + Fraction(1, 6) + Fraction(1, 4)
    assert vals[3] == Fraction(5, 6)


def test_handle_series_matches_geometric_pairing_oracle():
    """Dual route: pair actual disk-with-handle kets through
    ``glue_2d`` and collect by genus; the arithmetic convolution must agree."""
    g_max = 6
    kets = [disk_with_handles(n) for n in range(g_max + 1)]
    amps = [Fraction(1, n + 1) for n in range(g_max + 1)]
    v = Superposition(list(zip(amps, kets)))
    paired = pair(v, v, glue_2d)
    series = dict(l2_handle_series(lambda n: Fraction(1, n + 1), g_max))
    for g in range(g_max + 1):
        # truncation: the geometric pairing only sees i, j <= g_max
        expect = sum(
            amps[i] * amps[g - i] for i in range(g + 1) if 0 <= g - i <= g_max
        )
        assert paired.amplitude(ClosedSurfaceClass((g,))) == expect
        assert series[g] == expect


def test_handle_series_delta_coefficients():
    series = l2_handle_series(lambda n: Fraction(1) if n == 0 else Fraction(0), 5)
    assert series[0][1] == Fraction(1)
    assert all(c == 0 for g, c in series[1:])


def test_handle_series_float_path_matches_exact():
    exact = l2_handle_series(lambda n: Fraction(1, n + 1), 50)
    fast = l2_handle_series(lambda n: 1.0 / (n + 1), 50)
    for (g1, c1), (g2, c2) in zip(exact, fast):
        assert g1 == g2
        assert math.isclose(float(c1), c2, rel_tol=1e-12)


def test_square_partial_sums_monotone():
    rows = square_partial_sums(l2_handle_series(lambda n: 1.0 / (n + 1), 200))
    sums = [acc for _, _, acc in rows]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_mock_equivalence_json_and_validation():
    # a one-sided 'A|B' entry of a ket file's table holds both ways
    _, glue = cli._kets_from_json(
        {"mock": {"kets": ["A", "B"], "glue": {"A|A": "s", "A|B": "t", "B|B": "s"}}, "kets": []}
    )
    assert glue("A", "B") == glue("B", "A") == "t"
    with pytest.raises(StructureError):
        MockEquivalence(["A", "B"], {("A", "A"): "x"})
    with pytest.raises(StructureError):
        MockEquivalence(
            ["A", "B"],
            {("A", "A"): "x", ("A", "B"): "y", ("B", "A"): "z", ("B", "B"): "x"},
        )
