"""Universal pairings of bounded kets, light-like search, and order checks.

The pairing is sesquilinear: ``<sum a_i M_i, sum b_j N_j>`` equals the
collected superposition of ``a_i * conj(b_j)`` on the closed space obtained by
gluing ``M_i`` to the mirror image of ``N_j`` along their common boundary.
Every pairing routine takes that gluing as a glue function ``glue(a, b)``,
which returns the closed class of ``a`` glued to ``mirror(b)`` and raises
``BoundaryError`` when the two boundaries do not match:

* ``glue_1d``: labeled-point matchings (dimension-1 kets: arcs plus free circles),
* ``glue_2d``: labeled-circle surfaces (dimension-2 kets: genus pieces bounding circles),
* ``glue_closed``: closed triangulations over the empty boundary,
* ``MockEquivalence.glue``: opaque ids under a user-supplied gluing table (the
  stand-in for dimensions where real gluing is out of reach).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import BoundaryError, StructureError
from .superpose import Superposition, abs2, conj, is_exact, rc
from .topo import (
    Bounded1Ket,
    BoundedSurfaceKet,
    Closed1Class,
    ClosedSurfaceClass,
    Triangulation,
    connected_groups,
    iso_key,
)


# -- glue functions ------------------------------------------------------------------


def glue_1d(a: Bounded1Ket, b: Bounded1Ket) -> Closed1Class:
    """Circles of the union of two matchings on the same labels, plus free ones.

    Mirroring a matching of unoriented labeled arcs is the identity, and every
    label lies on one arc of each matching, so each component of
    ``matching(a) union matching(b)`` is one circle.
    """
    if a.labels != b.labels:
        raise BoundaryError("kets do not share boundary labels")
    cycles = len(connected_groups(a.labels, a.matching + b.matching))
    return Closed1Class(cycles + a.free_circles + b.free_circles)


def glue_2d(a: BoundedSurfaceKet, b: BoundedSurfaceKet) -> ClosedSurfaceClass:
    """Glue two bounded surfaces along every shared boundary circle.

    Components are merged by union-find over the labels; the genus of each
    closed result comes from Euler characteristic additivity (circle
    boundaries contribute nothing).
    """
    if a.labels != b.labels:
        raise BoundaryError("kets do not share boundary circles")
    comps = {("a", i): c for i, c in enumerate(a.components)}
    comps.update({("b", j): c for j, c in enumerate(b.components)})
    by_label: Dict[object, List] = {}
    for node, (_, ls) in comps.items():
        for l in ls:
            by_label.setdefault(l, []).append(node)
    links = ((members[0], m) for members in by_label.values() for m in members[1:])
    genera = []
    for group in connected_groups(comps, links):
        total = sum(2 - 2 * comps[n][0] - len(comps[n][1]) for n in group)
        if total % 2 != 0 or total > 2:
            raise StructureError(f"glued component has impossible characteristic {total}")
        genera.append((2 - total) // 2)
    genera += list(a.closed_genera) + list(b.closed_genera)
    return ClosedSurfaceClass(tuple(sorted(genera)))


def glue_closed(a: Triangulation, b: Triangulation):
    """Pairing over the empty boundary: the disjoint union of ``a`` with ``mirror(b)``."""
    if not (a.is_closed() and b.is_closed()):
        raise BoundaryError("empty-boundary pairing needs closed kets")
    return iso_key(a.disjoint_union(b.mirrored()))


class MockEquivalence:
    """Opaque kets with a user-supplied symmetric gluing table.

    Models gluing in dimensions where recognizing the closed result is out of
    reach: the table simply names the class of ``A glued to mirror(B)``.
    """

    def __init__(self, kets: Sequence[str], table: Dict[Tuple[str, str], str]):
        self.kets = tuple(kets)
        self.table = dict(table)
        for a, b in itertools.product(self.kets, repeat=2):
            if (a, b) not in self.table:
                raise StructureError(f"gluing table misses pair ({a}, {b})")
            if self.table[(a, b)] != self.table[(b, a)]:
                raise StructureError(f"gluing table not symmetric at ({a}, {b})")

    def glue(self, a: str, b: str) -> str:
        """Glue function of this table; a ket not in the table raises ``BoundaryError``."""
        for k in (a, b):
            if k not in self.kets:
                raise BoundaryError(f"unknown mock ket {k!r}")
        return self.table[(a, b)]


# -- the pairing --------------------------------------------------------------------


def pair_terms(v: Sequence, w: Sequence, glue: Callable) -> Iterator[Tuple[object, object]]:
    """Uncollected terms ``(a_i conj(b_j), glue(m_i, n_j))`` of two ``(amplitude, ket)``
    lists, i outer and j inner: collecting them in order fixes the summation order."""
    for a, m in v:
        for b, n in w:
            yield a * conj(b), glue(m, n)


def pair(v: Superposition, w: Superposition, glue: Callable) -> Superposition:
    """Sesquilinear pairing ``sum_ij a_i conj(b_j) [glue(M_i, mirror N_j)]``."""
    v_terms = [(a, m) for m, a in v.items()]
    w_terms = [(b, n) for n, b in w.items()]
    return Superposition.collect(pair_terms(v_terms, w_terms, glue))


# -- light-like search ----------------------------------------------------------------


@dataclass
class SearchResult:
    min_residual: float
    argmin: Superposition


def _key_matrices(kets: Sequence, glue: Callable) -> np.ndarray:
    """``(K, n, n)`` 0/1 matrices, one per closed class of ``glue(kets[i], kets[j])``.

    Classes are numbered in the order they first appear over ``(i, j)`` in
    row-major order, which fixes the summation order over keys.
    """
    n = len(kets)
    key_index: Dict[object, int] = {}
    cells = []
    for i, j in itertools.product(range(n), repeat=2):
        k = glue(kets[i], kets[j])
        cells.append((key_index.setdefault(k, len(key_index)), i, j))
    mats = np.zeros((len(key_index), n, n))
    for k, i, j in cells:
        mats[k, i, j] = 1.0
    return mats


def _quadratic_forms(flat_mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``q[..., t, k] = Re(v_t^H M_k v_t)`` for every row of ``V``.

    ``flat_mats`` is a ``(..., K, n*n)`` stack of real key matrices ``M_k``
    and ``V`` a ``(..., T, n)`` complex batch with the same leading shape.
    """
    n = V.shape[-1]
    outer = (V.conj()[..., :, None] * V[..., None, :]).reshape(V.shape[:-1] + (n * n,))
    return outer.real @ np.swapaxes(flat_mats, -1, -2)


def _residual(flat_mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Residuals ``sum_k q_k^2`` of every row of ``V``."""
    q = _quadratic_forms(flat_mats, V)
    return np.sum(q * q, axis=-1)


def _gradient(flat_mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gradient ``2 sum_k q_k M_k v_t`` of the residual of every row of ``V``."""
    n = V.shape[-1]
    weighted = (_quadratic_forms(flat_mats, V) @ flat_mats).reshape(V.shape + (n,))
    return 2.0 * np.einsum("...tij,...tj->...ti", weighted, V)


def _index_groups(values: Iterable) -> List[List[int]]:
    """Indices of equal values, one list per value in order of first appearance."""
    groups: Dict[object, List[int]] = {}
    for i, v in enumerate(values):
        groups.setdefault(v, []).append(i)
    return list(groups.values())


def _descend(mats: np.ndarray, rngs: Sequence[Sequence[np.random.Generator]],
             steps: int, step_size: float) -> np.ndarray:
    """Projected gradient descent of every restart of every family in lockstep.

    ``mats`` is the ``(F, K, n, n)`` stack of the families' key matrices and
    ``rngs[f][t]`` the generator of restart t of family f; the result is the
    ``(F, T, n)`` array of unit vectors after ``steps`` steps.
    """
    n = mats.shape[-1]
    flat_mats = mats.reshape(mats.shape[:2] + (n * n,))

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    V = np.array([[draw(rng) for rng in fam] for fam in rngs])
    V /= np.linalg.norm(V, axis=-1, keepdims=True)
    for _ in range(steps):
        V = V - step_size * _gradient(flat_mats, V)
        nv = np.linalg.norm(V, axis=-1)
        if not nv.all():
            for f, t in zip(*np.nonzero(nv == 0.0)):
                V[f, t] = draw(rngs[f][t])
                nv[f, t] = np.linalg.norm(V[f, t])
        V /= nv[..., None]
    return V


def _polish(mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gauss-Newton steps on the residual system ``q_k(v) = 0, |v|^2 = 1`` while they contract.

    ``mats`` is an ``(F, K, n, n)`` stack of key matrices and ``V`` the
    ``(F, T, n)`` rows to polish.  The quartic objective is flat near a null
    vector, where plain descent crawls; solving the quadratic system converges
    quadratically.  Each step is the minimum-norm least-squares solution with
    ``lstsq``'s default cutoff.  A row takes at most 40 steps, and only while
    they shrink: the first step is always taken, and the first step ``delta_k``
    with ``|delta_k| >= |delta_{k-1}|`` (the monotonicity test of Newton
    methods) is dropped and ends the row, which keeps its last iterate.  On a
    family with no null vector the undamped steps diverge, so most rows stop
    after a few steps.  The rows still stepping are gathered, with their
    families' key matrices, before each step, so each SVD call covers only
    them, and a row's path does not depend on the others.  A row that reaches
    norm 0 has a zero Jacobian from then on, so it stays the zero vector.
    """
    F, T, n = V.shape
    out = V.reshape(F * T, n).copy()
    live = np.arange(F * T)  # rows still stepping, as indices into ``out``
    last = np.inf  # the norm of each live row's last step
    for _ in range(40):
        X = out[live]
        # one row M_k v per key, then v itself for the norm constraint
        rows = np.concatenate([np.einsum("rkij,rj->rki", mats[live // T], X), X[:, None, :]],
                              axis=1)
        res = np.einsum("ri,rki->rk", X.conj(), rows).real
        res[:, -1] -= 1.0
        jac = 2.0 * np.concatenate([rows.real, rows.imag], axis=-1)
        u, s, wh = np.linalg.svd(jac, full_matrices=False)
        keep = s > np.finfo(float).eps * max(jac.shape[-2:]) * s[:, :1]
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        delta = np.einsum("rsi,rs->ri", wh, inv * np.einsum("rks,rk->rs", u, -res))
        size = np.linalg.norm(delta, axis=-1)
        shrinks = size < last
        live, X, delta, last = live[shrinks], X[shrinks], delta[shrinks], size[shrinks]
        if not live.size:
            break
        X = X + delta[:, :n] + 1j * delta[:, n:]
        nv = np.linalg.norm(X, axis=-1)
        out[live] = np.divide(X, nv[:, None], out=X, where=nv[:, None] != 0.0)
    return out.reshape(F, T, n)


def lightlike_search(
    families: Sequence[Sequence],
    glue: Callable,
    trials: int,
    steps: int,
    seed: int,
    step_size: float,
) -> List[SearchResult]:
    """Minimize ``norm2(pair(v, v))`` over unit vectors of each family by projected descent.

    Returns one result per family, in input order.  The residual is a smooth
    quartic in the amplitudes.  Every restart follows the analytic gradient
    from a random complex start, then a Gauss-Newton polish that stops at the
    first step that does not shrink, and keeps the polished vector unless the
    unpolished one is strictly better.  The best restart is returned; ties go
    to the lowest restart index.

    Restart t of family i draws its start (and any redraw after its vector
    collapses to 0) from its own generator, the t-th child of
    ``SeedSequence(seed + i)``, so a family's result does not depend on the
    other families, and a restart's path does not depend on the others.

    The families that have the same ket count descend in lockstep, as one
    ``(families, trials, kets)`` array; their key matrices are zero-padded to
    the largest key count, which adds exact zeros to ``q`` and the gradient.
    The polish is batched only over families with the same key count, whose
    Jacobians have the same shape.  The Jacobian is never padded: its zero
    rows would change the rounding of the SVD, and with it the last bits of
    the polished vectors and residuals.  So each family's result is
    bit-identical to a search of that family alone.
    """
    if not families:
        raise StructureError("need at least one family")
    mats = []
    for kets in families:
        if not kets:
            raise StructureError("need at least one ket in every family")
        mats.append(_key_matrices(kets, glue))
    results: List[SearchResult] = [None] * len(families)
    for members in _index_groups(len(kets) for kets in families):
        k_max = max(len(mats[i]) for i in members)
        padded = np.stack([np.pad(mats[i], ((0, k_max - len(mats[i])), (0, 0), (0, 0)))
                           for i in members])
        rngs = [[np.random.default_rng(c)
                 for c in np.random.SeedSequence(seed + i).spawn(max(trials, 1))]
                for i in members]
        V = _descend(padded, rngs, steps, step_size)
        polished = np.empty_like(V)
        for fs in _index_groups(len(mats[i]) for i in members):
            polished[fs] = _polish(np.stack([mats[members[f]] for f in fs]), V[fs])
        for f, i in enumerate(members):
            flat_mats = mats[i].reshape(len(mats[i]), -1)
            r_pol, r_raw = _residual(flat_mats, polished[f]), _residual(flat_mats, V[f])
            raw_wins = r_raw < r_pol
            residuals = np.where(raw_wins, r_raw, r_pol)
            best = int(np.argmin(residuals))
            best_v = V[f, best] if raw_wins[best] else polished[f, best]
            argmin = Superposition([(complex(a), k) for a, k in zip(best_v, families[i])])
            results[i] = SearchResult(float(residuals[best]), argmin)
    return results


# -- topological Cauchy-Schwarz order check ---------------------------------------------


@dataclass(frozen=True)
class OrderViolation:
    ket_a: object
    ket_b: object
    off_diag: object
    diag_a: object
    diag_b: object


def cauchy_schwarz_check(
    kets: Sequence, glue: Callable, order: Callable[[object], object]
) -> List[OrderViolation]:
    """All pairs violating ``o(A glued mirror B) < max(o(A A~), o(B B~))``.

    An empty list certifies that the order is maximized only on the diagonal
    for this family, which forces diagonal dominance of the pairing.
    """
    diag = [order(glue(k, k)) for k in kets]
    out = []
    for i, j in itertools.combinations(range(len(kets)), 2):
        o_off = order(glue(kets[i], kets[j]))
        if not (o_off < max(diag[i], diag[j])):
            out.append(OrderViolation(kets[i], kets[j], o_off, diag[i], diag[j]))
    return out


def order_circle_count(c: Closed1Class) -> int:
    return c.circles


# -- handle series -----------------------------------------------------------------------


def l2_handle_series(coefficients: Callable[[int], object], g_max: int) -> List[Tuple[int, object]]:
    """Collected coefficients of the self-pairing of ``sum_n c_n (disk with n handles)``.

    The glued class of handle pieces i and j is the genus ``i + j`` surface, so
    the collected coefficient at genus ``g`` is the convolution
    ``sum_{i+j=g} c_i conj(c_j)``.  Exact amplitudes convolve exactly;
    float amplitudes use a fast vectorized path.
    """
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    cs = [coefficients(n) for n in range(g_max + 1)]
    if all(is_exact(c) for c in cs):
        out = []
        for g in range(g_max + 1):
            total = None
            for i in range(g + 1):
                term = cs[i] * conj(cs[g - i])
                total = term if total is None else total + term
            out.append((g, total))
        return out
    arr = np.asarray([complex(c) for c in cs])
    conv = np.convolve(arr, arr.conj())[: g_max + 1]
    if np.allclose(conv.imag, 0.0):
        return [(g, float(conv[g].real)) for g in range(g_max + 1)]
    return [(g, complex(conv[g])) for g in range(g_max + 1)]


def square_partial_sums(series: Iterable[Tuple[int, object]]) -> List[Tuple[int, object, object]]:
    """Rows (g, coefficient, sum of squared coefficients up to g)."""
    out = []
    total = None
    for g, c in series:
        q = abs2(c)
        total = q if total is None else total + q
        out.append((g, c, total))
    return out


# -- built-in example families -------------------------------------------------------------


def example_superposed_arcs() -> Tuple[Superposition, Callable]:
    """The four-ket superposition over two boundary points whose self-pairing
    collects to coefficients (1/4, -1/2, -1/4, 1, -1/4, -1/2, 1/4) on 1..7
    circles, of squared norm 7/4.

    One arc matches the two points; the four kets differ by 0..3 free circles
    and carry amplitudes (+1/2, -1/2, -1/2, +1/2).
    """
    signs = (1, -1, -1, 1)
    kets = [(rc(s, 0) * rc(Fraction(1, 2)), Bounded1Ket(((0, 1),), c)) for c, s in enumerate(signs)]
    v = Superposition([(a, k) for a, k in kets])
    return v, glue_1d


def example_mock_null_family() -> Tuple[List[str], MockEquivalence]:
    """Two opaque kets whose four gluings are all the same closed class.

    ``A - B`` is then an exact null vector of the pairing, the mechanism that
    terminates growth in the dimension the mock stage stands in for.
    """
    kets = ["A", "B"]
    return kets, MockEquivalence(kets, {(a, b): "S4-like" for a in kets for b in kets})
