"""Second-level quantum mechanics at desk scale: the two-particle molecule.

The joint wavefunction Psi(x1, x2) evolves under

    H = p1^2/2 + p2^2/2 + x1^2/2 + x2^2/2 + (lam/4!)(x1^4 + x2^4) + V(x1 - x2)

with a Strang split-step spectral integrator on a periodic grid, which is
norm-preserving up to roundoff.  The induced one-level (center-of-mass)
wavefunction comes from ket erasure,

    phi(c) = integral dx1 Psi(x1, 2c - x1),

normalized once at t = 0 and never again, so any drift of its norm is the
observable non-unitarity of the dragged-along one-level evolution.  For
lam = 0 the Hamiltonian separates in center-of-mass and relative coordinates
and the one-level evolution stays unitary; the quartic couples them.

The ket-erasure maps of the finite nested model live here too: erasing kets
of a formal combination one level down, conjugating amplitudes at odd levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import IntegratorError, StructureError, ZeroStateError

MAX_NORM_DRIFT = 1e-6  # joint-norm drift beyond which evolve raises
SNAPSHOT_BYTES = 1 << 20  # factor snapshots a factored evolve holds before measuring them


@dataclass(frozen=True)
class TwoFieldParams:
    lam: float = 0.0
    v_depth: float = 0.0  # Gaussian well V(r) = -depth * exp(-(r/width)^2)
    v_width: float = 1.0
    dt: float = 1e-3
    steps: int = 4000
    grid_n: int = 256
    grid_l: float = 8.0
    sample_stride: int = 50

    def __post_init__(self):
        for name in ("grid_n", "steps", "sample_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise StructureError(f"{name} must be an integer, got {value!r}")
        for name in ("lam", "v_depth", "v_width", "dt", "grid_l"):
            if not math.isfinite(getattr(self, name)):
                raise StructureError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.grid_n < 16 or self.grid_n & (self.grid_n - 1):
            raise StructureError("grid size must be a power of two, at least 16")
        if self.dt <= 0 or self.steps < 0:
            raise StructureError("need positive dt and nonnegative steps")
        if self.v_width <= 0:
            raise StructureError("potential width must be positive")
        if self.grid_l <= 0:
            raise StructureError(f"grid_l must be positive, got {self.grid_l!r}")
        if self.sample_stride < 1:
            raise StructureError("sample stride must be at least 1")


def grid_points(p: TwoFieldParams) -> np.ndarray:
    return -p.grid_l + (2.0 * p.grid_l / p.grid_n) * np.arange(p.grid_n)


def grid_dx(p: TwoFieldParams) -> float:
    return 2.0 * p.grid_l / p.grid_n


def gaussian_packet(p: TwoFieldParams, center: float = 0.0) -> np.ndarray:
    """Unit-normalized Gaussian of width 1 on the grid."""
    x = grid_points(p)
    psi = np.exp(-((x - center) ** 2) / 2.0).astype(complex)
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid_dx(p)))


@dataclass
class TwoFieldState:
    """Two-coordinate wavefunction on the periodic grid, held as one array.

    ``psi`` is either the (2, n) factor rows a, b of a product state
    Psi = outer(a, b) or the (n, n) joint grid, axis 0 = x1 and axis 1 = x2.
    The grid of a product state is formed only by ``joint``.
    """

    psi: np.ndarray
    params: TwoFieldParams
    t: float = 0.0

    def __post_init__(self):
        n = self.params.grid_n
        if np.shape(self.psi) not in ((2, n), (n, n)):
            raise StructureError(f"a state is ({n}, {n}) or (2, {n}) factor rows, "
                                 f"got shape {np.shape(self.psi)}")

    def joint(self) -> np.ndarray:
        """The (n, n) joint grid: ``psi`` itself or the outer product of its rows."""
        return np.outer(self.psi[0], self.psi[1]) if len(self.psi) == 2 else self.psi


def product_state(p: TwoFieldParams, psi1: np.ndarray, psi2: np.ndarray) -> TwoFieldState:
    """The product state psi1(x1) psi2(x2), held as its two factor rows."""
    return TwoFieldState(np.array([psi1, psi2], dtype=complex), p)


def _phases(p: TwoFieldParams, factored: bool):
    """Half-step potential and full-step kinetic phases.

    Factored, they act on each row of a (2, n) factor array: with no coupling
    V the 2D phases are h(x1) h(x2) and K(k1) K(k2), so both factors see the
    1D phases, which are the 2D ones with x2 = k2 = 0.
    """
    x = grid_points(p)
    k = 2.0 * math.pi * np.fft.fftfreq(p.grid_n, d=grid_dx(p))
    if factored:
        x1, x2, k1, k2 = x, 0.0, k, 0.0
    else:
        x1, x2, k1, k2 = x[:, None], x[None, :], k[:, None], k[None, :]
    v = 0.5 * x1 * x1 + 0.5 * x2 * x2
    if p.lam != 0.0:
        v = v + (p.lam / 24.0) * (x1 ** 4 + x2 ** 4)
    if p.v_depth != 0.0:
        r = x1 - x2
        v = v - p.v_depth * np.exp(-((r / p.v_width) ** 2))
    half_v = np.exp(-0.5j * p.dt * v)
    kin = np.exp(-1j * p.dt * (0.5 * (k1 ** 2 + k2 ** 2)))
    return half_v, kin


@dataclass
class Trajectory:
    """Sampled time series of the evolution."""

    times: List[float] = field(default_factory=list)
    joint_norms: List[float] = field(default_factory=list)
    erased_norms: List[float] = field(default_factory=list)
    com_means: List[float] = field(default_factory=list)
    final: Optional[TwoFieldState] = None


def _grid_measures(psi: np.ndarray, x: np.ndarray, dx: float) -> Tuple[float, np.ndarray, float]:
    """Joint norm, unscaled erased wavefunction and centre-of-mass mean of a grid.

    The mean of (x1 + x2)/2 comes from the coordinate marginals; the
    anti-diagonal density is L-periodic on the torus and would fold it.
    """
    n = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx * dx)
    prob = np.abs(psi) ** 2 * dx * dx
    total = float(prob.sum())
    mean = float((x @ prob.sum(axis=1) + x @ prob.sum(axis=0)) / (2.0 * total))
    return n, _erase_raw(psi, dx), mean


def _factor_measures(f: np.ndarray, x: np.ndarray,
                     dx: float) -> List[Tuple[float, np.ndarray, float]]:
    """The same for each (2, n) snapshot in f of the rows a, b of psi = outer(a, b).

    The anti-diagonal sums are the circular convolution (a * b)[2m mod n],
    from one FFT pair, and the marginals are |a|^2 sum|b|^2 and |b|^2 sum|a|^2.
    The transforms and row sums run over the whole (records, 2, n) stack at
    once; the means and norms are taken per record, so a record does not
    depend on the stack it is computed in.
    """
    dens = np.abs(f) ** 2 * dx
    spectra = np.fft.fft(f)
    conv = np.fft.ifft(spectra[:, 0] * spectra[:, 1])
    n_grid = f.shape[-1]
    raws = conv[:, 2 * np.arange(n_grid) % n_grid] * dx
    return [(math.sqrt(sa * sb), raw, float((x @ d[0] * sb + x @ d[1] * sa) / (2.0 * sa * sb)))
            for d, (sa, sb), raw in zip(dens, dens.sum(axis=-1).tolist(), raws)]


def _to_parity(f: np.ndarray) -> np.ndarray:
    """Coordinates of the grid rows f (..., n) in the parity basis.

    With h = n/2, index j in [0, h] holds the even part (f_j + f_{n-j})/2 at
    grid point j, and index h + j, 0 < j < h, the odd part (f_j - f_{n-j})/2,
    which vanishes at 0 and h.  Both phases are even in x and k, so the
    split step commutes with j -> -j mod n and never mixes the two parts.
    The basis, e_0, e_h and e_j +- e_{n-j}, is orthogonal; leaving it
    unnormalised keeps both maps to scalings by 1 and 1/2, so a round trip
    does not scale the state.
    """
    h = f.shape[-1] // 2
    c = np.empty_like(f)
    c[..., ::h] = f[..., ::h]
    c[..., 1:h] = (f[..., 1:h] + f[..., :h:-1]) * 0.5
    c[..., h + 1:] = (f[..., 1:h] - f[..., :h:-1]) * 0.5
    return c


def _to_grid(c: np.ndarray) -> np.ndarray:
    """Grid rows of the parity coordinates c (..., n); the inverse of ``_to_parity``."""
    h = c.shape[-1] // 2
    f = np.empty_like(c)
    f[..., ::h] = c[..., ::h]
    f[..., 1:h] = c[..., 1:h] + c[..., h + 1:]
    f[..., :h:-1] = c[..., 1:h] - c[..., h + 1:]
    return f


def _propagator_pays(p: TwoFieldParams) -> bool:
    """Whether a factored run advances each whole stride by the propagator U^stride.

    True when building it and the products cost less than the loop steps
    they replace.  In loop steps (25-50 us on a 2-vCPU x86_64 host, mostly
    numpy call overhead), the rule prices the power of one n x n U at
    n^3 / 300000 per unit of bit_length + popcount of the stride, and a
    (2, n) x (n, n) product at n^2 / 20000.  ``evolve`` powers the two
    parity blocks of U, of about n/2 each, so the rule is conservative: a
    build costs about a quarter of what it assumes.
    """
    n, stride, products = p.grid_n, p.sample_stride, p.steps // p.sample_stride
    build = n ** 3 / 300_000 * (stride.bit_length() + stride.bit_count())
    return build + products * n * n / 20_000 < products * stride


def _power(u: np.ndarray, e: int) -> np.ndarray:
    """u^e for e >= 1 by binary powering from the top bit, in two buffers besides u."""
    out, spare = u.copy(), np.empty_like(u)
    for bit in bin(e)[3:]:
        np.matmul(out, out, out=spare)
        out, spare = spare, out
        if bit == "1":
            np.matmul(out, u, out=spare)
            out, spare = spare, out
    return out


def _parity_powers(p: TwoFieldParams, split_step) -> List[Tuple[slice, np.ndarray]]:
    """(columns, block of U^stride) for the even and the odd parity coordinates.

    Row i of U is parity basis row i after one ``split_step``, in parity
    coordinates.  The step never mixes the parities, so U is block diagonal
    and each block is read off and raised to the stride on its own.
    """
    h = p.grid_n // 2
    u = _to_grid(np.eye(p.grid_n)).astype(complex)
    split_step(u)
    return [(cols, _power(_to_parity(u[cols])[:, cols], p.sample_stride))
            for cols in (slice(0, h + 1), slice(h + 1, None))]


def evolve(state: TwoFieldState, p: TwoFieldParams) -> Trajectory:
    """Strang split-step evolution with per-sample norm monitoring.

    A state held as two factor rows, without the coupling V, evolves as its
    two factors, each under the 1D split step, with one batched 1D FFT per
    transform, and its ``final`` holds the factor rows: the joint grid is
    never formed.  Its records come from factor snapshots, taken at each
    record and measured by ``_factor_measures`` in batches of at most
    ``SNAPSHOT_BYTES`` (all of them at once for short runs).  Any other
    state, a product state under V too, evolves on its ``joint`` grid and is
    recorded at each record.  Either array is stepped in place.

    A factored state for which ``_propagator_pays`` advances in parity
    coordinates (``_to_parity``): the basis rows are stepped once, and each
    whole sample stride is one product per block, of n/2 + 1 even and
    n/2 - 1 odd coordinates, with that block of U raised to the stride.
    Steps after the last whole stride take the split step.  The products
    skip the loop's per-step call overhead but cost O(n^2) each, and the
    powers O(n^3 log(stride)), so the loop stays on large grids (512 and up
    at 1,000 steps) and for runs shorter than a stride.

    Raises :class:`IntegratorError` at the first record whose joint norm
    drifts by more than ``MAX_NORM_DRIFT`` (the joint evolution is exactly
    unitary; drift beyond roundoff signals a broken configuration).
    """
    factored = len(state.psi) == 2 and p.v_depth == 0.0
    half_v, kin = _phases(p, factored)
    psi = (state.psi if factored else state.joint()).astype(complex)
    # 1D transforms of each factor row, or the 2D transform of the grid
    # (fftn, since ifft2 ignores its out argument)
    fft, ifft = (np.fft.fft, np.fft.ifft) if factored else (np.fft.fftn, np.fft.ifftn)
    x = grid_points(p)
    dx = grid_dx(p)
    norm0 = erase_scale = None
    traj = Trajectory()

    def split_step(a: np.ndarray):
        a *= half_v
        fft(a, out=a)
        a *= kin
        ifft(a, out=a)
        a *= half_v

    def record(step_idx: int, n: float, raw: np.ndarray, mean: float):
        nonlocal norm0, erase_scale
        t = state.t + step_idx * p.dt
        raw_norm = math.sqrt(float(np.sum(np.abs(raw) ** 2)) * dx)
        if erase_scale is None:
            if raw_norm == 0.0:
                raise ZeroStateError("erased wavefunction vanishes at t = 0")
            norm0, erase_scale = n, 1.0 / raw_norm
        traj.times.append(t)
        traj.joint_norms.append(n)
        traj.erased_norms.append(raw_norm * erase_scale)
        traj.com_means.append(mean)
        if not abs(n - norm0) <= MAX_NORM_DRIFT:  # a NaN norm fails too
            raise IntegratorError(
                f"joint norm drifted by {abs(n - norm0):.3e} at t = {t:.4f}"
            )

    # the step index of each record
    marks = [0] + [min(s + p.sample_stride, p.steps) for s in range(0, p.steps, p.sample_stride)]
    if not factored:
        for s, until in zip([0] + marks, marks):
            for _ in range(s, until):
                split_step(psi)
            record(until, *_grid_measures(psi, x, dx))
        traj.final = TwoFieldState(psi, p, state.t + p.steps * p.dt)
        return traj
    parity = _propagator_pays(p)
    if parity:
        # from here on psi holds the parity coordinates of the factors
        blocks = _parity_powers(p, split_step)
        psi = _to_parity(psi)
        spare = np.empty_like(psi)
    snaps = np.empty((max(1, min(len(marks), SNAPSHOT_BYTES // psi.nbytes)),) + psi.shape,
                     dtype=complex)
    taken: List[int] = []  # the step index of each snapshot held in snaps
    for s, until in zip([0] + marks, marks):
        if parity and until - s == p.sample_stride:
            for cols, power in blocks:
                np.matmul(psi[:, cols], power, out=spare[:, cols])
            psi, spare = spare, psi
        elif until > s:
            psi = _to_grid(psi) if parity else psi
            for _ in range(s, until):
                split_step(psi)
            psi = _to_parity(psi) if parity else psi
        snaps[len(taken)] = psi
        taken.append(until)
        if len(taken) == len(snaps) or until == p.steps:
            batch = _to_grid(snaps[:len(taken)]) if parity else snaps[:len(taken)]
            for step_idx, measures in zip(taken, _factor_measures(batch, x, dx)):
                record(step_idx, *measures)
            taken.clear()
    psi = _to_grid(psi) if parity else psi
    traj.final = TwoFieldState(psi, p, state.t + p.steps * p.dt)
    return traj


def _erase_raw(psi: np.ndarray, dx: float) -> np.ndarray:
    """phi(c_m) = sum_j Psi[j, (2m - j) mod n] dx, the sum over the m-th anti-diagonal."""
    n = psi.shape[0]
    j = np.arange(n)
    return psi[j, (2 * j[:, None] - j) % n].sum(axis=1) * dx


# -- ket erasure on the finite nested model ----------------------------------------


@dataclass(frozen=True)
class NestedVector:
    """Formal combination at level >= 2 over lower-level payloads.

    Level-2 terms hold plain vectors; level-(k+1) terms hold level-k
    combinations.  This is the smallest structure on which erasing kets and
    extending linearly is faithful.
    """

    level: int
    terms: Tuple[Tuple[complex, object], ...]

    def __post_init__(self):
        if self.level < 2:
            raise StructureError("nested vectors start at level 2")
        for _, payload in self.terms:
            if self.level == 2:
                if not isinstance(payload, np.ndarray):
                    raise StructureError("level-2 kets must hold vectors")
            else:
                if not isinstance(payload, NestedVector) or payload.level != self.level - 1:
                    raise StructureError("nested levels must decrease by one")


def alpha_erase(v: NestedVector, n: int) -> Union[np.ndarray, NestedVector]:
    """Erase kets and extend linearly, conjugating amplitudes when n is odd.

    ``n`` names the erasure map.  The result is a plain vector from level 2
    or the merged combination one level down otherwise.
    """

    def tilde(a: complex) -> complex:
        return np.conj(a) if n % 2 == 1 else a

    if v.level == 2:
        out = None
        for a, vec in v.terms:
            contrib = tilde(a) * vec
            out = contrib if out is None else out + contrib
        if out is None:
            raise ZeroStateError("erasing an empty combination")
        return out
    merged: List[Tuple[complex, object]] = []
    for a, sub in v.terms:
        for b, payload in sub.terms:
            merged.append((tilde(a) * b, payload))
    return NestedVector(v.level - 1, tuple(merged))


def frame_vectors(frame: np.ndarray) -> List[NestedVector]:
    """Level-2 vectors 2psi_i = sum_j frame[i, j] |e_j>."""
    r, m = frame.shape
    basis = [np.eye(m, dtype=complex)[j] for j in range(m)]
    return [
        NestedVector(2, tuple((complex(frame[i, j]), basis[j]) for j in range(m)))
        for i in range(r)
    ]


def eval_embed(frame: np.ndarray, component: int) -> NestedVector:
    """The evaluation embedding of basis vector e_component at level 3.

    The level-3 combination weights each frame vector by the conjugated
    coefficient it assigns to the component, so that erasing twice returns
    sum_i b_i0 conj(b_ij) e_j.
    """
    vecs = frame_vectors(frame)
    terms = tuple(
        (complex(np.conj(frame[i, component])), vecs[i]) for i in range(frame.shape[0])
    )
    return NestedVector(3, terms)


def erase_twice(frame: np.ndarray, component: int = 0) -> np.ndarray:
    """alpha_1 after alpha_2 after the evaluation embedding of e_component.

    For an orthonormal frame the result is c * e_component with
    c = sum_i |b_{i, component}|^2 and vanishing cross terms.
    """
    v3 = eval_embed(frame, component)
    v2 = alpha_erase(v3, n=2)
    return alpha_erase(v2, n=1)
