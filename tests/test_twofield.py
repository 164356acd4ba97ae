"""Two-particle molecule evolution and ket-erasure maps."""

import gc
import math

import numpy as np
import pytest

from formalchain import twofield
from formalchain.errors import IntegratorError, StructureError, ZeroStateError
from formalchain.twofield import (
    MAX_NORM_DRIFT,
    NestedVector,
    Trajectory,
    TwoFieldParams,
    TwoFieldState,
    _erase_raw,
    _factor_measures,
    _grid_measures,
    _phases,
    _propagator_pays,
    _to_grid,
    _to_parity,
    alpha_erase,
    erase_twice,
    eval_embed,
    evolve,
    gaussian_packet,
    grid_dx,
    grid_points,
    product_state,
)
from support import fidelity, max_erased_drift, max_joint_drift, random_unitary

TWO_PI = 2 * math.pi


def small_params(**kw):
    base = dict(grid_n=64, dt=2e-3, steps=500, sample_stride=100)
    base.update(kw)
    return TwoFieldParams(**base)


def test_zero_steps_identity():
    p = small_params(steps=0)
    psi = gaussian_packet(p, 0.5)
    st = product_state(p, psi, gaussian_packet(p, -0.5))
    traj = evolve(st, p)
    assert np.allclose(traj.final.joint(), st.joint())
    assert np.array_equal(traj.final.psi, st.psi)


def test_state_is_one_array(monkeypatch):
    # a product state is its two factor rows; the grid is formed on request
    p = TwoFieldParams(grid_n=128, steps=1000, dt=1e-3, sample_stride=50)
    n = p.grid_n
    outers = []
    outer = np.outer

    def counting_outer(*args, **kw):
        outers.append(1)
        return outer(*args, **kw)

    monkeypatch.setattr(np, "outer", counting_outer)
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, -0.5))
    traj = evolve(st, p)
    assert st.psi.shape == traj.final.psi.shape == (2, n)
    assert outers == []
    monkeypatch.undo()
    assert np.array_equal(traj.final.joint(), np.outer(*traj.final.psi))
    grid = TwoFieldState(st.joint(), p)
    assert grid.joint() is grid.psi
    for shape in ((n,), (3, n), (2, n // 2), (n, 2), (n, n // 2), (2, n, n)):
        with pytest.raises(StructureError, match="got shape"):
            TwoFieldState(np.zeros(shape, complex), p)


@pytest.mark.parametrize("lam, steps", [
    pytest.param(0.0, 300, id="0.0"),
    pytest.param(0.5, 300, id="0.5"),
    # the last record falls between strides
    pytest.param(0.5, 310, id="0.5-steps310"),
    # not a multiple of the stride
    pytest.param(0.5, 1003, id="0.5-steps1003"),
])
def test_factored_evolution_matches_2d(lam, steps):
    # unequal factors: the records are symmetric under x1 <-> x2, so only the
    # final wavefunction tells swapped factors apart
    p = small_params(lam=lam, steps=steps, sample_stride=50)
    a, b = gaussian_packet(p, 1.0), gaussian_packet(p, -0.5)
    factored = evolve(product_state(p, a, b), p)
    grid = evolve(TwoFieldState(np.outer(a, b), p), p)
    assert factored.final.psi.shape == (2, p.grid_n) and grid.final.psi.shape == (p.grid_n,) * 2
    assert factored.times == grid.times
    assert len(grid.times) == steps // 50 + 1 + (steps % 50 > 0)
    for name in ("joint_norms", "erased_norms", "com_means"):
        assert np.allclose(getattr(factored, name), getattr(grid, name), rtol=0, atol=1e-12), name
    assert np.allclose(factored.final.joint(), grid.final.psi, rtol=0, atol=1e-12)


def reference_evolve(state, p):
    """The split-step loop without the propagator: every step through the FFTs."""
    factored = len(state.psi) == 2 and p.v_depth == 0.0
    half_v, kin = _phases(p, factored)
    psi = (state.psi if factored else state.joint()).astype(complex)
    # 1D transforms of each factor row, or the 2D transform of the grid
    # (fftn, since ifft2 ignores its out argument)
    fft, ifft = (np.fft.fft, np.fft.ifft) if factored else (np.fft.fftn, np.fft.ifftn)
    # one record at a time: a factored one as a stack of one snapshot
    if factored:
        def measures(f, x, dx):
            return _factor_measures(f[None], x, dx)[0]
    else:
        measures = _grid_measures
    x = grid_points(p)
    dx = grid_dx(p)
    norm0 = erase_scale = None
    traj = Trajectory()

    def record(step_idx: int):
        nonlocal norm0, erase_scale
        t = state.t + step_idx * p.dt
        n, raw, mean = measures(psi, x, dx)
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

    record(0)
    for s in range(1, p.steps + 1):
        psi *= half_v
        fft(psi, out=psi)
        psi *= kin
        ifft(psi, out=psi)
        psi *= half_v
        if s % p.sample_stride == 0 or s == p.steps:
            record(s)
    traj.final = TwoFieldState(psi, p, state.t + p.steps * p.dt)
    return traj


@pytest.mark.parametrize("grid, steps, stride, prop", [
    # the rule keeps the loop: building P costs more than the loop steps it
    # replaces on grid 512, at strides 1 and 4 on grid 256 and for few strides
    (512, 1000, 50, False),
    (256, 1000, 4, False),
    (256, 310, 1, False),
    (256, 100, 50, False),
    (256, 310, 20, False),
    # no whole stride to advance
    (64, 30, 50, False),
    # one product per whole stride; where the steps are no multiple of the
    # stride, the last ones take the split step and the last record falls
    # between strides
    (16, 310, 1, True),
    (16, 1003, 7, True),
    (16, 310, 20, True),
    (16, 1003, 20, True),
    (32, 310, 13, True),
    (32, 310, 20, True),
    (32, 1003, 50, True),
    (64, 1003, 1, True),
    (64, 1000, 7, True),
    (64, 310, 13, True),
    (64, 1003, 20, True),
    (128, 310, 1, True),
    (128, 1003, 7, True),
    (128, 1003, 13, True),
    (128, 310, 20, True),
    (128, 1003, 50, True),
    (256, 1003, 7, True),
    (256, 1003, 13, True),
    (256, 1003, 20, True),
    (256, 1003, 50, True),
])
def test_evolve_matches_reference_loop(grid, steps, stride, prop):
    p = TwoFieldParams(lam=0.5, grid_n=grid, dt=1e-3, steps=steps, sample_stride=stride)
    assert_matches_reference_loop(p, prop)


@pytest.mark.parametrize("grid, steps, stride, prop", [
    (256, 310, 20, False),
    (64, 30, 50, False),
    (16, 1003, 7, True),
    (32, 310, 1, True),
    (64, 1003, 13, True),
    (128, 1003, 50, True),
    (256, 1003, 20, True),
])
def test_evolve_matches_reference_loop_off_symmetric_grid(grid, steps, stride, prop):
    # at grid_l 7.3 the grid points -x_j and x_{n-j} differ in floating
    # point, so the phases are even only up to roundoff and the parity blocks
    # of U leave a roundoff-sized coupling out
    p = TwoFieldParams(lam=0.5, grid_n=grid, grid_l=7.3, dt=1e-3, steps=steps,
                       sample_stride=stride)
    x = grid_points(p)
    assert not np.array_equal(x[1:grid // 2], -x[:grid // 2:-1])
    assert_matches_reference_loop(p, prop)


def assert_matches_reference_loop(p, prop):
    """Bit-equal records and factors on the loop, within 1e-12 on the propagator."""
    grid = p.grid_n
    assert _propagator_pays(p) is prop
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, -0.5))
    got, ref = evolve(st, p), reference_evolve(st, p)
    assert got.times == ref.times
    names = ("joint_norms", "erased_norms", "com_means")
    if not prop:
        for name in names:
            assert getattr(got, name) == getattr(ref, name), name
        assert np.array_equal(got.final.psi, ref.final.psi)
    else:
        for name in names:
            assert np.allclose(getattr(got, name), getattr(ref, name), rtol=0, atol=1e-12), name
        assert np.allclose(got.final.psi, ref.final.psi, rtol=0, atol=1e-12)
    # the 2D path takes every split step, so it stays bit-equal
    if grid <= 64:
        grid_st = TwoFieldState(st.joint(), p)
        got, ref = evolve(grid_st, p), reference_evolve(grid_st, p)
        for name in ("times",) + names:
            assert getattr(got, name) == getattr(ref, name), name
        assert np.array_equal(got.final.psi, ref.final.psi)


def test_uncoupled_evolve_fft_calls(monkeypatch):
    # one FFT pair steps the parity basis into U and one batched pair makes
    # all 21 records; the loop made one per step besides
    calls = []
    fft = np.fft.fft

    def counting_fft(*args, **kw):
        calls.append(1)
        return fft(*args, **kw)

    p = TwoFieldParams(grid_n=128, steps=1000, dt=1e-3, sample_stride=50)
    assert _propagator_pays(p)
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, 1.0))
    monkeypatch.setattr(np.fft, "fft", counting_fft)
    traj = evolve(st, p)
    assert len(traj.times) == 21
    assert len(calls) == 2


def test_uncoupled_evolve_powers_parity_blocks(monkeypatch):
    # U^stride is built for the even and the odd block of U, never for U
    shapes = []

    def recording_power(u, e):
        shapes.append((u.shape, e))
        return power(u, e)

    power = twofield._power
    monkeypatch.setattr(twofield, "_power", recording_power)
    p = TwoFieldParams(grid_n=128, steps=1000, dt=1e-3, sample_stride=50)
    traj = evolve(product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, 1.0)), p)
    assert len(traj.times) == 21
    assert sorted(shapes) == [((63, 63), 50), ((65, 65), 50)]


def test_parity_coordinates_round_trip():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(3, 2, 16)) + 1j * rng.normal(size=(3, 2, 16))
    c = _to_parity(f)
    # even part at grid points 0..8, odd part at 1..7
    assert np.array_equal(c[..., :9], (f[..., :9] + f[..., (-np.arange(9)) % 16]) / 2)
    assert np.array_equal(c[..., 9:], (f[..., 1:8] - f[..., 15:8:-1]) / 2)
    assert np.allclose(_to_grid(c), f, rtol=0, atol=1e-14)
    # the parity of a reflected state: even coordinates stay, odd ones flip
    assert np.array_equal(_to_parity(f[..., (-np.arange(16)) % 16]),
                          np.concatenate([c[..., :9], -c[..., 9:]], axis=-1))


@pytest.mark.parametrize("grid, steps, stride", [(64, 1003, 20), (512, 310, 20), (16, 1003, 1)])
def test_snapshot_batches_do_not_change_records(monkeypatch, grid, steps, stride):
    # a budget of 3 snapshots measures the records 3 at a time; each record
    # is computed alone, so the trajectory is the same bit for bit
    p = TwoFieldParams(lam=0.5, grid_n=grid, dt=1e-3, steps=steps, sample_stride=stride)
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, -0.5))
    whole = evolve(st, p)
    monkeypatch.setattr(twofield, "SNAPSHOT_BYTES", 3 * 2 * grid * 16)
    batched = evolve(st, p)
    for name in ("times", "joint_norms", "erased_norms", "com_means"):
        assert getattr(batched, name) == getattr(whole, name), name
    assert np.array_equal(batched.final.psi, whole.final.psi)


def test_evolve_leaves_no_garbage():
    # the run's arrays go with its last reference, without the cyclic collector
    p = TwoFieldParams(grid_n=128, steps=1000, dt=1e-3, sample_stride=50)
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, 1.0))
    for v_depth in (0.0, 0.3):
        q = TwoFieldParams(grid_n=64, steps=100, dt=1e-3, sample_stride=50, v_depth=v_depth)
        gc.collect()
        gc.disable()
        try:
            evolve(st, p)
            evolve(product_state(q, gaussian_packet(q, 1.0), gaussian_packet(q, 1.0)), q)
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("grid, steps, stride", [(16, 8, 4), (16, 2, 4), (16, 2, 1), (512, 8, 4)])
def test_evolve_errors_match_reference_loop(grid, steps, stride):
    # an overflowing potential makes every norm after t = 0 NaN: the first
    # record after it fails, with the loop's message
    p = TwoFieldParams(lam=1e308, dt=1e10, grid_n=grid, steps=steps, sample_stride=stride)
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, 1.0))
    with np.errstate(all="ignore"):
        with pytest.raises(IntegratorError) as got:
            evolve(st, p)
        with pytest.raises(IntegratorError) as ref:
            reference_evolve(st, p)
    assert str(got.value) == str(ref.value)
    assert str(got.value).endswith(f"at t = {min(stride, steps) * 1e10:.4f}")
    # a zero state fails at t = 0, on the propagator path too
    p = TwoFieldParams(grid_n=grid, steps=1000, dt=1e-3, sample_stride=50)
    zero = np.zeros(grid, complex)
    with np.errstate(invalid="ignore"), pytest.raises(ZeroStateError,
                                                    match="erased wavefunction vanishes at t = 0"):
        evolve(product_state(p, zero, zero), p)


def reference_erase_raw(psi, dx):
    """The anti-diagonal sums as one loop over m."""
    n = psi.shape[0]
    j = np.arange(n)
    out = np.empty(n, dtype=complex)
    for m in range(n):
        out[m] = psi[j, (2 * m - j) % n].sum() * dx
    return out


def reference_com_density(psi, dx):
    n = psi.shape[0]
    j = np.arange(n)
    dens = np.empty(n)
    for m in range(n):
        dens[m] = float(np.sum(np.abs(psi[j, (2 * m - j) % n]) ** 2)) * dx
    total = dens.sum() * dx
    return dens / total if total > 0 else dens


@pytest.mark.parametrize("n", [16, 64, 128, 256])
def test_anti_diagonal_sums_match_loops(n):
    rng = np.random.default_rng(n)
    psi = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dx = 16.0 / n
    assert np.array_equal(_erase_raw(psi, dx), reference_erase_raw(psi, dx))
    # a product state's records from its factors: the convolution erase, the
    # norm and the marginal mean; unequal, non-symmetric factors, so a wrong
    # 2m mod n index or a swapped factor fails
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) * np.exp(0.3j * np.arange(n)) + 0.5
    x = -8.0 + dx * np.arange(n)
    (norm_f, raw_f, mean_f), = _factor_measures(np.array([[a, b]]), x, dx)
    norm_g, raw_g, mean_g = _grid_measures(np.outer(a, b), x, dx)
    ref = reference_erase_raw(np.outer(a, b), dx)
    assert np.allclose(raw_f, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    assert np.array_equal(raw_g, ref)
    assert norm_f == pytest.approx(norm_g, rel=1e-13)
    assert mean_f == pytest.approx(mean_g, rel=1e-12, abs=1e-13)


def test_joint_norm_conserved():
    p = small_params(lam=0.7, v_depth=0.3)
    st = product_state(p, gaussian_packet(p, 1.0), gaussian_packet(p, -0.5))
    traj = evolve(st, p)
    assert max_joint_drift(traj) < 1e-10 * (p.steps * p.dt + 1)


def test_sho_coherent_state_returns():
    p = TwoFieldParams(grid_n=128, dt=1e-3, steps=int(round(TWO_PI / 1e-3)),
                       sample_stride=500)
    psi = gaussian_packet(p, center=1.0)
    st = product_state(p, psi, psi)
    traj = evolve(st, p)
    assert fidelity(st, traj.final) > 1 - 1e-6


def test_com_oscillates_with_period_two_pi():
    p = TwoFieldParams(grid_n=128, dt=2e-3, steps=int(round(math.pi / 2e-3)),
                       sample_stride=100)
    psi = gaussian_packet(p, center=1.0)
    traj = evolve(product_state(p, psi, psi), p)
    assert traj.com_means[0] == pytest.approx(1.0, abs=1e-6)
    # after half a period the center sits at -1
    assert traj.com_means[-1] == pytest.approx(-1.0, abs=1e-3)


def test_erased_wavefunction_is_midpoint_gaussian():
    # identical Gaussians at a and b: the convolution is a Gaussian at a+b,
    # i.e. the center-of-mass wavefunction peaks at the midpoint; the erased
    # function repeats with period L on the torus, so compare on the central
    # half-window where the physical copy lives
    p = small_params()
    a, b = -0.8, 1.4
    st = product_state(p, gaussian_packet(p, a), gaussian_packet(p, b))
    raw = _erase_raw(st.joint(), grid_dx(p))
    phi = raw / math.sqrt(float(np.sum(np.abs(raw) ** 2)) * grid_dx(p))
    x = grid_points(p)
    window = np.abs(x) < p.grid_l / 2
    phi_w = phi[window]
    phi_w = phi_w / math.sqrt(float(np.sum(np.abs(phi_w) ** 2) * grid_dx(p)))
    xw = x[window]
    peak = xw[int(np.argmax(np.abs(phi_w)))]
    assert peak == pytest.approx((a + b) / 2, abs=2 * grid_dx(p))
    # oracle: convolving two unit-width Gaussians in x1, sampled at 2c, gives
    # a Gaussian of width sqrt(1/2) in c at the midpoint
    width2 = 0.5
    oracle = np.exp(-((xw - (a + b) / 2) ** 2) / (2 * width2)).astype(complex)
    oracle /= math.sqrt(float(np.sum(np.abs(oracle) ** 2) * grid_dx(p)))
    overlap = abs(complex(np.vdot(oracle, phi_w)) * grid_dx(p))
    assert overlap > 1 - 1e-6


def test_lambda_zero_erased_norm_constant():
    p = small_params(lam=0.0, steps=1500)
    psi = gaussian_packet(p, 1.0)
    traj = evolve(product_state(p, psi, psi), p)
    assert max_erased_drift(traj) < 1e-6


def test_lambda_couples_levels():
    p0 = small_params(lam=0.0, steps=1000)
    p5 = small_params(lam=0.5, steps=1000)
    psi0 = gaussian_packet(p0, 1.0)
    psi5 = gaussian_packet(p5, 1.0)
    d0 = max_erased_drift(evolve(product_state(p0, psi0, psi0), p0))
    d5 = max_erased_drift(evolve(product_state(p5, psi5, psi5), p5))
    assert d5 > 10 * d0


def test_com_reduced_density_independent_of_v():
    # lambda = 0: the center-of-mass density must not feel V(x1 - x2)
    outs = []
    for depth in (0.0, 0.8):
        p = small_params(lam=0.0, v_depth=depth, steps=800)
        psi = gaussian_packet(p, 1.0)
        traj = evolve(product_state(p, psi, psi), p)
        outs.append(reference_com_density(traj.final.joint(), grid_dx(p)))
    dx = 2 * 8.0 / 64
    trace_distance = 0.5 * float(np.sum(np.abs(outs[0] - outs[1]))) * dx
    assert trace_distance < 1e-6


def test_grid_refinement_consistency():
    drifts = []
    for n, dt in ((64, 2e-3), (128, 1e-3)):
        steps = int(round(2.0 / dt))
        p = TwoFieldParams(lam=0.5, grid_n=n, dt=dt, steps=steps, sample_stride=50)
        psi = gaussian_packet(p, 1.0)
        drifts.append(max_erased_drift(evolve(product_state(p, psi, psi), p)))
    assert abs(drifts[1] - drifts[0]) / drifts[1] < 0.10


def test_params_validation():
    with pytest.raises(StructureError):
        TwoFieldParams(grid_n=100)
    with pytest.raises(StructureError):
        TwoFieldParams(grid_n=8)
    with pytest.raises(StructureError):
        TwoFieldParams(dt=-1.0)
    for name in ("lam", "v_depth", "v_width", "dt", "grid_l"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(StructureError, match=f"{name} must be finite"):
                TwoFieldParams(**{name: bad})
    for bad in (0.0, -0.0, -8.0):
        with pytest.raises(StructureError, match="grid_l must be positive"):
            TwoFieldParams(grid_l=bad)
    for name, bad in (("grid_n", 128.0), ("grid_n", True), ("steps", 10.5), ("steps", True),
                      ("sample_stride", 2.5), ("sample_stride", True), ("steps", "10")):
        with pytest.raises(StructureError, match=f"{name} must be an integer"):
            TwoFieldParams(**{name: bad})


# -- nested erasure ------------------------------------------------------------------


def test_alpha_even_level_passes_amplitude():
    vec = np.array([1.0, 0.0], complex)
    v = NestedVector(2, ((0.5 + 0.5j, vec),))
    out = alpha_erase(v, n=2)
    assert np.allclose(out, (0.5 + 0.5j) * vec)


def test_alpha_odd_level_conjugates():
    vec = np.array([0.0, 1.0], complex)
    v = NestedVector(2, ((1j, vec),))
    out = alpha_erase(v, n=1)
    assert np.allclose(out, -1j * vec)


def test_alpha_level3_with_odd_index_conjugates():
    vec = np.array([1.0, 0.0], complex)
    lvl2 = NestedVector(2, ((1.0 + 0j, vec),))
    v3 = NestedVector(3, ((1j, lvl2),))
    # the erasure map indexed by an odd n conjugates the outer amplitudes
    out = alpha_erase(v3, n=3)
    assert isinstance(out, NestedVector) and out.level == 2
    assert out.terms[0][0] == -1j
    # the paper-proof composite uses the even map at this level: no conjugation
    out_even = alpha_erase(v3, n=2)
    assert out_even.terms[0][0] == 1j


def test_alpha_is_linear():
    rng = np.random.default_rng(2)
    vecs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
    a, b = 0.3 - 0.7j, -1.1 + 0.2j
    v = NestedVector(2, ((a, vecs[0]),))
    w = NestedVector(2, ((b, vecs[1]),))
    combined = NestedVector(2, ((a, vecs[0]), (b, vecs[1])))
    for n in (1, 2):
        tilde = np.conj if n % 2 else (lambda z: z)
        lhs = alpha_erase(combined, n=n)
        rhs = alpha_erase(v, n=n) + alpha_erase(w, n=n)
        assert np.allclose(lhs, rhs)


def test_erase_twice_identity_on_unitary_frames():
    for m in (2, 4, 8):
        frame = random_unitary(m, seed=100 + m)
        out = erase_twice(frame, component=0)
        c = float(np.sum(np.abs(frame[:, 0]) ** 2))
        basis = np.zeros(m, complex)
        basis[0] = 1.0
        off = np.linalg.norm(out - out[0] * basis)
        assert off < 1e-10
        assert abs(out[0] - c) < 1e-10


def test_erase_twice_other_components():
    frame = random_unitary(5, seed=9)
    for j in range(5):
        out = erase_twice(frame, component=j)
        c = float(np.sum(np.abs(frame[:, j]) ** 2))
        assert abs(out[j] - c) < 1e-10
        out[j] = 0.0
        assert np.linalg.norm(out) < 1e-10


def test_nested_structure_validation():
    with pytest.raises(StructureError):
        NestedVector(1, ())
    with pytest.raises(StructureError):
        NestedVector(2, ((1.0, "not a vector"),))
    vec = np.zeros(2, complex)
    lvl2 = NestedVector(2, ((1.0, vec),))
    with pytest.raises(StructureError):
        NestedVector(4, ((1.0, lvl2),))
