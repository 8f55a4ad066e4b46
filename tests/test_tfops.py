import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfcert import (FunctionEvaluator, GridSpec, InputError, NumericalRefusal,
                    PointSet, WindowParams, check_theorem1, check_theorem2,
                    check_theorem3, chirp_mul, default_collocation_points, dilate,
                    fourier, gram_matrix, inner_product, l2_norm, make_edgar_rosenblatt,
                    make_example1, make_example2, make_gaussian, make_singular_cos,
                    metaplectic_residual, modulate, realize_window, search, stft,
                    stft_grid, stft_identity_residual, stft_points, tf_shift, translate)
from tfcert import tfops
from tfcert.tfops import _phase_rows, inverse_fourier_multiplier, quadrature_points

PI = math.pi


def plain_gaussian():
    """g(t) = e^{-pi t^2}, no normalization (the operator examples use this)."""
    return FunctionEvaluator(dim=1, fn=lambda t: np.exp(-PI * t * t).astype(complex))


def sample_grid():
    return np.linspace(-5, 5, 101)


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

def test_translate_zero_is_identity():
    g = plain_gaussian()
    tg = translate(g, 0.0)
    ts = sample_grid()
    assert np.array_equal(tg(ts), g(ts))


def test_translate_example1_peak_moves():
    f = make_example1(2.0, 0.0)
    assert translate(f, 3.0)(3.0) == pytest.approx(2.0)


def test_translate_gaussian_values():
    g = plain_gaussian()
    tg = translate(g, 1.0)
    assert tg(1.0) == pytest.approx(1.0)
    assert tg(0.0) == pytest.approx(math.exp(-PI))


def test_translate_shifts_singularities_and_envelope_center():
    from tfcert import make_singular_cos
    f = make_singular_cos(1.0)
    tf = translate(f, 2.0)
    assert tf.singularities[0][0] == pytest.approx(2.0)
    assert tf.envelope is f.envelope
    assert tf.envelope_center[0] == 2.0


def test_translate_dimension_mismatch():
    g = plain_gaussian()
    with pytest.raises(InputError):
        translate(g, [1.0, 2.0])


# ---------------------------------------------------------------------------
# modulate
# ---------------------------------------------------------------------------

def test_modulate_zero_is_identity():
    g = plain_gaussian()
    ts = sample_grid()
    assert np.array_equal(modulate(g, 0.0)(ts), g(ts))


def test_modulate_preserves_magnitude():
    g = plain_gaussian()
    rng = np.random.default_rng(3)
    ts = rng.uniform(-4, 4, 50)
    for omega in (0.5, 1.7, -2.3):
        np.testing.assert_allclose(np.abs(modulate(g, omega)(ts)), np.abs(g(ts)),
                                   rtol=0, atol=1e-15)


def test_modulate_half_integer_phase():
    g = plain_gaussian()
    got = modulate(g, 1.0)(0.5)
    assert got == pytest.approx(-math.exp(-PI / 4))


def test_modulate_dimension_mismatch():
    with pytest.raises(InputError):
        modulate(plain_gaussian(), [1.0, 0.0])


# ---------------------------------------------------------------------------
# tf_shift
# ---------------------------------------------------------------------------

def test_tf_shift_zero_is_identity():
    g = plain_gaussian()
    ts = sample_grid()
    assert np.array_equal(tf_shift(g, (0.0, 0.0))(ts), g(ts))


def test_tf_shift_unit_point():
    g = plain_gaussian()
    got = tf_shift(g, (1.0, 1.0))(1.0)
    assert got == pytest.approx(1.0)  # e^{2 pi i} g(0)


def test_tf_shift_order_is_modulation_after_translation():
    # pi(lambda) f (t) = e^{2 pi i omega t} f(t - x), exact arithmetic identity
    g = plain_gaussian()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, omega, t = rng.uniform(-3, 3, 3)
        lhs = tf_shift(g, (x, omega))(t)
        rhs = np.exp(2j * PI * omega * t) * g(t - x)
        assert lhs == rhs


def test_tf_shift_preserves_l2_norm():
    g = make_gaussian(1)
    base = l2_norm(g)
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam = (rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
        assert l2_norm(tf_shift(g, lam)) == pytest.approx(base, rel=1e-8)


# ---------------------------------------------------------------------------
# dilate
# ---------------------------------------------------------------------------

def test_dilate_one_is_identity():
    g = plain_gaussian()
    ts = sample_grid()
    assert np.array_equal(dilate(g, 1.0)(ts), g(ts))


def test_dilate_preserves_l2_norm():
    g = make_gaussian(1)
    base = l2_norm(g)
    for r in (0.5, 2.0):
        assert l2_norm(dilate(g, r)) == pytest.approx(base, rel=1e-8)


def test_dilate_value():
    g = plain_gaussian()
    assert dilate(g, 2.0)(1.0) == pytest.approx(math.sqrt(2) * math.exp(-4 * PI))


def test_dilate_envelope_transform():
    g = make_gaussian(1)
    d = dilate(g, 2.0)
    # env'(rho) = |r|^{1/2} env(|r| rho)
    assert d.envelope(0.5) == pytest.approx(math.sqrt(2) * g.envelope(1.0))


def test_exact_operators_carry_the_envelope_center():
    # |f(t)| <= env(|t - c|) must hold for the centre c each operator reports.
    f = translate(make_example1(8.0, 0.0), 2.0)
    ts = np.linspace(-20.0, 20.0, 4001)
    for r in (4.0, -0.5):
        d = dilate(f, r)
        assert d.envelope_center[0] == 2.0 / r
        env = np.array([d.envelope(rho) for rho in np.abs(ts - d.envelope_center[0])])
        assert np.all(np.abs(d(ts)) <= env * (1.0 + 1e-12))
    assert modulate(f, 1.5).envelope_center[0] == 2.0
    assert chirp_mul(f, 0.3).envelope_center[0] == 2.0
    assert f.with_envelope(lambda rho: 8.0).envelope_center[0] == 2.0


def test_dilate_zero_rejected():
    with pytest.raises(InputError):
        dilate(plain_gaussian(), 0.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_dilate_nonfinite_rejected(r):
    with pytest.raises(InputError, match="finite"):
        dilate(plain_gaussian(), r)


# ---------------------------------------------------------------------------
# chirp_mul
# ---------------------------------------------------------------------------

def test_chirp_zero_is_identity():
    g = plain_gaussian()
    ts = sample_grid()
    assert np.array_equal(chirp_mul(g, 0.0)(ts), g(ts))


def test_chirp_preserves_magnitude():
    g = plain_gaussian()
    ts = sample_grid()
    np.testing.assert_allclose(np.abs(chirp_mul(g, 0.7)(ts)), np.abs(g(ts)),
                               rtol=0, atol=1e-15)


def test_chirp_value():
    g = plain_gaussian()
    assert chirp_mul(g, 0.5)(1.0) == pytest.approx(-math.exp(-PI))


def test_chirp_requires_dim1():
    with pytest.raises(InputError):
        chirp_mul(make_gaussian(2), 1.0)


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

def test_fourier_gaussian_self_dual():
    g = plain_gaussian()
    fh = fourier(g, GridSpec(6.0, 4096))
    for omega in (0.0, 0.5, 1.0):
        assert abs(fh(omega) - math.exp(-PI * omega * omega)) < 1e-6


def test_fourier_translation_exchange():
    # FT of T_x f is M_{-x} fhat
    g = plain_gaussian()
    grid = GridSpec(6.0, 4096)
    fh = fourier(g, grid)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, omega = rng.uniform(-2, 2, 2)
        lhs = fourier(translate(g, x), grid)(omega)
        rhs = np.exp(-2j * PI * omega * x) * fh(omega)
        assert abs(lhs - rhs) < 1e-6


def test_fourier_modulation_exchange():
    # FT of M_eta f is T_eta fhat
    g = plain_gaussian()
    grid = GridSpec(6.0, 4096)
    fh = fourier(g, grid)
    rng = np.random.default_rng(4)
    for _ in range(10):
        eta, omega = rng.uniform(-2, 2, 2)
        lhs = fourier(modulate(g, eta), grid)(omega)
        rhs = fh(omega - eta)
        assert abs(lhs - rhs) < 1e-6


def test_fourier_matches_independent_high_resolution_quadrature():
    # independent oracle: plain trapezoid on a wider, denser grid
    g = plain_gaussian()
    fh = fourier(g, GridSpec(6.0, 4096))
    t = np.linspace(-10.0, 10.0, 16385)
    w = np.full(t.size, t[1] - t[0])
    w[0] = w[-1] = 0.5 * (t[1] - t[0])
    for omega in (0.25, 0.75, 1.5):
        oracle = np.sum(w * g(t) * np.exp(-2j * PI * omega * t))
        assert abs(fh(omega) - oracle) < 1e-10


def dense_sum(targets, nodes, weights, sign):
    """The dense phase-sum kernel, the chirp-z path's reference: each block of
    phase rows summed by one matrix-vector product, with a zero row below it
    so that a lone row takes the same BLAS kernel; 1-D targets may be a plain
    array."""
    rows = _phase_rows(np.reshape(targets, (-1, nodes.shape[1])), nodes, sign)
    return np.concatenate([(np.concatenate([block, 0 * block[:1]]) @ weights)[:-1]
                           for block in rows])


def quadrature(f, grid):
    nodes, w = quadrature_points(grid, 1, f.singularities)
    return nodes, f(nodes) * w


FAST_PATH_FUNCTIONS = {"gaussian": make_gaussian(1), "example1": make_example1(8.0, 5.0)}


@pytest.mark.parametrize("name", sorted(FAST_PATH_FUNCTIONS))
def test_fourier_chirp_path_matches_dense_sum(name):
    # Uniform targets take the chirp-z path: all quadrature nodes, a shifted
    # 201-point sample grid, a decreasing progression, more targets than
    # nodes on a coarser grid, and nodes off-centre because a singularity
    # on the box edge drops the last node.
    f = FAST_PATH_FUNCTIONS[name]
    edge = replace(f, singularities=(8.0,))
    for h, grid, targets in ((f, GridSpec.default(1), None),
                             (f, GridSpec.default(1), np.linspace(-4.0, 4.0, 201) - 0.37),
                             (f, GridSpec.default(1), np.linspace(3.0, -2.5, 300)),
                             (f, GridSpec(6.0, 512), np.linspace(-7.0, 9.0, 1500)),
                             (edge, GridSpec.default(1), np.linspace(-4.0, 4.0, 201))):
        nodes, fw = quadrature(h, grid)
        targets = nodes[:, 0] if targets is None else targets
        fast = fourier(h, grid)(targets)
        dense = dense_sum(targets, nodes, fw, -1.0)
        assert np.max(np.abs(fast - dense)) < 1e-12 * np.sum(np.abs(fw))


@pytest.mark.parametrize("name", sorted(FAST_PATH_FUNCTIONS))
def test_inverse_fourier_multiplier_chirp_path_matches_dense_sum(name):
    f = FAST_PATH_FUNCTIONS[name]
    grid = GridSpec.default(1)
    mult = lambda xi: np.exp(2j * PI * 0.3 * xi * xi)
    nodes, w = quadrature_points(grid, 1)
    weighted = fourier(f, grid)(nodes) * mult(nodes[:, 0]) * w
    h = inverse_fourier_multiplier(f, mult, grid)
    for targets in (np.linspace(-4.0, 4.0, 201) + 0.61, np.linspace(2.0, -6.0, 5000)):
        dense = dense_sum(targets, nodes, weighted, +1.0)
        assert np.max(np.abs(h(targets) - dense)) < 1e-12 * np.sum(np.abs(weighted))


def test_fourier_dense_path_is_unchanged_off_progressions():
    # A non-uniform target set, a single target, nodes with a singular point
    # dropped from the interior, and 2-D targets all keep the dense kernel.
    g = make_gaussian(1)
    grid = GridSpec.default(1)
    nodes, fw = quadrature(g, grid)
    rng = np.random.default_rng(7)
    for targets in (np.sort(rng.uniform(-3.0, 3.0, 400)), np.array([0.75])):
        fhat = np.atleast_1d(fourier(g, grid)(targets))
        assert np.array_equal(fhat, dense_sum(targets, nodes, fw, -1.0))

    f, odd = make_example2(2.0), GridSpec(8.0, 1025)  # t = 0 is node 512
    nodes, fw = quadrature(f, odd)
    assert nodes.shape[0] == 1024
    targets = np.linspace(-2.0, 2.0, 400)
    assert np.array_equal(fourier(f, odd)(targets), dense_sum(targets, nodes, fw, -1.0))

    # a 2-node grid whose singularity drops a node leaves one node, which is
    # no progression, for two targets
    f, pair = translate(make_example2(0.0), 1.0), GridSpec(1.0, 2)  # singular at node t = 1
    nodes, fw = quadrature(f, pair)
    assert nodes.shape[0] == 1
    targets = np.array([0.0, 1.0])
    assert np.array_equal(fourier(f, pair)(targets), dense_sum(targets, nodes, fw, -1.0))

    g2, small = make_gaussian(2), GridSpec(4.0, 32)
    nodes, w = quadrature_points(small, 2)
    targets = np.stack([np.linspace(-2.0, 2.0, 300)] * 2, axis=1)
    dense = dense_sum(targets, nodes, g2(nodes) * w, -1.0)
    assert np.array_equal(fourier(g2, small)(targets), dense)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(picks=st.lists(st.integers(0, 7), min_size=1, max_size=9),
       block=st.sampled_from([4096, 8192, 16_384, 40_000]))
def test_dense_fourier_value_depends_only_on_its_target(picks, block):
    # On 64^2 nodes a block holds `block` // 4096 target rows, so a target may
    # share its block with others or sit alone in it; its value must not move.
    g2, grid = make_gaussian(2), GridSpec(6.0, 64)
    targets = np.random.default_rng(5).uniform(-2.0, 2.0, (8, 2))
    alone = [complex(fourier(g2, grid)(t)) for t in targets]
    original = tfops._WINDOW_BLOCK
    tfops._WINDOW_BLOCK = block
    try:
        values = fourier(g2, grid)(targets[picks])
    finally:
        tfops._WINDOW_BLOCK = original
    assert [complex(v) for v in values] == [alone[i] for i in picks]


def test_dense_fourier_sum_bound(monkeypatch):
    # the decay scan of a 2-D fhat on a 128^2 grid (2^28 exps) is accepted;
    # a sum beyond MAX_DENSE_PHASES is refused before any exp is computed
    monkeypatch.setattr(tfops, "_phase_rows", lambda targets, nodes, sign: iter(()))
    nodes, w = np.zeros((128 ** 2, 2)), np.ones(128 ** 2, dtype=complex)
    tfops._fourier_sum(np.zeros((128 ** 2, 2)), nodes, w, -1.0)
    with pytest.raises(InputError, match="dense Fourier sum"):
        tfops._fourier_sum(np.zeros((tfops.MAX_DENSE_PHASES // 128 ** 2 + 1, 2)),
                           nodes, w, -1.0)


def test_fourier_gaussian_self_dual_on_all_nodes():
    g = plain_gaussian()
    nodes = quadrature_points(GridSpec.default(1), 1)[0][:, 0]
    fh = fourier(g)(nodes)
    assert np.max(np.abs(fh - np.exp(-PI * nodes * nodes))) < 1e-6


def test_fourier_refuses_unbounded_truncation_error():
    f = FunctionEvaluator(dim=1, fn=lambda t: np.ones_like(t, dtype=complex),
                          envelope=None, square_integrable=False)
    with pytest.raises(NumericalRefusal):
        fourier(f)


def test_fourier_refuses_an_enveloped_f_that_is_not_square_integrable():
    # cos t/|t| has a 1/r envelope, but neither its integral at 0 nor the
    # tail of 1/r converges, so no truncation error is bounded.
    f = make_singular_cos(1.0)
    assert f.envelope is not None and not f.square_integrable
    with pytest.raises(NumericalRefusal, match="square-integrable"):
        fourier(f)
    with pytest.raises(NumericalRefusal, match="square-integrable"):
        inverse_fourier_multiplier(f, lambda om: np.ones_like(om))


# ---------------------------------------------------------------------------
# stft
# ---------------------------------------------------------------------------

def test_stft_at_origin_is_inner_product():
    f = make_gaussian(1)
    g = translate(make_gaussian(1), 0.5)
    assert stft(f, g, (0.0, 0.0)) == pytest.approx(inner_product(f, g), abs=1e-12)


def test_stft_gaussian_magnitude():
    g = make_gaussian(1)
    for x, omega in ((1, 0), (0, 1), (1, 1)):
        got = abs(stft(g, g, (x, omega)))
        assert abs(got - math.exp(-PI * (x * x + omega * omega) / 2)) < 1e-6


def test_stft_matches_independent_high_resolution_quadrature():
    g = make_gaussian(1)
    x, omega = 1.0, 1.0
    t = np.linspace(-10.0, 10.0, 16385)
    w = np.full(t.size, t[1] - t[0])
    w[0] = w[-1] = 0.5 * (t[1] - t[0])
    oracle = np.sum(w * g(t) * np.conj(np.exp(2j * PI * omega * t) * g(t - x)))
    assert abs(stft(g, g, (x, omega)) - oracle) < 1e-10


def test_stft_covariance_identity():
    # V_g(T_u M_eta f)(x, w) = e^{-2 pi i u w} V_g f(x - u, w - eta)
    g = make_gaussian(1)
    xs = np.linspace(-3, 3, 33)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u, eta = rng.uniform(-2, 2, 2)
        shifted = translate(modulate(g, eta), u)
        lhs = stft_grid(shifted, g, xs, xs)
        rhs = stft_grid(g, g, xs - u, xs - eta) * np.exp(-2j * PI * u * xs)[None, :]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-8


@pytest.mark.parametrize("window", ["gaussian", "example2"])
def test_stft_entry_points_agree(window):
    # One kernel behind all three; example2's window singularity sits on a
    # quadrature node at x = 0.5 and inside the exclusion radius elsewhere.
    # Window rows are evaluated in blocks: the lattice spans several blocks
    # and ends in a partial one.
    from tfcert.tfops import _WINDOW_BLOCK
    f = make_example1(4.0, 1.0)
    g = make_gaussian(1) if window == "gaussian" else make_example2(0.7)
    block = _WINDOW_BLOCK // 4097
    xs = np.concatenate([[0.0, 0.5, -2.001], np.linspace(-3.0, 3.0, 2 * block - 2)])
    assert xs.size > block and xs.size % block
    omegas = np.array([0.0, -1.3, 0.4])
    for grid in (GridSpec(8.0, 4097), GridSpec(8.0, 4097, exclusion_radius=0.01)):
        one = np.array([[stft(f, g, (x, omega), grid) for omega in omegas] for x in xs])
        assert np.isfinite(one).all()
        np.testing.assert_allclose(stft_grid(f, g, xs, omegas, grid), one,
                                   rtol=0, atol=1e-12, equal_nan=False)
        rows = [[x, omega] for x in xs for omega in omegas]
        np.testing.assert_allclose(stft_points(f, g, rows, grid), one.ravel(),
                                   rtol=0, atol=1e-12, equal_nan=False)


def test_stft_two_dimensional_gaussian_closed_form():
    # |V_g g(x, omega)| = e^{-pi (|x|^2 + |omega|^2) / 2} for the unit Gaussian
    g = make_gaussian(2)
    grid = GridSpec(6.0, 128)
    rng = np.random.default_rng(7)
    xs, omegas = rng.uniform(-1.5, 1.5, (3, 2)), rng.uniform(-1.5, 1.5, (4, 2))
    expect = np.exp(-PI * (np.sum(xs ** 2, axis=1)[:, None]
                           + np.sum(omegas ** 2, axis=1)[None, :]) / 2)
    np.testing.assert_allclose(np.abs(stft_grid(g, g, xs, omegas, grid)), expect,
                               rtol=0, atol=1e-10)
    rows = [np.concatenate([x, w]) for x in xs for w in omegas]
    np.testing.assert_allclose(np.abs(stft_points(g, g, rows, grid)), expect.ravel(),
                               rtol=0, atol=1e-10)


def _direct_stft(f, g, rows, grid):
    """V_g f at (x, omega) rows by direct quadrature: sum_k f(t_k) w_k
    conj(e^{2 pi i omega t_k} g(t_k - x)), with g zero within the exclusion
    radius of its shifted singularities."""
    nodes, w = quadrature_points(grid, 1, f.singularities)
    t = nodes[:, 0]
    out = []
    for x, omega in rows:
        with np.errstate(all="ignore"):
            gv = g(t - x)
        for s in g.singularities:
            gv = np.where(np.abs(t - x - s[0]) <= max(grid.exclusion_radius, 1e-12), 0.0, gv)
        out.append(np.sum(f(t) * w * np.conj(np.exp(2j * PI * omega * t) * gv)))
    return np.array(out)


@pytest.mark.parametrize("window", ["hermite", "complex", "singular"])
def test_scan_fields_match_direct_quadrature(window):
    # A real Hermite window, a complex one (a second, imaginary plane), and
    # one whose singularity lands on a node at x = 0.5.
    # The lattice repeats x = 0.5, so its window rows are gathered; the
    # points repeat lattice xs and a +-omega pair.
    from tfcert.windowsearch import WindowParams, realize_window
    g = {"hermite": lambda: realize_window(WindowParams(0.8, np.array([0.5, -0.3, 0.2]))),
         "complex": lambda: modulate(make_gaussian(1), 0.7),
         "singular": lambda: make_example2(0.7)}[window]()
    f = make_example1(4.0, 1.0)
    grid = GridSpec(8.0, 1025)
    xs = np.array([0.0, 0.5, -2.001, 1.25, 0.5])
    omegas = np.array([0.0, -1.3, 0.4])
    points = np.array([[0.5, 0.3], [0.5, -0.3], [3.0, 1.1], [-2.001, 0.0]])
    scan = tfops._STFTScan(f, grid, xs, omegas, points)
    lattice, at_points = scan.fields(g)
    want = _direct_stft(f, g, [(x, w) for x in xs for w in omegas], grid).reshape(5, 3)
    assert np.max(np.abs(lattice - want)) <= 1e-13 * np.max(np.abs(want))
    want = _direct_stft(f, g, points, grid)
    assert np.max(np.abs(at_points - want)) <= 1e-13 * np.max(np.abs(want))
    assert scan.shifts.shape == (5, 1)  # 0, 0.5, -2.001, 1.25 and 3


def test_scan_repeated_shifts_give_bit_identical_values():
    # Points that repeat lattice xs and +-omega pairs share window rows; the
    # values of the other points and of the lattice must not move by a bit,
    # wherever the points sit in the set (K = 1025 puts them at rows of
    # different alignment).
    from tfcert.windowsearch import WindowParams, realize_window
    f = make_example1(4.0, 1.0)
    grid = GridSpec(8.0, 1025)
    xs = np.linspace(-3.0, 3.0, 13)
    omegas = np.array([-1.0, 0.0, 0.4, 1.3])
    base = np.array([[0.35, 0.4], [-1.7, -0.9], [2.2, 1.3]])
    extra = np.array([[xs[3], 0.7], [0.35, -0.4], [-1.7, 0.9], [xs[0], -0.2]])
    mixed = np.vstack([extra[:2], base[:1], extra[2:], base[1:]])
    for g in (realize_window(WindowParams(1.3, np.array([0.6, 0.0, -0.4]))),
              modulate(make_gaussian(1), 0.7)):
        scan = tfops._STFTScan(f, grid, xs, omegas, base)
        lattice, at_points = scan.fields(g)
        repeated = tfops._STFTScan(f, grid, xs, omegas, mixed)
        assert repeated.shifts.shape == scan.shifts.shape == (16, 1)
        lattice2, at_points2 = repeated.fields(g)
        np.testing.assert_array_equal(lattice2, lattice)
        np.testing.assert_array_equal(at_points2[[2, 5, 6]], at_points)
        np.testing.assert_array_equal(stft_grid(f, g, xs, omegas, grid), lattice)
        np.testing.assert_array_equal(stft_points(f, g, base, grid), at_points)


def test_window_flush_moves_fields_within_the_stated_bound(monkeypatch):
    # exp(-pi (t / 0.5)^2) has subnormal values on the default grid (a Hermite
    # window of width 0.5 sets them to zero before they are computed). They
    # are flushed to zero, which moves each value by at most K tiny max|f w|
    # against the same sums (`products`) with the flush turned off.
    from tfcert.windowsearch import SEARCH_LATTICE
    f = make_gaussian(1)
    g = FunctionEvaluator(dim=1, fn=lambda t: np.exp(-PI * (t / 0.5) ** 2))
    grid = GridSpec.default(1)
    xs = np.linspace(-8.0, 8.0, SEARCH_LATTICE.samples_per_axis)
    scan = tfops._STFTScan(f, grid, xs, xs, [[0.0, 0.0], [7.9, -3.0], [-6.5, 1.0]])
    lattice, at_points = scan.fields(g)
    tiny = np.finfo(float).tiny
    subnormal = lambda a: (a != 0) & (np.abs(a) < tiny)
    assert subnormal(g(scan.nodes - scan.shifts[:, None, :])).any()
    planes = []
    scan.products(lambda t: planes.append(g(t)[None]) or planes[-1], (None,))
    assert not any(subnormal(plane).any() for plane in planes)
    nodes, w = quadrature_points(grid, 1)
    bound = nodes.shape[0] * tiny * np.max(np.abs(f(nodes) * w))
    monkeypatch.setattr(tfops, "_flush", lambda plane: None)
    want_lattice, want_points = scan.fields(g)
    assert np.max(np.abs(lattice - want_lattice)) <= bound
    assert np.max(np.abs(at_points - want_points)) <= bound


def direct_phase_rows(freqs, nodes, sign):
    """(cos, sin) of theta = sign 2 pi omega t on every node, for 1-D nodes."""
    theta = sign * tfops.TWO_PI * np.multiply.outer(freqs, nodes[:, 0])
    return np.cos(theta), np.sin(theta)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("nodes", [
    tfops.axis_quadrature(GridSpec(8.0, 4096))[0],
    tfops.axis_quadrature(GridSpec(8.0, 4095))[0],
    tfops.axis_quadrature(GridSpec(3.0, 7))[0],
    quadrature_points(GridSpec(8.0, 4095), 1, [np.array([0.0])])[0][:, 0],
    quadrature_points(GridSpec(8.0, 4096), 1, [np.array([0.5])])[0][:, 0],
], ids=["even-K", "odd-K", "K-7", "origin-dropped", "not-mirrored"])
def test_phase_rows_equal_direct_cos_and_sin_bit_for_bit(nodes, sign):
    # On an exactly antisymmetric axis (even or odd K, or the origin dropped)
    # half of each row is the conjugate of the other half reversed; with a
    # singularity at 0.5 dropped the nodes are not mirrored and every node is
    # computed. Either way each value is the direct cos and sin, to the bit,
    # on the omega = 0 rows (both signs of zero) too.
    nodes = nodes[:, None]
    freqs = np.concatenate([[0.0, -0.0], np.linspace(-8.0, 8.0, 33),
                            np.random.default_rng(3).uniform(-40.0, 40.0, 20)])
    cos, sin = direct_phase_rows(freqs, nodes, sign)
    got = np.concatenate(list(_phase_rows(freqs[:, None], nodes, sign)))
    assert got.real.tobytes() == cos.tobytes() and got.imag.tobytes() == sin.tobytes()


PARITY_CASES = {
    "gaussian": make_gaussian(1),
    "example1": make_example1(4.0, 2.0),
    "example2": make_example2(1.5),
    "singular_cos": make_singular_cos(1.0),
    "even-window": realize_window(WindowParams(0.7, np.array([0.6, 0.0, -0.4]))),
    "odd-window": realize_window(WindowParams(1.3, np.array([0.0, 0.5, 0.0, 0.2]))),
    "narrow-window": realize_window(WindowParams(0.25, np.array([0.0, 1.0]))),
    "dilate-negative": dilate(make_example1(4.0, 2.0), -1.7),
    "dilate-odd": dilate(realize_window(WindowParams(1.0, np.array([0.0, 1.0]))), -0.6),
    "chirp": chirp_mul(realize_window(WindowParams(1.3, np.array([0.0, 0.5]))), 0.3),
    "with-envelope": make_example2(0.5).with_envelope(lambda r: math.inf),
}


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(name=st.sampled_from(sorted(PARITY_CASES)),
       t=st.lists(st.floats(-9.0, 9.0).filter(lambda v: abs(v) > 1e-3), min_size=1, max_size=12))
def test_declared_parity_holds_at_random_points(name, t):
    # A declared parity p is exact: f(-t) == p f(t), values and the sign of
    # the imaginary part alike.
    f, t = PARITY_CASES[name], np.array(t)
    assert f.parity in (1, -1)
    np.testing.assert_array_equal(f(-t), f.parity * f(t))


def test_operators_keep_or_drop_the_parity():
    f = make_example1(4.0, 2.0)
    odd = realize_window(WindowParams(1.3, np.array([0.0, 0.5, 0.0, 0.2])))
    assert f.parity == make_gaussian(3).parity == 1 and odd.parity == -1
    assert make_edgar_rosenblatt().parity is None
    assert realize_window(WindowParams(1.0, np.array([0.5, 0.5]))).parity is None
    for h in (f, odd):
        assert translate(h, 0.3).parity is None and modulate(h, 0.5).parity is None
        assert tf_shift(h, [0.0, 0.5]).parity is None
        assert translate(h, 0.0).parity is None  # dropped, not checked
        for kept in (dilate(h, -1.7), dilate(h, 2.0), chirp_mul(h, 0.3),
                     h.with_envelope(lambda r: 1.0)):
            assert kept.parity == h.parity
    g2 = make_gaussian(2)
    assert dilate(g2, -0.5).parity == 1 and translate(g2, [0.1, 0.0]).parity is None
    assert fourier(f).parity is None
    assert inverse_fourier_multiplier(f, lambda w: np.ones_like(w)).parity is None
    for bad in (0, 2, -2, 0.5, True):
        with pytest.raises(InputError):
            FunctionEvaluator(dim=1, fn=np.cos, parity=bad)


@pytest.mark.parametrize("g", [make_gaussian(1),
                               realize_window(WindowParams(1.3, np.array([0.0, 0.5, 0.0, 0.2])))],
                         ids=["gaussian", "odd-window"])
def test_thm3_scan_of_an_even_f_folds_its_shifts(g):
    # The 128 lattice xs and the origin are 129 shifts; a window of declared
    # parity on an even f sums only x >= 0, 65 shifts, and reads each x < 0
    # exactly signed and conjugated, within 1e-15 of the unfolded field.
    from tfcert.certify import THM3_LATTICE
    f = make_example1(4.0, 1.0)
    xs = tfops.axis_quadrature(THM3_LATTICE)[0]
    shifts = []
    counted = replace(g, fn=lambda t: shifts.append(t.shape[0]) or g.fn(t))
    scan = tfops._STFTScan(f, None, xs, xs, np.zeros((1, 2)))
    lattice, origin = scan.fields(counted)
    # each node block evaluates g on 65 shifts (an empty batch reads g's type)
    assert scan.even and scan.shifts.shape == (129, 1)
    assert set(shifts) == {0, 65 * tfops._NODE_BLOCK}
    want, want_origin = tfops._STFTScan(f, None, xs, xs, np.zeros((1, 2))).fields(
        replace(g, parity=None))
    assert np.max(np.abs(lattice - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(origin, want_origin)


def test_a_fold_removes_only_mirrored_shifts():
    # The STFT identity's right side scans the shifted xs - u, which holds no
    # mirrored pair, so a window of declared parity sums it bit for bit as one
    # of unknown parity; a shift whose mirror is in the scan is folded. A
    # window whose singularities are not symmetric has zeroed entries of no
    # parity, so its scan does not fold.
    from tfcert.oracle import STFT_IDENTITY_LATTICE
    f, g = make_example1(4.0, 1.0), make_gaussian(1)
    xs = tfops.axis_quadrature(STFT_IDENTITY_LATTICE)[0]
    unknown = replace(g, parity=None)
    assert np.array_equal(stft_grid(f, g, xs - 0.3, xs), stft_grid(f, unknown, xs - 0.3, xs))
    scan = tfops._STFTScan(f, None, xs - 0.3, xs, [[0.3, 1.0], [2.0, 0.5]])
    assert scan.layout(True).shifts.shape[0] == scan.shifts.shape[0] - 1
    lopsided = replace(g, singularities=(np.array([0.5]),))
    assert lopsided.parity == 1
    assert np.array_equal(stft_grid(f, lopsided, xs, xs),
                          stft_grid(f, replace(lopsided, parity=None), xs, xs))


def as_complex(f):
    """f with complex128 values, whose STFT scans fold no frequency."""
    inner = f.fn
    return replace(f, fn=lambda t: inner(t) + 0j)


def count_kernel_rows(monkeypatch):
    """The frequency rows each `_folded_planes` call of a scan builds, in order."""
    rows, inner = [], tfops._folded_planes
    monkeypatch.setattr(tfops, "_folded_planes",
                        lambda freqs, *rest: rows.append(freqs.shape[0]) or inner(freqs, *rest))
    return rows


def close_to(got, want):
    """Within 1e-14 of the largest magnitude of `want`."""
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [0, 3, 8])
def test_default_search_scan_folds_mirrored_frequencies(d, monkeypatch):
    # The default search scan of an even real f: 81 antisymmetric lattice
    # omegas need 41 kernel rows, and the origin plus the 180-sample ring,
    # reflected onto x >= 0 for the basis windows of known parity, 47 point
    # rows. Its basis fields match the full path of the same f made complex.
    from tfcert.windowsearch import _TailScan
    f = make_example1(4.0, 2.0)
    rows = count_kernel_rows(monkeypatch)
    scan, full = _TailScan(f, 1.5, None, None), _TailScan(as_complex(f), 1.5, None, None)
    folded, want = scan.basis(1.3, range(d + 1)), full.basis(1.3, range(d + 1))
    assert rows == [41, 81, 47, 181]
    for got, want in zip(folded, want):
        assert close_to(got, want)


def test_thm3_lattice_folds_mirrored_frequencies(monkeypatch):
    from tfcert.certify import THM3_LATTICE
    f, g = make_example1(4.0, 1.0), make_gaussian(1)
    xs = tfops.axis_quadrature(THM3_LATTICE)[0]
    rows = count_kernel_rows(monkeypatch)
    field = stft_grid(f, g, xs, xs)
    assert rows[0] == 64
    assert close_to(field, stft_grid(as_complex(f), g, xs, xs))
    assert rows[2] == 128


def test_folded_points_read_their_mirror_in_two_dimensions(monkeypatch):
    # A point's mirror flips the sign of its frequency; the canonical sign is
    # that of the first nonzero coordinate, so (0, -1.2) folds onto (0, 1.2)
    # and the six points need three kernel rows. With a real window a folded
    # value is the exact conjugate of its mirror's; a complex window is two
    # real planes, each folded so.
    f = translate(make_gaussian(2), [0.3, -0.2])
    grid = GridSpec(4.0, 32)
    omegas = np.array([[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5]])
    xs = np.array([[0.0, 0.0], [0.4, -0.7]])
    points = np.array([[0.4, -0.7, 0.0, -1.2], [0.4, -0.7, 0.0, 1.2], [0.4, -0.7, -1.0, 1.0],
                       [0.1, 0.0, 0.5, 0.3], [0.4, -0.7, 1.0, -1.0], [0.1, 0.0, -0.5, -0.3]])
    rows = count_kernel_rows(monkeypatch)
    scan = tfops._STFTScan(f, grid, xs, omegas, points)
    full = tfops._STFTScan(as_complex(f), grid, xs, omegas, points)
    assert rows == [2, 3]  # each scan builds its point rows on first use
    real_g = translate(make_gaussian(2), [0.1, 0.2])
    lattice, at_points = scan.fields(real_g)
    np.testing.assert_array_equal(lattice[:, 0], np.conj(lattice[:, 2]))
    np.testing.assert_array_equal(at_points[[0, 2, 5]], np.conj(at_points[[1, 4, 3]]))
    for g in (real_g, modulate(make_gaussian(2), [0.5, 0.2])):
        (lattice, at_points), (full_lattice, full_points) = scan.fields(g), full.fields(g)
        assert close_to(lattice, full_lattice) and close_to(at_points, full_points)
    assert rows == [2, 3, 3, 6]


def test_complex_f_keeps_a_kernel_row_per_omega(monkeypatch):
    # A complex f folds nothing, on an antisymmetric lattice axis too.
    f, g = as_complex(make_example1(4.0, 1.0)), make_gaussian(1)
    symmetric = tfops.axis_quadrature(GridSpec(8.0, 81))[0]
    rows = count_kernel_rows(monkeypatch)
    for xs in (np.linspace(-8.0, 8.0, 81), symmetric):
        lattice, _ = tfops._STFTScan(f, None, xs, xs).fields(g)
        assert lattice.shape == (81, 81)
    assert rows == [81, 0] * 2


def test_real_f_folds_the_exact_mirror_pairs_of_any_lattice(monkeypatch):
    # np.linspace(-8, 8, 81) is not antisymmetric: 13 of its 40 negative
    # omegas have an exact mirror and 27 do not. A real f folds every
    # negative omega, so it builds one kernel row per distinct |omega|, 41
    # nonnegative plus the 27 unmirrored, and a mirrored column is the exact
    # conjugate of its mirror's for a real window. The field matches that f
    # made complex to round-off: BLAS may round a column by its place in the
    # product.
    f = make_example1(4.0, 1.0)
    xs = np.linspace(-8.0, 8.0, 81)
    negative = np.flatnonzero(xs < 0)
    mirror = {v: j for j, v in enumerate(xs.tolist())}
    pairs = [(i, mirror[-xs[i]]) for i in negative if -xs[i] in mirror]
    assert len(pairs) == 13 and negative.size == 40
    rows = count_kernel_rows(monkeypatch)
    for g, real in ((make_gaussian(1), True), (modulate(make_gaussian(1), [0.7]), False)):
        field = stft_grid(f, g, xs, xs)
        assert rows[-2:] == [68, 0]
        if real:
            for i, j in pairs:
                np.testing.assert_array_equal(field[:, i], np.conj(field[:, j]))
        assert close_to(field, stft_grid(as_complex(f), g, xs, xs))
        assert rows[-2:] == [81, 0]


LONG_PI = 4 * np.arctan(np.longdouble(1))
_FREQS = np.random.default_rng(3).uniform(-40.0, 40.0, 20)
_THM3_OMEGAS = tfops.axis_quadrature(GridSpec(8.0, 128))[0]


@pytest.mark.parametrize("f, grid, freqs", [
    (make_example1(4.0, 1.0), None, np.concatenate([_THM3_OMEGAS, _FREQS, [0.0, 1e-3]])),
    (modulate(make_gaussian(1), 0.7), None, np.concatenate([np.linspace(-8, 8, 81), _FREQS])),
    (make_example2(1.5), GridSpec(8.0, 4097), np.concatenate([_THM3_OMEGAS, _FREQS])),
    (translate(make_gaussian(2), [0.3, -0.2]), GridSpec(4.0, 65),
     np.random.default_rng(4).uniform(-10.0, 10.0, (40, 2))),
    (modulate(make_gaussian(2), [0.5, 0.2]), GridSpec(4.0, 64),
     np.random.default_rng(5).uniform(-10.0, 10.0, (40, 2))),
], ids=["1d-real", "1d-complex", "example2-origin-dropped", "2d-real", "2d-complex"])
def test_scan_kernel_within_its_bound_of_a_long_double_reference(f, grid, freqs):
    # Each kernel entry exp(-2 pi i omega.t_k) f(t_k) w_k is within
    # 2 eps (1 + 2 pi |omega|_1 L) |f w_k| of the long double value at the
    # scan's own nodes. The columns are built on the ideal progression, from
    # which the nodes lie up to 0.83 eps L away, and the phase products round
    # at eps |theta|: each about half of eps 2 pi |omega| L. The kernel reads
    # up to 0.62 of the bound; the direct cos and sin of `_phase_rows` read
    # up to 0.67 (2-D, where the phase sums round too).
    scan = tfops._STFTScan(f, grid)
    freqs = np.reshape(freqs, (-1, f.dim))
    got = tfops._folded_planes(freqs, scan.axes, scan.fw)
    theta = -2 * LONG_PI * (scan.nodes.astype(np.longdouble) @ freqs.T.astype(np.longdouble))
    cos, sin = np.cos(theta), np.sin(theta)
    a, b = scan.fw.real.astype(np.longdouble)[:, None], np.imag(scan.fw).astype(np.longdouble)[:, None]
    error = np.maximum(np.abs(got.real - (cos * a - sin * b)),
                       np.abs(got.imag - (cos * b + sin * a)))
    L = scan.grid.half_width
    bound = 2 * np.finfo(float).eps * np.abs(scan.fw)[:, None] \
        * (1 + 2 * PI * L * np.abs(freqs).sum(axis=1))
    assert (error <= bound).all(), np.max(error / np.where(bound > 0, bound, 1))
    if f.singularities:  # t = 0 is not a node
        assert scan.nodes.shape[0] == grid.samples_per_axis - 1


@pytest.mark.parametrize("samples", [2, 3, 4, 7, 64, 65, 4096, 4097])
def test_kernel_columns_of_mirrored_frequencies_are_exact_conjugates(samples):
    # The column of -omega is the conjugate of the column of omega, and each
    # column's first half the conjugate of its second half reversed, exactly
    # (up to the sign of a zero); t = 0 reads exactly 1. So are the kernels
    # of a real f, in 1-D and in 2-D.
    step = GridSpec(8.0, samples).step
    freqs = np.concatenate([_FREQS, _THM3_OMEGAS])
    columns = tfops._axis_columns(freqs, step, samples)
    np.testing.assert_array_equal(tfops._axis_columns(-freqs, step, samples), np.conj(columns))
    np.testing.assert_array_equal(columns[::-1], np.conj(columns))
    if samples % 2:
        assert (columns[samples // 2] == 1.0).all()
    for f, grid, omegas in ((make_example1(4.0, 1.0), GridSpec(8.0, samples), freqs[:, None]),
                            (translate(make_gaussian(2), [0.3, -0.2]), GridSpec(4.0, 33),
                             np.random.default_rng(6).uniform(-10.0, 10.0, (20, 2)))):
        scan = tfops._STFTScan(f, grid)
        kernel = tfops._folded_planes(omegas, scan.axes, scan.fw)
        np.testing.assert_array_equal(tfops._folded_planes(-omegas, scan.axes, scan.fw),
                                      np.conj(kernel))


def test_scan_of_a_singular_f_gathers_its_kernel_in_place():
    # example2 drops the node t = 0 of an odd axis, so its kernel columns are
    # gathered from the axis columns at the kept nodes' indices. The gather
    # runs in place, so building the scan holds one kernel-sized array, not
    # two.
    import tracemalloc
    xs = tfops.axis_quadrature(GridSpec(8.0, 128))[0]
    tracemalloc.start()
    try:
        scan = tfops._STFTScan(make_example2(1.5), GridSpec(8.0, 4097), xs, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.nodes.shape[0] == 4096 and peak < 1.5 * scan.lattice_kernel.nbytes


@pytest.mark.parametrize("g", [make_gaussian(1), modulate(make_gaussian(1), 0.7)],
                         ids=["real-window", "complex-window"])
def test_lattice_value_depends_on_its_omega_alone(g):
    # Each omega's kernel is its own and every lattice product has one shape,
    # (shifts, block nodes) by (block nodes, 8), whatever the omegas, so a
    # lattice value keeps its bits whatever the other omegas of the call, and
    # for f real or the same f made complex. That holds on a BLAS that rounds
    # every column of products of one shape alike, as every OpenBLAS 0.3.31
    # x86-64 kernel tried does (module notes). f is off the origin, so no
    # shift fold changes the sums.
    f = translate(make_example1(4.0, 1.0), 0.3)
    xs = tfops.axis_quadrature(GridSpec(3.0, 33))[0]
    field = stft_grid(f, g, xs, xs)
    for j in (0, 7, 16, 20, 32):
        assert stft_grid(f, g, xs, xs[[j]])[:, 0].tobytes() == field[:, j].tobytes()
    picks = [20, 3, 31, 20, 8, 16]
    assert stft_grid(f, g, xs, xs[picks]).tobytes() == field[:, picks].tobytes()
    assert stft_grid(as_complex(f), g, xs, xs).tobytes() == field.tobytes()
    assert stft_grid(as_complex(f), g, xs, xs[[20]]).tobytes() == field[:, [20]].tobytes()


@pytest.mark.parametrize("half_width", [0.5, 1.0, 3.0, 8.0, 6.25, 1e3 / 3])
def test_lattice_axis_is_exactly_antisymmetric(half_width):
    # The scan lattices and the quadrature nodes share one axis.
    for m in range(2, 201):
        grid = GridSpec(half_width, m)
        a = tfops.axis_quadrature(grid)[0]
        plain = np.linspace(-half_width, half_width, m)
        np.testing.assert_array_equal(a[::-1], -a)
        assert a[0] == -half_width and a[-1] == half_width
        assert np.max(np.abs(a - plain)) <= 2 * np.spacing(half_width)
        if m % 2:
            assert a[m // 2] == 0.0
        if np.array_equal(plain[::-1], -plain):
            np.testing.assert_array_equal(a, plain)


def test_stft_rejects_non_square_integrable():
    with pytest.raises(NumericalRefusal):
        stft(make_singular_cos(1.0), make_gaussian(1), (0.0, 0.0))


@pytest.mark.parametrize("quadrature", [
    lambda sc, g: l2_norm(sc),
    lambda sc, g: inner_product(sc, g),
    lambda sc, g: inner_product(g, sc),
    lambda sc, g: stft(g, sc, (0.0, 0.0)),
    lambda sc, g: gram_matrix(sc, PointSet.from_rows([[0, 0]])),
], ids=["l2_norm", "inner_product_f", "inner_product_g", "stft_window", "gram"])
def test_every_quadrature_refuses_an_input_not_square_integrable(quadrature):
    # cos t/|t| is not in L2 near 0, so its quadrature norm grows with the
    # node count (17.7, 50.2 and 142 on 512, 4,096 and 32,768 nodes)
    with pytest.raises(NumericalRefusal, match="not flagged square-integrable"):
        quadrature(make_singular_cos(1.0), make_gaussian(1))


def test_stft_dimension_mismatch():
    with pytest.raises(InputError):
        stft(make_gaussian(1), make_gaussian(2), (0.0, 0.0))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_tfpoint_requires_matching_lengths():
    # the (x, omega) pair of tf_shift and stft, and the rows of from_rows
    g1, g2 = make_gaussian(1), make_gaussian(2)
    for pair in (([1.0, 2.0], [0.0]), ([0.0], [1.0, 2.0])):
        with pytest.raises(InputError):
            tf_shift(g2, pair)
        with pytest.raises(InputError):
            stft(g2, g2, pair)
    with pytest.raises(InputError):
        PointSet.from_rows([[1.0, 2.0, 0.0]])
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError):
            tf_shift(g1, (bad, 0.0))
        with pytest.raises(InputError):
            stft(g1, g1, (0.0, bad))
        with pytest.raises(InputError):
            PointSet.from_rows([[bad, 0], [1, 0]])
        with pytest.raises(InputError):
            PointSet.from_rows([[0, 0], [1, bad]])


def test_pointset_rejects_duplicates():
    with pytest.raises(InputError):
        PointSet.from_rows([[0, 0], [0, 0]])


def test_pointset_rejects_mixed_dimensions():
    with pytest.raises(InputError):
        PointSet.from_rows([[0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


@pytest.mark.parametrize("rows, dim", [
    ([[0, 0], [1, 0, 0]], None),            # ragged
    ([[0, 0], [[1], [0]]], None),           # a nested row
    ([[[0], [0]], [[1], [0]]], None),       # three axes
    ([0.0, 1.0], None),                     # one flat row
    ([[]], None),                           # zero width
    ([[]], 1),
    ([[0, 0, 0]], None),                    # odd width
    ([[0, 0]], 2),                          # width is not 2 dim
    ([], None),
    ([[0, math.nan]], None),
    ([[-math.inf, 0]], None),
    ([[0.0, 1.0], [-0.0, 1.0]], None),      # duplicate up to the sign of zero
    ([["a", 0]], None),
    ("rows", None),
])
def test_from_rows_refuses_malformed_rows(rows, dim):
    with pytest.raises(InputError):
        PointSet.from_rows(rows, dim)
    if dim is None:  # a set built directly is validated the same way
        with pytest.raises(InputError):
            PointSet(rows)


def test_pointset_rows_are_read_only_columns():
    src = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]])
    ps = PointSet.from_rows(src, dim=2)
    src[0, 0] = 9.0  # the set holds its own copy
    assert ps.rows.shape == (2, 4) and ps.rows[0, 0] == 0.0
    for view in (ps.rows, ps.times(), ps.freqs()):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
    np.testing.assert_array_equal(ps.times(), ps.rows[:, :2])
    np.testing.assert_array_equal(ps.freqs(), ps.rows[:, 2:])


def test_pointset_accessors():
    ps = PointSet.from_rows([[0, 1], [2, 3]])
    assert len(ps) == 2
    assert ps.dim == 1
    np.testing.assert_array_equal(ps.times()[:, 0], [0, 2])
    np.testing.assert_array_equal(ps.freqs()[:, 0], [1, 3])


def test_gridspec_validation():
    with pytest.raises(InputError):
        GridSpec(0.0, 16)
    with pytest.raises(InputError):
        GridSpec(math.inf, 16)
    with pytest.raises(InputError):
        GridSpec(math.nan, 16)
    with pytest.raises(InputError):
        GridSpec(2.0, 1)
    with pytest.raises(InputError):
        GridSpec(2.0, 16, exclusion_radius=2.0)
    # above dimension 1 the default grid is the 2-D one, read per axis
    assert GridSpec.default(3) == GridSpec.default(2) == GridSpec(6.0, 512)


def test_evaluator_batch_shapes():
    g2 = make_gaussian(2)
    single = g2(np.array([0.0, 0.0]))
    assert isinstance(single, complex)
    batch = g2(np.zeros((5, 2)))
    assert batch.shape == (5,)
    grid_shaped = g2(np.zeros((3, 4, 2)))
    assert grid_shaped.shape == (3, 4)


# ---------------------------------------------------------------------------
# input conventions: value types, one point row, finite point lists
# ---------------------------------------------------------------------------

def test_real_families_evaluate_to_float64():
    ts = np.linspace(-3.0, 3.0, 7)  # includes the singular point 0
    with np.errstate(divide="ignore"):
        for f in (make_example1(2.0, 1.5), make_example2(1.0), make_singular_cos(2.0),
                  make_gaussian(1), realize_window(WindowParams(1.3, [1.0, 0.5, -0.25]))):
            assert f(ts).dtype == np.float64
    assert make_gaussian(2)(np.zeros((3, 2))).dtype == np.float64
    assert dilate(make_gaussian(1), 2.0)(ts).dtype == np.float64
    assert translate(make_example1(2.0, 0.0), 1.0)(ts).dtype == np.float64
    assert isinstance(make_gaussian(1)(0.0), complex)  # a scalar call stays complex


def test_complex_operators_evaluate_to_complex128():
    g, ts = make_gaussian(1), np.linspace(-3.0, 3.0, 7)
    for h in (modulate(g, 0.5), tf_shift(g, (1.0, 0.5)), chirp_mul(g, 0.3),
              fourier(g, GridSpec(6.0, 256))):
        assert h(ts).dtype == np.complex128
    assert make_edgar_rosenblatt()(np.array([[0.5, 1.0]])).dtype == np.complex128


@pytest.mark.parametrize("x, omega", [(0.7, -1.3), ([0.7, -0.2], [1.1, 0.4])])
def test_pair_and_row_name_one_time_frequency_point(x, omega):
    # an (x, omega) pair of length-n vectors flattens to its row (x..., omega...)
    n = np.size(x)
    f, g = make_gaussian(n), modulate(make_gaussian(n), np.full(n, 0.3))
    row = np.hstack([x, omega])
    ts = np.random.default_rng(3).uniform(-2.0, 2.0, (9, n))
    grid = GridSpec(5.0, 128 if n == 1 else 48)
    assert np.array_equal(tf_shift(f, (x, omega))(ts), tf_shift(f, row)(ts))
    assert stft(f, g, (x, omega), grid) == stft(f, g, row, grid)
    assert stft(f, g, row, grid) == stft_points(f, g, row[None], grid)[0]


@pytest.mark.parametrize("points, dim", [
    ([[0.0, 1.0], [2.0]], 2),       # ragged
    ([[0.0, math.nan]], 2),
    ([math.inf, 0.0], 1),
    ([[0.0, 1.0, 2.0]], 2),          # wrong length
    ([], 1),
    ("ab", 1),
])
def test_malformed_points_are_input_errors(points, dim):
    # as a point list, and as one time-frequency point of tf_shift and stft
    g = make_gaussian(dim)
    for call in (lambda: tfops.finite_points(points, dim, "sample_points"),
                 lambda: tf_shift(g, points), lambda: stft(g, g, points)):
        with pytest.raises(InputError):
            call()


def test_finite_points_reads_the_point_layout():
    np.testing.assert_array_equal(tfops.finite_points([0.5, 1.0], 1, "shifts"), [[0.5], [1.0]])
    np.testing.assert_array_equal(tfops.finite_points([[0, 1], [2, 3]], 2, "shifts"),
                                  [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(InputError, match="shifts must be a nonempty list of finite points"):
        tfops.finite_points([0.0, math.nan], 1, "shifts")


def test_default_grid_resolves_where_the_quadrature_runs():
    for dim in (1, 2):
        got, want = quadrature_points(None, dim), quadrature_points(GridSpec.default(dim), dim)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert l2_norm(make_gaussian(1)) == l2_norm(make_gaussian(1), GridSpec.default(1))


# ---------------------------------------------------------------------------
# Per-axis factors
# ---------------------------------------------------------------------------

def _apply(f, step):
    """One exact operator of a random chain; params hold 6 values in [-0.5, 0.5]."""
    name, params, r = step
    n = f.dim
    if name == "translate":
        return translate(f, params[:n])
    if name == "modulate":
        return modulate(f, params[:n])
    if name == "tf_shift":
        return tf_shift(f, params[:2 * n])
    return dilate(f, r)


_SMALL = st.floats(-0.5, 0.5)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(n=st.sampled_from([2, 3]),
       chain=st.lists(st.tuples(st.sampled_from(["translate", "modulate", "tf_shift", "dilate"]),
                                st.lists(_SMALL, min_size=6, max_size=6),
                                st.one_of(st.floats(0.8, 1.25), st.floats(-1.25, -0.8))),
                      max_size=4),
       points=st.lists(st.lists(_SMALL, min_size=3, max_size=3), min_size=1, max_size=4))
def test_operators_carry_the_factors(n, chain, points):
    f = make_gaussian(n)
    for step in chain:
        f = _apply(f, step)
    t = np.array(points)[:, :n]
    product = np.prod([h(t[:, k]) for k, h in enumerate(f.factors)], axis=0)
    np.testing.assert_allclose(f(t), product, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"dim": 0}, "dim must be a positive integer"),
    ({"dim": 1, "singularities": ([0.0, 1.0],)}, "must be points in R\\^dim"),
    ({"dim": 2, "envelope_center": [0.0]}, "must be points in R\\^dim"),
])
def test_malformed_evaluators_are_input_errors(kwargs, match):
    with pytest.raises(InputError, match=match):
        FunctionEvaluator(fn=np.cos, **kwargs)


def test_malformed_factors_are_input_errors():
    g1, g2 = make_gaussian(1), make_gaussian(2)
    for factors in [(g1,), (g1, g1, g1), (g1, g2), (g1, "gaussian")]:
        with pytest.raises(InputError, match="factors must be"):
            FunctionEvaluator(2, g2.fn, factors=factors)
    with pytest.raises(InputError, match="singularities"):
        FunctionEvaluator(2, g2.fn, singularities=([0.0, 0.0],), factors=(g1, g1))
    with pytest.raises(InputError, match="singularities"):
        replace(make_example2(1.0), factors=(g1,))


def test_transforms_and_chirps_drop_the_factors():
    g1 = make_gaussian(1)
    factored = FunctionEvaluator(1, g1.fn, factors=(g1,))
    assert chirp_mul(factored, 0.5).factors is None
    assert fourier(make_gaussian(2), GridSpec(4.0, 32)).factors is None
    assert make_gaussian(1).factors is None
    assert len(make_gaussian(3).factors) == 3


def test_per_axis_norm_and_inner_product_match_the_dense_quadrature():
    g = make_gaussian(2)
    f = tf_shift(dilate(g, 1.3), [0.3, -0.2, 1.0, 0.5])
    dense = lambda h: replace(h, factors=None)
    assert abs(l2_norm(f) - l2_norm(dense(f))) < 1e-14
    assert abs(inner_product(f, g) - inner_product(dense(f), dense(g))) < 1e-14
    # one input without factors keeps the dense quadrature
    assert inner_product(f, dense(g)) == inner_product(dense(f), dense(g))
    # <g, pi(lambda) g> = e^{-pi |lambda|^2 / 2} e^{-pi i omega.x} in 3-D, per axis
    lam = np.array([0.4, -0.3, 0.2, 0.5, 0.1, -0.6])
    want = math.exp(-PI * lam @ lam / 2.0) * np.exp(-1j * PI * lam[3:] @ lam[:3])
    assert abs(inner_product(make_gaussian(3), tf_shift(make_gaussian(3), lam)) - want) < 1e-14
    assert l2_norm(tf_shift(make_gaussian(3), lam)) == pytest.approx(1.0, abs=1e-14)


def test_report_json_is_one_rule_for_every_report():
    import dataclasses
    import json
    from typing import NamedTuple, Optional

    class Entry(NamedTuple):
        name: str
        value: float

    @dataclasses.dataclass(frozen=True)
    class Report:
        count: int
        values: tuple
        phase: complex
        grid: np.ndarray
        trace: tuple
        flag: bool
        extra: dict
        absent: Optional[float] = None
        hidden: Optional[np.ndarray] = dataclasses.field(default=None, metadata={"report": False})

    rep = Report(np.int64(3), (1.5, math.inf, -math.inf, math.nan, np.float64(2.0)),
                 complex(math.nan, -0.5), np.array([[0.25, np.inf]]),
                 (Entry("a", 1.0), Entry("b", math.nan)), np.bool_(True),
                 {"kept": None, "n": np.int32(7)}, hidden=np.ones(3))
    doc = tfops.report_json(rep)
    assert doc == {"count": 3, "values": [1.5, None, None, None, 2.0], "phase": [None, -0.5],
                   "grid": [[0.25, None]], "flag": True, "extra": {"kept": None, "n": 7},
                   "trace": [{"name": "a", "value": 1.0}, {"name": "b", "value": None}]}
    assert type(doc["count"]) is int and type(doc["flag"]) is bool
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    with pytest.raises(TypeError, match="no JSON form"):
        tfops.report_json(object())


# ---------------------------------------------------------------------------
# one dimension contract
# ---------------------------------------------------------------------------

_G1, _G2 = make_gaussian(1), make_gaussian(2)
_ROWS1 = PointSet.from_rows([[0, 0], [2, 0]])
_ROWS2 = PointSet.from_rows([[0, 0, 0, 0], [2, 0, 0, 0]])


@pytest.mark.parametrize("call, message", [
    # inputs that must share a dimension
    (lambda: inner_product(_G1, _G2), "dimension mismatch: f has dimension 1, g has dimension 2"),
    (lambda: stft_points(_G1, _G2, [[0.0, 0.0]]),
     "dimension mismatch: f has dimension 1, g has dimension 2"),
    (lambda: check_theorem1(_G1, _ROWS2),
     "dimension mismatch: f has dimension 1, lam has dimension 2"),
    (lambda: check_theorem2(make_example2(0.0), _ROWS2),
     "dimension mismatch: f has dimension 1, lam has dimension 2"),
    (lambda: check_theorem3(_G1, _G2, _ROWS1), "dimension mismatch: f has dimension 1, "
     "g has dimension 2, lam has dimension 1"),
    (lambda: check_theorem3(_G1, _G1, _ROWS2), "dimension mismatch: f has dimension 1, "
     "g has dimension 1, lam has dimension 2"),
    (lambda: gram_matrix(_G1, _ROWS2),
     "dimension mismatch: f has dimension 1, lam has dimension 2"),
    # computations implemented for dimension 1
    (lambda: chirp_mul(_G2, 0.5), "chirp multiplication is implemented for dimension 1"),
    (lambda: default_collocation_points(_G2, _ROWS2),
     "default collocation sampling is implemented for dimension 1"),
    (lambda: stft_identity_residual(_G2, _G2, 0.5, 0.5),
     "identity residual scan is implemented for dimension 1"),
    (lambda: metaplectic_residual("dilation", (2.0, 0.0, 0.0), _G2),
     "metaplectic residual is implemented for dimension 1"),
    (lambda: search(_G2, R=1.5, N=3, d=0, budget=10),
     "window search is implemented for dimension 1"),
], ids=["inner_product", "stft", "thm1", "thm2", "thm3-window", "thm3-points", "gram",
        "chirp", "collocation", "stft-identity", "metaplectic", "window-search"])
def test_one_dimension_contract_at_every_site(call, message):
    # `tfops._shared_dim` states it once: a mismatch names each input's
    # dimension, and a 1-D-only computation says so in one wording.
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
