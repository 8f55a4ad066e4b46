import math

import numpy as np
import pytest

from tfcert import (FunctionEvaluator, GridSpec, InputError, NumericalRefusal,
                    PointSet, TFPoint, chirp_mul, dilate, fourier,
                    inner_product, l2_norm, make_example1, make_example2,
                    make_gaussian, modulate, stft, stft_grid, stft_points,
                    tf_shift, translate)

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


def test_translate_shifts_singularities_and_drops_envelope():
    from tfcert import make_singular_cos
    f = make_singular_cos(1.0)
    tf = translate(f, 2.0)
    assert tf.singularities[0][0] == pytest.approx(2.0)
    assert tf.envelope is None


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
        lam = TFPoint(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
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


def test_dilate_zero_rejected():
    with pytest.raises(InputError):
        dilate(plain_gaussian(), 0.0)


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


def test_fourier_refuses_unbounded_truncation_error():
    f = FunctionEvaluator(dim=1, fn=lambda t: np.ones_like(t, dtype=complex),
                          envelope=None, square_integrable=False)
    with pytest.raises(NumericalRefusal):
        fourier(f)


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
    f = make_example1(4.0, 1.0)
    g = make_gaussian(1) if window == "gaussian" else make_example2(0.7)
    for grid in (GridSpec(8.0, 4097), GridSpec(8.0, 4097, exclusion_radius=0.01)):
        for x, omega in ((0.0, 0.0), (0.5, -1.3), (-2.001, 0.4)):
            one = stft(f, g, (x, omega), grid)
            assert abs(stft_points(f, g, [[x, omega]], grid)[0] - one) < 1e-12
            assert abs(stft_grid(f, g, [x], [omega], grid)[0, 0] - one) < 1e-12


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


def test_stft_rejects_non_square_integrable():
    from tfcert import make_singular_cos
    with pytest.raises(InputError):
        stft(make_singular_cos(1.0), make_gaussian(1), (0.0, 0.0))


def test_stft_dimension_mismatch():
    with pytest.raises(InputError):
        stft(make_gaussian(1), make_gaussian(2), (0.0, 0.0))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_tfpoint_requires_matching_lengths():
    with pytest.raises(InputError):
        TFPoint([1.0, 2.0], [0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError):
            TFPoint(bad, 0.0)
        with pytest.raises(InputError):
            PointSet.from_rows([[bad, 0], [1, 0]])
        with pytest.raises(InputError):
            PointSet.from_rows([[0, 0], [1, bad]])


def test_pointset_rejects_duplicates():
    with pytest.raises(InputError):
        PointSet.from_rows([[0, 0], [0, 0]])


def test_pointset_rejects_mixed_dimensions():
    with pytest.raises(InputError):
        PointSet((TFPoint(0.0, 0.0), TFPoint([0.0, 1.0], [0.0, 0.0])))


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
    with pytest.raises(InputError):
        GridSpec.default(3)


def test_evaluator_batch_shapes():
    g2 = make_gaussian(2)
    single = g2(np.array([0.0, 0.0]))
    assert isinstance(single, complex)
    batch = g2(np.zeros((5, 2)))
    assert batch.shape == (5,)
    grid_shaped = g2(np.zeros((3, 4, 2)))
    assert grid_shaped.shape == (3, 4)
