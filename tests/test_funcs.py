import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfcert import (FamilySpec, GridSpec, InputError, er_lattice, fourier, l2_norm,
                    make_edgar_rosenblatt, make_example1, make_example2,
                    make_gaussian, make_singular_cos)


def test_example1_peak():
    assert make_example1(2.0, 0.0)(0.0) == pytest.approx(2.0)


def test_example1_continuity_at_breakpoint():
    f = make_example1(5.0, 3.0)
    cut = 1.0 / 5.0
    for eps in (1e-4, 1e-6, 1e-8):
        jump = abs(f(cut - eps) - f(cut + eps))
        assert jump < 40 * eps  # slope of both branches is O(C^2)


def test_example1_outer_branch_value():
    assert make_example1(4.0, 0.0)(2.0) == pytest.approx(0.5)


def test_example1_rejects_nonpositive_scale():
    with pytest.raises(InputError):
        make_example1(0.0, 1.0)
    with pytest.raises(InputError):
        make_example1(-2.0, 1.0)


@pytest.mark.parametrize("make, args", [
    (make_example1, (math.nan, 1.0)), (make_example1, (math.inf, 1.0)),
    (make_example1, (4.0, math.nan)), (make_example2, (math.nan,)),
    (make_singular_cos, (-math.inf,)),
])
def test_families_reject_nonfinite_parameters(make, args):
    with pytest.raises(InputError, match="finite"):
        make(*args)


def test_example2_branch_agreement_at_one():
    f = make_example2(2.0)
    assert f(1.0) == pytest.approx(math.cos(2.0))


def test_example2_inner_branch_value():
    assert make_example2(0.0)(1.0 / 16.0) == pytest.approx(2.0)


def test_example2_envelope_bounds_samples():
    f = make_example2(1.5)
    ts = np.logspace(-4, 1, 400)
    for t in ts:
        assert abs(f(t)) <= f.envelope(t) + 1e-12


def test_singular_cos_value():
    for omega in (0.5, 2.0):
        assert make_singular_cos(omega)(1.0) == pytest.approx(math.cos(omega))


def test_singular_cos_blows_up():
    f = make_singular_cos(1.0)
    for k in range(1, 7):
        assert abs(f(10.0 ** -k)) >= 10.0 ** k / 2


def test_singular_cos_not_square_integrable():
    from tfcert import NumericalRefusal, PointSet, gram_matrix
    f = make_singular_cos(1.0)
    assert not f.square_integrable
    with pytest.raises(NumericalRefusal):
        gram_matrix(f, PointSet.from_rows([[0, 0], [3, 0]]))


def test_edgar_rosenblatt_constant_integrand():
    f = make_edgar_rosenblatt(1e-9)
    assert f(np.array([0.0, 0.0])) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_edgar_rosenblatt_conjugate_symmetry():
    f = make_edgar_rosenblatt(1e-9)
    rng = np.random.default_rng(8)
    for _ in range(5):
        a, b = rng.uniform(-3, 3, 2)
        lhs = f(np.array([-a, -b]))
        rhs = np.conj(f(np.array([a, b])))
        assert abs(lhs - rhs) < 2e-9


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.5, -0.5), (3.0, 2.0)])
def test_edgar_rosenblatt_five_term_residual(a, b):
    f = make_edgar_rosenblatt(1e-9)
    pts = np.array([[a, b], [a + 1, b], [a - 1, b], [a, b + 1], [a, b - 1]])
    v = f(pts)
    assert abs(2 * v[0] - v[1] - v[2] - v[3] - v[4]) < 1e-6


def test_edgar_rosenblatt_deterministic():
    f = make_edgar_rosenblatt(1e-9)
    p = np.array([1.25, -2.5])
    first = f(p)
    for _ in range(3):
        assert f(p) == first


def scalar_er(a, b, tol):
    """Reference: the per-point depth-first bisection (right half first) that
    the batched quadrature must reproduce bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(10)

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        tt = mid + half * nodes
        return half * np.sum(weights * np.exp(1j * (a * np.arccos(tt) + b * np.arccos(1.0 - tt))))

    total = 0.0 + 0.0j
    stack = [(1.0 / 3.0, 2.0 / 3.0, tol, panel(1.0 / 3.0, 2.0 / 3.0))]
    while stack:
        lo, hi, share, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if abs(left + right - whole) < share or (hi - lo) < 1e-12:
            total += left + right
        else:
            stack.append((lo, mid, 0.5 * share, left))
            stack.append((mid, hi, 0.5 * share, right))
    return complex(total)


def assert_matches_scalar(pts, tol):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    ref = np.array([scalar_er(a, b, tol) for a, b in pts], dtype=complex)
    assert np.array_equal(make_edgar_rosenblatt(tol)(pts), ref)


def er_stencil(lattice):
    shifts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    flat = (lattice[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    return np.unique(np.round(flat, 12), axis=0)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_edgar_rosenblatt_batched_matches_scalar_on_stencil(tol):
    # 1025 points: more than one block, so block boundaries are crossed
    assert_matches_scalar(er_stencil(er_lattice(3.0, 0.25)), tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_edgar_rosenblatt_batched_matches_scalar_deep_bisection(tol):
    rng = np.random.default_rng(3)
    pts = rng.choice([-1.0, 1.0], (24, 2)) * rng.uniform(900.0, 1100.0, (24, 2))
    assert_matches_scalar(pts, tol)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-1000, 1000), b=st.floats(-1000, 1000),
       tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
def test_edgar_rosenblatt_batched_matches_scalar_property(a, b, tol):
    assert_matches_scalar([[a, b], [b, a], [0.0, 0.0]], tol)


def test_edgar_rosenblatt_empty_batch():
    assert make_edgar_rosenblatt(1e-9)(np.zeros((0, 2))).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_edgar_rosenblatt_refuses_non_finite_points(bad, monkeypatch):
    # A non-finite point's bisection never meets the tolerance; it is refused
    # before any block is evaluated.
    from tfcert import funcs
    evaluated = []
    monkeypatch.setattr(funcs, "_er_block", lambda a, b, tol: evaluated.append(a.size)
                        or np.zeros(a.size, dtype=complex))
    f = make_edgar_rosenblatt(1e-9)
    for pts in ([[bad, 0.0]], [[0.0, 0.0], [1.0, bad]]):
        with pytest.raises(InputError, match="finite"):
            f(np.array(pts))
    assert evaluated == []


def test_edgar_rosenblatt_refuses_a_point_beyond_the_reach_cap(monkeypatch):
    # One point at reach 2e4 counts 800 times, far within MAX_ER_WORK, but
    # its bisection's memory grows with the reach: it is refused unevaluated.
    from tfcert import funcs
    evaluated = []
    monkeypatch.setattr(funcs, "_er_block", lambda a, b, tol: evaluated.append(a.size)
                        or np.zeros(a.size, dtype=complex))
    f = make_edgar_rosenblatt(1e-9)
    with pytest.raises(InputError, match="beyond reach 10001"):
        f(np.array([[2e4, 0.0]]))
    assert evaluated == []
    assert f(np.array([[0.0, -funcs.MAX_ER_REACH]])).shape == (1,)
    assert evaluated == [1]


def test_gaussian_two_dimensional_sum_of_squares_is_exact():
    t = np.random.default_rng(5).uniform(-6.0, 6.0, (4096, 2))
    g = make_gaussian(2)
    ref = (2.0 ** 0.5 * np.exp(-np.pi * np.sum(t * t, axis=1))).astype(complex)
    assert np.array_equal(g(t), ref)


def test_edgar_rosenblatt_quad_tol_validation():
    with pytest.raises(InputError):
        make_edgar_rosenblatt(1e-2)
    with pytest.raises(InputError):
        make_edgar_rosenblatt(0.0)


def test_gaussian_unit_norm():
    assert l2_norm(make_gaussian(1)) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_peak():
    for n in (1, 2):
        g = make_gaussian(n)
        at = 0.0 if n == 1 else np.zeros(n)
        assert g(at) == pytest.approx(2.0 ** (n / 4.0))


def test_gaussian_fourier_self_dual():
    g = make_gaussian(1)
    fh = fourier(g, GridSpec(6.0, 4096))
    for omega in (0.0, 0.3, 1.0):
        assert abs(fh(omega) - 2 ** 0.25 * math.exp(-math.pi * omega * omega)) < 1e-6


# ---------------------------------------------------------------------------
# family invariants
# ---------------------------------------------------------------------------

FAMILIES_WITH_ENVELOPES = [
    make_example1(3.0, 2.0),
    make_example1(8.0, 0.0),
    make_example2(1.0),
    make_singular_cos(2.0),
    make_gaussian(1),
    make_gaussian(2),
]


@pytest.mark.parametrize("f", FAMILIES_WITH_ENVELOPES)
def test_envelope_nonincreasing(f):
    radii = np.logspace(-4, 1.5, 300)
    vals = [f.envelope(r) for r in radii]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-15


@pytest.mark.parametrize("f", FAMILIES_WITH_ENVELOPES)
def test_envelope_dominates_samples(f):
    radii = np.logspace(-4, 1, 200)
    for r in radii:
        t = r if f.dim == 1 else np.concatenate([[r], np.zeros(f.dim - 1)])
        assert abs(f(t)) <= f.envelope(r) + 1e-12


def test_example1_pointwise_limit_is_exact_outside_breakpoint():
    omega = 2.5
    limit = make_singular_cos(omega)
    for C in (2.0, 10.0, 100.0):
        f = make_example1(C, omega)
        ts = np.linspace(1.0 / C, 8.0, 50)
        assert np.array_equal(f(ts), limit(ts))


# ---------------------------------------------------------------------------
# FamilySpec
# ---------------------------------------------------------------------------

def test_family_spec_builds_each_family():
    cases = [
        ({"family": "example1", "params": {"C": 4, "omega": 1}}, 1),
        ({"family": "example2", "params": {"omega": 0}}, 1),
        ({"family": "singular_cos", "params": {"omega": 1}}, 1),
        ({"family": "gaussian", "params": {"n": 2}}, 2),
        ({"family": "edgar_rosenblatt", "quad_tol": 1e-8}, 2),
    ]
    for obj, dim in cases:
        f = FamilySpec.from_json(obj).build()
        assert f.dim == dim


def test_family_spec_rejects_unknowns():
    with pytest.raises(InputError):
        FamilySpec.from_json({"family": "nope"})
    with pytest.raises(InputError):
        FamilySpec.from_json({"family": "gaussian", "bogus": 1})
    with pytest.raises(InputError):
        FamilySpec.from_json({"family": "gaussian", "params": {"spread": 2}}).build()
    with pytest.raises(InputError):
        FamilySpec.from_json({"family": "example1", "params": {}}).build()


@pytest.mark.parametrize("obj", [
    {"family": "example1", "params": {"C": math.nan, "omega": 1}},
    {"family": "example1", "params": {"C": 4, "omega": math.inf}},
    {"family": "example2", "params": {"omega": math.nan}},
    {"family": "singular_cos", "params": {"omega": "-inf"}},
])
def test_family_spec_rejects_nonfinite_parameters(obj):
    with pytest.raises(InputError, match="must be finite"):
        FamilySpec.from_json(obj).build()
