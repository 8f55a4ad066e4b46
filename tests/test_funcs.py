import json
import math
import tracemalloc

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


EPS = np.finfo(float).eps


def er_floor(pts):
    """The evaluator's stated rounding floor at each (a, b):
    (2 pi (|a| + |b|) + 16) eps / 3."""
    return (2.0 * np.pi * np.abs(pts).sum(axis=1) + 16.0) * EPS / 3.0


def finer_er(pts, panels):
    """Reference: a composite 20-point Gauss-Legendre rule on `panels` equal
    panels of [1/3, 2/3], written independently of the evaluator."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    h = 1.0 / (6.0 * panels)
    t = ((1.0 / 3.0 + (2.0 * np.arange(panels) + 1.0) * h)[:, None] + h * nodes).ravel()
    phase = np.outer(pts[:, 0], np.arccos(t)) + np.outer(pts[:, 1], np.arccos(1.0 - t))
    return np.exp(1j * phase) @ np.tile(h * weights, panels)


def er_truncation_bound(reach, tol, panels=None):
    """(P, bound): the panel count the evaluator takes at this integer reach
    (or `panels`) and the truncation bound of that rule there, each panel's
    least term (`funcs._er_bound_terms`) summed over the panels."""
    from tfcert import funcs
    panels = panels or funcs._er_panel_count(reach, tol)
    const, slope = funcs._er_bound_terms(panels)
    return panels, float(np.exp(np.logaddexp.reduce((const + reach * slope).min(axis=1))))


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    from tfcert import funcs
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(funcs._GL_NODES, nodes)
    assert np.array_equal(funcs._GL_WEIGHTS, weights)


def test_edgar_rosenblatt_leaves_numpy_polynomial_unloaded(run_child):
    code = ("import sys; import numpy as np; from tfcert import make_edgar_rosenblatt; "
            "make_edgar_rosenblatt()(np.array([[3.0, -2.0], [40.0, 0.5]])); "
            "print('numpy.polynomial' in sys.modules)")
    assert run_child(code).strip() == "False"


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12, 1e-14])
@pytest.mark.parametrize("reach", [0.5, 4.0, 25.0, 100.0, 1000.0, 10001.0])
def test_edgar_rosenblatt_within_its_bound_of_a_finer_rule(reach, tol):
    # Points with |a| or |b| at the reach, the other anywhere within it; each
    # value lies within the truncation bound at ceil(reach) plus the rounding
    # floor of the rule and that of the reference. The bound is the least of
    # its panel count: one panel fewer would not meet tol.
    rng = np.random.default_rng(int(reach * 7) + int(-math.log10(tol)))
    pts = rng.uniform(-reach, reach, (32, 2))
    pts[:16, 0] = reach * rng.choice([-1.0, 1.0], 16)
    pts[16:, 1] = reach * rng.choice([-1.0, 1.0], 16)
    panels, bound = er_truncation_bound(math.ceil(reach), tol)
    assert bound <= tol
    if panels > 1:
        assert er_truncation_bound(math.ceil(reach), tol, panels - 1)[1] > tol
    err = np.abs(make_edgar_rosenblatt(tol)(pts) - finer_er(pts, 8 * panels))
    assert (err <= bound + 2.0 * er_floor(pts)).all(), (err.max(), bound)


@pytest.mark.parametrize("panels", [1, 2, 7, 60])
def test_er_bound_terms_hold_on_each_ellipse_clear_of_the_cuts(panels):
    # A term is finite only where its ellipse keeps clear of t <= 0 and
    # t >= 1, and its slope bounds |Im acos z| + |Im acos(1 - z)|, here from
    # numpy's complex arccos, on the ellipse: the bound on log|F| per unit of
    # reach.
    from tfcert import funcs
    const, slope = funcs._er_bound_terms(panels)
    h = 1.0 / (6.0 * panels)
    centre = 1.0 / 3.0 + (2.0 * np.arange(panels) + 1.0) * h
    rho = funcs._ER_RHOS
    clear = 0.5 * h * (rho + 1.0 / rho) < np.minimum(centre, 1.0 - centre)[:, None]
    assert np.array_equal(np.isfinite(const), clear) and clear.any(axis=1).all()
    w = rho[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 257))
    z = centre[:, None, None] + 0.5 * h * (w + 1.0 / w)
    log_f = np.abs(np.arccos(z).imag) + np.abs(np.arccos(1.0 - z).imag)
    assert (log_f.max(axis=2) <= slope * (1.0 + 1e-12)).all()


def test_edgar_rosenblatt_meets_its_bound_at_the_two_panel_limit():
    # At (25, -25) the two-panel rule errs by 1.85e-12: more than the bound
    # read with rho^-20 in place of the 10-point rule's rho^-18 (1.17e-12).
    pts = np.array([[25.0, -25.0]])
    panels, bound = er_truncation_bound(25, 1e-9)
    assert panels == 2
    err = abs(make_edgar_rosenblatt(1e-9)(pts)[0] - finer_er(pts, 64)[0])
    assert 1.5e-12 < err <= bound


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-300, 300), st.floats(-300, 300)),
                       min_size=1, max_size=6),
       at=st.integers(505, 515), tol=st.sampled_from([1e-3, 1e-9, 1e-14]))
def test_edgar_rosenblatt_value_depends_on_its_point_alone(points, at, tol):
    # Each point is evaluated alone, then from row `at` on in a batch whose
    # other rows run from reach 0 to 300, so the batch mixes panel counts and
    # the points sit about the 512-row block boundary.
    f = make_edgar_rosenblatt(tol)
    pts = np.array(points, dtype=float)
    filler = np.column_stack([np.linspace(0.0, 300.0, 540), np.linspace(-30.0, 7.0, 540)])
    batch = np.concatenate([filler[:at], pts, filler[at:]])
    values = f(batch)[at:at + len(pts)]
    alone = np.array([f(p[None, :])[0] for p in pts])
    assert np.array_equal(values, alone)


def test_a_far_point_at_the_lowest_tolerance_returns_within_its_bound(run_child):
    # The adaptive bisection this rule replaced never stopped here: the
    # rounding of the phases exceeded the halved shares of 1e-14. It runs in
    # a child process under an address-space cap and a timeout.
    code = ("import resource, json; import numpy as np; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30)); "
            "from tfcert import make_edgar_rosenblatt; "
            "v = make_edgar_rosenblatt(1e-14)(np.array([[1000.0, 1000.0], [-1000.0, 1000.0]])); "
            "print(json.dumps([[z.real, z.imag] for z in v.tolist()]))")
    values = np.array([complex(*z) for z in json.loads(run_child(code))])
    pts = np.array([[1000.0, 1000.0], [-1000.0, 1000.0]])
    panels, bound = er_truncation_bound(1000, 1e-14)
    assert panels == 131
    assert (np.abs(values - finer_er(pts, 8 * panels)) <= bound + 2.0 * er_floor(pts)).all()


@pytest.mark.parametrize("reach", [10.0, 1e3, 1e4])
def test_er_block_memory_does_not_grow_with_the_reach(reach):
    # 512 points with |a| at the reach: the bisection this rule replaced
    # peaked at 19 MiB at reach 10^3 and 171 MiB at 10^4.
    pts = np.random.default_rng(4).uniform(-reach, reach, (512, 2))
    pts[:, 0] = reach
    f = make_edgar_rosenblatt()
    tracemalloc.start()
    try:
        f(pts)
        peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()
    assert peak < 4.0


def test_edgar_rosenblatt_empty_batch():
    assert make_edgar_rosenblatt(1e-9)(np.zeros((0, 2))).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_edgar_rosenblatt_refuses_non_finite_points(bad, monkeypatch):
    # A non-finite point has no reach to take a panel count from; it is
    # refused before any block is evaluated.
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
    # it lies beyond the reach cap: it is refused unevaluated.
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
