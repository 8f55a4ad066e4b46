import math
from dataclasses import replace

import numpy as np
import pytest

from tfcert import (FunctionEvaluator, GridSpec, InputError, NearOrthogonalError,
                    NumericalRefusal, PointSet, WindowParams, check_theorem3, l2_norm,
                    make_example1, make_gaussian, realize_window, report_json,
                    search, stft_grid, stft_points, tail_ratio, translate)

PI = math.pi


def gaussian_params(scale=1.0):
    return WindowParams(1.0, np.array([scale]))


def test_window_params_validation():
    with pytest.raises(InputError):
        WindowParams(0.01, np.array([1.0]))
    with pytest.raises(InputError):
        WindowParams(1.0, np.zeros(3))
    with pytest.raises(InputError):
        WindowParams(1.0, np.ones(12))


def test_realized_hermite_functions_are_orthonormal():
    from tfcert import inner_product
    hs = [realize_window(WindowParams(1.0, np.eye(4)[k])) for k in range(4)]
    for i, hi in enumerate(hs):
        for j, hj in enumerate(hs):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(hi, hj) - want) < 1e-10


def test_width_one_coeff_one_is_unit_gaussian():
    g = realize_window(gaussian_params())
    ref = make_gaussian(1)
    ts = np.linspace(-4, 4, 101)
    np.testing.assert_allclose(g(ts), ref(ts), atol=1e-14)


def test_tail_ratio_at_target_boundary():
    # R chosen just inside the radius where |V| = 1/2, so the boundary-ring
    # maximum lands a hair above the target and 'achieved' stays false
    f = make_gaussian(1)
    R = 0.66428
    ratio = tail_ratio(f, gaussian_params(), R)
    assert ratio == pytest.approx(math.exp(-PI * R * R / 2.0), abs=1e-9)
    assert not ratio < 0.5


def test_tail_ratio_well_inside():
    f = make_gaussian(1)
    ratio = tail_ratio(f, gaussian_params(), 2.0)
    assert ratio == pytest.approx(math.exp(-2 * PI), abs=1e-6)
    assert ratio < 0.5


def test_tail_ratio_orthogonal_window_refused():
    f = make_gaussian(1)
    odd = WindowParams(1.0, np.array([0.0, 1.0]))
    with pytest.raises(NearOrthogonalError):
        tail_ratio(f, odd, 1.0)


def test_tail_ratio_scaling_invariance():
    f = make_example1(4.0, 1.0)
    base = WindowParams(1.0, np.array([0.8, 0.3, -0.2]))
    scaled = WindowParams(1.0, 2.5 * np.asarray(base.hermite_coeffs))
    r1 = tail_ratio(f, base, 1.5)
    r2 = tail_ratio(f, scaled, 1.5)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_default_tail_scan_shares_mirrored_ring_shifts():
    # The ring is a quarter circle mirrored in both axes: sample j + 90 is
    # -(sample j) and sample 180 - j is (x_j, -y_j), bit for bit, and sample
    # 45 is (0, R). Basis windows of known parity on an even f read the
    # reflected layout: 41 lattice xs (x >= 0) plus the 45 nonzero ring xs of
    # x > 0, and the origin and samples 0-45 as 47 point kernel rows. A window
    # of unknown parity (an even `realize_window` declares +1, so it is
    # cleared) reads the unreflected one: 81 lattice xs and 90 ring xs, 92
    # point rows, each mirrored value the exact conjugate.
    from tfcert import tfops
    from tfcert.windowsearch import _ring, _TailScan
    ring = _ring(1.7)
    j = np.arange(1, 90)
    assert ring.shape == (180, 2)
    np.testing.assert_array_equal(ring[j + 90], -ring[j])
    np.testing.assert_array_equal(ring[90], -ring[0])
    np.testing.assert_array_equal(ring[180 - j, 0], ring[j, 0])
    np.testing.assert_array_equal(ring[180 - j, 1], -ring[j, 1])
    assert tuple(ring[45]) == (0.0, 1.7)
    rows, inner = [], tfops._folded_planes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfops, "_folded_planes",
                   lambda freqs, *rest: rows.append(freqs.shape[0]) or inner(freqs, *rest))
        tail_scan = _TailScan(make_gaussian(1), 1.7, None, None)
        tail_scan.basis(1.3, range(0, 3, 2))
        scan = tail_scan.scan
        assert scan.even and rows == [41, 47]
        assert scan.layout(True).shifts.shape == (86, 1) and scan.layout(True).xs == 41
        g = replace(realize_window(WindowParams(1.3, np.array([0.6, 0.0, -0.4]))), parity=None)
        at_points = scan.fields(g)[1]
    assert rows == [41, 47, 92]
    assert scan.shifts.shape == (171, 1) and scan.layout(False).xs == 81
    np.testing.assert_array_equal(at_points[1 + 180 - j], np.conj(at_points[1 + j]))


@pytest.mark.parametrize("f, even", [(make_example1(4.0, 2.0), True),
                                     (translate(make_example1(4.0, 2.0), 0.3), False)])
def test_default_search_scan_reflects_only_an_even_f(f, even, monkeypatch):
    # On the default search scan the basis pass of an even f evaluates its
    # windows on 86 shifts, not 171, and sums 47 point kernel rows, not 92;
    # f translated by 0.3 is not even and keeps every shift.
    from tfcert import tfops, windowsearch
    shifts, hermite = [], windowsearch._hermite_functions
    monkeypatch.setattr(windowsearch, "_hermite_functions", lambda s, d, width, **kw:
                        shifts.append(s.shape[0]) or hermite(s, d, width, **kw))
    rows, planes = [], tfops._folded_planes
    monkeypatch.setattr(tfops, "_folded_planes",
                        lambda freqs, *rest: rows.append(freqs.shape[0]) or planes(freqs, *rest))
    scan = windowsearch._TailScan(f, 1.75, None, None)
    scan.basis(1.3, range(4))
    assert scan.scan.even == even
    assert set(shifts) == {86 if even else 171}
    assert rows == [41, 47 if even else 92]


@pytest.mark.parametrize("d", [1, 3, 8])
def test_search_of_an_even_f_has_exactly_zero_odd_coefficients(d):
    res = search(make_example1(4.0, 2.0), R=1.5, N=3, d=d, budget=20)
    for params, _ in res.trace:
        assert params.hermite_coeffs.size == d + 1
        assert np.all(params.hermite_coeffs[1::2] == 0.0)
    assert np.any(res.best_params.hermite_coeffs[::2][1:] != 0.0) or d == 1


def test_search_of_a_non_even_f_keeps_its_odd_coefficients():
    res = search(translate(make_example1(4.0, 2.0), 0.3), R=1.5, N=3, d=3, budget=20)
    assert np.all(res.best_params.hermite_coeffs[1::2] != 0.0)


@pytest.mark.parametrize("k, widths", [(0, 10), (1, 4), (3, 2)])
def test_odd_degree_search_is_the_even_degree_below_padded(k, widths):
    # An even f scans the same even windows at degrees 2k and 2k + 1, so with
    # budgets that buy both the same widths the two searches are one search,
    # the odd degree's coefficients padded with a zero.
    f = make_example1(4.0, 2.0)
    cost = lambda d: d + 1 + (d > 0)
    even = search(f, R=1.5, N=3, d=2 * k, budget=max(10, widths * cost(2 * k)))
    odd = search(f, R=1.5, N=3, d=2 * k + 1, budget=widths * cost(2 * k + 1))
    assert len(odd.trace) == len(even.trace) >= 2
    for (p_odd, r_odd), (p_even, r_even) in zip(odd.trace, even.trace):
        assert r_odd == r_even and p_odd.width == p_even.width
        np.testing.assert_array_equal(p_odd.hermite_coeffs, np.append(p_even.hermite_coeffs, 0.0))


@pytest.mark.parametrize("f", [make_gaussian(1), make_example1(4.0, 2.0)])
@pytest.mark.parametrize("width", [1.0 / 16.0, 0.5, 1.3, 4.0, 16.0])
def test_tail_ratio_with_odd_coefficients_matches_the_unfolded_fields(f, width):
    # tail_ratio reads an even f's reflected scan; the scan stft_grid and
    # stft_points build sums every shift of the realized window (one scan
    # holds both here). Fields agree within 1e-14 of their largest value,
    # and the ratios within what that moves them.
    from tfcert.tfops import _STFTScan, axis_quadrature
    from tfcert.windowsearch import SEARCH_LATTICE, _ring, _TailScan
    R = 1.5
    xs = axis_quadrature(SEARCH_LATTICE)[0]
    outside = np.hypot(*np.meshgrid(xs, xs, indexing="ij")) > R
    points = np.vstack([[0.0, 0.0], _ring(R)])
    scan, unfolded = _TailScan(f, R, None, None), _STFTScan(f, None, xs, xs, points)
    coeffs = np.array([0.9, -0.7, 0.5, 0.45, -0.3, 0.2, 0.15, -0.1, 0.05])
    for d in range(9):
        params = WindowParams(width, coeffs[:d + 1])
        lattice, at_points = unfolded.fields(realize_window(params))
        want = np.concatenate([lattice[outside], at_points[1:]])
        top = max(np.abs(want).max(), abs(at_points[0]))
        tail, origin = scan.basis(width, range(d + 1))
        assert np.max(np.abs(tail @ params.hermite_coeffs - want)) <= 1e-14 * top
        assert abs(origin @ params.hermite_coeffs - at_points[0]) <= 1e-14 * top
        denom = abs(at_points[0])
        if denom > 1e-10:
            ratio = np.abs(want).max() / denom
            moved = 1e-14 * top * (1.0 + ratio) / (denom - 1e-14 * top)
            assert abs(tail_ratio(f, params, R) - ratio) <= moved


def test_search_gaussian_easy_target():
    res = search(make_gaussian(1), R=2.0, N=2, d=0, budget=50)
    assert res.achieved
    assert res.evaluations <= 50
    assert res.ratio < 0.5


def test_search_budget_contract():
    res = search(make_gaussian(1), R=2.0, N=2, d=1, budget=10)
    assert res.evaluations <= 10
    assert res.ratio >= 0.0
    assert res.trace


def test_search_trace_monotone():
    res = search(make_example1(4.0, 2.0), R=1.0, N=4, d=4, budget=60)
    ratios = [r for _, r in res.trace]
    assert all(b <= a for a, b in zip(ratios[:-1], ratios[1:]))
    assert res.ratio == ratios[-1]


def test_search_trace_matches_fresh_tail_ratio():
    # search builds the window-independent scan once; every incumbent ratio
    # must be exactly what a standalone tail_ratio gives for that window. The
    # second search finds improvements after its first evaluation, so a
    # scan that drifts between evaluations shows.
    runs = ((make_example1(4.0, 2.0), 1.0, 4, 4, 60),
            (make_example1(4.0, 1.0), 1.5, 3, 1, 30))
    for f, R, N, d, budget in runs:
        res = search(f, R=R, N=N, d=d, budget=budget)
        for params, ratio in res.trace:
            assert ratio == tail_ratio(f, params, R)
    assert len(res.trace) >= 3


def test_search_deterministic():
    a = search(make_gaussian(1), R=1.0, N=3, d=2, budget=40)
    b = search(make_gaussian(1), R=1.0, N=3, d=2, budget=40)
    assert a.evaluations == b.evaluations
    assert a.ratio == b.ratio
    assert len(a.trace) == len(b.trace)
    for (pa, ra), (pb, rb) in zip(a.trace, b.trace):
        assert ra == rb
        assert pa.width == pb.width
        assert np.array_equal(pa.hermite_coeffs, pb.hermite_coeffs)


def test_search_trace_has_unit_max_norm_and_distinct_widths():
    # The tail ratio does not see the scale of c, so every window is kept at
    # unit max norm, and the width search never evaluates a width twice.
    for d, budget in ((0, 30), (2, 40)):
        res = search(make_example1(4.0, 2.0), R=1.5, N=3, d=d, budget=budget)
        widths = [p.width for p, _ in res.trace]
        assert len(widths) >= 5 and len(set(widths)) == len(widths)
        for params, _ in res.trace:
            assert np.abs(params.hermite_coeffs).max() == 1.0


@pytest.mark.parametrize("f, width", [(make_example1(4.0, 2.0), 1.3), (make_gaussian(1), 0.7)])
def test_lawson_never_worse_than_its_start(f, width):
    from tfcert.windowsearch import _lawson, _row_ratio, _TailScan
    tail, origin = _TailScan(f, 1.5, None, None).basis(width, range(5))
    for d in range(1, 5):
        rows = tail[:, :d + 1], origin[:d + 1]
        for start in (np.eye(1, d + 1)[0], np.array([1.0, -0.5, 0.25, -0.125, 0.0625])[:d + 1]):
            c = _lawson(*rows, start)
            assert np.abs(c).max() == 1.0
            assert _row_ratio(*rows, c) <= _row_ratio(*rows, start)
    # from e_0 at degree 2 the solve finds a better window on both
    rows = tail[:, :3], origin[:3]
    assert _row_ratio(*rows, _lawson(*rows, np.eye(1, 3)[0])) < _row_ratio(*rows, np.eye(1, 3)[0])


@pytest.mark.parametrize("width", [1.0 / 16.0, 1.3, 16.0])
def test_basis_pass_columns_match_single_window_scans(width):
    # Column k of the basis pass at every degree d >= k is the field of the
    # window (width, e_k) scanned on its own.
    from tfcert.windowsearch import MAX_DEGREE, _TailScan
    scan = _TailScan(make_example1(4.0, 2.0), 1.5, None, None)
    single = []
    for e in np.eye(MAX_DEGREE + 1):
        field, sums = scan.scan.fields(realize_window(WindowParams(width, e)))
        single.append(np.concatenate([field[scan.outside], sums[1:], sums[:1]]))
    for d in range(MAX_DEGREE + 1):
        tail, origin = scan.basis(width, range(d + 1))
        assert tail.shape == (single[0].size - 1, d + 1)
        for k in range(d + 1):
            column = np.append(tail[:, k], origin[k])
            assert np.max(np.abs(column - single[k])) <= 1e-13 * np.max(np.abs(single[k]))


def unguarded_hermite_planes(s, d, width):
    """The Hermite planes by the recurrence, `exp` run on every value."""
    h = np.empty((d + 1,) + s.shape)
    h[0] = np.exp(-PI * (s * s)) * (2.0 ** 0.25 / math.sqrt(width))
    y = math.sqrt(2.0 * PI) * s
    for k in range(d):
        h[k + 1] = y * h[k] * math.sqrt(2.0 / (k + 1))
        if k:
            h[k + 1] -= math.sqrt(k / (k + 1)) * h[k - 1]
    return h


@pytest.mark.parametrize("width", [1.0 / 16.0, 0.5, 0.6, 1.0, 2.0])
def test_guarded_hermite_planes_equal_the_flushed_formula(width):
    # Where no plane up to degree d can reach tiny the Gaussian factor is set
    # to zero without `exp`; once flushed, every plane of every degree is the
    # unguarded recurrence flushed, byte for byte, on the offsets of the
    # default search scan (every fourth node), whether a `min` or a bound on
    # |s| (the basis pass's reach) looks for underflow. Below width 1 the
    # guard acts.
    from tfcert import tfops
    from tfcert.windowsearch import MAX_DEGREE, _hermite_functions, _TailScan
    scan = _TailScan(make_example1(4.0, 2.0), 1.8, None, None).scan
    s = (scan.nodes[::4, 0] - scan.shifts) / width
    want = unguarded_hermite_planes(s, MAX_DEGREE, width)
    zeros = np.count_nonzero(want[0] == 0.0)
    underflows = np.count_nonzero(want[0] < np.finfo(float).tiny)
    for plane in want:
        tfops._flush(plane)
    for d in range(MAX_DEGREE + 1):
        for reach in (None, 16.0 / width):
            got = _hermite_functions(s, d, width, reach=reach)
            if width < 1.0 and d == 0:
                assert zeros < np.count_nonzero(got[0] == 0.0) <= underflows
            for plane in got:
                tfops._flush(plane)
            assert got.tobytes() == want[:d + 1].tobytes(), (d, reach)


def test_basis_pass_memory_stays_within_8_mb():
    # The (d + 1) Hermite planes are built one node block at a time, never
    # as a full (d + 1) x shifts x nodes stack (9 x 172 x 4096 doubles, 51 MB).
    import tracemalloc
    from tfcert.windowsearch import MAX_DEGREE, _TailScan
    scan = _TailScan(make_example1(4.0, 2.0), 1.5, None, None)
    for d in range(MAX_DEGREE + 1):
        tracemalloc.start()
        try:
            scan.basis(1.3, range(d + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, (d, peak)


def test_search_demo_config_ratio():
    # The demo's search; a simplex over width and coefficients reached 0.17960.
    res = search(make_example1(4, 2), R=1.5, N=3, d=3, budget=90)
    assert res.ratio < 0.1790
    assert res.evaluations <= 90


def test_search_stops_at_the_smallest_step():
    # Steps in log2 w below 2^-20 moved this ratio by 8e-8 relative, at the
    # cost of 65 more of the 105 evaluations the search used without a floor.
    result = search(make_example1(4, 2), R=1.5, N=3, d=0, budget=200)
    assert result.evaluations <= 45
    assert result.ratio == pytest.approx(0.17784546189, rel=1e-6)


# A zero f leaves nothing to solve; an f beyond |t| = 24 gives windows of
# width at most 2 a zero <f, g_k> on every basis window, so Lawson's
# constraint a . c = 1 fixes no hyperplane. Each search refuses: at d = 2 a
# budget of 10 affords the widths 1 and 2^0.5 alone, and at d = 0 a budget
# of 200 lets the zero f's search try every width its doubling and halving
# steps reach, each once, and stop.
_ZERO = FunctionEvaluator(1, lambda t: np.zeros_like(t))
_FAR = FunctionEvaluator(1, lambda t: np.where(np.abs(t) > 24.0, np.exp(24.0 - np.abs(t)), 0.0))


@pytest.mark.parametrize("f, grid, lattice, d, budget", [
    (_ZERO, None, None, 2, 10),
    (_FAR, GridSpec(32.0, 4096), GridSpec(32.0, 81), 2, 10),
    (_ZERO, None, None, 0, 200),
], ids=["zero", "far", "zero-every-width"])
def test_search_without_a_usable_window_refuses(f, grid, lattice, d, budget):
    with pytest.raises(NumericalRefusal, match="no usable window"):
        search(f, R=1.5, N=3, d=d, budget=budget, lattice=lattice, grid=grid)


def test_search_with_no_usable_unit_width_looks_farther_out():
    # Widths 1, 2, 4 and 8 leave |<f, g>| of the far f below DENOM_FLOOR.
    # With no incumbent the step doubles instead of halving, so the search
    # reaches width 16 within its budget instead of refusing.
    grid, lattice = GridSpec(32.0, 4096), GridSpec(32.0, 81)
    res = search(_FAR, R=1.5, N=3, d=0, budget=200, lattice=lattice, grid=grid)
    assert res.best_params.width > 8.0 and not res.achieved
    assert res.ratio == tail_ratio(_FAR, res.best_params, 1.5, lattice, grid)


def test_search_keeps_its_window_where_the_solve_is_singular():
    # f is one node at t = 0, complex so that no even fold drops h_1. The
    # ring of R = 1000 shifts the windows by x = 0 or |x| > 34, and no point
    # of the 3 x 3 lattice lies outside it. h_1(0) = 0 and h_1 underflows
    # far out, so h_1's tail column and <f, h_1> are exactly 0, Lawson's
    # KKT system is singular, and each width keeps the Gaussian.
    delta = FunctionEvaluator(1, lambda t: np.where(t == 0.0, 1.0 + 1.0j, 0.0))
    res = search(delta, R=1000.0, N=3, d=1, budget=10, grid=GridSpec(8.0, 4097),
                 lattice=GridSpec(8.0, 3))
    assert res.best_params.hermite_coeffs.tolist() == [1.0, 0.0]
    assert res.ratio == pytest.approx(1.0) and not res.achieved


def test_search_rejects_tiny_budget():
    with pytest.raises(InputError):
        search(make_gaussian(1), R=1.0, N=2, d=0, budget=5)


def test_achieved_config_upgrades_to_theorem3_certificate():
    # achieved at double lattice density ties into the full TF certificate
    f = make_gaussian(1)
    params = gaussian_params()
    R, N = 2.0, 2
    coarse = tail_ratio(f, params, R, GridSpec(8.0, 81))
    fine = tail_ratio(f, params, R, GridSpec(8.0, 161))
    assert coarse < 1.0 / N and fine < 1.0 / N
    g = realize_window(params)
    lam = PointSet.from_rows([[0, 0], [2.5, 0]])  # pairwise distance > R
    cert = check_theorem3(f, g, lam)
    assert cert.certified


def test_search_result_serializes():
    import json
    res = search(make_gaussian(1), R=2.0, N=2, d=0, budget=12)
    back = json.loads(json.dumps(report_json(res)))
    assert back["achieved"] is True
    assert back["target"] == 0.5
    assert back["trace"]
