import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfcert import (FunctionEvaluator, GridSpec, InputError,
                    NearOrthogonalError, NotCertifiableError, NumericalRefusal,
                    PointSet, SingularityHitError, WindowParams, check_corollary1,
                    check_corollary2, check_corollary3, check_lemma1,
                    check_theorem1, check_theorem2, check_theorem3,
                    decay_radius, dilation_threshold, dilation_threshold_freq,
                    gram_matrix, make_example1, make_example2, make_gaussian,
                    make_singular_cos, realize_window, report_json, stretch,
                    sup_outside, translate)
from tfcert.tfops import quadrature_points

PI = math.pi
GAUSS_R3 = math.sqrt(math.log(2.0) / PI)          # envelope = peak/2
THM3_R4 = math.sqrt(2.0 * math.log(3.0) / PI)     # |V| = <f,g>/3
GAUSS_ENV_STFT = lambda r: math.exp(-PI * r * r / 2.0)


def lam_times(times, freqs=None):
    freqs = freqs if freqs is not None else [0.0] * len(times)
    return PointSet.from_rows([[t, w] for t, w in zip(times, freqs)])


# ---------------------------------------------------------------------------
# decay_radius
# ---------------------------------------------------------------------------

def test_decay_radius_example1_closed_form():
    # envelope min(C, 1/r) drops below C/(N-1) exactly at (N-1)/C
    f = make_example1(8.0, 1.0)
    assert decay_radius(f, 4) == pytest.approx(3.0 / 8.0, abs=2e-9)


def test_decay_radius_gaussian_strict_everywhere():
    assert decay_radius(make_gaussian(1), 2) == 0.0


def test_decay_radius_gaussian_n3():
    assert decay_radius(make_gaussian(1), 3) == pytest.approx(GAUSS_R3, abs=1e-8)


def test_decay_radius_monotone_in_n():
    for f in (make_gaussian(1), make_example1(5.0, 2.0)):
        radii = [decay_radius(f, n) for n in range(2, 9)]
        for lo, hi in zip(radii[:-1], radii[1:]):
            assert hi >= lo


def counted(envelope, limit=10_000):
    """`envelope`, raising once it has been called `limit` times, so that a
    bisection which never ends fails in seconds instead of hanging."""
    calls = 0

    def wrapped(r):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise RuntimeError(f"envelope called more than {limit} times")
        return envelope(r)
    return wrapped


def test_theorem1_far_crossing_bisection_ends():
    # min(C, 1/r) with C = 1e-7 crosses C/2 at 2e7, beyond 2^23, where
    # adjacent floats lie more than BISECT_TOL apart.
    f = make_example1(1e-7, 1.0)
    cert = check_theorem1(f.with_envelope(counted(f.envelope)),
                          lam_times([0.0, 1.0, 2.0]))
    assert cert.sup_method == "Envelope"
    assert cert.verdict == "NotCertified"
    assert Fraction(cert.R) * Fraction(1e-7) > 2
    assert cert.R == pytest.approx(2e7, rel=1e-15)


def test_corollary1_far_stretch_bisection_ends():
    # Stretching by r = 1e8 moves the Gaussian's crossing to 1e8 GAUSS_R3.
    g = make_gaussian(1)
    cert = check_corollary1(g.with_envelope(counted(g.envelope)),
                            lam_times([0.0, 1.0, 2.0]), r=1e8)
    assert cert.sup_method == "Envelope"
    assert cert.verdict == "NotCertified"
    assert cert.R == pytest.approx(1e8 * GAUSS_R3, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(N=st.integers(2, 12), log_radius=st.floats(-3.0, 8.99))
def test_decay_radius_example1_lies_beyond_the_exact_crossing(N, log_radius):
    # The envelope min(C, 1/r) drops below C/(N-1) exactly beyond (N-1)/C, so
    # a rigorous R satisfies R C > N - 1 in exact arithmetic, at every scale
    # up to ENVELOPE_HORIZON.
    C = (N - 1) / 10.0 ** log_radius
    f = make_example1(C, 0.0)
    R = decay_radius(f.with_envelope(counted(f.envelope)), N)
    assert Fraction(R) * Fraction(C) > N - 1
    assert R <= (N - 1) / C * (1.0 + 1e-15) + 1e-9


def test_decay_radius_vanishing_anchor_rejected():
    odd = FunctionEvaluator(dim=1, fn=lambda t: (t * np.exp(-t * t)).astype(complex))
    with pytest.raises(InputError):
        decay_radius(odd, 3)


def test_decay_radius_flat_envelope_not_certifiable():
    f = FunctionEvaluator(dim=1, fn=lambda t: np.exp(-t * t).astype(complex),
                          envelope=lambda r: 1.0)
    with pytest.raises(NotCertifiableError):
        decay_radius(f, 3)


def test_decay_radius_dense_sample_matches_envelope():
    g = make_gaussian(1)
    dense = replace(g, envelope=None)
    r_env = decay_radius(g, 3)
    r_dense = decay_radius(dense, 3)
    assert abs(r_dense - r_env) < 2 * GridSpec.default(1).step


def gaussian_with_bump(centre):
    """The Gaussian plus a narrow bump of height 1.2 at `centre`, no envelope."""
    return FunctionEvaluator(dim=1, fn=lambda t: 2.0 ** 0.25 * np.exp(-PI * t * t)
                             + 1.2 * np.exp(-10.0 * PI * (t - centre) ** 2))


@pytest.mark.parametrize("centre", [3.0, 5.5, 8.0])
def test_sampled_decay_radius_clears_every_reaching_sample(centre):
    # The default grid holds many radii twice, at t and -t, and the bump
    # reaches the bound |f(0)| at one of them; the order of tied samples must
    # not matter, so a function and its mirror image get the same radius.
    pts, _ = quadrature_points(GridSpec.default(1), 1)
    radii = []
    for c in (centre, -centre):
        f = gaussian_with_bump(c)
        try:
            R = decay_radius(f, 2)
        except NotCertifiableError:  # no sample lies beyond the bump
            radii.append(None)
            continue
        reach = np.abs(f(pts)) >= abs(f(0.0))
        assert not reach[np.abs(pts[:, 0]) >= R].any()
        radii.append(R)
    assert radii[0] == radii[1]


def plane_gaussian_with_bump(centre):
    """The 2-D Gaussian plus a narrow bump of height 1.2 at `centre`, no envelope."""
    centre = np.asarray(centre, dtype=float)
    return FunctionEvaluator(dim=2, fn=lambda t: np.exp(-PI * np.sum(t * t, axis=1))
                             + 1.2 * np.exp(-10.0 * PI * np.sum((t - centre) ** 2, axis=1)))


def test_mirrored_functions_get_identical_dense_radii():
    # A function and its mirror f(-t) take the same values at mirrored nodes
    # of the exactly antisymmetric grid axis, so their sampled radii agree.
    # On an axis straight from np.linspace they differed, by up to a grid
    # step, at 81 of the 200 1-D centres and 8 of the 9 2-D ones.
    for c in np.linspace(1.5, 7.9, 200):
        assert decay_radius(gaussian_with_bump(c), 2) == decay_radius(gaussian_with_bump(-c), 2)
    for c in np.linspace(1.5, 5.5, 9):
        f, g = plane_gaussian_with_bump([c, 0.5 * c]), plane_gaussian_with_bump([-c, -0.5 * c])
        assert decay_radius(f, 2) == decay_radius(g, 2)


def test_theorem1_dense_scan_refuses_a_bump_on_the_grid_edge():
    # |f(-8)| = 1.2 reaches the bound |f(0)| on the last sampled radius, so
    # no sampled radius certifies {(0, 0), (9, 0)}.
    with pytest.raises(NotCertifiableError):
        check_theorem1(gaussian_with_bump(-8.0), lam_times([0.0, 9.0]))


# ---------------------------------------------------------------------------
# check_lemma1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check", [
    lambda f, rows: check_theorem1(f, PointSet.from_rows(rows)),
    lambda f, rows: check_lemma1(f, [r[0] for r in rows]),
], ids=["thm1", "lemma1"])
def test_pairwise_differences_beyond_the_value_bound_are_refused_before_any_evaluation(
        check, monkeypatch):
    # 32 rows make 32^2 = 1,024 time differences.
    from tfcert import tfops
    calls = []
    f = make_example1(4.0, 1.0)
    counting = replace(f, fn=lambda t: calls.append(np.size(t)) or f.fn(t))
    rows = [[8.0 * k, 0.0] for k in range(32)]  # the radius is 31 / 4
    monkeypatch.setattr(tfops, "MAX_ARRAY_VALUES", 1023)
    with pytest.raises(InputError, match="pairwise differences beyond 1023 values"):
        check(counting, rows)
    assert calls == []
    monkeypatch.setattr(tfops, "MAX_ARRAY_VALUES", 1024)
    assert check(counting, rows).verdict == "Certified"


def test_pair_differences_hold_their_own_value_bound(monkeypatch):
    # 1,025 rows of length 1 make 1,025^2 > 2^20 differences: refused before
    # any is formed, with no caller sizing them first
    import tracemalloc
    from tfcert import certify, tfops
    monkeypatch.setattr(tfops, "MAX_ARRAY_VALUES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="pairwise differences beyond 1048576 values"):
            certify._pair_differences(np.zeros((1025, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert certify._pair_differences(np.arange(6.0).reshape(3, 2)).tolist() == [
        [-2, -2], [-4, -4], [2, 2], [-2, -2], [4, 4], [2, 2]]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_min_pairwise_matches_the_upper_triangle_of_the_distance_matrix(n):
    # the i < j norms of the ordered differences, bit for bit against the
    # upper triangle of the full distance matrix in row-major order
    from tfcert import certify
    rng = np.random.default_rng(n)
    for N in (2, 3, 7, 64, 200):
        vecs = rng.normal(size=(N, n)) * 10.0 ** rng.integers(-3, 4)
        dist = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=2)
        want = dist[np.triu_indices(N, k=1)]
        M, pair = certify._min_pairwise(vecs)
        assert np.array_equal(pair, want) and M == want.min()


@pytest.mark.parametrize("builder, bound", [("_pair_differences", 2.1), ("_min_pairwise", 2.6)])
def test_pairwise_builders_peak_near_twice_the_differences(builder, bound):
    # The diagonal drops by a reshape and the i < j pairs by a mask of the
    # array's own shape, so numpy makes no int64 index arrays: at 2,048 rows
    # of length 1 the peak stays near twice the (N, N, n) differences.
    import tracemalloc
    from tfcert import certify
    vecs = np.random.default_rng(0).normal(size=(2048, 1))
    tracemalloc.start()
    try:
        getattr(certify, builder)(vecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * vecs.size * vecs.shape[0] * 8


@pytest.mark.parametrize("offset, clear", [(1.0, False), (2.0, True)])
def test_singularity_clearance_floor_is_one_rule(offset, clear):
    # A point SINGULARITY_FLOOR from the singularity of example2 at 0 is
    # refused by the pointwise evaluation and dropped from the quadrature
    # nodes; one twice as far is accepted by both.
    from tfcert import certify, tfops
    f = make_example2(0.0)
    d = offset * tfops.SINGULARITY_FLOOR
    if clear:
        assert certify._eval_abs(f, np.array([[d]]))[0] > 0
    else:
        with pytest.raises(SingularityHitError):
            certify._eval_abs(f, np.array([[d]]))
    pts, _ = quadrature_points(GridSpec(1.0, 3), 1, (np.array([d]),))
    assert (0.0 in pts[:, 0]) == clear


def test_lemma1_single_function():
    cert = check_lemma1(make_gaussian(1), [0.0])
    assert cert.certified
    assert cert.margins == ()


def test_lemma1_example1_separated():
    # all |differences| >= 1, so |f| <= 1 < 8/3 at every difference point
    cert = check_lemma1(make_example1(8.0, 0.0), [0.0, 1.0, 2.0, 3.0])
    assert cert.certified
    assert len(cert.margins) == 12
    assert min(cert.margins) > 0


def test_lemma1_gaussian_too_close():
    cert = check_lemma1(make_gaussian(1), [0.0, 0.1, 0.2])
    assert not cert.certified
    # |f(0.1)|/peak = e^{-0.01 pi} ~ 0.969 > 1/2
    worst = min(cert.margins)
    assert worst == pytest.approx(
        2 ** 0.25 / 2 - 2 ** 0.25 * math.exp(-0.01 * PI), abs=1e-12)


def test_lemma1_rejects_vanishing_origin():
    odd = FunctionEvaluator(dim=1, fn=lambda t: (t * np.exp(-t * t)).astype(complex))
    with pytest.raises(InputError):
        check_lemma1(odd, [0.0, 1.0])


# ---------------------------------------------------------------------------
# check_theorem1
# ---------------------------------------------------------------------------

def test_theorem1_example1_certified():
    f = make_example1(8.0, 5.0)
    cert = check_theorem1(f, lam_times([0, 1, 2, 3], [0.3, -1.2, 4.0, 0.9]))
    assert cert.certified
    assert cert.R == pytest.approx(0.375, abs=2e-9)
    assert cert.M == 1.0


def test_theorem1_tiny_radius_is_not_snapped_to_zero():
    # The envelope min(C, 1/r) stays at the peak out to 1/C = 5e-9, beyond
    # the separation 1e-9, so the pointwise check and Theorem 1 both fail.
    f = make_example1(2e8, 0.0)
    cert = check_theorem1(f, lam_times([0.0, 1e-9]))
    assert cert.sup_method == "Envelope"
    assert cert.verdict == "NotCertified"
    assert cert.R > 5e-9
    assert not check_lemma1(f, [0.0, 1e-9]).certified


def test_theorem1_large_radius_is_not_snapped_to_zero():
    # min(C, 1/r) with C = 1e-6 leaves the peak only at 1/C = 1e6, where the
    # bisection's absolute tolerance is below float64 resolution of the bound.
    f = make_example1(1e-6, 0.0)
    cert = check_theorem1(f, lam_times([0.0, 1.0]))
    assert cert.verdict == "NotCertified"
    assert cert.R == pytest.approx(1e6, rel=1e-9)
    assert not check_lemma1(f, [0.0, 1.0]).certified


def test_corollary1_gaussian_pair_has_zero_radius_at_every_stretch():
    # For N = 2 the bound is the Gaussian's own peak: strict everywhere.
    lam = lam_times([0.0, 1.0])
    for r in (0.5, 0.8, 1.0, 1.2537, 1.6, 2.0):
        cert = check_corollary1(make_gaussian(1), lam, r=r)
        assert cert.R == 0.0 and cert.certified, f"r={r}"
        assert report_json(cert)["threshold_r"] is None


def test_theorem1_single_point():
    cert = check_theorem1(make_gaussian(1), PointSet.from_rows([[2.0, 3.0]]))
    assert cert.certified
    assert cert.N == 1


def test_theorem1_duplicate_times_not_certified():
    s2 = math.sqrt(2.0)
    lam = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [s2, s2]])
    cert = check_theorem1(make_example1(8.0, 5.0), lam)
    assert not cert.certified
    assert cert.M == 0.0
    assert "time" in cert.note


def test_theorem1_uncertifiable_radius_at_zero_separation_reads_zero_with_a_note():
    # A constant f never decays, so no radius is certifiable; two coinciding
    # times fail whatever the radius, so R reads 0 and the note says why.
    f = FunctionEvaluator(1, lambda t: np.ones_like(t))
    cert = check_theorem1(f, PointSet.from_rows([[0, 0], [0, 1]]))
    assert (cert.verdict, cert.R, cert.M) == ("NotCertified", 0.0, 0.0)
    doc = report_json(cert)
    assert doc == {"theorem": "Thm1", "verdict": "NotCertified", "N": 2, "R": 0.0, "M": 0.0,
                   "peak": 1.0, "bound": 1.0, "margins": [0.0], "sup_method": "DenseSample",
                   "note": "decay radius not certifiable and min time separation is zero"}


def test_theorem1_rejects_singular_input():
    with pytest.raises(InputError):
        check_theorem1(make_singular_cos(1.0), lam_times([0, 3]))


def test_theorem1_strict_at_tie():
    # M exactly at the decay radius must not certify
    f = make_example1(2.0, 0.0)  # R = (N-1)/2
    cert = check_theorem1(f, lam_times([0.0, 0.5]))  # N=2, R=0.5, M=0.5
    assert not cert.certified


def test_theorem1_translation_invariance_exact():
    # shift the function and the times by the same dyadic amount, resupply
    # the envelope for the re-anchored evaluator: identical (R, M), verdicts
    f = make_example1(8.0, 3.0)
    lam = lam_times([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, -2.0, 0.25])
    base = check_theorem1(f, lam)
    a = 0.5
    shifted_lam = PointSet.from_rows([[x + a, w] for x, w in lam.rows])
    tf = translate(f, a).with_envelope(f.envelope)
    moved = check_theorem1(tf, shifted_lam, anchor=a)
    assert moved.verdict == base.verdict
    assert moved.R == base.R
    assert moved.M == base.M


def test_theorem1_anchor_reads_the_envelope_about_its_centre():
    # |f(-2)| = 1/2 exceeds the bound |f(2)|/2 = 1/4 at distance 4 from the
    # anchor, so R = 4 would be false; 1/(R - 2) = 1/4 gives R = 6 > M = 5.
    cert = check_theorem1(make_example1(8.0, 0.0), lam_times([0.0, 5.0, 10.0]),
                          anchor=2.0)
    assert cert.sup_method == "Envelope"
    assert cert.verdict == "NotCertified"
    assert cert.R == pytest.approx(6.0, abs=1e-8)


DYADIC = st.integers(-32, 32).map(lambda k: k / 8.0)


@settings(max_examples=60, deadline=None)
@given(a=DYADIC, b=st.integers(-8, 8).map(lambda k: k / 8.0),
       times=st.lists(st.integers(-40, 40), min_size=2, max_size=5, unique=True),
       gaussian=st.booleans())
def test_theorem1_translated_function_keeps_its_certificate(a, b, times, gaussian):
    # translate moves the envelope centre with f, so no envelope is resupplied
    f = make_gaussian(1) if gaussian else make_example1(8.0, 3.0)
    base = check_theorem1(f, lam_times([k / 4.0 for k in times]), anchor=b)
    moved = check_theorem1(translate(f, a), lam_times([k / 4.0 + a for k in times]),
                           anchor=a + b)
    assert (moved.verdict, moved.R, moved.M) == (base.verdict, base.R, base.M)


def test_theorem1_translation_invariance_dense():
    g = replace(make_gaussian(1), envelope=None)
    lam = lam_times([0.0, 1.0, 2.0])
    base = check_theorem1(g, lam)
    a = 0.5
    shifted_lam = lam_times([a, 1.0 + a, 2.0 + a])
    moved = check_theorem1(translate(g, a), shifted_lam, anchor=a)
    assert moved.verdict == base.verdict
    assert abs(moved.R - base.R) <= GridSpec.default(1).step


# ---------------------------------------------------------------------------
# dilation thresholds (time and frequency side)
# ---------------------------------------------------------------------------

def test_dilation_threshold_gaussian():
    thr = dilation_threshold(make_gaussian(1), lam_times([0, 1, 2]))
    assert thr == pytest.approx(1.0 / GAUSS_R3, abs=1e-3)


def test_dilation_threshold_boundary_is_one():
    g = make_gaussian(1)
    R = decay_radius(g, 3)
    thr = dilation_threshold(g, lam_times([0.0, R, 2 * R]))
    assert thr == 1.0


def test_dilation_threshold_example1_scan_points():
    f = make_example1(1.0, 0.0)
    lam = lam_times([0, 1, 2, 3])
    thr = dilation_threshold(f, lam)
    assert thr == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert check_theorem1(stretch(f, 0.30), lam).certified
    assert not check_theorem1(stretch(f, 0.34), lam).certified


def test_dilation_threshold_zero_separation_is_zero():
    # Two points with one time are never time-separated, so no stretch
    # r in (0, M/R) passes Theorem 1: the threshold is 0, and Corollary 1
    # reads NotCertified.
    lam = PointSet.from_rows([[0, 0], [0, 1]])
    assert dilation_threshold(make_gaussian(1), lam) == 0.0
    cert = check_corollary1(make_gaussian(1), lam, r=0.5)
    assert cert.threshold_r == 0.0 and cert.verdict == "NotCertified"


def test_corollary1_contract_scan():
    # 20 log-spaced stretch factors below the threshold all certify
    for f in (make_gaussian(1), make_example1(6.0, 2.0), make_example1(2.0, 0.0)):
        lam = lam_times([0, 1.3, 2.6, 3.9])
        thr = dilation_threshold(f, lam)
        for r in np.geomspace(thr / 100.0, thr * 0.999, 20):
            assert check_theorem1(stretch(f, r), lam).certified, f"failed at r={r}"


def test_check_corollary1_records_threshold():
    cert = check_corollary1(make_gaussian(1), lam_times([0, 1, 2]), r=1.0)
    assert cert.theorem == "Cor1"
    assert cert.threshold_r == pytest.approx(1.0 / GAUSS_R3, abs=1e-3)
    assert cert.certified  # r=1 < threshold


def peak_calls(f, anchor=0.0):
    """f with a list that records each call made at the anchor alone."""
    calls = []

    def fn(t):
        if np.size(t) == f.dim and np.all(np.ravel(t) == anchor):
            calls.append(t)
        return f.fn(t)
    return replace(f, fn=fn), calls


@pytest.mark.parametrize("dense", [False, True])
def test_theorem1_evaluates_the_peak_once(dense):
    g = make_gaussian(1)
    g, calls = peak_calls(replace(g, envelope=None) if dense else g)
    assert check_theorem1(g, lam_times([0.0, 1.0, 2.0])).certified
    assert len(calls) == 1


def test_corollary2_evaluates_the_peak_of_fhat_once(monkeypatch):
    from tfcert import certify
    fourier, seen = certify.fourier, []

    def counted_fourier(f, grid=None):
        fhat, calls = peak_calls(fourier(f, grid))
        seen.append(calls)
        return fhat
    monkeypatch.setattr(certify, "fourier", counted_fourier)
    assert check_corollary2(make_gaussian(1), PointSet.from_rows([[0, 0], [0, 1], [0, 2]])).certified
    assert [len(calls) for calls in seen] == [1]


def odd_gaussian():
    return FunctionEvaluator(1, lambda t: t * np.exp(-PI * t * t))


def not_square_integrable():
    return FunctionEvaluator(1, lambda t: np.ones_like(t), square_integrable=False)


# Each threshold is its certificate's M/R (time) or R/M (frequency); no
# separation, a single point and a radius of 0 read as 0 or +inf, and a
# certificate that refuses makes its threshold refuse alike.
@pytest.mark.parametrize("threshold, check, f, rows, expected", [
    (dilation_threshold, check_theorem1, make_gaussian, [[0, 0]], math.inf),
    (dilation_threshold, check_theorem1, make_gaussian, [[0, 0], [0, 1]], 0.0),
    (dilation_threshold, check_theorem1, make_gaussian, [[0, 0], [1, 0]], math.inf),
    (dilation_threshold, check_theorem1, make_gaussian, [[0, 0], [1, 0], [2, 0]],
     lambda c: c.M / c.R),
    (dilation_threshold, check_theorem1, odd_gaussian, [[0, 0]], InputError),
    (dilation_threshold_freq, check_corollary2, make_gaussian, [[0, 0]], 0.0),
    (dilation_threshold_freq, check_corollary2, make_gaussian, [[0, 1], [2, 1]], math.inf),
    (dilation_threshold_freq, check_corollary2, make_gaussian, [[0, 0], [1, 1], [2, 2]],
     lambda c: c.R / c.M),
    (dilation_threshold_freq, check_corollary2, not_square_integrable, [[0, 0]],
     NumericalRefusal),
])
def test_dilation_threshold_reads_its_certificate(threshold, check, f, rows, expected):
    f, lam = f(), PointSet.from_rows(rows)
    if isinstance(expected, type):
        with pytest.raises(expected) as certificate_refusal:
            check(f, lam)
        with pytest.raises(expected) as threshold_refusal:
            threshold(f, lam)
        assert str(threshold_refusal.value) == str(certificate_refusal.value)
        return
    cert = check(f, lam)
    assert threshold(f, lam) == (expected(cert) if callable(expected) else expected)


# ---------------------------------------------------------------------------
# corollary 2 / 3 (frequency side)
# ---------------------------------------------------------------------------

def test_corollary2_gaussian_frequency_separated():
    lam = PointSet.from_rows([[0, 0], [0, 1], [0, 2]])
    cert = check_corollary2(make_gaussian(1), lam)
    assert cert.certified
    assert cert.sup_method == "DenseSample"
    assert cert.R == pytest.approx(GAUSS_R3, abs=0.02)
    assert cert.M == 1.0


def test_corollary2_single_point():
    cert = check_corollary2(make_gaussian(1), PointSet.from_rows([[1.0, 2.0]]))
    assert cert.certified


def test_corollary2_duplicate_frequencies():
    lam = PointSet.from_rows([[0, 1], [2, 1], [4, 3]])
    cert = check_corollary2(make_gaussian(1), lam)
    assert not cert.certified
    assert cert.M == 0.0
    assert "frequency" in cert.note and "time" not in cert.note


def test_dilation_threshold_freq_gaussian():
    lam = PointSet.from_rows([[0, 0], [1, 1], [2, 2]])  # freq separation 1
    r = dilation_threshold_freq(make_gaussian(1), lam)
    assert r == pytest.approx(GAUSS_R3, abs=0.02)
    assert check_corollary2(stretch(make_gaussian(1), 2.0 * r), lam).certified
    assert not check_corollary2(stretch(make_gaussian(1), r / 2.0), lam).certified


def test_dilation_threshold_freq_zero_separation():
    # Two points with one frequency leave no stretch r above the threshold
    # that passes Corollary 2: the threshold is +inf, and Corollary 3 reads
    # NotCertified.
    lam = PointSet.from_rows([[0, 1], [2, 1]])
    assert dilation_threshold_freq(make_gaussian(1), lam) == math.inf
    cert = check_corollary3(make_gaussian(1), lam, r=2.0)
    assert cert.threshold_r == math.inf and cert.verdict == "NotCertified"


def test_check_corollary3_records_threshold():
    lam = PointSet.from_rows([[0, 0], [1, 1], [2, 2]])
    cert = check_corollary3(make_gaussian(1), lam, r=1.5)
    assert cert.theorem == "Cor3"
    assert cert.certified  # 1.5 > threshold ~ 0.47
    assert cert.threshold_r == pytest.approx(GAUSS_R3, abs=0.02)


# ---------------------------------------------------------------------------
# check_theorem2
# ---------------------------------------------------------------------------

def test_theorem2_singular_cos():
    f = make_singular_cos(1.0)
    cert = check_theorem2(f, lam_times([0, 2, 4, 6], [0, 1, 0, 1]))
    assert cert.certified
    x = cert.translate_x[0]
    assert 0 < abs(x) < 1.0 / 3.0
    assert min(cert.margins) > 0


def test_theorem2_example2_tight_bound():
    f = make_example2(0.0)
    cert = check_theorem2(f, lam_times([0, 2, 4, 6], [0, 0, 1, 1]))
    assert cert.certified
    assert abs(cert.translate_x[0]) < 1.0 / 81.0


def test_theorem2_single_point():
    cert = check_theorem2(make_singular_cos(1.0), PointSet.from_rows([[0.0, 0.0]]))
    assert cert.certified
    assert cert.translate_x is not None


def test_theorem2_consistency_margins_are_lemma1_margins():
    f = make_singular_cos(1.0)
    lam = lam_times([0, 3, 6, 9], [0, 0, 0, 1])
    cert = check_theorem2(f, lam)
    inner = check_lemma1(translate(f, -cert.translate_x),
                         [row for row in lam.times()])
    assert inner.certified
    assert cert.margins == inner.margins


def test_sup_outside_modes():
    from tfcert import sup_outside
    g = make_gaussian(1)
    est = sup_outside(g, 1.0)
    assert est.method == "Envelope"
    assert est.value == pytest.approx(2 ** 0.25 * math.exp(-PI), abs=1e-12)
    dense = sup_outside(replace(g, envelope=None), 1.0)
    assert dense.method == "DenseSample"
    assert dense.value <= est.value + 1e-12  # sampled max never exceeds the bound


@pytest.mark.parametrize("f, center", [
    (make_gaussian(1), [0.5]),
    (make_gaussian(2), [0.3, 0.4]),
    (translate(make_example1(8.0, 0.0), 3.0), [1.0]),
])
def test_sup_outside_reads_the_envelope_about_any_center(f, center):
    offset = float(np.linalg.norm(np.asarray(center) - f.envelope_center))
    for r in (0.25, 1.5, 4.0):
        est = sup_outside(f, r, center=center)
        assert est.method == "Envelope"
        assert est.value == f.envelope(max(0.0, r - offset))
        dense = sup_outside(replace(f, envelope=None), r, center=center)
        assert dense.value <= est.value + 1e-12


def test_sup_outside_samples_the_grid_of_the_decay_radius():
    # no envelope; the taller bump at -7.5 lies off the grid centred on 7,
    # which decay_radius and sup_outside both sample, so they agree
    f = FunctionEvaluator(1, lambda t: np.exp(-PI * (t - 7.0) ** 2)
                          + 1.5 * np.exp(-4.0 * PI * (t + 7.5) ** 2))
    R = decay_radius(f, 2, anchor=[7.0])
    assert sup_outside(f, R, [7.0]).value < abs(f(7.0))
    pts, _ = quadrature_points(None, 1)
    for r in (0.0, 0.5, 3.0):
        t = pts[np.abs(pts[:, 0]) >= r] + 7.0
        assert sup_outside(f, r, [7.0]).value == np.max(np.abs(f(t)))


def test_sup_outside_refuses_a_nonfinite_sample_as_decay_radius_does():
    f = FunctionEvaluator(1, lambda t: np.where(t > 5.0, np.inf, np.exp(-PI * t * t)))
    with pytest.raises(NumericalRefusal, match="nonfinite"):
        decay_radius(f, 2)
    # an infinite sample bounds nothing, so it is refused, not skipped
    with pytest.raises(NumericalRefusal, match="nonfinite"):
        sup_outside(f, 1.0)


# A zero function with a singularity: no walk toward it finds a nonzero value.
_ZERO_SINGULAR = FunctionEvaluator(1, lambda t: np.zeros_like(t), singularities=(0.0,))
# example2 with its envelope centred 5 away from its singularity, where the
# envelope reads +inf at every radius up to 5.
_FAR_CENTRE = replace(make_example2(0.0), envelope_center=np.array([5.0]))
# f = 1e308 beyond |t| = 6: finite <f, g> against a window 4 e^{-pi t^2},
# whose shifts to |x| near 7 overflow the lattice sums.
_FAR_HUGE = FunctionEvaluator(1, lambda t: np.where(np.abs(t) > 6.0, 1e308, 0.0))
_WIDE4 = FunctionEvaluator(1, lambda t: 4.0 * np.exp(-PI * t * t))


@pytest.mark.parametrize("call, error, match", [
    (lambda: sup_outside(replace(make_gaussian(1), envelope=None), 1e3), NumericalRefusal,
     "does not reach outside the ball"),
    (lambda: decay_radius(make_gaussian(1), 1), InputError, "N >= 2"),
    (lambda: check_theorem2(_ZERO_SINGULAR, PointSet.from_rows([[0, 0]])), NumericalRefusal,
     "no certified translate found along the halving sequence"),
    (lambda: check_theorem2(_ZERO_SINGULAR, lam_times([0, 2])), NumericalRefusal,
     "no certified translate found along the halving sequence"),
    (lambda: check_theorem2(_FAR_CENTRE, lam_times([0, 2])), NumericalRefusal,
     "sup bound away from the singularity is infinite"),
    (lambda: check_theorem3(FunctionEvaluator(1, lambda t: np.full_like(t, np.inf)),
                            make_gaussian(1), lam_times([0, 3])), NumericalRefusal,
     "<f, g> is not finite"),
    (lambda: check_theorem3(_FAR_HUGE, _WIDE4, lam_times([0, 3])), NumericalRefusal,
     "not finite on the scanned lattice"),
], ids=["sup-outside-grid", "decay-radius-N", "thm2-single-zero", "thm2-zero",
        "thm2-infinite-sup", "thm3-peak", "thm3-field"])
def test_each_refusal_of_the_checks(call, error, match):
    with np.errstate(all="ignore"), pytest.raises(error, match=match):
        call()


def test_theorem2_rejects_bad_inputs():
    with pytest.raises(InputError):
        check_theorem2(make_gaussian(1), lam_times([0, 2]))  # no singularity


def test_theorem2_repeated_time_is_not_certified():
    # As in check_theorem1: two coinciding times fail, with no exception.
    cert = check_theorem2(make_singular_cos(1.0),
                          PointSet.from_rows([[0, 0], [0, 1], [3, 0]]))
    assert cert.verdict == "NotCertified"
    assert (cert.N, cert.R, cert.M) == (3, 0.0, 0.0)
    assert cert.margins == (0.0, 3.0, 3.0)  # the pairwise time distances
    doc = report_json(cert)
    assert doc["peak"] is None and doc["bound"] is None
    assert doc["note"] == "duplicate time coordinates: min pairwise time separation is zero"


# ---------------------------------------------------------------------------
# check_theorem3
# ---------------------------------------------------------------------------

def test_theorem3_gaussian_radius_and_four_point_set():
    g = make_gaussian(1)
    s2 = math.sqrt(2.0)
    lam = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [s2, s2]])
    cert = check_theorem3(g, g, lam, stft_envelope=GAUSS_ENV_STFT)
    assert cert.certified
    assert cert.R == pytest.approx(THM3_R4, abs=1e-6)
    assert cert.M == pytest.approx(1.0, abs=1e-12)
    assert cert.sup_method == "Envelope"


def test_theorem3_envelope_matches_quadrature():
    from tfcert import stft
    g = make_gaussian(1)
    for x, w in ((0.5, 0.5), (1.0, 0.0), (0.0, 1.5)):
        assert abs(abs(stft(g, g, (x, w))) - GAUSS_ENV_STFT(math.hypot(x, w))) < 1e-6


def test_theorem3_lattice_scan_heuristic():
    g = make_gaussian(1)
    lam = PointSet.from_rows([[0, 0], [1.5, 0], [0, 1.5], [1.5, 1.5]])
    cert = check_theorem3(g, g, lam)
    assert cert.sup_method == "DenseSample"
    # scanned radius = true radius + at most one cell diagonal
    assert THM3_R4 - 0.2 <= cert.R <= THM3_R4 + 0.2
    assert cert.certified


def test_theorem3_lattice_scan_refuses_a_field_at_the_lattice_edge():
    # On half-width 1 the violating set runs off the scanned box, so the
    # scanned radius (1.22) says nothing; half-width 8 resolves R = 1.75.
    f, g = make_example1(8.0, 5.0), make_gaussian(1)
    lam = PointSet.from_rows([[0, 0], [1.3, 0], [0, 1.3]])
    with pytest.raises(NumericalRefusal):
        check_theorem3(f, g, lam, lattice=GridSpec(1.0, 128))
    cert = check_theorem3(f, g, lam, lattice=GridSpec(8.0, 128))
    assert cert.verdict == "NotCertified"
    assert cert.R == pytest.approx(1.754, abs=1e-3)


@pytest.mark.parametrize("f, lattice", [
    (make_example1(4.0, 1.0), None),
    (make_example1(4.0, 1.0), GridSpec(8.0, 33)),  # an odd axis holds x = 0
    (make_gaussian(1), GridSpec(6.0, 64)),
])
def test_theorem3_reads_the_peak_from_its_one_lattice_scan(monkeypatch, f, lattice):
    # <f, g> = V_g f(0) is the one point of the lattice scan, bit for bit the
    # value a separate `stft` scan gives.
    from tfcert import stft, tfops
    built = []
    init = tfops._STFTScan.__init__
    monkeypatch.setattr(tfops._STFTScan, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    g = make_gaussian(1)
    cert = check_theorem3(f, g, PointSet.from_rows([[0, 0], [2.5, 0], [0, 2.5]]),
                          lattice=lattice)
    assert len(built) == 1
    assert cert.sup_method == "DenseSample"
    assert cert.peak == abs(stft(f, g, np.zeros(2)))


def test_theorem3_single_point():
    g = make_gaussian(1)
    cert = check_theorem3(g, g, PointSet.from_rows([[0.0, 0.0]]))
    assert cert.certified


def test_theorem3_envelope_below_the_bound_at_radius_zero():
    # |V_g g| <= 0.1 < |<g, g>|/2 everywhere, so the radius is 0.
    g = make_gaussian(1)
    cert = check_theorem3(g, g, PointSet.from_rows([[0, 0], [1, 0], [0, 1]]),
                          stft_envelope=lambda r: 0.1)
    assert cert.certified and cert.R == 0.0
    doc = report_json(cert)
    assert (doc["verdict"], doc["R"], doc["M"], doc["sup_method"]) == (
        "Certified", 0.0, 1.0, "Envelope")
    assert doc["peak"] == pytest.approx(1.0) and doc["bound"] == pytest.approx(0.5)
    assert doc["margins"] == pytest.approx([1.0, 1.0, math.sqrt(2.0)])
    assert not {"note", "translate_x", "threshold_r"} & doc.keys()


def test_theorem3_near_orthogonal_refused():
    g = make_gaussian(1)
    odd = realize_window(WindowParams(1.0, [0.0, 1.0]))
    with pytest.raises(NearOrthogonalError):
        check_theorem3(odd, g, PointSet.from_rows([[0, 0], [2, 0]]))


# ---------------------------------------------------------------------------
# certificate structure
# ---------------------------------------------------------------------------

def test_certificate_serialization_round_trip():
    import json
    f = make_example1(8.0, 5.0)
    cert = check_theorem1(f, lam_times([0, 1, 2, 3]))
    blob = json.dumps(report_json(cert))
    back = json.loads(blob)
    assert back["theorem"] == "Thm1"
    assert back["verdict"] == "Certified"
    assert back["N"] == 4
    assert back["bound"] == pytest.approx(8.0 / 3.0)
    assert len(back["margins"]) == 6


def test_certificate_bound_is_peak_over_n_minus_one():
    f = make_example1(8.0, 5.0)
    for times in ([0, 1, 2], [0, 1, 2, 3, 4]):
        cert = check_theorem1(f, lam_times(times))
        assert cert.bound == cert.peak / (len(times) - 1)


def test_certified_implies_positive_margins():
    certs = [
        check_theorem1(make_example1(8.0, 5.0), lam_times([0, 1, 2, 3])),
        check_lemma1(make_example1(8.0, 0.0), [0.0, 1.0, 2.0, 3.0]),
        check_theorem3(make_gaussian(1), make_gaussian(1),
                       lam_times([0, 2], [0, 0]), stft_envelope=GAUSS_ENV_STFT),
    ]
    for cert in certs:
        assert cert.certified
        assert all(m > 0 for m in cert.margins)


def test_separation_exceeds_radius_iff_certified():
    # the Thm1/Cor1 verdict is exactly the comparison M > R
    f = make_example1(5.0, 1.0)
    for times in ([0, 0.5, 1.0], [0, 1, 2], [0, 0.61, 1.22], [0, 2, 5]):
        cert = check_theorem1(f, lam_times(times))
        assert cert.certified == (cert.M > cert.R)
    cert = check_corollary1(make_gaussian(1), lam_times([0, 1, 2]), r=3.0)
    assert cert.certified == (cert.M > cert.R)
    assert not cert.certified  # stretched past the threshold


def test_certificate_soundness_spot_check():
    # certified configurations must look independent to the Gram oracle
    f = make_example1(6.0, 1.0)
    lam = lam_times([0, 1, 2, 3], [0.5, -0.5, 1.5, 2.5])
    assert check_theorem1(f, lam).certified
    report = gram_matrix(f, lam)
    assert report.verdict == "Independent"
    assert report.relative_gap > 1e-6
