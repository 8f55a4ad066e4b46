import math
from dataclasses import replace

import numpy as np
import pytest

from tfcert import (FunctionEvaluator, GridSpec, InputError,
                    NearOrthogonalError, NotCertifiableError, NumericalRefusal,
                    PointSet, best_translate, check_corollary1,
                    check_corollary2, check_corollary3, check_lemma1,
                    check_theorem1, check_theorem2, check_theorem3,
                    decay_radius, dilation_threshold, dilation_threshold_freq,
                    gram_matrix, hermite_function, make_example1,
                    make_example2, make_gaussian, make_singular_cos, stretch,
                    translate)

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


def test_decay_radius_requires_envelope_in_rigorous_mode():
    dense = replace(make_gaussian(1), envelope=None)
    with pytest.raises(NumericalRefusal):
        decay_radius(dense, 3, require_envelope=True)


# ---------------------------------------------------------------------------
# check_lemma1
# ---------------------------------------------------------------------------

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
        assert cert.to_json()["threshold_r"] is None


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
    shifted_lam = PointSet.from_rows(
        [[p.x[0] + a, p.omega[0]] for p in lam.points])
    tf = translate(f, a).with_envelope(f.envelope)
    moved = check_theorem1(tf, shifted_lam, anchor=a)
    assert moved.verdict == base.verdict
    assert moved.R == base.R
    assert moved.M == base.M


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
# best_translate
# ---------------------------------------------------------------------------

def test_best_translate_returns_origin_when_certified():
    f = make_example1(8.0, 0.0)
    a = best_translate(f, [0.0, 1.0, 2.0, 3.0])
    assert a is not None
    assert a[0] == 0.0


def test_best_translate_recovers_shift():
    f = translate(make_example1(8.0, 0.0), 5.0)
    a = best_translate(f, [0.0, 1.0, 2.0, 3.0])
    assert a is not None
    # anywhere on the flat inner branch (width 1/8 around the moved peak) works
    assert abs(a[0] - 5.0) <= 0.125 + GridSpec.default(1).step
    # the re-anchored check must actually pass
    assert check_lemma1(translate(f, -a), [0.0, 1.0, 2.0, 3.0]).certified


def test_best_translate_hopeless_spacing():
    assert best_translate(make_gaussian(1), [0.0, 0.1, 0.2]) is None


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


def test_dilation_threshold_zero_separation_rejected():
    lam = PointSet.from_rows([[0, 0], [0, 1]])
    with pytest.raises(InputError):
        dilation_threshold(make_gaussian(1), lam)


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


def test_dilation_threshold_freq_gaussian():
    lam = PointSet.from_rows([[0, 0], [1, 1], [2, 2]])  # freq separation 1
    r = dilation_threshold_freq(make_gaussian(1), lam)
    assert r == pytest.approx(GAUSS_R3, abs=0.02)
    assert check_corollary2(stretch(make_gaussian(1), 2.0 * r), lam).certified
    assert not check_corollary2(stretch(make_gaussian(1), r / 2.0), lam).certified


def test_dilation_threshold_freq_zero_separation():
    lam = PointSet.from_rows([[0, 1], [2, 1]])
    with pytest.raises(InputError):
        dilation_threshold_freq(make_gaussian(1), lam)


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


def test_theorem2_rejects_bad_inputs():
    with pytest.raises(InputError):
        check_theorem2(make_gaussian(1), lam_times([0, 2]))  # no singularity
    with pytest.raises(InputError):
        check_theorem2(make_singular_cos(1.0),
                       PointSet.from_rows([[0, 0], [0, 1]]))  # zero separation


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


def test_theorem3_single_point():
    g = make_gaussian(1)
    cert = check_theorem3(g, g, PointSet.from_rows([[0.0, 0.0]]))
    assert cert.certified


def test_theorem3_near_orthogonal_refused():
    g = make_gaussian(1)
    odd = hermite_function(1)
    with pytest.raises(NearOrthogonalError):
        check_theorem3(odd, g, PointSet.from_rows([[0, 0], [2, 0]]))


# ---------------------------------------------------------------------------
# certificate structure
# ---------------------------------------------------------------------------

def test_certificate_serialization_round_trip():
    import json
    f = make_example1(8.0, 5.0)
    cert = check_theorem1(f, lam_times([0, 1, 2, 3]))
    blob = json.dumps(cert.to_json())
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
