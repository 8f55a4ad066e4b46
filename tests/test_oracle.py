import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfcert import (FunctionEvaluator, GridSpec, InputError, NumericalRefusal,
                    PointSet, SingularityHitError, check_theorem1, chirp_mul,
                    collocation_rank, default_collocation_points,
                    dependence_residual_er, dilate, er_lattice, gram_matrix,
                    make_example1, make_example2, make_gaussian,
                    make_singular_cos, metaplectic_residual, modulate,
                    report_json, stft_grid, stft_identity_residual, tf_shift,
                    translate)
from tfcert import oracle
from tfcert.tfops import inverse_fourier_multiplier, quadrature_points

PI = math.pi
TWO_PI = 2.0 * np.pi


def bump():
    """Smooth bump supported in [-0.4, 0.4]."""
    def fn(t):
        with np.errstate(all="ignore"):
            u = t / 0.4
            inside = np.abs(u) < 1.0
            vals = np.where(inside, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
        return vals.astype(complex)
    return FunctionEvaluator(dim=1, fn=fn, square_integrable=True)


# ---------------------------------------------------------------------------
# gram_matrix
# ---------------------------------------------------------------------------

def test_gram_disjoint_supports_is_diagonal():
    lam = PointSet.from_rows([[0, 0.4], [1, -2.0], [2, 1.1]])
    report = gram_matrix(bump(), lam)
    assert report.verdict == "Independent"
    assert report.relative_gap == pytest.approx(1.0, abs=1e-10)
    off = report.matrix - np.diag(np.diag(report.matrix))
    assert np.max(np.abs(off)) < 1e-15


def test_gram_gaussian_pair_closed_form():
    lam = PointSet.from_rows([[0, 0], [1, 0]])
    report = gram_matrix(make_gaussian(1), lam)
    assert abs(report.matrix[0, 1]) == pytest.approx(math.exp(-PI / 2), abs=1e-10)
    assert report.sigma_min == pytest.approx(1.0 - math.exp(-PI / 2), abs=1e-10)
    assert report.verdict == "Independent"


def test_gram_near_duplicate_points_read_inconclusive():
    # a shift of 1e-9 is indistinguishable at quadrature accuracy, so the
    # relative gap falls under the dependence threshold; Gaussian translates
    # at distinct points are independent, so the gap shows ill-conditioning
    lam = PointSet.from_rows([[0, 0], [1e-9, 0]])
    report = gram_matrix(make_gaussian(1), lam)
    assert report.verdict == "Inconclusive"
    assert report.relative_gap < 1e-10


# 2 to 64 distinct rows on the grid (1/16) Z^2 in [-1, 1]^2, far denser than
# the Gaussian's translates can be told apart at quadrature accuracy.
_DENSE_ROWS = st.integers(2, 64).flatmap(lambda n: st.lists(
    st.tuples(st.integers(-16, 16), st.integers(-16, 16)), min_size=n, max_size=n,
    unique=True))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_DENSE_ROWS)
def test_gram_never_reads_gaussian_translates_dependent(rows):
    # The Gaussian's translates at distinct points are independent
    # (Groechenig 2001, 3.4), so a small gap is Inconclusive, never Dependent.
    lam = PointSet.from_rows([[x / 16.0, w / 16.0] for x, w in rows])
    assert gram_matrix(make_gaussian(1), lam).verdict != "Dependent"


def traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


LAM_2D = PointSet.from_rows([[0, 0, 0, 0], [1.5, 0, 0, 0], [0, 1.5, 1, 0],
                             [0.5, -0.5, 0, 1]], dim=2)


@pytest.mark.parametrize("f, lam", [
    (make_example1(6.0, 2.0), PointSet.from_rows([[0, 0], [0.7, -1.0], [1.9, 0.4]])),
    # without its factors the 2-D Gaussian takes the dense n-D quadrature
    (dataclasses.replace(make_gaussian(2), factors=None), LAM_2D),
])
def test_gram_matrix_is_weighted_product_bit_for_bit(f, lam):
    grid = GridSpec(4.0, 64 if f.dim == 2 else 1024)
    pts, w = quadrature_points(grid, f.dim)
    phi = np.stack([tf_shift(f, p)(pts) for p in zip(lam.times(), lam.freqs())])
    assert np.array_equal(gram_matrix(f, lam, grid).matrix, (phi * w) @ phi.conj().T)


def _separated(rows, gap=1e-3) -> bool:
    return all(math.dist(a, b) >= gap for i, a in enumerate(rows) for b in rows[:i])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(family=st.one_of(st.just(("gaussian",)),
                        st.tuples(st.just("example1"), st.floats(2.0, 10.0),
                                  st.floats(0.0, 6.0))),
       rows=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                     min_size=2, max_size=6).filter(_separated))
def test_envelope_certified_set_is_never_gram_dependent(family, rows):
    # the provable direction of the HRT conjecture: translates whose times
    # are separated beyond the envelope's decay radius are independent.
    # Rows are drawn at least 1e-3 apart. Two Gaussian rows delta apart have
    # a Gram gap sigma_min / sigma_max of about pi delta^2 / 4: 7.9e-7 at
    # 1e-3, but 8e-19 at 1e-9, far below the EPS_DEP = 1e-10 a floating-point
    # Gram resolves, although Theorem 1 rightly certifies such a pair.
    f = make_gaussian(1) if family[0] == "gaussian" else make_example1(*family[1:])
    lam = PointSet.from_rows(rows)
    cert = check_theorem1(f, lam)
    if cert.certified:
        assert cert.sup_method == "Envelope"
        assert gram_matrix(f, lam).verdict != "Dependent"


def closed_form_gaussian_gram(lam: PointSet) -> np.ndarray:
    """<pi(lambda_i) g, pi(lambda_j) g> for the unit Gaussian g:
    e^{-pi |lambda_i - lambda_j|^2 / 2} e^{pi i (omega_i - omega_j).(x_i + x_j)}."""
    x, omega = lam.times(), lam.freqs()
    d = lam.rows[:, None, :] - lam.rows[None, :, :]
    phase = ((omega[:, None, :] - omega[None, :, :]) * (x[:, None, :] + x[None, :, :])).sum(-1)
    return np.exp(-PI * (d * d).sum(-1) / 2.0) * np.exp(1j * PI * phase)


# Point sets whose points share coordinates (x_k, omega_k) on some axis k, so
# that the per-axis Gram matrices of n = 2 and 3 see repeated axis rows.
GRAM_SETS = {
    1: [[0, 0], [1.5, 0], [0, 1], [-0.5, -1.25], [2, 0.75], [1.5, 1]],
    2: [[0, 0, 0, 0], [1.5, 0, 0, 0], [0, 1.5, 1, 0], [0.5, -0.5, 0, 1],
        [1.5, 1.5, 1, 0], [0, -0.5, 0, 0.5]],
    3: [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0],
        [1, 1, -1, 0.5, 0, 0], [0, 0, 1, 1, 0, -0.5], [1, 0, 1, 0.5, 1, 0]],
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_matches_the_closed_form_gaussian_gram(n):
    lam = PointSet.from_rows(GRAM_SETS[n], dim=n)
    if n > 1:
        axis_rows = [lam.rows[:, [k, k + n]] for k in range(n)]
        assert any(len(np.unique(rows, axis=0)) < len(lam) for rows in axis_rows)
    report = gram_matrix(make_gaussian(n), lam)
    assert np.max(np.abs(report.matrix - closed_form_gaussian_gram(lam))) < 1e-13
    assert report.verdict == "Independent"


def test_factored_gram_agrees_with_the_dense_gram():
    g = make_gaussian(2)
    lam = PointSet.from_rows(GRAM_SETS[2], dim=2)
    factored = gram_matrix(g, lam)
    dense = gram_matrix(dataclasses.replace(g, factors=None), lam)
    assert np.max(np.abs(factored.matrix - dense.matrix)) < 1e-14
    assert abs(factored.sigma_min - dense.sigma_min) < 1e-14
    assert abs(factored.sigma_max - dense.sigma_max) < 1e-14
    assert factored.verdict == dense.verdict


def test_factored_gram_evaluates_on_the_grid_axis_only(monkeypatch):
    # one 1-D Gram per axis on the 512 nodes of the default axis; the 512^3
    # nodes of a dense 3-D grid are beyond MAX_NODES
    seen = []
    shift_values = oracle._shift_values
    monkeypatch.setattr(oracle, "_shift_values",
                        lambda f, lam, pts: seen.append(pts.shape) or shift_values(f, lam, pts))
    gram_matrix(make_gaussian(3), PointSet.from_rows(GRAM_SETS[3], dim=3))
    assert seen == [(512, 1)] * 3


def test_gram_two_dimensional_peak_memory():
    f = make_gaussian(2)
    assert traced_peak_mib(lambda: gram_matrix(f, LAM_2D)) <= 40.0


@pytest.mark.parametrize("f, lam, grid", [
    (make_gaussian(2), LAM_2D, GridSpec.default(2)),
    (make_example1(6.0, 2.0), PointSet.from_rows([[0, 0], [0.7, -1.0], [1.9, 0.4]]),
     GridSpec(8.0, 50001)),
])
def test_shift_rows_blocked_bit_for_bit(f, lam, grid):
    # the grids span several evaluation blocks, the last one partial
    pts, _ = quadrature_points(grid, f.dim)
    whole = np.stack([tf_shift(f, p)(pts) for p in zip(lam.times(), lam.freqs())])
    assert np.array_equal(oracle._shift_values(f, lam, pts), whole)


def test_shift_rows_temporaries_stay_block_sized():
    f = make_gaussian(2)
    pts, _ = quadrature_points(GridSpec.default(2), 2)
    rows_mib = len(LAM_2D) * pts.shape[0] * 16 / 2.0 ** 20
    assert traced_peak_mib(lambda: oracle._shift_values(f, LAM_2D, pts)) <= rows_mib + 2.0


def test_er_residual_peak_memory():
    lattice = er_lattice(3.0, 1.0 / 32.0)
    dependence_residual_er(np.zeros((1, 2)), 1e-9)  # loads the quadrature rule
    assert traced_peak_mib(lambda: dependence_residual_er(lattice, 1e-9)) <= 16.0


def test_er_residual_blocks_bound_memory_and_change_no_value(monkeypatch):
    # The stencil is built block by block of lattice points. Each value
    # depends on its point alone, so any block size gives the same residual,
    # and blocks of a few thousand points keep the peak near 3 MiB, against
    # about 14 MiB for the lattice in one block.
    lattice = er_lattice(3.0, 1.0 / 32.0)  # 37,249 points, one default block
    dependence_residual_er(np.zeros((1, 2)), 1e-9)  # loads the quadrature rule
    want = dependence_residual_er(lattice, 1e-9).max_abs_residual
    for block in (1024, 5000):
        monkeypatch.setattr(oracle, "_ER_STENCIL_BLOCK", block)
        assert traced_peak_mib(lambda: dependence_residual_er(lattice, 1e-9)) <= 4.0
        assert dependence_residual_er(lattice, 1e-9).max_abs_residual == want
    monkeypatch.setattr(oracle, "_ER_STENCIL_BLOCK", 1)
    points = er_lattice(1.0, 0.25)
    assert dependence_residual_er(points, 1e-9).max_abs_residual == \
        _row_sort_er_residuals(points, 1e-9).max()


def test_er_residual_bounds_the_whole_stencil(monkeypatch):
    # Each block of 100 points is a stencil of at most 500 evaluations, under
    # the bound of 1000, but the 300 points make a stencil of 1500.
    from tfcert import funcs
    evaluated = []
    monkeypatch.setattr(funcs, "_er_block", lambda a, b, tol: evaluated.append(a.size)
                        or np.zeros(a.size, dtype=complex))
    monkeypatch.setattr(funcs, "MAX_ER_WORK", 1000)
    monkeypatch.setattr(oracle, "_ER_STENCIL_BLOCK", 100)
    points = np.random.default_rng(0).uniform(-3.0, 3.0, (300, 2))
    with pytest.raises(InputError, match="five-term"):
        dependence_residual_er(points, 1e-9)
    assert evaluated == []
    assert dependence_residual_er(points[:200], 1e-9).max_abs_residual == 0.0


@pytest.mark.parametrize("points", [np.zeros((0, 2)), [[math.nan, 0.0]], [[0.0, math.inf]],
                                    [[1.0, 2.0], [-math.inf, 0.0]]])
def test_er_residual_refuses_empty_and_non_finite_points(points, monkeypatch):
    from tfcert import funcs
    evaluated = []
    monkeypatch.setattr(funcs, "_er_block", lambda a, b, tol: evaluated.append(a.size)
                        or np.zeros(a.size, dtype=complex))
    with pytest.raises(InputError, match="finite points"):
        dependence_residual_er(points, 1e-9)
    assert evaluated == []


def test_gram_refuses_non_square_integrable():
    with pytest.raises(NumericalRefusal, match="collocation"):
        gram_matrix(make_singular_cos(1.0), PointSet.from_rows([[0, 0], [3, 0]]))


def test_gram_and_collocation_reject_oversized_sets():
    lam = PointSet.from_rows([[k, 0] for k in range(65)])
    with pytest.raises(InputError, match="point sets beyond 64"):
        gram_matrix(make_gaussian(1), lam)
    with pytest.raises(InputError, match="point sets beyond 64"):
        collocation_rank(make_gaussian(1), lam, np.linspace(-8.0, 8.0, 100))


def _counting_example1(calls):
    """example1 with C = 4, omega = 1, recording the size of each evaluation."""
    f = make_example1(4.0, 1.0)
    return dataclasses.replace(f, fn=lambda t: calls.append(np.size(t)) or f.fn(t))


@pytest.mark.parametrize("oracle_of", [
    lambda f, lam: gram_matrix(f, lam, GridSpec(8.0, 501)),
    lambda f, lam: collocation_rank(f, lam, np.linspace(-8.0, 8.0, 501)),
], ids=["gram", "collocation"])
def test_shift_matrix_beyond_the_value_bound_is_refused_before_any_evaluation(
        oracle_of, monkeypatch):
    # Two shifts on 501 nodes or sample points make 1,002 values.
    from tfcert import tfops
    monkeypatch.setattr(tfops, "MAX_ARRAY_VALUES", 1001)
    calls = []
    f, lam = _counting_example1(calls), PointSet.from_rows([[0, 0], [2.5, 1]])
    with pytest.raises(InputError, match="shift matrices beyond 1001 values"):
        oracle_of(f, lam)
    assert calls == []
    monkeypatch.setattr(tfops, "MAX_ARRAY_VALUES", 1002)
    assert oracle_of(f, lam).verdict == "Independent"


def test_gram_two_dimensional():
    lam = PointSet.from_rows([[0, 0, 0, 0], [1.5, 0, 0, 0], [0, 1.5, 1, 0]], dim=2)
    report = gram_matrix(make_gaussian(2), lam)
    assert report.verdict == "Independent"


@pytest.mark.parametrize("f", [make_gaussian(1), make_example1(6.0, 2.0),
                               make_example2(1.0)])
def test_gram_hermitian_psd(f):
    lam = PointSet.from_rows([[0, 0], [0.7, -1.0], [1.9, 0.4], [3.1, 2.0]])
    report = gram_matrix(f, lam, GridSpec(8.0, 4096, exclusion_radius=1e-6))
    G = report.matrix
    assert np.max(np.abs(G - G.conj().T)) < 1e-12
    eigs = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    assert eigs[0] > -1e-10


def test_gram_translation_invariance_gaussian():
    # unitary equivalence: exact in L2, matched by quadrature because the
    # Gaussian's mass outside the shifted box is far below the tolerance
    lam = PointSet.from_rows([[0, 0], [1, 1], [2.5, -0.5]])
    base = gram_matrix(make_gaussian(1), lam)
    a = 0.5
    shifted = PointSet.from_rows([[x + a, w] for x, w in lam.rows])
    moved = gram_matrix(translate(make_gaussian(1), a), shifted)
    np.testing.assert_allclose(np.abs(moved.matrix), np.abs(base.matrix), atol=1e-8)


def test_gram_translation_invariance_slow_decay_within_tail_bound():
    # for 1/|t| tails the defect is the boundary slice of the truncation box:
    # per entry at most 2 a env(L - a - max|x|)^2, and it shrinks with the box
    f = make_example1(6.0, 2.0)
    lam = PointSet.from_rows([[0, 0], [1, 1], [2.5, -0.5]])
    a, xmax = 0.5, 2.5

    def defect(L, m):
        grid = GridSpec(L, m)
        base = gram_matrix(f, lam, grid)
        shifted = PointSet.from_rows([[x + a, w] for x, w in lam.rows])
        moved = gram_matrix(translate(f, a), shifted, grid)
        return float(np.max(np.abs(np.abs(moved.matrix) - np.abs(base.matrix))))

    d8 = defect(8.0, 4096)
    assert d8 <= 2 * a * f.envelope(8.0 - a - xmax) ** 2
    d32 = defect(32.0, 16384)
    assert d32 <= 2 * a * f.envelope(32.0 - a - xmax) ** 2
    assert d32 < d8 / 4


# ---------------------------------------------------------------------------
# collocation_rank
# ---------------------------------------------------------------------------

def test_collocation_singular_cos_independent():
    f = make_singular_cos(1.0)
    lam = PointSet.from_rows([[0, 0], [3, 0], [6, 0], [9, 1]])
    pts = default_collocation_points(f, lam)
    report = collocation_rank(f, lam, pts)
    assert report.verdict == "Independent"
    assert report.relative_gap > 1e-6


@pytest.mark.parametrize("exclusion", [0.0, 0.25])
def test_default_collocation_points_clear_singularities_as_quadrature_nodes_do(exclusion):
    # the midpoint 2.5e-10 lies 2.5e-10 from the singularities at 0 and 5e-10:
    # the exclusion radius, floored at 1e-12 as for quadrature nodes, keeps it
    # for a radius of 0, and collocation_rank accepts every kept point
    f = make_singular_cos(1.0)
    lam = PointSet.from_rows([[0, 0], [5e-10, 0], [3, 1]])
    grid = GridSpec(8.0, 512, exclusion)
    pts = default_collocation_points(f, lam, grid)
    sings = np.array([s + x for s in f.singularities for x in lam.times()])
    dist = np.abs(pts[:, None] - sings[None, :, 0]).min(axis=1)
    assert (dist > max(exclusion, 1e-12)).all()
    assert (2.5e-10 in pts) == (exclusion == 0.0)
    collocation_rank(f, lam, pts)


def test_collocation_single_function():
    f = make_gaussian(1)
    report = collocation_rank(f, PointSet.from_rows([[0, 0]]), [0.0, 0.5, 1.0])
    assert report.sigma_min > 0


def test_collocation_degenerate_sampling_is_inconclusive():
    # every sample sits on a zero of cos, so the matrix is numerically zero
    f = make_singular_cos(1.0)
    zeros = [PI / 2, 3 * PI / 2, 5 * PI / 2, 7 * PI / 2]
    report = collocation_rank(f, PointSet.from_rows([[0, 0]]), zeros)
    assert report.sigma_max <= 1e-12
    assert report.verdict == "Inconclusive"


def test_collocation_sample_on_singularity_rejected():
    f = make_singular_cos(1.0)
    lam = PointSet.from_rows([[0, 0], [3, 0]])
    with pytest.raises(SingularityHitError):
        collocation_rank(f, lam, [0.0, 1.0, 2.0])


def test_collocation_keeps_dependent_for_the_er_five_term_set():
    # 2 f - T_{e1} f - T_{-e1} f - T_{e2} f - T_{-e2} f = 0 for the
    # Edgar-Rosenblatt function, which is not in L2
    from tfcert import make_edgar_rosenblatt
    lam = PointSet.from_rows([[0, 0, 0, 0], [1, 0, 0, 0], [-1, 0, 0, 0],
                              [0, 1, 0, 0], [0, -1, 0, 0]], dim=2)
    report = collocation_rank(make_edgar_rosenblatt(), lam, er_lattice(1.0, 0.5))
    assert report.verdict == "Dependent"
    assert report.relative_gap < 1e-10


def test_default_collocation_points_leave_numpy_ma_unloaded(run_child):
    # On numpy >= 2.3, np.unique with no index asked for imports numpy.ma.
    code = ("import sys; from tfcert import PointSet, make_gaussian; "
            "from tfcert.oracle import default_collocation_points; "
            "default_collocation_points(make_gaussian(), PointSet.from_rows([[0, 0], [1, 2]])); "
            "print('numpy.ma' in sys.modules)")
    assert run_child(code).strip() == "False"


def test_default_collocation_points_size_the_set_before_sampling(monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampling began before the set was sized")

    monkeypatch.setattr(oracle, "_kronecker_points", unreachable)
    lam = PointSet.from_rows([[0.5 * k, 0] for k in range(3000)])
    with pytest.raises(InputError, match="beyond 64 elements"):
        default_collocation_points(make_gaussian(1), lam)


def test_collocation_needs_enough_samples():
    lam = PointSet.from_rows([[0, 0], [3, 0]])
    with pytest.raises(InputError):
        collocation_rank(make_gaussian(1), lam, [0.0])


def test_collocation_sound_on_certified_configs():
    rng = np.random.default_rng(13)
    for _ in range(3):
        C = float(rng.uniform(5, 10))
        f = make_example1(C, float(rng.uniform(0, 4)))
        times = np.cumsum(rng.uniform(1.0, 2.0, 4))
        freqs = rng.uniform(-2, 2, 4)
        lam = PointSet.from_rows([[t, w] for t, w in zip(times, freqs)])
        assert check_theorem1(f, lam).certified
        pts = default_collocation_points(f, lam)
        assert len(pts) >= 2 * len(lam)
        assert collocation_rank(f, lam, pts).verdict == "Independent"


# ---------------------------------------------------------------------------
# Edgar-Rosenblatt dependence residual
# ---------------------------------------------------------------------------

def test_er_residual_small_lattice():
    rep = dependence_residual_er(er_lattice(1.0, 0.5), 1e-9)
    assert rep.max_abs_residual < 1e-6
    assert not rep.phase_optimized


def test_er_residual_single_point():
    rep = dependence_residual_er(np.array([[0.0, 0.0]]), 1e-9)
    assert rep.max_abs_residual < 1e-8


def _row_sort_er_residuals(points, quad_tol):
    """The five-term residuals with the stencil points deduplicated by a
    sort of (a, b) rows: the reference for the complex-view sort."""
    from tfcert import make_edgar_rosenblatt
    f = make_edgar_rosenblatt(quad_tol)
    shifts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    flat = np.round((points[None, :, :] + shifts[:, None, :]).reshape(-1, 2), 12)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    vals = f(uniq)[inverse].reshape(5, -1)
    return np.abs(2.0 * vals[0] - vals[1] - vals[2] - vals[3] - vals[4])


def test_er_residual_matches_row_sort_dedupe():
    # The residuals sit at round-off, so equal maxima mean the same values
    # were evaluated. +-1e-13 rounds to +-0.0, so the second lattice's
    # stencil holds both signs of zero.
    axis = np.array([-0.5, -1e-13, 0.0, 1e-13, 0.5])
    signed_zeros = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.signbit(np.round(signed_zeros, 12)[:, 0]).any()
    for points in (er_lattice(3.0, 0.25), signed_zeros):
        want = _row_sort_er_residuals(points, 1e-9).max()
        assert dependence_residual_er(points, 1e-9).max_abs_residual == want


def test_er_residual_negative_control():
    # the dependence is exact with coefficient 2; 2.1 must visibly fail
    from tfcert import make_edgar_rosenblatt
    f = make_edgar_rosenblatt(1e-9)
    pts = np.array([[0.0, 0.0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    v = f(pts)
    assert abs(2.1 * v[0] - v[1] - v[2] - v[3] - v[4]) > 0.01


def test_er_residual_monotone_refinement():
    base = dependence_residual_er(np.array([[0.0, 0.0]]), 1e-7).max_abs_residual
    finer = dependence_residual_er(np.array([[0.0, 0.0]]), 5e-8).max_abs_residual
    assert finer <= base + 1e-12


@pytest.mark.parametrize("half_width, step", [
    (3.0, 0.0), (3.0, -0.25), (3.0, math.nan), (math.nan, 0.25), (-1.0, 0.25),
    (0.0, 0.25), (math.inf, 0.25), (3.0, 1e-300), (3.0, 5e-324), (1000.0, 0.5),
    (1e4, 25.0), (1e5, 250.0), (1000.0, 11.5), (2e4, 1e4),
])
def test_er_lattice_rejects_bad_parameters(half_width, step):
    # (1000, 11.5): 174^2 points, whose stencil of 5 174^2 points at reach
    # 1001, each counted 40.04 times, is just beyond 6e6
    with pytest.raises(InputError):
        er_lattice(half_width, step)


@pytest.mark.parametrize("half_width, step, per_axis", [
    (24.0, 0.05, 961),      # reach 24: only the point count is bounded
    (1000.0, 12.66, 158),   # a stencil of 5 158^2 points, each counted 40.04 times
    (1000.0, 12.6, 159),
    (1000.0, 11.57, 173),   # the largest side at half width 1000
    (1e4, 400.0, 50),       # the largest reach, 1e4 + 1 for the stencil
])
def test_er_lattice_accepts_work_within_bound(half_width, step, per_axis):
    assert er_lattice(half_width, step).shape == (per_axis ** 2, 2)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(half_width=st.floats(0.05, 2e4), step=st.floats(1e-3, 1e3))
def test_er_work_bound_admits_the_stencil_of_every_accepted_lattice(half_width, step):
    # The five-term stencil evaluates at most five points per lattice point,
    # one unit beyond the lattice's reach, in one evaluator call.
    from tfcert import funcs
    try:
        lattice = er_lattice(half_width, step)
    except InputError:
        return
    reach = float(np.abs(lattice).max()) + 1.0
    assert 5 * lattice.shape[0] * funcs.er_weight(reach) <= funcs.MAX_ER_WORK


def test_er_work_bound_admits_residuals_and_the_default_scan(monkeypatch):
    from tfcert import funcs, make_edgar_rosenblatt
    monkeypatch.setattr(funcs, "_er_block", lambda a, b, tol: np.zeros(a.size, dtype=complex))
    # 158^2 points at reach 1001, each counted 40.04 times
    rep = dependence_residual_er(er_lattice(1000.0, 12.66), 1e-9)
    assert rep.max_abs_residual == 0.0
    # the default Theorem 1 scan about the farthest anchor within reach 8.5
    pts, _ = quadrature_points(None, 2)
    assert make_edgar_rosenblatt()(pts + 2.5).shape == (512 ** 2,)
    with pytest.raises(InputError, match="Edgar-Rosenblatt evaluations beyond"):
        make_edgar_rosenblatt()(pts + 1e4)


def test_er_residual_rejects_loose_tolerance():
    with pytest.raises(InputError):
        dependence_residual_er(np.array([[0.0, 0.0]]), 1e-3)


# ---------------------------------------------------------------------------
# STFT identity residual
# ---------------------------------------------------------------------------

def test_stft_identity_zero_shift():
    g = make_gaussian(1)
    rep = stft_identity_residual(g, g, 0.0, 0.0)
    assert rep.max_abs_residual < 1e-12


def test_stft_identity_gaussian():
    g = make_gaussian(1)
    rep = stft_identity_residual(g, g, 1.0, 0.5)
    assert rep.max_abs_residual < 1e-8
    assert rep.identity_name == "stft_covariance"


def test_stft_identity_wrong_phase_control():
    # flipping the phase sign must break the identity visibly somewhere
    g = make_gaussian(1)
    u, eta = 1.0, 0.5
    xs = np.linspace(-3, 3, 33)
    lhs = stft_grid(translate(modulate(g, eta), u), g, xs, xs)
    rhs = stft_grid(g, g, xs - u, xs - eta) * np.exp(+2j * PI * u * xs)[None, :]
    assert float(np.max(np.abs(lhs - rhs))) > 0.1


def test_stft_identity_ordering_phase_relation():
    # M_eta T_u f = e^{2 pi i u eta} T_u M_eta f, exactly
    g = make_gaussian(1)
    u, eta = 0.75, -1.25
    xs = np.linspace(-2, 2, 17)
    first = stft_grid(modulate(translate(g, u), eta), g, xs, xs)
    second = stft_grid(translate(modulate(g, eta), u), g, xs, xs)
    np.testing.assert_allclose(first, np.exp(2j * PI * u * eta) * second,
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# metaplectic residuals
# ---------------------------------------------------------------------------

# The closed-form phase c of each standard identity
# U M_omega T_x f = c M_omega' T_x' U f (Folland 1989, ch. 4).
CLOSED_FORM_PHASE = {
    "dilation": lambda r, x, omega: 1.0 + 0.0j,
    "chirp": lambda r, x, omega: np.exp(-TWO_PI * 1j * r * x * x),
    "fourier_multiplier": lambda r, x, omega: np.exp(TWO_PI * 1j * r * omega * omega),
}


def test_metaplectic_dilation_identity_at_r_one():
    report = metaplectic_residual("dilation", (1.0, 1.0, 1.0), make_gaussian(1))
    assert report.max_abs_residual == 0.0
    assert report.best_phase == 1.0


def test_metaplectic_dilation_standard_convention_exact():
    report = metaplectic_residual("dilation", (2.0, 1.0, 1.0), make_gaussian(1))
    assert report.max_abs_residual < 1e-12
    assert report.identity_name == "dilation_covariance[standard]"
    assert not report.phase_optimized


def test_metaplectic_chirp():
    r, x = 0.5, 1.0
    report = metaplectic_residual("chirp", (r, x, 1.0), make_gaussian(1))
    assert report.max_abs_residual < 1e-12
    assert abs(report.best_phase - np.exp(-2j * PI * r * x * x)) < 1e-15


def test_metaplectic_fourier_multiplier():
    r, omega = 0.25, 0.5
    report = metaplectic_residual("fourier_multiplier", (r, 0.5, omega), make_gaussian(1))
    assert report.max_abs_residual < 1e-8
    assert abs(report.best_phase - np.exp(2j * PI * r * omega * omega)) < 1e-15


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM_PHASE))
@pytest.mark.parametrize("params", [(0.5, 1.0, 1.0), (-0.3764, -0.9793, -0.1431),
                                    (0.1686, 0.0238, 1.2472)])
def test_metaplectic_best_phase_is_the_closed_form(kind, params):
    for f in (make_gaussian(1), make_example1(4.0, 1.0)):
        report = metaplectic_residual(kind, params, f)
        assert report.best_phase == CLOSED_FORM_PHASE[kind](*params)
        assert not report.phase_optimized


# r, x and omega as the freq_side workload draws them: uniform, rounded to
# four decimals, r in [-0.5, 0.5] (nonzero for a dilation), x and omega in
# [-1.5, 1.5].
_pool_value = lambda bound: st.integers(-bound, bound).map(lambda k: k / 1e4)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(CLOSED_FORM_PHASE)),
       r=_pool_value(5000).filter(lambda r: r != 0.0),
       x=_pool_value(15000), omega=_pool_value(15000))
def test_metaplectic_gaussian_standard_residual_is_round_off(kind, r, x, omega):
    report = metaplectic_residual(kind, (r, x, omega), make_gaussian(1))
    assert report.max_abs_residual <= 1e-9


# The right sides as the paper prints them, (omega', x') of M_omega' T_x' U f.
PRINTED = {
    "dilation": ((2.0, 1.0, 1.0), lambda r, x, omega: (omega / r, x * r)),
    "chirp": ((0.5, 1.0, 1.0), lambda r, x, omega: (omega - x * r, x)),
    "fourier_multiplier": ((0.25, 0.5, 0.5), lambda r, x, omega: (-omega, -x - r * omega)),
}


@pytest.mark.parametrize("kind", sorted(PRINTED))
def test_printed_parameterizations_fit_no_unimodular_phase(kind):
    # Pins the discrepancy between the printed right sides and the operator
    # definitions: for every theta, max|lhs - e^{i theta} rhs| exceeds 0.1.
    # A scan angle lies within pi/4096 of any theta, and |e^{ia} - e^{ib}|
    # <= |a - b|, so the scan minimum less max|rhs| pi/4096 bounds every
    # phase. For the chirp |lhs| = |rhs|, so no modulus-only bound would do.
    params, printed = PRINTED[kind]
    r, x, omega = params
    apply_u = {"dilation": lambda h: dilate(h, r),
               "chirp": lambda h: chirp_mul(h, r),
               "fourier_multiplier": lambda h: inverse_fourier_multiplier(
                   h, lambda xi: np.exp(TWO_PI * 1j * r * xi * xi))}[kind]
    f, pts = make_gaussian(1), np.linspace(-4.0, 4.0, 201)
    om2, x2 = printed(r, x, omega)
    lhs = apply_u(modulate(translate(f, x), omega))(pts)
    rhs = modulate(translate(apply_u(f), x2), om2)(pts)
    thetas = np.linspace(-PI, PI, 4096, endpoint=False)
    scan = np.abs(lhs[None, :] - np.exp(1j * thetas)[:, None] * rhs[None, :]).max(axis=1)
    assert scan.min() - np.abs(rhs).max() * PI / 4096 > 0.1


def test_metaplectic_extra_variant_and_errors():
    with pytest.raises(InputError):
        metaplectic_residual("dilation", (0.0, 1.0, 1.0), make_gaussian(1))
    with pytest.raises(InputError):
        metaplectic_residual("squeeze", (1.0, 1.0, 1.0), make_gaussian(1))


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------

def test_reports_serialize():
    import json
    rep = gram_matrix(make_gaussian(1), PointSet.from_rows([[0, 0], [1, 0]]))
    back = json.loads(json.dumps(report_json(rep)))
    assert back["mode"] == "Gram"
    assert back["verdict"] == "Independent"
    assert 0 <= back["sigma_min"] <= back["sigma_max"]

    res = dependence_residual_er(np.array([[0.0, 0.0]]), 1e-9)
    back = json.loads(json.dumps(report_json(res)))
    assert back["best_phase"] == [1.0, 0.0]
