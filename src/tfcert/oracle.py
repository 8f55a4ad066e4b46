"""Independent numerical verification of (in)dependence claims.

The Gram and collocation tests never consult the certificate machinery; they
measure extremal singular values of matrices assembled directly from the
shifted functions, and act as the numeric surrogate for true linear
independence. Neither reads Dependent for a square-integrable f, whose
small singular values show ill-conditioning (`_classify`): so the Gram
matrix, which takes only L2 inputs, reads Independent or Inconclusive, and
collocation's heuristic Dependent is for singular, non-L2 functions.
Residual testers probe the exactness of operator identities on sample
grids; the metaplectic identities hold up to a phase known in closed form,
and each is checked at that phase, with no phase fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalRefusal, SingularityHitError, finite
from . import funcs
from .funcs import ER_QUAD_TOL, check_er_work, er_reach
from .tfops import (_WINDOW_BLOCK, FunctionEvaluator, GridSpec, PointSet, _check_values,
                    _clear_of, _distinct_rows, _require_square_integrable, _shared_dim,
                    axis_quadrature, chirp_mul, dilate, finite_points,
                    inverse_fourier_multiplier, modulate, per_axis, quadrature_points,
                    stft_grid, tf_shift, translate)

TWO_PI = 2.0 * np.pi

# Relative singular-value gaps: quadrature noise sits near 1e-12, leaving
# three orders of margin on each side of the inconclusive band.
EPS_INDEP = 1e-6
EPS_DEP = 1e-10
MAX_MATRIX = 64
# Lattice points per block of the five-term stencil of `dependence_residual_er`.
# Every lattice of the benchmark's `oracle_sweep` (about 2,500 points) is one
# block. On a lattice of 998,001 points, blocks of 65,536 peaked at 91 MB RSS
# against 473 MB for one block (2-core x86-64).
_ER_STENCIL_BLOCK = 1 << 16
# The (x, omega) lattice `stft_identity_residual` scans when none is given.
STFT_IDENTITY_LATTICE = GridSpec(3.0, 33)


@dataclass(frozen=True)
class IndependenceReport:
    """Extremal singular values of a Gram or collocation matrix plus verdict."""

    mode: str
    matrix_dim: tuple
    sigma_min: float
    sigma_max: float
    relative_gap: float
    verdict: str
    quad_error_estimate: float
    # The matrix itself is left out of the report (`tfops.report_json`).
    matrix: Optional[np.ndarray] = field(default=None, metadata={"report": False})


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute residual of an identity over sampled points."""

    identity_name: str
    max_abs_residual: float
    phase_optimized: bool
    best_phase: complex

    def __post_init__(self):
        if not math.isfinite(self.max_abs_residual):
            raise _too_large(self.identity_name)


def _too_large(identity_name: str) -> NumericalRefusal:
    """The refusal of a residual that an input too large makes nonfinite."""
    return NumericalRefusal(f"nonfinite {identity_name} residual: an input is too large "
                            "for the sampled identity to be evaluated")


def _classify(f: FunctionEvaluator, sigma_min: float,
              sigma_max: float) -> tuple[float, str]:
    """The relative gap sigma_min / sigma_max and its verdict. A gap below
    EPS_DEP reads Dependent only for an f not flagged square-integrable; for
    an L2 f it reads Inconclusive, since a small gap there shows
    ill-conditioning, not dependence (the Gaussian's translates at distinct
    points are independent, Groechenig 2001, 3.4)."""
    if sigma_max <= 1e-12:
        return 0.0, "Inconclusive"
    gap = sigma_min / sigma_max
    if gap > EPS_INDEP:
        return gap, "Independent"
    if gap < EPS_DEP and not f.square_integrable:
        return gap, "Dependent"
    return gap, "Inconclusive"


def _matrix_size(f: FunctionEvaluator, lam: PointSet) -> int:
    """N = len(lam), refusing a point set of another dimension than f or of
    more than MAX_MATRIX points."""
    _shared_dim(f=f.dim, lam=lam.dim)
    if len(lam) > MAX_MATRIX:
        raise InputError(f"point sets beyond {MAX_MATRIX} elements are not supported")
    return len(lam)


def _shift_values(f: FunctionEvaluator, lam: PointSet, pts: np.ndarray) -> np.ndarray:
    """Matrix of (pi(lambda_i) f)(t_k) values, rows indexed by i.

    A matrix beyond MAX_ARRAY_VALUES values is refused before any is
    evaluated (`_check_values`). Each row is evaluated in blocks of
    _WINDOW_BLOCK nodes: the 2-D default grid has 512^2 nodes, and
    whole-grid temporaries of every row evaluation made peak memory depend on
    the order of the matrix sizes. The values are pointwise, so they do not
    depend on the blocking. A nonfinite value (a shift too large to
    evaluate) is refused before any linear algebra.
    """
    _check_values(len(lam) * pts.shape[0], "shift matrices")
    out = np.empty((len(lam), pts.shape[0]), dtype=complex)
    for i, row in enumerate(lam.rows):
        shifted = tf_shift(f, row)
        for s in range(0, pts.shape[0], _WINDOW_BLOCK):
            out[i, s:s + _WINDOW_BLOCK] = shifted(pts[s:s + _WINDOW_BLOCK])
    if not np.isfinite(out).all():
        raise NumericalRefusal("nonfinite value of a shifted function")
    return out


def _shifted_singularities(f: FunctionEvaluator, lam: PointSet) -> tuple:
    """The singularities s + x of the shifts pi(lambda) f, over the
    singularities s of f and the times x of lam."""
    return tuple(s + x for s in f.singularities for x in lam.times())


def _dense_gram(f: FunctionEvaluator, lam: PointSet,
                grid: Optional[GridSpec]) -> np.ndarray:
    """G = Phi W Phi^* from the shift rows Phi on the n-D quadrature grid."""
    pts, w = quadrature_points(grid, f.dim, _shifted_singularities(f, lam))
    phi = _shift_values(f, lam, pts)
    phiw = phi * w
    return phiw @ np.conj(phi, out=phi).T


def _axis_gram(k: int, axis_grid: GridSpec, h: FunctionEvaluator,
               lam: PointSet) -> np.ndarray:
    """The 1-D Gram matrix of the factor h on axis k, indexed like `lam`.

    Its rows are the axis rows (x_k, omega_k), which repeat when points
    share coordinates on axis k: each distinct one is shifted once, and the
    matrix is expanded through the index of each point among them.
    """
    rows, inverse = _distinct_rows(lam.rows[:, [k, k + lam.dim]])
    return _dense_gram(h, PointSet(rows), axis_grid)[np.ix_(inverse, inverse)]


def gram_matrix(f: FunctionEvaluator, lam: PointSet,
                grid: Optional[GridSpec] = None) -> IndependenceReport:
    """Gram matrix G_ij = <pi(lambda_i) f, pi(lambda_j) f> by quadrature.

    G is Hermitian positive semidefinite up to quadrature error; the verdict
    compares the extremal eigenvalues of its Hermitian part. Refuses inputs
    not flagged square-integrable (use collocation_rank for those).

    When f carries per-axis factors, pi(lambda) f is the product of the
    factors' 1-D shifts, and G is the entrywise product of the factors' 1-D
    Gram matrices on the grid's axis (`per_axis`): the same tensor-grid
    quadrature, summed axis by axis, in any dimension. Otherwise the shifts
    are evaluated on every node of the n-D grid.

    `quad_error_estimate` is the Hermitian defect max|G - G^*| plus the
    negative part of the smallest eigenvalue: a symptom, not a bound on the
    quadrature error. With nonnegative weights, G = Phi W Phi^* is Hermitian
    positive semidefinite however coarse or truncated the quadrature is, so
    the estimate mostly reads the rounding of the matrix product.
    """
    _require_square_integrable(f, hint="; use collocation_rank for singular non-L2 functions")
    N = _matrix_size(f, lam)
    G = per_axis(lambda k, axis_grid, h: _axis_gram(k, axis_grid, h, lam), grid, f)
    if G is None:
        G = _dense_gram(f, lam, grid)
    herm = 0.5 * (G + G.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    herm_defect = float(np.max(np.abs(G - G.conj().T)))
    sigma_min = float(max(eigs[0], 0.0))
    sigma_max = float(eigs[-1])
    gap, verdict = _classify(f, sigma_min, sigma_max)
    quad_err = herm_defect + float(max(0.0, -eigs[0]))
    return IndependenceReport("Gram", (N, N), sigma_min, sigma_max, gap,
                              verdict, quad_err, matrix=G)


def _kronecker_points(count: int, half_width: float) -> np.ndarray:
    """Deterministic low-discrepancy points in [-L, L] (golden-ratio rotation)."""
    alpha = (math.sqrt(5.0) - 1.0) / 2.0
    seq = (0.5 + alpha * np.arange(1, count + 1)) % 1.0
    return -half_width + 2.0 * half_width * seq


def default_collocation_points(f: FunctionEvaluator, lam: PointSet,
                               grid: Optional[GridSpec] = None) -> np.ndarray:
    """Time coordinates, pairwise midpoints, and 4N quasi-random box points.

    The set is sized by `collocation_rank`'s rule (`_matrix_size`) before
    any point is built. Points not clear of a shifted singularity
    (`_clear_of`, with the grid's exclusion radius) are dropped, since the
    collocation matrix needs every row evaluated at every shift.
    """
    _shared_dim("default collocation sampling", f=f.dim)
    N = _matrix_size(f, lam)
    grid = grid or GridSpec.default(1)
    times = lam.times()[:, 0]
    mids = [(times[i] + times[j]) / 2.0 for i in range(N) for j in range(i + 1, N)]
    # With an index asked for, np.unique sorts instead of checking for a
    # masked array, a check that imports numpy.ma (1.2 MB) on numpy >= 2.3.
    cand = np.unique(np.concatenate([times, np.asarray(mids, dtype=float),
                                     _kronecker_points(4 * N, grid.half_width)]),
                     return_index=True)[0]
    return cand[_clear_of(cand[:, None], _shifted_singularities(f, lam), grid)]


def collocation_rank(f: FunctionEvaluator, lam: PointSet,
                     sample_points: Sequence) -> IndependenceReport:
    """Rank test on the matrix A_ki = (pi(lambda_i) f)(t_k).

    An Independent verdict is sound for continuous (and, more generally,
    pointwise-defined) functions: a nontrivial null vector of the true
    functions would annihilate every sample row. A Dependent verdict is
    heuristic, and only an f not flagged square-integrable can get one
    (`_classify`). Degenerate sampling (all rows numerically zero) is
    Inconclusive. A sample point not clear of a shifted singularity
    (`_clear_of`) is refused.
    """
    N = _matrix_size(f, lam)
    pts = finite_points(sample_points, f.dim, "sample_points")
    if pts.shape[0] < N:
        raise InputError("need at least N sample points")
    if not _clear_of(pts, _shifted_singularities(f, lam)).all():
        raise SingularityHitError("sample point hits a shifted singularity of f")
    A = _shift_values(f, lam, pts).T
    sig = np.linalg.svd(A, compute_uv=False)
    sigma_min, sigma_max = float(sig[-1]), float(sig[0])
    gap, verdict = _classify(f, sigma_min, sigma_max)
    return IndependenceReport("Collocation", A.shape, sigma_min, sigma_max,
                              gap, verdict, 0.0, matrix=A)


def dependence_residual_er(points, quad_tol: float = ER_QUAD_TOL) -> ResidualReport:
    """Five-term dependence residual of the two-dimensional oscillatory family.

    Evaluates |2 f(a,b) - f(a+1,b) - f(a-1,b) - f(a,b+1) - f(a,b-1)| at every
    given (a, b). The identity is exact and each value's truncation error is
    proven within quad_tol (`funcs.make_edgar_rosenblatt`), so the residual
    is within 6 quad_tol plus six times the evaluator's rounding floor at the
    stencil's farthest point. The points are taken in blocks of
    `_ER_STENCIL_BLOCK`; within a block, evaluations are shared across the
    five shifted stencils, which overlap heavily on regular lattices. Each
    value depends on its point alone, so the blocks change no residual.
    The whole stencil, five points per given point one unit beyond their
    reach, is held to the evaluator's rule (`funcs.check_er_work`) before any
    block runs, and an empty or non-finite point list is refused
    (`finite_points`).
    """
    quad_tol = funcs._quad_tol(quad_tol)
    if quad_tol > 1e-6:
        raise InputError("quad_tol must be at most 1e-6 for the residual test")
    f = funcs.make_edgar_rosenblatt(quad_tol)
    pts = finite_points(points, 2, "ER residual points")
    check_er_work(5 * pts.shape[0], er_reach(pts) + 1.0, "five-term stencils")
    shifts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    peaks = []
    for lo in range(0, pts.shape[0], _ER_STENCIL_BLOCK):
        flat = (pts[None, lo:lo + _ER_STENCIL_BLOCK] + shifts[:, None, :]).reshape(-1, 2)
        # Each (a, b) row read as one complex a + ib: a 1-D sort, in the same
        # lexicographic order as a row sort and far cheaper.
        uniq, inverse = np.unique(np.round(flat, 12, out=flat).view(complex)[:, 0],
                                  return_inverse=True)
        vals = f(uniq.view(float).reshape(-1, 2))[inverse].reshape(5, -1)
        peaks.append(np.abs(2.0 * vals[0] - vals[1] - vals[2] - vals[3] - vals[4]).max())
    return ResidualReport("edgar_rosenblatt_five_term", float(np.max(peaks)),
                          phase_optimized=False, best_phase=1.0 + 0.0j)


def er_lattice(half_width: float = 3.0, step: float = 0.25) -> np.ndarray:
    """Square lattice of (a, b) points used by the dependence residual.

    Refuses a non-finite or non-positive half width or step, and, before
    allocating, a lattice whose five-term stencil `dependence_residual_er`
    would refuse: 5 side^2 points at reach half_width + 1, by the evaluator's
    rule (`funcs.check_er_work`).
    """
    half_width, step = finite(half_width, "half_width"), finite(step, "step")
    if half_width <= 0.0 or step <= 0.0:
        raise InputError("half_width and step must be positive")
    side = np.ceil((half_width + 1e-12 + half_width) / step)  # np.arange's length
    # A side beyond MAX_ER_WORK is refused whatever the reach, and capping it
    # there keeps its square finite.
    check_er_work(5.0 * min(side, funcs.MAX_ER_WORK) ** 2, half_width + 1.0,
                  "five-term stencils of er lattices")
    axis = np.arange(-half_width, half_width + 1e-12, step)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def stft_identity_residual(f: FunctionEvaluator, g: FunctionEvaluator,
                           u, eta, lattice: Optional[GridSpec] = None,
                           grid: Optional[GridSpec] = None) -> ResidualReport:
    """Covariance residual of the STFT under a translation-then-modulation shift.

    max over the lattice of |V_g(T_u M_eta f)(x, w) - e^{-2 pi i u w}
    V_g f(x-u, w-eta)|. The identity is exact, so no phase is fitted. A
    shifted lattice that is not finite is refused as a nonfinite residual
    is.
    """
    _shared_dim("identity residual scan", f=f.dim, g=g.dim)
    u, eta = finite(u, "u"), finite(eta, "eta")
    lattice = lattice or STFT_IDENTITY_LATTICE
    xs = axis_quadrature(lattice)[0]
    if not np.isfinite(np.concatenate([xs - u, xs - eta])).all():
        raise _too_large("stft_covariance")
    shifted_f = translate(modulate(f, eta), u)
    lhs = stft_grid(shifted_f, g, xs, xs, grid)
    rhs = stft_grid(f, g, xs - u, xs - eta, grid)
    rhs = rhs * np.exp(-TWO_PI * 1j * u * xs)[None, :]
    res = float(np.max(np.abs(lhs - rhs)))
    return ResidualReport("stft_covariance", res, phase_optimized=False,
                          best_phase=1.0 + 0.0j)


METAPLECTIC_KINDS = ("dilation", "chirp", "fourier_multiplier")


def metaplectic_residual(kind: str, params, f: FunctionEvaluator,
                         sample_points=None, grid: Optional[GridSpec] = None) -> ResidualReport:
    """Covariance residual of a metaplectic transform U against pi(lambda).

    Each kind checks its standard identity U M_omega T_x f = c M_omega' T_x' U f
    at its closed-form phase c (Folland, Harmonic Analysis in Phase Space,
    1989, ch. 4), with (omega, x) = params[1:] and r = params[0]:

    - dilation D_r h(t) = |r|^{1/2} h(r t): (omega', x') = (r omega, x / r),
      c = 1;
    - chirp C_r h(t) = e^{2 pi i r t^2} h(t): (omega + 2 r x, x),
      c = e^{-2 pi i r x^2};
    - Fourier multiplier U = F^{-1} e^{2 pi i r xi^2} F, applied by quadrature
      in the frequency domain: (omega, x - 2 r omega), c = e^{2 pi i r omega^2}.

    Both sides are evaluated once on the sample points (201 points in
    [-4, 4] by default); the residual is max |lhs - c rhs|, with
    best_phase = c and no phase fitted. Derived parameters (omega', x', c)
    that are not finite are refused as a nonfinite residual is, before
    any operator reads them.
    """
    if kind not in METAPLECTIC_KINDS:
        raise InputError(f"unknown metaplectic kind {kind!r}")
    _shared_dim("metaplectic residual", f=f.dim)
    r, x, omega = params
    r, x, omega = finite(r, "r"), finite(x, "x"), finite(omega, "omega")
    if kind == "dilation" and r == 0.0:
        raise InputError("dilation parameter must be nonzero")
    if sample_points is None:
        pts = np.linspace(-4.0, 4.0, 201)
    else:
        pts = finite_points(sample_points, 1, "sample_points")[:, 0]

    if kind == "dilation":
        apply_u = lambda h: dilate(h, r)
        om2, x2, c = r * omega, x / r, 1.0 + 0.0j
    elif kind == "chirp":
        apply_u = lambda h: chirp_mul(h, r)
        om2, x2, c = omega + 2.0 * r * x, x, np.exp(-TWO_PI * 1j * r * x * x)
    else:
        mult = lambda xi: np.exp(TWO_PI * 1j * r * xi * xi)
        apply_u = lambda h: inverse_fourier_multiplier(h, mult, grid)
        om2, x2, c = omega, x - 2.0 * r * omega, np.exp(TWO_PI * 1j * r * omega * omega)
    if not np.isfinite([om2, x2, c]).all():
        raise _too_large(f"{kind}_covariance[standard]")

    lhs = apply_u(modulate(translate(f, x), omega))(pts)
    rhs = modulate(translate(apply_u(f), x2), om2)(pts)
    return ResidualReport(f"{kind}_covariance[standard]", float(np.max(np.abs(lhs - c * rhs))),
                          phase_optimized=False, best_phase=complex(c))
