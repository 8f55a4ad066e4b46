"""Independent numerical verification of (in)dependence claims.

The Gram and collocation tests never consult the certificate machinery; they
measure extremal singular values of matrices assembled directly from the
shifted functions, and act as the numeric surrogate for true linear
independence. Residual testers probe the exactness of operator identities on
sample grids, fitting a global unimodular phase where the identity is only
claimed up to phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalRefusal
from .tfops import (FunctionEvaluator, GridSpec, PointSet, _as_points,
                    _check_points_clear, inverse_fourier_multiplier, modulate,
                    quadrature_points, stft_grid, tf_shift, translate)

TWO_PI = 2.0 * np.pi

# Relative singular-value gaps: quadrature noise sits near 1e-12, leaving
# three orders of margin on each side of the inconclusive band.
EPS_INDEP = 1e-6
EPS_DEP = 1e-10
MAX_MATRIX = 64


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
    matrix: Optional[np.ndarray] = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "matrix_dim": [int(d) for d in self.matrix_dim],
            "sigma_min": float(self.sigma_min),
            "sigma_max": float(self.sigma_max),
            "relative_gap": float(self.relative_gap),
            "verdict": self.verdict,
            "quad_error_estimate": float(self.quad_error_estimate),
        }


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute residual of an identity over sampled points."""

    identity_name: str
    max_abs_residual: float
    phase_optimized: bool
    best_phase: complex

    def to_json(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "max_abs_residual": float(self.max_abs_residual),
            "phase_optimized": self.phase_optimized,
            "best_phase": [float(self.best_phase.real), float(self.best_phase.imag)],
        }


def _classify(sigma_min: float, sigma_max: float) -> tuple[float, str]:
    if sigma_max <= 1e-12:
        return 0.0, "Inconclusive"
    gap = sigma_min / sigma_max
    if gap > EPS_INDEP:
        return gap, "Independent"
    if gap < EPS_DEP:
        return gap, "Dependent"
    return gap, "Inconclusive"


def _shift_values(f: FunctionEvaluator, lam: PointSet, pts: np.ndarray) -> np.ndarray:
    """Matrix of (pi(lambda_i) f)(t_k) values, rows indexed by i."""
    return np.stack([tf_shift(f, p)(pts) for p in lam.points])


def gram_matrix(f: FunctionEvaluator, lam: PointSet,
                grid: Optional[GridSpec] = None) -> IndependenceReport:
    """Gram matrix G_ij = <pi(lambda_i) f, pi(lambda_j) f> by quadrature.

    G is Hermitian positive semidefinite up to quadrature error; the verdict
    compares the extremal eigenvalues of its Hermitian part. Refuses inputs
    not flagged square-integrable (use collocation_rank for those).
    """
    if not f.square_integrable:
        raise NumericalRefusal(
            "gram_matrix requires a square-integrable input; "
            "use collocation_rank for singular non-L2 functions")
    if lam.dim != f.dim:
        raise InputError("dimension mismatch")
    N = len(lam)
    if N > MAX_MATRIX:
        raise InputError(f"point sets beyond {MAX_MATRIX} elements are not supported")
    grid = grid or GridSpec.default(f.dim)
    sings = tuple(s + p.x for s in f.singularities for p in lam.points)
    pts, w = quadrature_points(grid, f.dim, sings)
    phi = _shift_values(f, lam, pts)
    G = (phi * w[None, :]) @ phi.conj().T
    herm = 0.5 * (G + G.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    herm_defect = float(np.max(np.abs(G - G.conj().T)))
    sigma_min = float(max(eigs[0], 0.0))
    sigma_max = float(eigs[-1])
    gap, verdict = _classify(sigma_min, sigma_max)
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

    Points falling on (or within the exclusion radius of) any shifted
    singularity are dropped, since the collocation matrix needs every row
    evaluated at every shift.
    """
    if f.dim != 1:
        raise InputError("default collocation sampling is implemented for dimension 1")
    grid = grid or GridSpec.default(1)
    N = len(lam)
    times = lam.times()[:, 0]
    mids = [(times[i] + times[j]) / 2.0 for i in range(N) for j in range(i + 1, N)]
    cand = np.concatenate([times, np.asarray(mids, dtype=float),
                           _kronecker_points(4 * N, grid.half_width)])
    cand = np.unique(cand)
    shifted_sings = [float(s[0] + t) for s in f.singularities for t in times]
    if shifted_sings:
        tol = max(grid.exclusion_radius, 1e-9)
        keep = np.ones(cand.size, dtype=bool)
        for s in shifted_sings:
            keep &= np.abs(cand - s) > tol
        cand = cand[keep]
    return cand


def collocation_rank(f: FunctionEvaluator, lam: PointSet,
                     sample_points: Sequence) -> IndependenceReport:
    """Rank test on the matrix A_ki = (pi(lambda_i) f)(t_k).

    An Independent verdict is sound for continuous (and, more generally,
    pointwise-defined) functions: a nontrivial null vector of the true
    functions would annihilate every sample row. A Dependent verdict is
    heuristic. Degenerate sampling (all rows numerically zero) is
    Inconclusive, not Dependent.
    """
    if lam.dim != f.dim:
        raise InputError("dimension mismatch")
    N = len(lam)
    if N > MAX_MATRIX:
        raise InputError(f"point sets beyond {MAX_MATRIX} elements are not supported")
    pts = _as_points(sample_points, f.dim)[0]
    if pts.shape[0] < N:
        raise InputError("need at least N sample points")
    for p in lam.points:
        shifted = tuple(s + p.x for s in f.singularities)
        _check_points_clear(pts, shifted, f.dim)
    A = _shift_values(f, lam, pts).T
    sig = np.linalg.svd(A, compute_uv=False)
    sigma_min, sigma_max = float(sig[-1]), float(sig[0])
    gap, verdict = _classify(sigma_min, sigma_max)
    return IndependenceReport("Collocation", A.shape, sigma_min, sigma_max,
                              gap, verdict, 0.0, matrix=A)


def dependence_residual_er(points, quad_tol: float = 1e-9) -> ResidualReport:
    """Five-term dependence residual of the two-dimensional oscillatory family.

    Evaluates |2 f(a,b) - f(a+1,b) - f(a-1,b) - f(a,b+1) - f(a,b-1)| at every
    given (a, b); with per-point quadrature tolerance quad_tol the residual
    is bounded by 6 quad_tol. Evaluations are cached across the five shifted
    stencils, which overlap heavily on regular lattices.
    """
    from .funcs import make_edgar_rosenblatt
    quad_tol = float(quad_tol)
    if quad_tol > 1e-6:
        raise InputError("quad_tol must be at most 1e-6 for the residual test")
    f = make_edgar_rosenblatt(quad_tol)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    shifts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    stencil = pts[None, :, :] + shifts[:, None, :]
    flat = stencil.reshape(-1, 2)
    uniq, inverse = np.unique(np.round(flat, 12), axis=0, return_inverse=True)
    vals = f(uniq)[inverse].reshape(5, -1)
    residual = np.abs(2.0 * vals[0] - vals[1] - vals[2] - vals[3] - vals[4])
    return ResidualReport("edgar_rosenblatt_five_term", float(residual.max()),
                          phase_optimized=False, best_phase=1.0 + 0.0j)


def er_lattice(half_width: float = 3.0, step: float = 0.25) -> np.ndarray:
    """Square lattice of (a, b) points used by the dependence residual."""
    axis = np.arange(-half_width, half_width + 1e-12, step)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def stft_identity_residual(f: FunctionEvaluator, g: FunctionEvaluator,
                           u, eta, lattice: Optional[GridSpec] = None,
                           grid: Optional[GridSpec] = None) -> ResidualReport:
    """Covariance residual of the STFT under a translation-then-modulation shift.

    max over the lattice of |V_g(T_u M_eta f)(x, w) - e^{-2 pi i u w}
    V_g f(x-u, w-eta)|. The identity is exact, so no phase is fitted.
    """
    if f.dim != 1 or g.dim != 1:
        raise InputError("identity residual scan is implemented for dimension 1")
    u = float(np.atleast_1d(np.asarray(u, dtype=float))[0])
    eta = float(np.atleast_1d(np.asarray(eta, dtype=float))[0])
    lattice = lattice or GridSpec(3.0, 33)
    xs = np.linspace(-lattice.half_width, lattice.half_width, lattice.samples_per_axis)
    shifted_f = translate(modulate(f, eta), u)
    lhs = stft_grid(shifted_f, g, xs, xs, grid)
    rhs = stft_grid(f, g, xs - u, xs - eta, grid)
    rhs = rhs * np.exp(-TWO_PI * 1j * u * xs)[None, :]
    res = float(np.max(np.abs(lhs - rhs)))
    return ResidualReport("stft_covariance", res, phase_optimized=False,
                          best_phase=1.0 + 0.0j)


def _best_unimodular_phase(lhs: np.ndarray, rhs: np.ndarray) -> complex:
    """Unimodular c minimizing max |lhs - c rhs| (coarse scan + golden refine).

    Returns the best phase among all evaluated candidates, so exact
    identities (where the least-squares phase already zeroes the residual)
    come back with exactly that phase.
    """
    s = np.vdot(rhs, lhs)
    center = float(np.angle(s)) if abs(s) > 0 else 0.0
    objective = lambda th: float(np.max(np.abs(lhs - np.exp(1j * th) * rhs)))

    best_th, best_val = center, objective(center)
    for th in center + np.linspace(-np.pi, np.pi, 512, endpoint=False):
        v = objective(th)
        if v < best_val:
            best_th, best_val = float(th), v

    span = 2.0 * np.pi / 512.0
    a, b = best_th - span, best_th + span
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = objective(c1), objective(c2)
    for _ in range(60):
        if f1 < best_val:
            best_th, best_val = c1, f1
        if f2 < best_val:
            best_th, best_val = c2, f2
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = objective(c2)
    return complex(np.exp(1j * best_th))


METAPLECTIC_KINDS = ("dilation", "chirp", "fourier_multiplier")


def metaplectic_residual(kind: str, params, f: FunctionEvaluator,
                         sample_points=None, grid: Optional[GridSpec] = None,
                         extra_variants: Optional[dict] = None) -> dict:
    """Covariance residuals of a metaplectic transform against pi(lambda).

    For the requested transform (dilation, chirp multiplication, or the
    chirp Fourier multiplier applied in the frequency domain) this evaluates
    the left side L = U (M_omega T_x f) and candidate right sides
    c M_{omega'} T_{x'} U f on the sample grid, fitting the best global
    unimodular phase c per candidate. Returned mapping always contains the
    'printed' parameterization and a 'standard' alternative derived from the
    operator definitions; callers may add further (omega', x') variants.
    Residuals are reported as-is: the tester asserts correctness of neither
    convention.
    """
    from .tfops import chirp_mul, dilate
    if kind not in METAPLECTIC_KINDS:
        raise InputError(f"unknown metaplectic kind {kind!r}")
    if f.dim != 1:
        raise InputError("metaplectic residuals are implemented for dimension 1")
    r, x, omega = (float(v) for v in params)
    if kind == "dilation" and r == 0.0:
        raise InputError("dilation parameter must be nonzero")
    pts = np.linspace(-4.0, 4.0, 201) if sample_points is None else \
        np.asarray(sample_points, dtype=float).reshape(-1)

    shifted = modulate(translate(f, x), omega)
    if kind == "dilation":
        apply_u = lambda h: dilate(h, r)
        variants = {"printed": (omega / r, x * r), "standard": (r * omega, x / r)}
    elif kind == "chirp":
        apply_u = lambda h: chirp_mul(h, r)
        variants = {"printed": (omega - x * r, x), "standard": (omega + 2.0 * r * x, x)}
    else:
        grid = grid or GridSpec.default(1)
        mult = lambda xi: np.exp(TWO_PI * 1j * r * xi * xi)
        apply_u = lambda h: inverse_fourier_multiplier(h, mult, grid)
        variants = {"printed": (-omega, -x - r * omega),
                    "standard": (omega, x - 2.0 * r * omega)}
    if extra_variants:
        variants.update(extra_variants)

    lhs = apply_u(shifted)(pts)
    uf = apply_u(f)
    reports = {}
    for name, (om2, x2) in variants.items():
        rhs = modulate(translate(uf, x2), om2)(pts)
        c = _best_unimodular_phase(lhs, rhs)
        res = float(np.max(np.abs(lhs - c * rhs)))
        reports[name] = ResidualReport(f"{kind}_covariance[{name}]", res,
                                       phase_optimized=True, best_phase=c)
    return reports
