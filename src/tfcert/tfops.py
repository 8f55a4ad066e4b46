"""Time-frequency operator algebra acting on pointwise function evaluators.

Functions are closures evaluated at arbitrary real points, so translation,
modulation, dilation and chirp multiplication are exact operations; sampling
happens only inside quadrature (Fourier transform, STFT, norms) and sup
estimation. All quadrature is tensor-product trapezoid on [-L, L]^n, which is
spectrally accurate for smooth integrands that have decayed at the box edge.

Point layout: every point array has shape (k, n) internally, and evaluators
read a trailing axis of length n as the coordinate axis (for n = 1 it may be
omitted, so a plain array holds one point per entry). Only
`FunctionEvaluator.__call__` adapts points to the `fn` contract, under which
a 1-D `fn` takes shape (k,).

The Fourier transforms and `stft_grid` share one phase-sum kernel;
`stft_points` is its batch form over arbitrary (x, omega) rows and `stft` is
`stft_points` on one row. The STFT entry points work in any dimension the
quadrature grid supports. Quadrature nodes within the exclusion radius of a
singularity of f are dropped; nodes within it of a shifted window
singularity get weight zero.

Evaluators are immutable and freely shareable across threads; quadrature
reductions use a fixed summation order, so results are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalRefusal, SingularityHitError

TWO_PI = 2.0 * np.pi

# Chunk sizes keep the exp() phase matrices of quadrature-backed transforms
# below a few tens of MB.
_EVAL_CHUNK = 512
_PHASE_BUDGET = 4_000_000


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Truncation box [-half_width, half_width]^n with trapezoid sampling.

    `exclusion_radius` drops quadrature nodes inside a ball around each
    singularity of the integrand (radius 0 drops exact coincidences only).
    """

    half_width: float
    samples_per_axis: int
    exclusion_radius: float = 0.0

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise InputError("half_width must be positive and finite")
        if self.samples_per_axis < 2:
            raise InputError("samples_per_axis must be at least 2")
        if not 0.0 <= self.exclusion_radius < self.half_width:
            raise InputError("exclusion_radius must lie in [0, half_width)")

    @staticmethod
    def default(dim: int) -> "GridSpec":
        if dim == 1:
            return GridSpec(8.0, 4096)
        if dim == 2:
            return GridSpec(6.0, 512)
        raise InputError("default grids cover dimensions 1 and 2 only")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.samples_per_axis - 1)


@dataclass(frozen=True)
class FunctionEvaluator:
    """Pointwise complex-valued function on R^n with decay metadata.

    `fn` is the vectorized kernel: for dim 1 it maps a float array of shape
    (k,) to complex (k,); for dim >= 2 it maps points of shape (k, n) to
    complex (k,). Calling the evaluator accepts scalars, single points and
    batches under the module's point layout and reshapes accordingly.

    `envelope`, when present, maps a radius r >= 0 to a monotone nonincreasing
    upper bound on sup_{||t|| >= r} |f(t)|. Operations that cannot transform
    the envelope exactly drop it; callers may resupply one via
    `with_envelope`.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    envelope: Optional[Callable[[float], float]] = None
    singularities: tuple = ()
    square_integrable: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dim must be a positive integer")
        sings = tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in self.singularities)
        for s in sings:
            if s.shape != (self.dim,):
                raise InputError("singularities must be points in R^dim")
        object.__setattr__(self, "singularities", sings)

    def __call__(self, t):
        pts, batch = _as_points(t, self.dim)
        out = np.asarray(self.fn(pts[:, 0] if self.dim == 1 else pts), dtype=complex)
        out = out.reshape(batch)
        return complex(out) if out.ndim == 0 else out

    def with_envelope(self, envelope: Callable[[float], float]) -> "FunctionEvaluator":
        return replace(self, envelope=envelope)


@dataclass(frozen=True)
class TFPoint:
    """A time-frequency point lambda = (x, omega) in R^{2n}."""

    x: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        w = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if x.ndim != 1 or w.ndim != 1 or x.shape != w.shape:
            raise InputError("x and omega must be real vectors of equal length")
        if not (np.isfinite(x).all() and np.isfinite(w).all()):
            raise InputError("time-frequency points must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "omega", w)

    @property
    def dim(self) -> int:
        return self.x.size

    @classmethod
    def of(cls, obj) -> "TFPoint":
        if isinstance(obj, TFPoint):
            return obj
        try:
            x, omega = obj
        except (TypeError, ValueError) as exc:
            raise InputError("expected a TFPoint or an (x, omega) pair") from exc
        return cls(x, omega)

    @classmethod
    def from_row(cls, row, dim: int) -> "TFPoint":
        row = np.asarray(row, dtype=float).reshape(-1)
        if row.size != 2 * dim:
            raise InputError(f"lambda row must have length {2 * dim}")
        return cls(row[:dim], row[dim:])

    def as_row(self) -> np.ndarray:
        return np.concatenate([self.x, self.omega])


@dataclass(frozen=True)
class PointSet:
    """Finite ordered set of pairwise-distinct time-frequency points."""

    points: tuple

    def __post_init__(self):
        pts = tuple(TFPoint.of(p) for p in self.points)
        if len(pts) < 1:
            raise InputError("point set must contain at least one point")
        dim = pts[0].dim
        if any(p.dim != dim for p in pts):
            raise InputError("all points must share one dimension")
        seen = set()
        for p in pts:
            key = (tuple(p.x.tolist()), tuple(p.omega.tolist()))
            if key in seen:
                raise InputError(f"duplicate time-frequency point {key}")
            seen.add(key)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_rows(cls, rows, dim: Optional[int] = None) -> "PointSet":
        rows = [np.asarray(r, dtype=float).reshape(-1) for r in rows]
        if not rows:
            raise InputError("point set must contain at least one point")
        if dim is None:
            if rows[0].size % 2:
                raise InputError("lambda rows must have even length")
            dim = rows[0].size // 2
        return cls(tuple(TFPoint.from_row(r, dim) for r in rows))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def times(self) -> np.ndarray:
        return np.stack([p.x for p in self.points])

    def freqs(self) -> np.ndarray:
        return np.stack([p.omega for p in self.points])

    def tf_array(self) -> np.ndarray:
        return np.stack([p.as_row() for p in self.points])


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def axis_quadrature(grid: GridSpec):
    """Trapezoid nodes and weights on [-L, L]."""
    t = np.linspace(-grid.half_width, grid.half_width, grid.samples_per_axis)
    w = np.full(grid.samples_per_axis, grid.step)
    w[0] = w[-1] = 0.5 * grid.step
    return t, w


def _as_points(t, dim: int):
    """`t` in the (k, dim) point layout, plus the batch shape of its points."""
    try:
        a = np.asarray(t, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"points must form a real array: {exc}") from exc
    batch = a.shape[:-1] if a.shape[-1:] == (dim,) else a.shape
    if a.size != dim * math.prod(batch):
        raise InputError(f"expected points with last axis of length {dim}, got shape {a.shape}")
    return a.reshape(-1, dim), batch


def quadrature_points(grid: GridSpec, dim: int, singularities: Sequence = ()):
    """Tensor-product trapezoid nodes/weights, singular neighborhoods removed.

    Returns `(pts, w)` with pts of shape (K, dim). Nodes within
    `grid.exclusion_radius` of a singularity (or exactly on one, when the
    radius is 0) are dropped.
    """
    if dim > 2:
        raise InputError("quadrature grids support dimensions 1 and 2 only")
    t, wt = axis_quadrature(grid)
    pts = np.stack([a.ravel() for a in np.meshgrid(*[t] * dim, indexing="ij")], axis=1)
    w = functools.reduce(np.multiply.outer, [wt] * dim).ravel()
    if singularities:
        keep = np.ones(w.shape[0], dtype=bool)
        for s in singularities:
            keep &= _distance(pts, s) > _exclusion(grid)
        pts, w = pts[keep], w[keep]
    return pts, w


def _distance(pts: np.ndarray, center) -> np.ndarray:
    """Euclidean distance of each (k, n) point to `center`."""
    return np.linalg.norm(pts - np.asarray(center, dtype=float), axis=-1)


def _exclusion(grid: GridSpec) -> float:
    """Radius of the ball around a singularity whose nodes are excluded."""
    return max(grid.exclusion_radius, 1e-12)


def _check_points_clear(points, singularities, dim: int, tol: float = 1e-12):
    """Raise when an evaluation point coincides with a singularity."""
    pts = _as_points(points, dim)[0]
    for s in singularities:
        if np.any(_distance(pts, s) <= tol):
            raise SingularityHitError(
                f"evaluation point hits singularity at {np.ravel(s).tolist()}")


def l2_norm(f: FunctionEvaluator, grid: Optional[GridSpec] = None) -> float:
    """Quadrature L2 norm of f over the truncation box."""
    grid = grid or GridSpec.default(f.dim)
    pts, w = quadrature_points(grid, f.dim, f.singularities)
    vals = f(pts)
    return float(np.sqrt(np.sum(w * np.abs(vals) ** 2)))


def inner_product(f: FunctionEvaluator, g: FunctionEvaluator,
                  grid: Optional[GridSpec] = None) -> complex:
    """Quadrature <f, g> = integral of f conj(g) over the truncation box."""
    if f.dim != g.dim:
        raise InputError("dimension mismatch")
    grid = grid or GridSpec.default(f.dim)
    sings = tuple(f.singularities) + tuple(g.singularities)
    pts, w = quadrature_points(grid, f.dim, sings)
    return complex(np.sum(w * f(pts) * np.conj(g(pts))))


# ---------------------------------------------------------------------------
# Exact operators
# ---------------------------------------------------------------------------

def translate(f: FunctionEvaluator, x) -> FunctionEvaluator:
    """Time shift: result(t) = f(t - x).

    Singularities shift by +x. The radial envelope is dropped because it is
    anchored at the origin; resupply one with `with_envelope` if known.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.dim,):
        raise InputError(f"shift must be a vector of length {f.dim}")
    inner = f.fn
    return FunctionEvaluator(
        dim=f.dim, fn=lambda t: inner(t - x), envelope=None,
        singularities=tuple(s + x for s in f.singularities),
        square_integrable=f.square_integrable)


def modulate(f: FunctionEvaluator, omega) -> FunctionEvaluator:
    """Modulation: result(t) = e^{2 pi i omega.t} f(t). Preserves |f|."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.shape != (f.dim,):
        raise InputError(f"modulation must be a vector of length {f.dim}")
    inner = f.fn
    freq = TWO_PI * omega
    fn = lambda t: np.exp(1j * np.dot(np.reshape(t, (-1, f.dim)), freq)) * inner(t)
    return FunctionEvaluator(
        dim=f.dim, fn=fn, envelope=f.envelope,
        singularities=f.singularities, square_integrable=f.square_integrable)


def tf_shift(f: FunctionEvaluator, lam) -> FunctionEvaluator:
    """Time-frequency shift: modulation after translation."""
    lam = TFPoint.of(lam)
    if lam.dim != f.dim:
        raise InputError("dimension mismatch between point and function")
    return modulate(translate(f, lam.x), lam.omega)


def dilate(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Unitary dilation: result(t) = |r|^{n/2} f(r t).

    Large |r| compresses the function toward the origin. The envelope
    transforms exactly: env'(rho) = |r|^{n/2} env(|r| rho).
    """
    r = float(r)
    if r == 0.0:
        raise InputError("dilation factor must be nonzero")
    inner = f.fn
    scale = abs(r) ** (f.dim / 2.0)
    fn = lambda t: scale * inner(r * t)
    env = None
    if f.envelope is not None:
        base = f.envelope
        env = lambda rho: scale * base(abs(r) * rho)
    return FunctionEvaluator(
        dim=f.dim, fn=fn, envelope=env,
        singularities=tuple(s / r for s in f.singularities),
        square_integrable=f.square_integrable)


def chirp_mul(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Multiplication by the linear chirp e^{2 pi i r t^2} (dimension 1 only)."""
    if f.dim != 1:
        raise InputError("chirp multiplication is defined for dimension 1 only")
    r = float(r)
    inner = f.fn
    fn = lambda t: np.exp(TWO_PI * 1j * r * t * t) * inner(t)
    return FunctionEvaluator(
        dim=1, fn=fn, envelope=f.envelope,
        singularities=f.singularities, square_integrable=f.square_integrable)


# ---------------------------------------------------------------------------
# Quadrature-backed transforms
# ---------------------------------------------------------------------------

def _chunk_rows(k: int) -> int:
    """Rows per block of a (rows, k) exp() matrix within the phase budget."""
    return max(1, min(_EVAL_CHUNK, _PHASE_BUDGET // max(k, 1)))


def _outer_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, K) matrix of dot products of (m, n) rows a with (K, n) rows b.

    Built one coordinate at a time: in 1-D this is a plain outer product,
    several times faster than a matmul with inner dimension 1.
    """
    out = np.multiply.outer(a[:, 0], b[:, 0])
    for d in range(1, a.shape[1]):
        out += np.multiply.outer(a[:, d], b[:, d])
    return out


def _phase_sum(targets: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
               sign: float) -> np.ndarray:
    """sum_k weights[k] exp(sign 2 pi i targets.nodes[k]), chunked over targets.

    `targets` is (m, n) and `nodes` (K, n); `weights` of shape (K,) gives an
    (m,) result and weights of shape (K, p) an (m, p) one.
    """
    out = np.empty((targets.shape[0],) + weights.shape[1:], dtype=complex)
    chunk = _chunk_rows(nodes.shape[0])
    for lo in range(0, targets.shape[0], chunk):
        block = sign * TWO_PI * 1j * _outer_dot(targets[lo:lo + chunk], nodes)
        np.exp(block, out=block)
        out[lo:lo + chunk] = block @ weights
    return out


def fourier(f: FunctionEvaluator, grid: Optional[GridSpec] = None) -> FunctionEvaluator:
    """Truncated-quadrature Fourier transform as an evaluator on R^n.

    fhat(omega) = integral over [-L, L]^n of f(t) e^{-2 pi i omega.t} dt,
    evaluable at arbitrary omega (not only lattice points). Accuracy is
    bounded by the tail mass outside the box plus trapezoid error; inputs
    with neither an envelope nor the square-integrable flag are refused
    because the truncation error cannot be bounded.
    """
    if f.envelope is None and not f.square_integrable:
        raise NumericalRefusal(
            "cannot bound the truncation error: no decay envelope and the "
            "input is not flagged square-integrable")
    grid = grid or GridSpec.default(f.dim)
    nodes, w = quadrature_points(grid, f.dim, f.singularities)
    weighted = f(nodes) * w
    fn = lambda om: _phase_sum(np.reshape(om, (-1, f.dim)), nodes, weighted, -1.0)
    return FunctionEvaluator(dim=f.dim, fn=fn, envelope=None, singularities=(),
                             square_integrable=f.square_integrable)


def inverse_fourier_multiplier(f: FunctionEvaluator, multiplier,
                               grid: Optional[GridSpec] = None) -> FunctionEvaluator:
    """Apply a frequency-domain multiplier: result = IFT(multiplier * fhat).

    `multiplier` maps frequencies to complex factors with the same array
    contract as `FunctionEvaluator.fn`. Used for chirp-type Fourier
    multipliers, where the frequency-domain form is far better conditioned
    than a literal chirp convolution.
    """
    grid = grid or GridSpec.default(f.dim)
    fhat = fourier(f, grid)
    nodes, w = quadrature_points(grid, f.dim)
    weighted = fhat(nodes) * FunctionEvaluator(f.dim, multiplier)(nodes) * w
    fn = lambda t: _phase_sum(np.reshape(t, (-1, f.dim)), nodes, weighted, +1.0)
    return FunctionEvaluator(dim=f.dim, fn=fn, envelope=None, singularities=(),
                             square_integrable=f.square_integrable)


def _stft_setup(f: FunctionEvaluator, g: FunctionEvaluator,
                grid: Optional[GridSpec]):
    """Validated grid, quadrature nodes and weighted values f(t) w of an STFT."""
    if f.dim != g.dim:
        raise InputError("dimension mismatch")
    if not (f.square_integrable and g.square_integrable):
        raise InputError("stft requires square-integrable inputs")
    grid = grid or GridSpec.default(f.dim)
    nodes, w = quadrature_points(grid, f.dim, f.singularities)
    return grid, nodes, f(nodes) * w


def _window_rows(g: FunctionEvaluator, nodes: np.ndarray, xs: np.ndarray,
                 grid: GridSpec) -> np.ndarray:
    """g(t_k - x_i) as an (i, k) matrix, zero where t_k lies within the
    exclusion radius of a singularity of the shifted window."""
    shifted = nodes - xs[:, None, :]
    with np.errstate(all="ignore"):
        rows = g(shifted)
    for s in g.singularities:
        rows = np.where(_distance(shifted, s) <= _exclusion(grid), 0.0, rows)
    return rows


def stft(f: FunctionEvaluator, g: FunctionEvaluator, lam,
         grid: Optional[GridSpec] = None) -> complex:
    """Short-time Fourier transform value V_g f(lambda) = <f, pi(lambda) g>.

    Computed by quadrature of f(t) conj(e^{2 pi i omega.t} g(t - x)) over the
    truncation box; this is `stft_points` at the single point lambda.
    """
    return complex(stft_points(f, g, TFPoint.of(lam).as_row(), grid)[0])


def stft_grid(f: FunctionEvaluator, g: FunctionEvaluator, xs, omegas,
              grid: Optional[GridSpec] = None) -> np.ndarray:
    """V_g f on a separable lattice: V[i, j] = V_g f(xs[i], omegas[j]).

    The window rows f(t) w conj(g(t - x_i)) are the weights of one phase sum
    over the shared quadrature grid, so the lattice costs one exp() per
    (omega, node) pair.
    """
    grid, nodes, fw = _stft_setup(f, g, grid)
    xs = _as_points(xs, f.dim)[0]
    omegas = _as_points(omegas, f.dim)[0]
    rows = np.conj(_window_rows(g, nodes, xs, grid)) * fw
    return _phase_sum(omegas, nodes, rows.T, -1.0).T


def stft_points(f: FunctionEvaluator, g: FunctionEvaluator, lattice_pts,
                grid: Optional[GridSpec] = None) -> np.ndarray:
    """V_g f at arbitrary time-frequency points; rows are (x, omega) in R^{2n}."""
    grid, nodes, fw = _stft_setup(f, g, grid)
    pts = _as_points(lattice_pts, 2 * f.dim)[0]
    out = np.empty(pts.shape[0], dtype=complex)
    chunk = _chunk_rows(nodes.shape[0])
    for lo in range(0, pts.shape[0], chunk):
        blk = pts[lo:lo + chunk]
        rows = _window_rows(g, nodes, blk[:, :f.dim], grid)
        kernel = _outer_dot(TWO_PI * 1j * blk[:, f.dim:], nodes)
        np.exp(kernel, out=kernel)
        kernel *= rows
        np.conj(kernel, out=kernel)
        kernel *= fw
        out[lo:lo + chunk] = np.sum(kernel, axis=1)
    return out
