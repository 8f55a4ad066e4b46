"""Time-frequency operator algebra acting on pointwise function evaluators.

Functions are closures evaluated at arbitrary real points, so translation,
modulation, dilation and chirp multiplication are exact operations; sampling
happens only inside quadrature (Fourier transform, STFT, norms) and sup
estimation. All quadrature is tensor-product trapezoid on [-L, L]^n, which is
spectrally accurate for smooth integrands that have decayed at the box edge.
Its axis (`axis_quadrature`) is exactly antisymmetric, so a function and its
mirror f(-t) are sampled at the same values, and the STFT scan lattices are
the same axis.

The package's input conventions live here. Point layout: every point array
has shape (k, n) internally, and evaluators read a trailing axis of length n
as the coordinate axis (for n = 1 it may be omitted, so a plain array holds
one point per entry); `finite_points` validates a caller's list. Only
`FunctionEvaluator.__call__` adapts points to the `fn` contract, under which
a 1-D `fn` takes shape (k,), and it returns float64 values for a real `fn`
and complex128 for a complex one. A time-frequency point is a row (x, omega)
of length 2n (`PointSet`), to which an (x, omega) pair flattens. Inputs
that must share a dimension, and those of computations implemented for
dimension 1 alone, are checked by one rule, `_shared_dim`. A `grid` of
None is the default grid, resolved where the quadrature runs. The one output
convention lives here too: `report_json` is the JSON form of every report.

An evaluator may carry per-axis `factors`, 1-D evaluators whose product it
is (`make_gaussian` in dimension 2 and up). On a tensor trapezoid grid the
quadrature of a product of per-axis factors is the product of 1-D sums on
the grid's axis, so `per_axis` takes `l2_norm`, `inner_product` and the
oracle's Gram matrix axis by axis, at 1-D cost in any dimension; functions
without factors keep the dense n-D quadrature.

`fourier` and `inverse_fourier_multiplier` sum through `_fourier_sum`: in
1-D, when the targets and the nodes are both arithmetic progressions (every
a[j] within 8 eps max|a| of a[0] + j step) and there are enough targets, the
sum is a Bluestein chirp-z transform on `numpy.fft` in O((K + m) log(K + m))
instead of m K exps. Evaluating at the ideal progressions moves each phase
2 pi omega t by at most 16 eps 2 pi max|omega| max|t|, a small multiple of
the rounding the dense kernel makes when it forms and exponentiates phases of
that size. Short, non-uniform or 2-D target sets, and nodes with an interior
singular neighborhood dropped, keep the dense kernel.

The STFT entry points work in any dimension the quadrature grid supports,
and all of them read V_g f through one `_STFTScan`: `stft_grid` and
`stft_points` build a scan and evaluate one window against it, `stft` is
`stft_points` on one row, and a window search sums the Hermite basis
windows of each width it tries against one scan. A scan holds what does
not depend on the window, each phase's cos and sin computed once when it is
built:
- the quadrature nodes;
- the folded kernels exp(-2 pi i omega.t_k) f(t_k) w_k of the lattice
  frequencies and of the point frequencies, each row a real and an
  imaginary plane;
- the distinct window shifts: the distinct lattice xs, then each point x
  not seen before (rows equal up to the sign of zero are one), so the
  lattice rows are a slice of them.
For a real f every real window plane P has sum_k exp(2 pi i omega.t_k)
f(t_k) w_k P(t_k - x) = conj of the sum at omega (Groechenig, Foundations of
Time-Frequency Analysis, 2001), so a scan of a real f sums each mirrored
pair of frequencies once. One rule (`_fold`) serves the lattice omegas and
the points: a frequency whose first nonzero coordinate is negative is
replaced by its mirror -omega and reads the conjugate of the mirror's sum,
and equal folded rows share one kernel row. A lattice on the grid axis
(`axis_quadrature`, exactly antisymmetric) so needs ceil(p/2) of its p
omegas, and any other lattice folds whatever exact mirror pairs it holds.
A complex f folds nothing.
An even real f folds the shifts too. When f(t_k) w_k is even on nodes
whose reversal is their reflection through the origin (read from the
data), a real window plane P of parity s, P(-t) = s P(t), has
sum_k exp(-2 pi i omega.t_k) f(t_k) w_k P(t_k + x) = s conj of the sum at
(x, omega) (reverse the nodes). So when the window function gives the
parities of its planes (the Hermite windows of a search, h_k having parity
(-1)^k, or a single window g that declares one, `FunctionEvaluator.parity`),
a lattice x whose first nonzero coordinate is negative and whose mirror -x
is a shift of the scan too reads the row of -x, signed and conjugated, and
a point (x, omega) so reflected reads (-x, -omega), signed, before the
frequency fold: the point-symmetric search scan and a `thm3` lattice sum
each window on half their shifts. A shift without a mirror keeps its own
sums, so a fold only removes shifts, and a scan with none to remove (the
shifted lattice xs - u of the STFT identity) sums as it would unreflected.
Each of the two shift layouts, with the point kernel rows it needs, is
built on first use.
`products` sums a stack of q real window planes against the kernels, block
by block of `_NODE_BLOCK` nodes. For each block a window function gives the
q planes at the offsets t_k - x of the block's nodes from every shift;
`products` sets their subnormal parts to zero (below), then adds each
plane's lattice rows as one real matrix product with the stacked kernel
and each point value as the dot product of its kernel row with its window
row. The blocks are fixed, so a value does not depend on q, and on the
other rows of the call only through the shift fold: a point reads its
mirror's sum when its shift's mirror is among them. `fields(g)` is
`products` on conj(g(t_k - x)), as a real plane plus an imaginary plane
when g is complex-valued. Lattice and point values
are both sum_k exp(-2 pi i omega.t_k) f(t_k) w_k conj(g(t_k - x)), summed in
different orders, so they agree to round-off. Window parts of magnitude
below the smallest normal float, tiny = 2.2e-308, are set to zero: Hermite
windows narrower than about 1.1-1.2 have such values on the default search
scan, and they put BLAS on its slow subnormal path. That moves each value
of V by at most K tiny max|f w| for K nodes (sqrt 2 times that for a
complex window). Kernel rows are built in blocks of about `_WINDOW_BLOCK`
values; that blocking changes no arithmetic.

Every quadrature (`l2_norm`, `inner_product`, `fourier`, the STFT and the
oracle's Gram matrix) refuses an input not flagged square-integrable
through one rule, `_require_square_integrable`.

A point is clear of a singularity when it lies farther from it than the
grid's exclusion radius and than SINGULARITY_FLOOR; `_clear_of` is the one
comparison of a point against a singularity. Quadrature nodes (of the STFT
too) and default collocation points that are not clear are dropped, and an
STFT scan gives window offsets that are not clear weight zero. `certify` and `oracle.collocation_rank`,
which must evaluate f at the points they are given, refuse such a point
(`SingularityHitError`).

A decay envelope bounds |f| outside balls about `envelope_center`; every
exact operator keeps it valid, moving that centre with the function.

Evaluators are immutable and freely shareable across threads; quadrature
reductions use a fixed summation order, so results are reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalRefusal

TWO_PI = 2.0 * np.pi

# Phase rows exp(+-2 pi i omega.t) of dense Fourier sums and STFT kernels and
# the shift rows of the oracle's Gram matrix are built in blocks of about
# _WINDOW_BLOCK values, so that their temporaries stay in cache.
_WINDOW_BLOCK = 16_384
# Window values below the smallest normal float are flushed to zero.
_TINY = np.finfo(float).tiny
# Quadrature nodes per block of the sums of an STFT scan. On the default
# search scan of an f that is not even (171 shifts), a block of 256 holds
# the nine Hermite planes of a degree-8 basis pass in 3.2 MB, and the pass
# peaks at 4.8 MB with the lattice sums of its 41 folded omegas; blocks of
# 512 doubled both. An even f's pass (86 shifts) peaks at 2.3 MB.
_NODE_BLOCK = 256
# Size limits, checked before anything is allocated: samples per grid axis
# and nodes per quadrature grid, and the values of each dense array a request
# sizes (`_check_values`, up to 256 MB as complex): an STFT scan's K nodes
# times its xs, omegas and points, plus its lattice field; an oracle shift
# matrix of N shifts times K nodes or sample points; and the N^2 n pairwise
# differences of a separation check or `lemma1`.
MAX_NODES = 1 << 22
MAX_ARRAY_VALUES = 1 << 24
# No point within this distance of a singularity is clear of it (`_clear_of`),
# whatever the grid's exclusion radius.
SINGULARITY_FLOOR = 1e-12
# The exps a dense Fourier sum may compute, m targets times K nodes. A sum at
# the bound takes about 20 s on x86-64 with one BLAS thread.
MAX_DENSE_PHASES = 1 << 29
# A 1-D array is an arithmetic progression when it lies within this relative
# distance of one. A chirp-z sum replaces the dense one when the m K dense
# exps exceed _CHIRP_COST size log2(size) for the FFT length `size`; the two
# cost the same between 0.25 and 0.8 on x86-64 with one BLAS thread
# (measured for K = 256 to 16384).
_UNIFORM_RTOL = 8 * np.finfo(float).eps
_CHIRP_COST = 0.5


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Truncation box [-half_width, half_width]^n with trapezoid sampling.

    `exclusion_radius` drops quadrature nodes inside a ball around each
    singularity of the integrand (radius 0 drops those within
    SINGULARITY_FLOOR of one, `_clear_of`).
    """

    half_width: float
    samples_per_axis: int
    exclusion_radius: float = 0.0

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise InputError("half_width must be positive and finite")
        if not 2 <= self.samples_per_axis <= MAX_NODES:
            raise InputError(f"samples_per_axis must lie in [2, {MAX_NODES}]")
        if not 0.0 <= self.exclusion_radius < self.half_width:
            raise InputError("exclusion_radius must lie in [0, half_width)")

    @staticmethod
    def default(dim: int) -> "GridSpec":
        """The default grid of dimension `dim`; above 1 it is the 2-D grid,
        whose axis the per-axis quadrature reads in any dimension."""
        return GridSpec(8.0, 4096) if dim == 1 else GridSpec(6.0, 512)

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.samples_per_axis - 1)


@dataclass(frozen=True)
class FunctionEvaluator:
    """Pointwise real- or complex-valued function on R^n with decay metadata.

    `fn` is the vectorized kernel: for dim 1 it maps a float array of shape
    (k,) to values of shape (k,); for dim >= 2 it maps points of shape (k, n)
    to values of shape (k,). Calling the evaluator accepts scalars, single
    points and batches under the module's point layout and reshapes
    accordingly. Values are complex128 when `fn` returns complex values and
    float64 otherwise; a single point's value is a Python complex.

    `envelope`, when present, maps a radius r >= 0 to a monotone nonincreasing
    upper bound on sup_{||t - c|| >= r} |f(t)|, where c is `envelope_center`
    (the origin by default). The exact operators carry the envelope and move
    its centre with the function; the quadrature transforms drop it.
    `with_envelope` supplies one about the current centre.

    `square_integrable=False` says f may not lie in L2, so that no quadrature
    over the truncation box bounds its error: `l2_norm`, `inner_product`,
    `fourier`, the STFT (as f or as the window) and the oracle's Gram
    matrix refuse it with a NumericalRefusal (`_require_square_integrable`).
    Pointwise evaluation, the separation certificates and the collocation
    rank take it.

    `factors`, when present, are `dim` 1-D evaluators whose product is f:
    f(t) = factors[0](t_0) ... factors[n-1](t_{n-1}). A function with
    singularities carries none. Translation, modulation and dilation act on
    each factor; the quadrature transforms and `chirp_mul` drop them, and
    `per_axis` reads them.

    `parity`, when declared, is +1 or -1 with f(-t) = parity f(t) (an even
    or an odd f); None declares nothing. Translation and modulation drop it;
    dilation, `chirp_mul` and `with_envelope` keep it, and the quadrature
    transforms declare none. An STFT scan folds its window shifts with it
    when the window's singularities are symmetric about the origin
    (`_STFTScan.fields`).
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    envelope: Optional[Callable[[float], float]] = None
    singularities: tuple = ()
    square_integrable: bool = True
    envelope_center: Optional[np.ndarray] = None
    factors: Optional[tuple] = None
    parity: Optional[int] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dim must be a positive integer")
        sings = tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in self.singularities)
        center = np.zeros(self.dim) if self.envelope_center is None else \
            np.atleast_1d(np.asarray(self.envelope_center, dtype=float))
        for s in sings + (center,):
            if s.shape != (self.dim,):
                raise InputError("singularities and the envelope centre must be points in R^dim")
        object.__setattr__(self, "singularities", sings)
        object.__setattr__(self, "envelope_center", center)
        if self.factors is not None:
            factors = tuple(self.factors)
            if len(factors) != self.dim or not all(
                    isinstance(h, FunctionEvaluator) and h.dim == 1 for h in factors):
                raise InputError("factors must be dim one-dimensional evaluators")
            if sings:
                raise InputError("a function with singularities carries no factors")
            object.__setattr__(self, "factors", factors)
        if self.parity is not None and (isinstance(self.parity, bool)
                                        or self.parity not in (1, -1)):
            raise InputError("parity must be None, 1 or -1")

    def __call__(self, t):
        pts, batch = _as_points(t, self.dim)
        out = self.fn(pts[:, 0] if self.dim == 1 else pts)
        out = np.asarray(out, dtype=complex if np.iscomplexobj(out) else float).reshape(batch)
        return complex(out) if out.ndim == 0 else out

    def with_envelope(self, envelope: Callable[[float], float]) -> "FunctionEvaluator":
        return replace(self, envelope=envelope)


@dataclass(frozen=True)
class PointSet:
    """Finite ordered set of pairwise-distinct time-frequency points.

    `rows` is a read-only (N, 2n) array whose row i is lambda_i = (x, omega),
    the layout of the CLI's `lambda` lists and of `stft_points`. It must hold
    N >= 1 finite, pairwise-distinct rows of one positive even width; rows
    equal up to the sign of zero are duplicates.
    """

    rows: np.ndarray

    def __post_init__(self):
        try:
            rows = np.array(self.rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("lambda must be a list of numeric rows") from exc
        if rows.ndim != 2 and rows.shape != (0,):
            raise InputError("lambda must be a list of numeric rows")
        if rows.shape[0] == 0:
            raise InputError("point set must contain at least one point")
        width = rows.shape[1]
        if width == 0 or width % 2:
            raise InputError("lambda rows must have positive even length")
        if not np.isfinite(rows).all():
            raise InputError("time-frequency points must be finite")
        seen = set()
        for key in map(tuple, rows.tolist()):
            if key in seen:
                half = width // 2
                raise InputError(f"duplicate time-frequency point {(key[:half], key[half:])}")
            seen.add(key)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows, dim: Optional[int] = None) -> "PointSet":
        """The point set of `rows`, whose width must be 2 dim when `dim` is given."""
        lam = cls(rows)
        if dim is not None and lam.dim != dim:
            raise InputError(f"lambda row must have length {2 * dim}")
        return lam

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1] // 2

    def times(self) -> np.ndarray:
        return self.rows[:, :self.dim]

    def freqs(self) -> np.ndarray:
        return self.rows[:, self.dim:]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def axis_quadrature(grid: GridSpec):
    """Trapezoid nodes and weights on [-L, L]. The nodes are `np.linspace`
    made exactly antisymmetric, t[m - 1 - k] == -t[k] bit for bit, so that
    mirrored functions sample the same values and a real f's STFT scan on
    this axis sums each mirrored frequency pair once. Each node moves by at
    most two ulps of L, the ends stay -L and L, and an axis that is already
    antisymmetric is unchanged."""
    a = np.linspace(-grid.half_width, grid.half_width, grid.samples_per_axis)
    w = np.full(grid.samples_per_axis, grid.step)
    w[0] = w[-1] = 0.5 * grid.step
    return 0.5 * (a - a[::-1]), w


def _as_points(t, dim: int):
    """`t` in the (k, dim) point layout, plus the batch shape of its points."""
    try:
        a = np.asarray(t, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"points must form a real array: {exc}") from exc
    batch = a.shape[:-1] if a.shape[-1:] == (dim,) else a.shape
    if a.size != dim * math.prod(batch):
        raise InputError(f"expected points with last axis of length {dim}, got shape {a.shape}")
    return a.reshape(-1, dim), batch


def finite_points(points, dim: int, what: str) -> np.ndarray:
    """Caller-supplied `points` as a nonempty finite (k, dim) array; `what`
    names them in the error."""
    pts = _as_points(points, dim)[0]
    if pts.shape[0] == 0 or not np.isfinite(pts).all():
        raise InputError(f"{what} must be a nonempty list of finite points")
    return pts


def _shared_dim(one_d: Optional[str] = None, **dims: int) -> None:
    """Refuse named inputs, given as name=dim, of different dimensions with
    an InputError naming each one's; with `one_d`, which names a computation
    implemented for dimension 1, refuse any input of another dimension too.
    Every agreement check of a library call's inputs and every 1-D-only
    guard is this one rule."""
    if one_d is not None and any(d != 1 for d in dims.values()):
        raise InputError(f"{one_d} is implemented for dimension 1")
    if len(set(dims.values())) > 1:
        raise InputError("dimension mismatch: " + ", ".join(
            f"{name} has dimension {d}" for name, d in dims.items()))


def report_json(value):
    """The JSON form of a report: the one rule for every report and payload.

    A report dataclass becomes an object of its fields, leaving out a field
    that holds None or whose metadata has `"report": False`; a dict becomes
    an object and a NamedTuple an object of its named fields; other tuples,
    lists and arrays become lists; a complex number becomes [re, im]; numpy
    scalars become Python ones; and every non-finite float becomes None
    (null), so the result is strict JSON. Floats are tested first, as most
    values are.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, dict):
        return {k: report_json(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: report_json(v) for k, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [report_json(v) for v in value]
    if isinstance(value, complex):
        return [report_json(value.real), report_json(value.imag)]
    if isinstance(value, (np.ndarray, np.generic)):
        return report_json(value.tolist())
    if dataclasses.is_dataclass(value):
        return {f.name: report_json(v) for f in dataclasses.fields(value)
                if f.metadata.get("report", True) and (v := getattr(value, f.name)) is not None}
    raise TypeError(f"no JSON form for a report value of type {type(value).__name__}")


def quadrature_points(grid: Optional[GridSpec], dim: int, singularities: Sequence = ()):
    """Tensor-product trapezoid nodes/weights, singular neighborhoods removed.

    Returns `(pts, w)` with pts of shape (K, dim); a `grid` of None is the
    default grid of `dim`. Nodes not clear of a singularity (`_clear_of`)
    are dropped.
    """
    grid = grid or GridSpec.default(dim)
    if grid.samples_per_axis ** dim > MAX_NODES:
        raise InputError(f"quadrature grids beyond {MAX_NODES} nodes are not supported")
    t, wt = axis_quadrature(grid)
    pts = np.stack([a.ravel() for a in np.meshgrid(*[t] * dim, indexing="ij")], axis=1)
    w = functools.reduce(np.multiply.outer, [wt] * dim).ravel()
    if singularities:
        keep = _clear_of(pts, singularities, grid)
        pts, w = pts[keep], w[keep]
    return pts, w


def _distance(pts: np.ndarray, center) -> np.ndarray:
    """Euclidean distance of each (k, n) point to `center`."""
    return np.linalg.norm(pts - np.asarray(center, dtype=float), axis=-1)


def _clear_of(pts: np.ndarray, singularities: Sequence,
              grid: Optional[GridSpec] = None) -> np.ndarray:
    """Mask of the (..., n) points farther from every singularity than both
    the grid's exclusion radius and SINGULARITY_FLOOR; a grid of None has
    radius 0. The one comparison of a point against a singularity."""
    radius = max(grid.exclusion_radius if grid else 0.0, SINGULARITY_FLOOR)
    keep = np.ones(pts.shape[:-1], dtype=bool)
    for s in singularities:
        keep &= _distance(pts, s) > radius
    return keep


def _require_square_integrable(*fs: FunctionEvaluator, hint: str = "") -> None:
    """Refuse a quadrature over the truncation box of any input not flagged
    square-integrable, an envelope or not: a 1/r envelope such as that of
    `singular_cos` bounds no tail mass, and the integral itself may diverge,
    so the truncation error cannot be bounded. The one reader of the flag;
    `hint` ends the message."""
    if not all(f.square_integrable for f in fs):
        raise NumericalRefusal("cannot bound the truncation error: "
                               "the input is not flagged square-integrable" + hint)


def per_axis(rule: Callable, grid: Optional[GridSpec], *fs: FunctionEvaluator):
    """A quadrature of a product integrand taken axis by axis, or None.

    When every f in `fs` carries factors, the integrand is a product of
    per-axis factors, and on the tensor trapezoid grid with product weights
    its quadrature is the product of 1-D quadratures on the grid's axis. So
    this returns the product over axes k of rule(k, axis_grid, h_1, ...),
    the h being the k-th factors of `fs` and `axis_grid` the grid (the
    default grid of their dimension when None) read as 1-D. It returns None
    when some f has no factors; the caller then takes the dense quadrature.
    """
    if any(f.factors is None for f in fs):
        return None
    grid = grid or GridSpec.default(fs[0].dim)
    out = 1.0
    for k, hs in enumerate(zip(*(f.factors for f in fs))):
        out = out * rule(k, grid, *hs)
    return out


def l2_norm(f: FunctionEvaluator, grid: Optional[GridSpec] = None) -> float:
    """Quadrature L2 norm of f over the truncation box (per axis when f
    carries factors); refused for an f not flagged square-integrable."""
    _require_square_integrable(f)
    norm = per_axis(lambda k, axis_grid, h: l2_norm(h, axis_grid), grid, f)
    if norm is not None:
        return float(norm)
    pts, w = quadrature_points(grid, f.dim, f.singularities)
    vals = f(pts)
    return float(np.sqrt(np.sum(w * np.abs(vals) ** 2)))


def inner_product(f: FunctionEvaluator, g: FunctionEvaluator,
                  grid: Optional[GridSpec] = None) -> complex:
    """Quadrature <f, g> = integral of f conj(g) over the truncation box (per
    axis when both carry factors); refused unless both are flagged
    square-integrable."""
    _shared_dim(f=f.dim, g=g.dim)
    _require_square_integrable(f, g)
    value = per_axis(lambda k, axis_grid, h, q: inner_product(h, q, axis_grid), grid, f, g)
    if value is not None:
        return complex(value)
    sings = tuple(f.singularities) + tuple(g.singularities)
    pts, w = quadrature_points(grid, f.dim, sings)
    return complex(np.sum(w * f(pts) * np.conj(g(pts))))


# ---------------------------------------------------------------------------
# Exact operators
# ---------------------------------------------------------------------------

def translate(f: FunctionEvaluator, x) -> FunctionEvaluator:
    """Time shift: result(t) = f(t - x).

    Singularities and the envelope centre shift by +x; the envelope itself
    is unchanged, and the parity is dropped.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.dim,):
        raise InputError(f"shift must be a vector of length {f.dim}")
    inner = f.fn
    return replace(f, fn=lambda t: inner(t - x),
                   singularities=tuple(s + x for s in f.singularities),
                   envelope_center=f.envelope_center + x, parity=None,
                   factors=_factors_by(f, translate, x))


def modulate(f: FunctionEvaluator, omega) -> FunctionEvaluator:
    """Modulation: result(t) = e^{2 pi i omega.t} f(t). Preserves |f| and
    drops the parity."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.shape != (f.dim,):
        raise InputError(f"modulation must be a vector of length {f.dim}")
    inner = f.fn
    freq = TWO_PI * omega
    fn = lambda t: np.exp(1j * np.dot(np.reshape(t, (-1, f.dim)), freq)) * inner(t)
    return replace(f, fn=fn, parity=None, factors=_factors_by(f, modulate, omega))


def _factors_by(f: FunctionEvaluator, op: Callable, params) -> Optional[tuple]:
    """f's factors with op(factors[k], params[k]) applied, or None."""
    if f.factors is None:
        return None
    return tuple(op(h, p) for h, p in zip(f.factors, params))


def _tf_row(lam, dim: int) -> np.ndarray:
    """The row (x, omega) of length 2 dim that `lam` flattens to, validated."""
    try:
        row = np.hstack(lam)
    except (TypeError, ValueError) as exc:
        raise InputError("a time-frequency point must be a row or an (x, omega) pair") from exc
    return PointSet.from_rows([row], dim).rows[0]


def tf_shift(f: FunctionEvaluator, lam) -> FunctionEvaluator:
    """Time-frequency shift by the row lam = (x, omega): modulation after
    translation. An (x, omega) pair flattens to the same row."""
    x, omega = np.split(_tf_row(lam, f.dim), 2)
    return modulate(translate(f, x), omega)


def dilate(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Unitary dilation: result(t) = |r|^{n/2} f(r t).

    Large |r| compresses the function toward the origin. The envelope
    transforms exactly: env'(rho) = |r|^{n/2} env(|r| rho) about c / r, and
    each 1-D factor is dilated by r, with the scale |r|^{1/2}. The parity is
    kept, for either sign of r.
    """
    r = float(r)
    if not math.isfinite(r) or r == 0.0:
        raise InputError(f"dilation factor must be finite and nonzero, got {r}")
    inner = f.fn
    scale = abs(r) ** (f.dim / 2.0)
    env = None
    if f.envelope is not None:
        base = f.envelope
        env = lambda rho: scale * base(abs(r) * rho)
    return replace(f, fn=lambda t: scale * inner(r * t), envelope=env,
                   singularities=tuple(s / r for s in f.singularities),
                   envelope_center=f.envelope_center / r,
                   factors=_factors_by(f, dilate, [r] * f.dim))


def chirp_mul(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Multiplication by the linear chirp e^{2 pi i r t^2} (dimension 1 only),
    which is even, so the parity is kept."""
    _shared_dim("chirp multiplication", f=f.dim)
    r = float(r)
    inner = f.fn
    return replace(f, fn=lambda t: np.exp(TWO_PI * 1j * r * t * t) * inner(t), factors=None)


# ---------------------------------------------------------------------------
# Quadrature-backed transforms
# ---------------------------------------------------------------------------

def _outer_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, K) matrix of dot products of (m, n) rows a with (K, n) rows b.

    Built one coordinate at a time: in 1-D this is a plain outer product,
    several times faster than a matmul with inner dimension 1.
    """
    out = np.multiply.outer(a[:, 0], b[:, 0])
    for d in range(1, a.shape[1]):
        out += np.multiply.outer(a[:, d], b[:, d])
    return out


def _check_values(count: int, what: str) -> None:
    """Refuse a dense array of more than MAX_ARRAY_VALUES values before it is
    allocated; `what` names the arrays."""
    if count > MAX_ARRAY_VALUES:
        raise InputError(f"{what} beyond {MAX_ARRAY_VALUES} values are not supported")


def _block_rows(k: int) -> int:
    """Rows per block of a (rows, k) array with about `_WINDOW_BLOCK` values."""
    return max(1, _WINDOW_BLOCK // max(k, 1))


def _phase_rows(freqs: np.ndarray, nodes: np.ndarray, sign: float):
    """Row blocks of the (r, K) matrix exp(sign 2 pi i omega_j.t_k) for (r, n)
    frequencies omega and (K, n) nodes t, each of about `_WINDOW_BLOCK`
    values: cos(theta) + i sin(theta) of theta = sign 2 pi (omega.t). The
    caller may overwrite a block.

    When the nodes are one axis that is exactly antisymmetric, t[K - 1 - k]
    == -t[k] bit for bit (`axis_quadrature`), theta(-t) = -theta(t) exactly
    and cos is even and sin odd, so cos and sin run on the first ceil(K/2)
    nodes and the rest of each row is the conjugate of that half reversed:
    the same bits. In n-D a sum of products can change the sign of a zero,
    so n-D nodes take every node."""
    K = nodes.shape[0]
    half = (K + 1) // 2 if nodes.shape[1] == 1 and np.array_equal(nodes[::-1], -nodes) else K
    step = _block_rows(K)
    for lo in range(0, freqs.shape[0], step):
        theta = sign * TWO_PI * _outer_dot(freqs[lo:lo + step], nodes[:half])
        block = np.empty((theta.shape[0], K), dtype=complex)
        np.cos(theta, out=block.real[:, :half])
        np.sin(theta, out=block.imag[:, :half])
        np.conj(block[:, :K - half][:, ::-1], out=block[:, half:])
        yield block


def _progression(a: np.ndarray):
    """(centre, step) of a 1-D array that is an arithmetic progression, else
    None: a[j] must lie within 8 eps max|a| of a[0] + j step.

    Callers evaluate at the ideal progression, which moves each phase
    2 pi omega t by at most 8 eps 2 pi max|a| times the other factor: a small
    multiple of the rounding of the dense kernel's own phase products.
    """
    m = a.shape[0]
    if m < 2:
        return None
    step = (a[-1] - a[0]) / (m - 1)
    ideal = a[0] + step * np.arange(m)
    if np.max(np.abs(a - ideal)) > _UNIFORM_RTOL * np.max(np.abs(a)):
        return None
    return a[0] + step * (0.5 * (m - 1)), step


def _chirp_sum(omega, axis, m: int, weights: np.ndarray, sign: float,
               size: int) -> np.ndarray:
    """sum_k weights[k] exp(sign 2 pi i omega_j t_k) for the progressions
    omega_j = oc + p delta (j = 0..m-1) and t_k = tc + q h (k = 0..K-1), with
    p and q the indices centred on (m-1)/2 and (K-1)/2.

    Bluestein: pq = (p^2 + q^2 - (p - q)^2) / 2 turns the m x K sum into one
    convolution of length size >= K + m - 1 with the chirp exp(-i a s^2/2),
    a = sign 2 pi delta h, at the lags s = p - q (integers plus a fixed
    offset). The rounding of a is common to all three quadratic factors, so
    it acts as a relative change of delta h; centring keeps the quadratic
    phases, and so their own rounding, at most pi |delta h| ((K + m)/2)^2.
    """
    (oc, delta), (tc, h) = omega, axis
    K = weights.shape[0]
    theta = sign * TWO_PI
    alpha = theta * delta * h
    p = np.arange(m) - 0.5 * (m - 1)
    q = np.arange(K) - 0.5 * (K - 1)
    y = weights * np.exp(1j * (theta * oc * h * q + 0.5 * alpha * q * q))
    # Lags s = p - q = n + (K - m)/2 for n = j - k in [-(K-1), m-1].
    n = np.arange(-(K - 1), m)
    lags = n + 0.5 * (K - m)
    chirp = np.zeros(size, dtype=complex)
    chirp[n % size] = np.exp(-0.5j * alpha * lags * lags)
    conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(chirp))[:m]
    return conv * np.exp(1j * (theta * tc * (oc + delta * p) + 0.5 * alpha * p * p))


def _fourier_sum(targets: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                 sign: float) -> np.ndarray:
    """sum_k weights[k] exp(sign 2 pi i omega_j.t_k) for (m, n) targets omega
    and (K, n) nodes t.

    In 1-D, when targets and nodes are both arithmetic progressions and m is
    large enough that three FFTs cost less than the m K dense exps, the sum
    is a chirp-z transform (`_chirp_sum`) in O((K + m) log(K + m)). Otherwise
    it is the dense phase-sum kernel, refused beyond MAX_DENSE_PHASES exps.
    """
    m, K = targets.shape[0], nodes.shape[0]
    if targets.shape[1] == 1 and m >= 2:
        size = 1 << (K + m - 2).bit_length()  # power of two >= K + m - 1
        if m * K > _CHIRP_COST * size * math.log2(size):
            omega = _progression(targets[:, 0])
            axis = None if omega is None else _progression(nodes[:, 0])
            if axis is not None:
                return _chirp_sum(omega, axis, m, weights, sign, size)
    if m * K > MAX_DENSE_PHASES:
        raise InputError(f"a dense Fourier sum of {m} x {K} phases exceeds the "
                         f"{MAX_DENSE_PHASES} supported; use a coarser grid")
    sums = []
    for block in _phase_rows(targets, nodes, sign):
        rows = block.shape[0]
        if rows == 1:
            # BLAS sums a lone row with its dot kernel, which rounds unlike
            # the matrix-vector kernel of every other block; a zero row
            # sends it through the same kernel.
            block = np.concatenate([block, np.zeros_like(block)])
        sums.append((block @ weights)[:rows])
    return np.concatenate(sums) if sums else np.empty(0, dtype=complex)


def fourier(f: FunctionEvaluator, grid: Optional[GridSpec] = None) -> FunctionEvaluator:
    """Truncated-quadrature Fourier transform as an evaluator on R^n.

    fhat(omega) = integral over [-L, L]^n of f(t) e^{-2 pi i omega.t} dt,
    evaluable at arbitrary omega (not only lattice points). Accuracy is
    bounded by the tail mass outside the box plus trapezoid error. Inputs
    not flagged square-integrable are refused (`_require_square_integrable`).
    """
    _require_square_integrable(f)
    nodes, w = quadrature_points(grid, f.dim, f.singularities)
    weighted = f(nodes) * w
    fn = lambda om: _fourier_sum(np.reshape(om, (-1, f.dim)), nodes, weighted, -1.0)
    return FunctionEvaluator(dim=f.dim, fn=fn, envelope=None, singularities=())


def inverse_fourier_multiplier(f: FunctionEvaluator, multiplier,
                               grid: Optional[GridSpec] = None) -> FunctionEvaluator:
    """Apply a frequency-domain multiplier: result = IFT(multiplier * fhat).

    `multiplier` maps frequencies to complex factors with the same array
    contract as `FunctionEvaluator.fn`. Used for chirp-type Fourier
    multipliers, where the frequency-domain form is far better conditioned
    than a literal chirp convolution.
    """
    fhat = fourier(f, grid)
    nodes, w = quadrature_points(grid, f.dim)
    weighted = fhat(nodes) * FunctionEvaluator(f.dim, multiplier)(nodes) * w
    fn = lambda t: _fourier_sum(np.reshape(t, (-1, f.dim)), nodes, weighted, +1.0)
    return FunctionEvaluator(dim=f.dim, fn=fn, envelope=None, singularities=())


def _folded_planes(freqs: np.ndarray, nodes: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """exp(-2 pi i omega_j.t_k) fw[k] for (r, n) frequencies omega and (K, n)
    nodes t, as an (r, 2, K) real array: row j holds the real plane and then
    the imaginary plane of frequency j."""
    out = np.empty((freqs.shape[0], 2, nodes.shape[0]))
    lo = 0
    for block in _phase_rows(freqs, nodes, -1.0):
        block *= fw
        hi = lo + block.shape[0]
        out[lo:hi, 0] = block.real
        out[lo:hi, 1] = block.imag
        lo = hi
    return out


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-D array in first-appearance order, and the
    index of each row of `a` among them. Rows equal up to the sign of zero
    are one row."""
    first: dict = {}
    inverse = np.array([first.setdefault(row, len(first)) for row in map(tuple, a.tolist())],
                       dtype=np.intp)
    return np.array(list(first), dtype=float).reshape(len(first), a.shape[1]), inverse


def _first_negative(a: np.ndarray) -> np.ndarray:
    """True for each row of a 2-D array whose first nonzero entry is negative."""
    return a[np.arange(a.shape[0]), np.argmax(a != 0, axis=1)] < 0


def _fold(rows: np.ndarray, dim: int, real: bool, reflect):
    """(distinct folded rows, index, conj, flip) of (r, w) rows whose first
    `dim` columns are a shift and whose last `dim` columns are a frequency.
    Where `reflect` (a bool, or one per row), a row whose first nonzero
    shift coordinate is negative is replaced by its reflection -row
    (`flip`); then, for a real f, a row whose first nonzero frequency
    coordinate is negative is replaced by its mirror, the frequency negated,
    and reads the conjugate of its value (`conj`). Row i of `rows` reads
    distinct row index[i]."""
    flip = reflect & _first_negative(rows[:, :dim])
    rows = np.where(flip[:, None], -rows, rows)
    conj = real & _first_negative(rows[:, rows.shape[1] - dim:])
    mirror = np.repeat([1.0, -1.0], [rows.shape[1] - dim, dim])
    return (*_distinct_rows(np.where(conj[:, None], rows * mirror, rows)), conj, flip)


def _unfold(values: np.ndarray, index: np.ndarray, conj: np.ndarray, flip: np.ndarray,
            parities: Sequence) -> np.ndarray:
    """The values of the rows `_fold` folded, from those of its distinct
    rows along the last axis of `values`; a flipped row of plane j reads
    its value times parities[j], the planes running along the first axis."""
    values = values[..., index]
    np.negative(values.imag, out=values.imag, where=conj)
    if flip.any():
        sign = np.reshape(np.asarray(parities, dtype=float), (-1,) + (1,) * (values.ndim - 1))
        np.multiply(values, sign, out=values, where=flip)
    return values


def _flush(plane: np.ndarray) -> None:
    """Set the entries of magnitude below the smallest normal float to zero."""
    plane[np.abs(plane) < _TINY] = 0.0


class _ScanLayout(NamedTuple):
    """The window side of an `_STFTScan`, reflected through the origin or not
    (`_STFTScan.layout`): the distinct shifts, the first `xs` of them the
    folded lattice xs, the `_unfold` flags of the lattice xs and of the
    points, and each folded point's shift and kernel rows."""

    shifts: np.ndarray
    xs: int
    x_fold: tuple
    point_fold: tuple
    point_rows: np.ndarray
    point_kernel: np.ndarray


class _STFTScan:
    """V_g f of one f on a fixed lattice and point set, for any window g.

    Holds everything that does not depend on the window, each phase's cos and
    sin computed once: the quadrature nodes, the folded kernels
    exp(-2 pi i omega.t) f(t) w of the lattice frequencies and of the point
    frequencies (`_folded_planes`), and the distinct shifts that the lattice
    xs and the point xs name. `products` sums any stack of real window
    planes against the kernels; `fields` is that sum for one window.

    For a real f, mirrored frequencies share a kernel row (module notes):
    the lattice omegas and the points are folded by `_fold`, whose flags
    `_unfold` reads back. For an even real f (`even`, read from its
    quadrature values), windows of known parities also fold each shift onto
    its reflection when the reflection is a shift of the scan too. The
    shifts and the point kernel of either layout are built on first use
    (`layout`).
    """

    def __init__(self, f: FunctionEvaluator, grid: Optional[GridSpec],
                 xs=(), omegas=(), points=()):
        _require_square_integrable(f)
        self.dim = f.dim
        self.grid = grid or GridSpec.default(f.dim)
        xs = _as_points(xs, f.dim)[0]
        omegas = _as_points(omegas, f.dim)[0]
        pts = _as_points(points, 2 * f.dim)[0]
        m, p = xs.shape[0], omegas.shape[0]
        rows = m + p + pts.shape[0]
        _check_values(self.grid.samples_per_axis ** f.dim * rows + m * p, "STFT scans")
        self.nodes, w = quadrature_points(self.grid, f.dim, f.singularities)
        self.fw = f(self.nodes) * w
        # For a real f, V(x, -omega) = conj V(x, omega) on each real window
        # plane, so a mirrored pair of frequencies needs one kernel row.
        self.real = not np.iscomplexobj(self.fw)
        # Reversing the nodes reflects them through the origin in any dimension.
        self.even = (self.real and np.array_equal(self.nodes[::-1], -self.nodes)
                     and np.array_equal(self.fw, self.fw[::-1]))
        omegas, *self.lattice_fold = _fold(omegas, f.dim, self.real, False)
        # Rows 2j and 2j + 1 are the real and imaginary planes of folded omega j.
        self.lattice_kernel = _folded_planes(omegas, self.nodes, self.fw).reshape(-1, self.fw.size)
        self.xs, self.points = xs, pts
        self._layouts: dict = {}

    def layout(self, reflect: bool) -> _ScanLayout:
        """The shifts and the point kernel of the scan, each shift whose
        reflection through the origin is a shift of the scan too folded onto
        it when `reflect`.

        Such a lattice x whose first nonzero coordinate is negative reads -x,
        and a point (x, omega) so reflected reads (-x, -omega) before the
        frequency fold. A shift without a mirror keeps its own sums, so a
        fold only ever removes shifts, and a scan with no mirrored shifts
        (the shifted lattice xs - u of the STFT identity) sums as if
        unreflected. Shifts equal up to the sign of zero are one, and the
        distinct lattice xs come first, so their window rows are a slice.
        """
        if reflect not in self._layouts:
            m, dim = self.xs.shape[0], self.dim
            mirrored = np.zeros(m + self.points.shape[0], dtype=bool)
            if reflect:
                shifts = np.concatenate([self.xs, self.points[:, :dim]]).tolist()
                seen = set(map(tuple, shifts))
                mirrored[:] = [tuple(-v for v in x) in seen for x in shifts]
            xs, x_index, _, x_flip = _fold(self.xs, dim, False, mirrored[:m])
            pts, *point_fold = _fold(self.points, dim, self.real, mirrored[m:])
            shifts, inverse = _distinct_rows(np.concatenate([xs, pts[:, :dim]]))
            self._layouts[reflect] = _ScanLayout(
                shifts, xs.shape[0], (x_index, x_flip, x_flip), tuple(point_fold),
                inverse[xs.shape[0]:], _folded_planes(pts[:, dim:], self.nodes, self.fw))
        return self._layouts[reflect]

    @property
    def shifts(self) -> np.ndarray:
        """The distinct window shifts of the unreflected layout."""
        return self.layout(False).shifts

    def products(self, window: Callable[[np.ndarray], np.ndarray], parities: Sequence):
        """(L, v) for q = len(parities) real window planes: L[j, i, l] = sum_k
        exp(-2 pi i omegas[l].t_k) f(t_k) w_k P_j(t_k - xs[i]) on the lattice
        and v[j, i] the same sum at points[i], where window(t) gives the
        (q, shifts, b) planes P at the (shifts, b, n) offsets t_k - x of a
        block of b nodes from the layout's shifts x. parities[j] is the
        parity of P_j, P_j(-t) = parities[j] P_j(t), or None when unknown.

        For an even real f and planes of known parities, V_P f(-x, omega) =
        parity conj V_P f(x, omega) (module notes), so the sums run on the
        reflected layout, where each mirrored pair of shifts is summed once;
        otherwise on the unreflected one.
        The sums run over blocks of `_NODE_BLOCK` nodes, in order. Each
        block's planes have their subnormal parts set to zero (`_flush`);
        then each plane's lattice rows are one real matrix product with the
        stacked lattice kernel, and each folded point is the dot product of
        its kernel row with its window row, so no value depends on q, nor on
        the other rows of the call but through the shift fold. Lattice
        entries and points folded onto a mirror or a reflection then read
        its sum exactly conjugated or signed (`_unfold`).
        """
        q = len(parities)
        layout = self.layout(self.even and None not in parities)
        m = layout.xs
        lattice = np.zeros((q, m, self.lattice_kernel.shape[0]))
        points = np.zeros((q, layout.point_rows.shape[0], 2))
        for lo in range(0, self.nodes.shape[0], _NODE_BLOCK):
            nodes = slice(lo, lo + _NODE_BLOCK)
            planes = window(self.nodes[nodes] - layout.shifts[:, None, :])
            lattice_kernel = self.lattice_kernel[:, nodes].T
            point_kernel = layout.point_kernel[:, :, nodes]
            for j in range(q):
                _flush(planes[j])
                lattice[j] += planes[j, :m] @ lattice_kernel
                points[j] += (point_kernel @ planes[j, layout.point_rows, :, None])[..., 0]
            del planes  # before the next block is built, the peak of memory
        # A reflected x reads parity V(x, -omega), the conjugate for a real f.
        lattice = _unfold(lattice.view(complex).swapaxes(1, 2), *layout.x_fold, parities)
        return (_unfold(lattice.swapaxes(1, 2), *self.lattice_fold, parities),
                _unfold(points.view(complex)[..., 0], *layout.point_fold, parities))

    def fields(self, g: FunctionEvaluator):
        """(V, v): V[i, j] = V_g f(xs[i], omegas[j]) on the lattice and
        v[i] = V_g f(points[i]), each sum_k exp(-2 pi i omega.t_k) f(t_k) w_k
        conj(g(t_k - x)).

        The window is evaluated once on each distinct shift, block by block
        of `products`, as its real plane plus, for a complex-valued g, the
        plane of -Im g. Entries where t_k is not clear of a singularity of
        the shifted window are zero. Both planes have g's declared parity
        (`FunctionEvaluator.parity`) when its singularities, and so the
        zeroed entries, are symmetric about the origin; an even f's scan
        then folds its shifts.
        """
        _shared_dim(f=self.dim, g=g.dim)
        _require_square_integrable(g)
        # A complex-valued g adds a plane; its value type is read from an empty batch.
        q = 2 if np.iscomplexobj(g(np.empty((0, self.dim)))) else 1

        def window(t: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):
                vals = g(t)
            if g.singularities:
                vals = np.where(_clear_of(t, g.singularities, self.grid), vals, 0.0)
            return np.stack([vals.real, -vals.imag]) if q == 2 else vals.real[None]

        sings = set(map(tuple, np.reshape(g.singularities, (-1, self.dim)).tolist()))
        symmetric = all(tuple(-v for v in x) in sings for x in sings)
        lattice, points = self.products(window, (g.parity if symmetric else None,) * q)
        if q == 2:
            return lattice[0] + 1j * lattice[1], points[0] + 1j * points[1]
        return lattice[0], points[0]


def stft(f: FunctionEvaluator, g: FunctionEvaluator, lam,
         grid: Optional[GridSpec] = None) -> complex:
    """Short-time Fourier transform value V_g f(lambda) = <f, pi(lambda) g>.

    Computed by quadrature of f(t) conj(e^{2 pi i omega.t} g(t - x)) over the
    truncation box; this is `stft_points` at the single row lambda = (x,
    omega), to which an (x, omega) pair flattens.
    """
    return complex(stft_points(f, g, _tf_row(lam, f.dim), grid)[0])


def stft_grid(f: FunctionEvaluator, g: FunctionEvaluator, xs, omegas,
              grid: Optional[GridSpec] = None) -> np.ndarray:
    """V_g f on a separable lattice: V[i, j] = V_g f(xs[i], omegas[j]).

    The lattice costs one cos and one sin per (omega, node) pair, and for a
    real f one per (folded omega, node) pair: -omega reads the conjugate of
    omega's sum on each real window plane, so the omegas of an exactly
    antisymmetric axis cost half.
    """
    return _STFTScan(f, grid, xs=xs, omegas=omegas).fields(g)[0]


def stft_points(f: FunctionEvaluator, g: FunctionEvaluator, lattice_pts,
                grid: Optional[GridSpec] = None) -> np.ndarray:
    """V_g f at arbitrary time-frequency points; rows are (x, omega) in R^{2n}."""
    return _STFTScan(f, grid, points=lattice_pts).fields(g)[1]
