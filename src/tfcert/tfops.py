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
one point per entry); `finite_points` validates a caller's list. One
vector (a shift, a frequency, a time-frequency point, a singularity, an
envelope centre, an anchor) is read by one reader, `finite_vector`: any
array of n finite entries, a number when n is 1. Numbers are read through
`errors.convert` and `errors.finite`, by the CLI's rules and names, so a
library call refuses what the CLI refuses. Only
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
instead of m K phases. Evaluating at the ideal progressions moves each phase
2 pi omega t by at most 16 eps 2 pi max|omega| max|t|, a small multiple of
the rounding of the phases themselves. Short, non-uniform or 2-D target
sets, and nodes with an interior singular neighborhood dropped, take the
dense sum of the STFT scan's phase kernel (`_folded_planes`, below) at the
targets, negated for the inverse sum. Its nodes come from
`quadrature_points`, so they lie on the grid's axis whether singular nodes
are dropped or not (`_nodes_on_axis`), and each target's value is summed on
its own, so it does not depend on the other targets.

The STFT entry points work in any dimension the quadrature grid supports,
and all of them read V_g f through one `_STFTScan`: `stft_grid` and
`stft_points` build a scan and evaluate one window against it, `stft` is
`stft_points` on one row, and a window search sums the Hermite basis
windows of each width it tries against one scan. A scan holds what does
not depend on the window, built once:
- the quadrature nodes;
- the folded kernels exp(-2 pi i omega.t_k) f(t_k) w_k of the lattice
  frequencies and of the point frequencies, node by node, each frequency a
  real and an imaginary plane (`_folded_planes`). The nodes lie on the
  grid's axis, an arithmetic progression, so a frequency's phases on it are
  products of a coarse and a fine table of about sqrt(samples / 2) cos and
  sin each (`_axis_columns`), and an n-D node's phase the product of its
  axes'.
  A frequency's kernel depends on that frequency alone;
- the distinct window shifts: the distinct lattice xs, then each point x
  not seen before (rows equal up to the sign of zero are one), so the
  lattice rows are a slice of them.
For a real f every real window plane P has sum_k exp(2 pi i omega.t_k)
f(t_k) w_k P(t_k - x) = conj of the sum at omega (Groechenig, Foundations of
Time-Frequency Analysis, 2001), so a scan of a real f sums each mirrored
pair of frequencies once. One rule (`_fold`) serves the lattice omegas and
the points: a frequency whose first nonzero coordinate is negative is
replaced by its mirror -omega and reads the conjugate of the mirror's sum,
and equal folded rows share one kernel. A lattice on the grid axis
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
Each of the two shift layouts, with the point kernels it needs, is
built on first use.
`products` sums a stack of q real window planes against the kernels, block
by block of `_NODE_BLOCK` nodes. For each block a window function gives the
q planes at the offsets t_k - x of the block's nodes from every shift;
`products` sets their subnormal parts to zero (below), then adds each
plane's lattice rows as real matrix products with the node-major kernel,
one per tile of `_TILE` = 8 float columns (four frequencies), and each
point value as the dot product of its window row with its kernel. Each
tile is a view of the kernel but the last part tile, which is copied and
padded with zeros, so every lattice product has one shape, (shifts, block
nodes) by (block nodes, 8), whatever the frequencies. The blocks are fixed,
so no value depends on q. Nor does a lattice value depend on the other
frequencies of the call, or on whether f is real: its kernel is its own,
and a BLAS rounds every column of products of one shape alike. That last
is what the BLAS must give, and every OpenBLAS 0.3.31 x86-64 kernel tried
gives it (SkylakeX, Haswell, Sandybridge, Nehalem and Katmai, on one and two
threads), where one product over all the columns does not: the Haswell
kernel, which AMD Zen CPUs also run, rounds a column by the column count.
A value depends on the other shifts only through the shift fold: a point
reads its mirror's sum when its shift's mirror is among them. `fields(g)`
is `products` on conj(g(t_k - x)), as a real plane plus an imaginary plane
when g is complex-valued. Lattice and point values
are both sum_k exp(-2 pi i omega.t_k) f(t_k) w_k conj(g(t_k - x)), summed in
different orders, so they agree to round-off. Window parts of magnitude
below the smallest normal float, tiny = 2.2e-308, are set to zero: Hermite
windows narrower than about 1.1-1.2 have such values on the default search
scan, and they put BLAS on its slow subnormal path. That moves each value
of V by at most K tiny max|f w| for K nodes (sqrt 2 times that for a
complex window).

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

from .errors import InputError, NumericalRefusal, convert, finite

TWO_PI = 2.0 * np.pi

# The phase kernels of dense Fourier sums (a block of targets at a time), the
# node blocks of n-D and gathered phase kernels and the shift rows of the
# oracle's Gram matrix are built in blocks of about _WINDOW_BLOCK values, so
# that their temporaries stay in cache.
_WINDOW_BLOCK = 16_384
# Window values below the smallest normal float are flushed to zero.
_TINY = np.finfo(float).tiny
# Quadrature nodes per block of the sums of an STFT scan. On the default
# search scan of an f that is not even (171 shifts), a block of 256 holds
# the nine Hermite planes of a degree-8 basis pass in 3.2 MB, and the pass
# peaks at 4.8 MB with the lattice sums of its 41 folded omegas; blocks of
# 512 doubled both. An even f's pass (86 shifts) peaks at 2.3 MB.
_NODE_BLOCK = 256
# Float columns (four frequencies) of the lattice kernel per product of an
# STFT scan's sums, so that every such product has one shape.
_TILE = 8
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
# The phases a dense Fourier sum may form, m targets times K nodes. A sum at
# the bound takes about 7 s on a 2-D grid of 128^2 nodes and 4 s on the 1-D
# default axis (x86-64, one BLAS thread).
MAX_DENSE_PHASES = 1 << 29
# A 1-D array is an arithmetic progression when it lies within this relative
# distance of one. A chirp-z sum replaces the dense one when the m K dense
# phases exceed _CHIRP_COST size log2(size) for the FFT length `size`; the two
# cost the same between 0.25 and 0.8 on x86-64 with one BLAS thread
# (measured for K = 256 to 16384 with a cos and a sin per phase; the per-axis
# tables make a 1-D dense phase a third to a half cheaper).
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
    SINGULARITY_FLOOR of one, `_clear_of`). Each field is read through
    `errors.convert`, so a fractional sample count is refused, not kept.
    """

    half_width: float
    samples_per_axis: int
    exclusion_radius: float = 0.0

    def __post_init__(self):
        for name, kind in (("half_width", float), ("samples_per_axis", int),
                           ("exclusion_radius", float)):
            object.__setattr__(self, name, convert(kind, getattr(self, name), name))
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
    `with_envelope` supplies one about the current centre. `dim` is read
    through `errors.convert`, and each singularity and the centre through
    `finite_vector`.

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
        dim = convert(int, self.dim, "dim")
        if dim < 1:
            raise InputError("dim must be a positive integer")
        try:
            sings = tuple(finite_vector(s, dim, "a singularity") for s in self.singularities)
            center = np.zeros(dim) if self.envelope_center is None else \
                finite_vector(self.envelope_center, dim, "the envelope centre")
        except InputError as exc:
            raise InputError("singularities and the envelope centre must be points "
                             f"in R^dim: {exc}") from None
        object.__setattr__(self, "dim", dim)
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
    antisymmetric is unchanged. A half width beyond half the largest float,
    whose step 2 L / (samples - 1) overflows, is refused."""
    if not math.isfinite(grid.step):
        raise NumericalRefusal(f"the grid step overflows at half_width {grid.half_width:g}")
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


def finite_vector(value, dim: int, what: str) -> np.ndarray:
    """`value` as one finite point of R^dim, an array of shape (dim,) (a
    number when dim is 1); `what` names it in the error. A float vector is
    read without a copy. The one reader of a single vector."""
    # math.isfinite on the entries is several times cheaper than numpy's
    # isfinite and all on a vector of a few entries.
    try:
        row = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        row = np.empty(0)
    if row.shape != (dim,) or not all(map(math.isfinite, row.tolist())):
        raise InputError(f"{what} must be a finite vector of length {dim}")
    return row


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
    x = finite_vector(x, f.dim, "shift")
    inner = f.fn
    return replace(f, fn=lambda t: inner(t - x),
                   singularities=tuple(s + x for s in f.singularities),
                   envelope_center=f.envelope_center + x, parity=None,
                   factors=_factors_by(f, translate, x))


def modulate(f: FunctionEvaluator, omega) -> FunctionEvaluator:
    """Modulation: result(t) = e^{2 pi i omega.t} f(t). Preserves |f| and
    drops the parity."""
    omega = finite_vector(omega, f.dim, "frequency")
    inner = f.fn
    freq = TWO_PI * omega
    fn = lambda t: np.exp(1j * np.dot(np.reshape(t, (-1, f.dim)), freq)) * inner(t)
    return replace(f, fn=fn, parity=None, factors=_factors_by(f, modulate, omega))


def _factors_by(f: FunctionEvaluator, op: Callable, params) -> Optional[tuple]:
    """f's factors with op(factors[k], params[k]) applied, or None."""
    if f.factors is None:
        return None
    return tuple(op(h, p) for h, p in zip(f.factors, params))


def tf_shift(f: FunctionEvaluator, lam) -> FunctionEvaluator:
    """Time-frequency shift by the row lam = (x, omega): modulation after
    translation. An (x, omega) pair flattens to the same row."""
    row = finite_vector(lam, 2 * f.dim, "a time-frequency point")
    return modulate(translate(f, row[:f.dim]), row[f.dim:])


def dilate(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Unitary dilation: result(t) = |r|^{n/2} f(r t).

    Large |r| compresses the function toward the origin. The envelope
    transforms exactly: env'(rho) = |r|^{n/2} env(|r| rho) about c / r, and
    each 1-D factor is dilated by r, with the scale |r|^{1/2}. The parity is
    kept, for either sign of r.
    """
    r = convert(float, r, "r")
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
    r = finite(r, "r")
    inner = f.fn
    return replace(f, fn=lambda t: np.exp(TWO_PI * 1j * r * t * t) * inner(t), factors=None)


# ---------------------------------------------------------------------------
# Quadrature-backed transforms
# ---------------------------------------------------------------------------

def _check_values(count: int, what: str) -> None:
    """Refuse a dense array of more than MAX_ARRAY_VALUES values before it is
    allocated; `what` names the arrays."""
    if count > MAX_ARRAY_VALUES:
        raise InputError(f"{what} beyond {MAX_ARRAY_VALUES} values are not supported")


def _block_rows(k: int) -> int:
    """Rows per block of a (rows, k) array with about `_WINDOW_BLOCK` values."""
    return max(1, _WINDOW_BLOCK // max(k, 1))


def _progression(a: np.ndarray):
    """(centre, step) of a 1-D array that is an arithmetic progression, else
    None: a[j] must lie within 8 eps max|a| of a[0] + j step.

    Callers evaluate at the ideal progression, which moves each phase
    2 pi omega t by at most 8 eps 2 pi max|a| times the other factor: a small
    multiple of the rounding of the phase kernel's own products.
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


def _fourier_sum(targets: np.ndarray, nodes: np.ndarray, axes: _NodeAxes,
                 weights: np.ndarray, sign: float) -> np.ndarray:
    """sum_k weights[k] exp(sign 2 pi i omega_j.t_k) for (m, n) targets omega
    and the (K, n) nodes t of `axes`.

    In 1-D, when targets and nodes are both arithmetic progressions and m is
    large enough that three FFTs cost less than the m K dense phases, the sum
    is a chirp-z transform (`_chirp_sum`) in O((K + m) log(K + m)). Otherwise
    it is the dense sum of the STFT scan's kernel (`_folded_planes`) at the
    frequencies -sign omega, which negates the phases exactly, refused
    beyond MAX_DENSE_PHASES phases. It runs block by block of targets, each
    target's kernel column copied to a contiguous row and summed on its own:
    numpy sums a lone row pairwise but the rows of several columns one node
    after another, so a target's value does not depend on the other targets.
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
    freqs, step = -sign * targets, _block_rows(K)
    sums = np.empty(m, dtype=complex)
    for lo in range(0, m, step):
        kernel = _folded_planes(freqs[lo:lo + step], axes, weights)
        sums[lo:lo + step] = np.ascontiguousarray(kernel.T).sum(axis=1)
    return sums


def fourier(f: FunctionEvaluator, grid: Optional[GridSpec] = None) -> FunctionEvaluator:
    """Truncated-quadrature Fourier transform as an evaluator on R^n.

    fhat(omega) = integral over [-L, L]^n of f(t) e^{-2 pi i omega.t} dt,
    evaluable at arbitrary omega (not only lattice points). Accuracy is
    bounded by the tail mass outside the box plus trapezoid error. Inputs
    not flagged square-integrable are refused (`_require_square_integrable`).
    """
    _require_square_integrable(f)
    nodes, w, axes = _nodes_on_axis(grid, f.dim, f.singularities)
    weighted = f(nodes) * w
    fn = lambda om: _fourier_sum(np.reshape(om, (-1, f.dim)), nodes, axes, weighted, -1.0)
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
    nodes, w, axes = _nodes_on_axis(grid, f.dim)
    weighted = fhat(nodes) * FunctionEvaluator(f.dim, multiplier)(nodes) * w
    fn = lambda t: _fourier_sum(np.reshape(t, (-1, f.dim)), nodes, axes, weighted, +1.0)
    return FunctionEvaluator(dim=f.dim, fn=fn, envelope=None, singularities=())


class _NodeAxes(NamedTuple):
    """Where the K nodes of a quadrature sit on its grid's axis, the
    progression t_i = (i - (samples - 1) / 2) step: node k is the point
    whose coordinate d is t at index[d][k]. The index is None when the nodes
    are the whole 1-D axis in order (`_nodes_on_axis`)."""

    step: float
    samples: int
    index: Optional[tuple]


def _nodes_on_axis(grid: Optional[GridSpec], dim: int, singularities: Sequence = ()):
    """(nodes, w, axes): `quadrature_points` of `grid` (None is the default
    grid of `dim`) and where its nodes sit on the grid's axis. Every node
    coordinate is a value of the axis, within two ulps of L of the
    progression, so rounding reads its index exactly, with singular nodes
    dropped or not."""
    grid = grid or GridSpec.default(dim)
    nodes, w = quadrature_points(grid, dim, singularities)
    index = np.rint((nodes + grid.half_width) / grid.step).astype(np.intp)
    samples = grid.samples_per_axis
    whole = index.shape == (samples, 1)
    return nodes, w, _NodeAxes(grid.step, samples, None if whole else tuple(index.T))


def _turn_table(turns: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (l, r) table exp(-2 pi i u_i nu_j) of (l,) values u and (r,)
    turns per unit nu. Each phase is reduced by its whole turns before the
    cos and sin, so both run on |theta| <= pi, and negating nu conjugates
    the table exactly."""
    frac = np.multiply.outer(u, turns)
    frac -= np.rint(frac)
    theta = -TWO_PI * frac
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _axis_columns(freqs: np.ndarray, step: float, samples: int,
                  index: Optional[np.ndarray] = None) -> np.ndarray:
    """The (samples, r) table exp(-2 pi i omega_j t_i) of (r,) frequencies on
    the progression t_i = (i - (samples - 1) / 2) step, one column per
    frequency, or its rows at the axis indices `index`.

    The second half, t >= 0, starts at node s = samples - half with half =
    ceil(samples / 2). Its node s + S a + b, S the least power of two with
    S^2 >= half, is the product of the coarse entry at t_{s + S a} and the
    fine entry at t = b step (`_turn_table`): fewer than 2.5 sqrt(half) + 1
    cos and sin per frequency (96 on the default 4,096-node axis) and one
    complex product per node, and t = 0 is exactly 1. The first half,
    t_{samples-1-i} = -t_i, is the exact conjugate of the second reversed.
    A column depends on its own frequency alone, and the column of -omega
    is the exact conjugate of that of omega.

    Given axis indices, it forms their rows alone, at a cost that follows
    the indices, not the axis: each the product of its coarse and fine
    entry, conjugated on the first half (the same bits as the table's row),
    in blocks of about `_WINDOW_BLOCK` values; or, for fewer indices than
    the tables have rows, each phase directly (`_turn_table`)."""
    r, half = freqs.shape[0], (samples + 1) // 2
    split = 1 << ((half - 1).bit_length() + 1) // 2
    coarse, start = -(-half // split), samples - half
    if index is not None and index.shape[0] < coarse + split:
        return _turn_table(freqs * step, index - 0.5 * (samples - 1))
    table = _turn_table(freqs * step, np.concatenate([
        split * np.arange(coarse) + (start - 0.5 * (samples - 1)), np.arange(split)]))
    if index is not None:
        out, first = np.empty((index.shape[0], r), dtype=complex), index < start
        a, b = np.divmod(np.where(first, samples - 1 - index, index) - start, split)
        for lo in range(0, index.shape[0], _block_rows(r)):
            block = slice(lo, lo + _block_rows(r))
            np.multiply(table[a[block]], table[coarse + b[block]], out=out[block])
        np.negative(out.imag, out=out.imag, where=first[:, None])
        return out
    # The products may run past the last node; those rows are never read.
    out = np.empty((start + coarse * split, r), dtype=complex)
    np.multiply(table[:coarse, None], table[None, coarse:],
                out=out[start:].reshape(coarse, split, r))
    np.conj(out[half:samples][::-1], out=out[:start])
    return out[:samples]


def _folded_planes(freqs: np.ndarray, axes: _NodeAxes, fw: np.ndarray) -> np.ndarray:
    """exp(-2 pi i omega_j.t_k) fw[k] for (r, n) frequencies omega and the
    K nodes t of `axes`, as a (K, r) complex array. Its float view (K, 2 r)
    holds the real and the imaginary plane of frequency j in columns 2j and
    2j + 1, node by node.

    Each axis gives its columns (`_axis_columns`); the nodes take them at
    their axis indices and multiply them, in blocks of about
    `_WINDOW_BLOCK` values (the whole 1-D axis takes its columns as they
    are). Fewer than half as many nodes as an axis has points, such as 1-D
    nodes of which a wide singular neighborhood is dropped, form their own
    rows of each axis instead, so the kernel's cost and memory follow K,
    not the axis. Then cos(theta) fw and sin(theta) fw are formed in place,
    by four products for a complex fw. No column reads another frequency,
    so a column depends on its own frequency alone. The one phase kernel:
    every STFT kernel and the dense Fourier sum read it."""
    r, K = freqs.shape[0], fw.shape[0]
    few = axes.index is not None and 2 * K < axes.samples
    columns = [_axis_columns(freqs[:, d], axes.step, axes.samples, axes.index[d] if few else None)
               for d in range(freqs.shape[1])]
    if axes.index is None or few:
        kernel = functools.reduce(np.multiply, columns)
    else:
        # 1-D nodes are an increasing part of the axis, index[k] >= k, so
        # their columns are gathered in place, block by block. Every index
        # lies on the axis, so "clip" never acts; it spares `take` the copy
        # of its output that "raise" makes (an overlapping output is still
        # copied).
        kernel = columns[0][:K] if len(columns) == 1 else np.empty((K, r), dtype=complex)
        for lo in range(0, K, _block_rows(r)):
            block = slice(lo, lo + _block_rows(r))
            np.take(columns[0], axes.index[0][block], axis=0, out=kernel[block], mode="clip")
            for axis, index in zip(columns[1:], axes.index[1:]):
                kernel[block] *= np.take(axis, index[block], axis=0)
    if np.iscomplexobj(fw):
        kernel *= fw[:, None]
    else:
        planes = kernel.view(float).reshape(K, 2 * r)
        planes *= fw[:, None]
    return kernel


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
    points, and each folded point's shift and its kernel."""

    shifts: np.ndarray
    xs: int
    x_fold: tuple
    point_fold: tuple
    point_rows: np.ndarray
    point_kernel: np.ndarray


class _STFTScan:
    """V_g f of one f on a fixed lattice and point set, for any window g.

    Holds everything that does not depend on the window, built once: the
    quadrature nodes and where they sit on the grid's axis (`axes`), the
    folded kernels exp(-2 pi i omega.t) f(t) w of the lattice frequencies and
    of the point frequencies, node by node (`_folded_planes`, from per-axis
    phase tables), and the distinct shifts that the lattice xs and the point
    xs name. `products` sums any stack of real window
    planes against the kernels; `fields` is that sum for one window. A
    shift, frequency or point that is not finite is refused, as `stft`
    refuses it.

    For a real f, mirrored frequencies share a kernel (module notes):
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
        xs, omegas, pts = (_as_points(a, d)[0] for a, d in
                           ((xs, f.dim), (omegas, f.dim), (points, 2 * f.dim)))
        if not all(np.isfinite(a).all() for a in (xs, omegas, pts)):
            raise InputError("STFT shifts, frequencies and points must be finite")
        m, p = xs.shape[0], omegas.shape[0]
        rows = m + p + pts.shape[0]
        _check_values(self.grid.samples_per_axis ** f.dim * rows + m * p, "STFT scans")
        self.nodes, w, self.axes = _nodes_on_axis(self.grid, f.dim, f.singularities)
        self.fw = f(self.nodes) * w
        # For a real f, V(x, -omega) = conj V(x, omega) on each real window
        # plane, so a mirrored pair of frequencies needs one kernel.
        self.real = not np.iscomplexobj(self.fw)
        # Reversing the nodes reflects them through the origin in any dimension.
        self.even = (self.real and np.array_equal(self.nodes[::-1], -self.nodes)
                     and np.array_equal(self.fw, self.fw[::-1]))
        omegas, *self.lattice_fold = _fold(omegas, f.dim, self.real, False)
        # Columns 2j and 2j + 1 are the real and imaginary planes of folded
        # omega j.
        self.lattice_kernel = _folded_planes(omegas, self.axes, self.fw).view(float)
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
                inverse[xs.shape[0]:],
                _folded_planes(pts[:, dim:], self.axes, self.fw).view(float).reshape(
                    self.fw.size, -1, 2))
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
        then each plane's lattice rows are real matrix products of one shape
        with the node-major lattice kernel, one per tile of `_TILE` columns,
        the last part tile padded with zeros, and each folded point is the
        dot product of its window row with its kernel, so no value depends on
        q nor on the other frequencies of the call (module notes), and on the
        other shifts only through the shift fold. Lattice
        entries and points folded onto a mirror or a reflection then read
        its sum exactly conjugated or signed (`_unfold`).
        """
        q = len(parities)
        layout = self.layout(self.even and None not in parities)
        m = layout.xs
        columns = self.lattice_kernel.shape[1]
        tiles, part = divmod(columns, _TILE)
        lattice = np.zeros((q, m, tiles + (part > 0), _TILE))
        points = np.zeros((q, layout.point_rows.shape[0], 1, 2))
        for lo in range(0, self.nodes.shape[0], _NODE_BLOCK):
            nodes = slice(lo, lo + _NODE_BLOCK)
            planes = window(self.nodes[nodes] - layout.shifts[:, None, :])
            kernel = self.lattice_kernel[nodes]
            # The whole tiles are views of the kernel; the last part tile is
            # copied and padded with zeros.
            whole = kernel[:, :tiles * _TILE].reshape(kernel.shape[0], tiles, _TILE).swapaxes(0, 1)
            last = np.zeros((kernel.shape[0], _TILE))
            last[:, :part] = kernel[:, tiles * _TILE:]
            point_kernel = layout.point_kernel[nodes].swapaxes(0, 1)
            for j in range(q):
                _flush(planes[j])
                lattice[j, :, :tiles] += (planes[j, :m] @ whole).swapaxes(0, 1)
                if part:
                    lattice[j, :, tiles] += planes[j, :m] @ last
                points[j] += planes[j, layout.point_rows, None, :] @ point_kernel
            del planes  # before the next block is built, the peak of memory
        lattice = lattice.reshape(q, m, lattice.shape[2] * _TILE)[..., :columns]
        # A reflected x reads parity V(x, -omega), the conjugate for a real f.
        lattice = _unfold(lattice.view(complex).swapaxes(1, 2), *layout.x_fold, parities)
        return (_unfold(lattice.swapaxes(1, 2), *self.lattice_fold, parities),
                _unfold(points.view(complex)[..., 0, 0], *layout.point_fold, parities))

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
    row = finite_vector(lam, 2 * f.dim, "a time-frequency point")
    return complex(stft_points(f, g, row, grid)[0])


def stft_grid(f: FunctionEvaluator, g: FunctionEvaluator, xs, omegas,
              grid: Optional[GridSpec] = None) -> np.ndarray:
    """V_g f on a separable lattice: V[i, j] = V_g f(xs[i], omegas[j]).

    Each omega's kernel costs fewer than 2 sqrt(K) cos and sin and one
    complex product per node on a 1-D grid of K nodes (`_axis_columns`), and
    for a real f only the folded omegas have one: -omega reads the conjugate
    of omega's sum on each real window plane, so the omegas of an exactly
    antisymmetric axis cost half. A value does not depend on the other
    omegas.
    """
    return _STFTScan(f, grid, xs=xs, omegas=omegas).fields(g)[0]


def stft_points(f: FunctionEvaluator, g: FunctionEvaluator, lattice_pts,
                grid: Optional[GridSpec] = None) -> np.ndarray:
    """V_g f at arbitrary time-frequency points; rows are (x, omega) in R^{2n}."""
    return _STFTScan(f, grid, points=lattice_pts).fields(g)[1]
