"""Empirical window design: drive |V_g f| below |<f, g>|/N outside a ball.

The window family is a dilated Gaussian-Hermite span (an orthonormal basis
with closed-form decay, keeping the search space compact). The tail ratio is
a lattice scan and therefore a heuristic lower bound of the true sup; the
scan covers lattice points strictly outside the ball plus a deterministic
ring of samples on its boundary, because the sup over the open exterior
equals the boundary maximum for continuous fields.
`V_g f` is linear in g, so the field of the window sum_k c_k g_k is
sum_k c_k V_{g_k} f of the fields of the basis windows g_k = (w, e_k): one
pass over the scan sums the basis windows of a width, and every ratio, of a
searched window or of `tail_ratio`, is read from their rows. The ratio does
not see the scale of c, so `search` walks only the width and solves for c
per width.

The lattice axis and the ring are point-symmetric and h_k has parity
(-1)^k, so for an even real f the scan sums each window only on the shifts
x >= 0 and reads the reflected half exactly (`_STFTScan.products`). For such
an f, <f, g_k> = 0 for odd k and an optimal window has no odd part, so a
search pass sums only the even windows of the d + 1; `tail_ratio` sums every
index of its c.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError, NearOrthogonalError, NumericalRefusal
from .tfops import FunctionEvaluator, GridSpec, _shared_dim, _STFTScan, axis_quadrature

WIDTH_MIN, WIDTH_MAX = 1.0 / 16.0, 16.0
MAX_DEGREE = 8
DENOM_FLOOR = 1e-10
# Window evaluations one search may spend, a width costing d + 1 + (d > 0)
# of them. The basis pass of one width of a real f that is not even takes
# about 7-9 ms at d = 0, 21-27 ms at d = 3 and 43-56 ms at d = 8 on the
# default grid (x86-64, one BLAS thread, widths 1/4 to 2), 4-9 ms per
# evaluation, so the budget bounds a search to about 90 s. An even f
# reflects half the shifts and sums only the even windows: 4-5 ms at d = 0,
# 7-10 ms at d = 3, 16-21 ms at d = 8, 1.5-5 ms per evaluation. Narrow
# widths cost at most a third more than wide ones, since the Gaussian
# factor is not computed where it underflows (`_hermite_functions`); at
# d = 0 a width of 1/4 took twice as long as a width of 2 before that.
MAX_BUDGET = 10_000
# The Hermite planes are set to zero, without `exp`, where they stay below
# tiny / _UNDERFLOW_MARGIN (`_underflow_cut`).
_UNDERFLOW_MARGIN = 4.0
# Boundary-ring samples of the tail-ratio scan; a multiple of 4, so the ring
# mirrors in both axes.
_RING_SAMPLES = 180
# The (x, omega) lattice of the tail-ratio scan when none is given.
SEARCH_LATTICE = GridSpec(8.0, 81)
# Lawson steps per width; the ten cost about a tenth of the width's basis pass.
_LAWSON_STEPS = 10
# The search stops once its step in log2 w falls below this, a relative width
# change of 6.6e-7: below it the ratio moves at round-off level only.
_MIN_STEP = 2.0 ** -20


@dataclass(frozen=True)
class WindowParams:
    """Dilated Gaussian-Hermite window: width w and coefficients c_0..c_d."""

    width: float
    hermite_coeffs: np.ndarray

    def __post_init__(self):
        w = float(self.width)
        c = np.asarray(self.hermite_coeffs, dtype=float).reshape(-1)
        if not WIDTH_MIN <= w <= WIDTH_MAX:
            raise InputError(f"width must lie in [{WIDTH_MIN}, {WIDTH_MAX}]")
        if c.size < 1 or c.size > MAX_DEGREE + 1:
            raise InputError(f"need 1..{MAX_DEGREE + 1} Hermite coefficients")
        if not np.any(c != 0.0):
            raise InputError("coefficient vector must not be identically zero")
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "hermite_coeffs", c)


@functools.lru_cache(maxsize=64)
def _underflow_cut(d: int, gain: float) -> float:
    """A q such that gain (sqrt(4 pi) s + 1)^d e^{-pi s^2} < tiny /
    _UNDERFLOW_MARGIN wherever -pi s^2 < q, for a gain of at least 1.

    That is s beyond the root s* of F(s) = log(gain / tiny) + d log(sqrt(4
    pi) s + 1) - pi s^2, found by the fixed-point step s <- sqrt((log(gain /
    tiny) + d log(sqrt(4 pi) s + 1)) / pi). The step is increasing in s, so
    from a start above s* every iterate stays above it; F decreases beyond
    s* (s* > 15 and d <= MAX_DEGREE), so each iterate is a valid cut.
    """
    a = math.log(gain * _UNDERFLOW_MARGIN) - math.log(sys.float_info.min)
    s = math.sqrt(a / math.pi) + d
    for _ in range(3):
        s = math.sqrt((a + d * math.log1p(math.sqrt(4.0 * math.pi) * s)) / math.pi)
    return -math.pi * s * s


def _hermite_functions(s: np.ndarray, d: int, width: float, gain: float = 1.0,
                       reach: Optional[float] = None) -> np.ndarray:
    """w^{-1/2} h_k(s) for k = 0..d, as a (d + 1,) + s.shape array, for the
    Hermite functions h_k(s) = 2^{1/4} (2^k k!)^{-1/2} H_k(y) e^{-pi s^2},
    y = sqrt(2 pi) s, of unit L2 norm; s = t / w gives the window of width w.

    One Gaussian factor and the recurrence h_{k+1} = sqrt(2 / (k + 1)) y h_k
    - sqrt(k / (k + 1)) h_{k-1}, which needs no factorial. By that recurrence
    |h_k| <= (sqrt 2 |y| + 1)^k h_0, so where -pi s^2 lies below
    `_underflow_cut` every plane times `gain` (a bound on the sum of |c_k|
    the planes are combined with) is below tiny / 4 and flushes to zero
    (`tfops._flush`); there the Gaussian factor is set to 0 without
    calling `exp`, whose subnormal results are about 90 times slower than
    normal ones. The mask is skipped where nothing lies below the cut: when
    `reach`, a bound on |s|, says so, or else when one `min` does. Every
    other value is unchanged, bit for bit.
    """
    h = np.empty((d + 1,) + np.shape(s))
    q = h[0]
    np.multiply(s, s, out=q)
    q *= -np.pi
    scale = 2.0 ** 0.25 / math.sqrt(width)
    cut = _underflow_cut(d, max(1.0, scale * gain))
    if (reach is None or -math.pi * reach * reach < cut) and q.min(initial=0.0) < cut:
        low = q < cut
        np.exp(q, out=q, where=~low)
        q[low] = 0.0
    else:
        np.exp(q, out=q)
    q *= scale
    y = math.sqrt(2.0 * math.pi) * s if d else None
    for k in range(d):
        np.multiply(y, h[k], out=h[k + 1])
        h[k + 1] *= math.sqrt(2.0 / (k + 1))
        if k:
            h[k + 1] -= math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def realize_window(params: WindowParams) -> FunctionEvaluator:
    """Build the window evaluator g(t) = sum_k c_k w^{-1/2} h_k(t/w).

    h_k has parity (-1)^k, so g declares the parity (-1)^k when every
    nonzero c_k has an index k of one parity. Where every plane lies below
    tiny / (4 sum |c_k|) (`_hermite_functions`), g is 0 rather than a
    subnormal value.
    """
    w, c = params.width, params.hermite_coeffs
    gain = float(np.abs(c).sum())
    odd = {k % 2 for k in np.flatnonzero(c)}
    return FunctionEvaluator(
        dim=1, fn=lambda t: c @ _hermite_functions(t / w, c.size - 1, w, gain),
        envelope=None, singularities=(), square_integrable=True,
        parity=(-1) ** odd.pop() if len(odd) == 1 else None)


def _ring(R: float) -> np.ndarray:
    """The (_RING_SAMPLES, 2) samples R (cos theta_j, sin theta_j), theta_j =
    2 pi j / _RING_SAMPLES, point-symmetric: a quarter circle mirrored in
    both axes, so that sample j + _RING_SAMPLES / 2 is exactly -(sample j)
    and sample _RING_SAMPLES - j is (x_j, -y_j). The sample at theta = pi / 2
    is (0, R), on the axis it mirrors in."""
    quarter = _RING_SAMPLES // 4
    theta = np.linspace(0.0, 2.0 * np.pi, _RING_SAMPLES, endpoint=False)[:quarter + 1]
    x, y = R * np.cos(theta), R * np.sin(theta)
    x[quarter] = 0.0  # cos(pi / 2) rounds to 6e-17
    half = np.column_stack([np.concatenate([x, -x[quarter - 1:0:-1]]),
                            np.concatenate([y, y[quarter - 1:0:-1]])])
    return np.concatenate([half, -half])


class _TailScan:
    """The tail ratio of any window for one (f, R, lattice, grid).

    Holds the `||lambda|| > R` lattice mask and an STFT scan of f over the
    lattice and over the origin followed by the boundary ring; `basis` scans
    the basis windows of one width against them. The lattice axis and the
    ring are point-symmetric, so for an even f the scan reads half of them.
    """

    def __init__(self, f: FunctionEvaluator, R: float,
                 lattice: Optional[GridSpec], grid: Optional[GridSpec]):
        _shared_dim("window search", f=f.dim)
        R = float(R)
        if not 0 < R < math.inf:
            raise InputError("R must be positive and finite")
        lattice = lattice or SEARCH_LATTICE
        xs = axis_quadrature(lattice)[0]
        points = np.vstack([[0.0, 0.0], _ring(R)])
        self.scan = _STFTScan(f, grid, xs=xs, omegas=xs, points=points)
        self.outside = np.hypot(*np.meshgrid(xs, xs, indexing="ij")) > R
        # a bound on every offset |t_k - x| of the scan
        self.reach = float(np.abs(self.scan.nodes).max() + np.abs(np.append(xs, R)).max())

    def basis(self, width: float, indices: range) -> tuple[np.ndarray, np.ndarray]:
        """(tail, origin) of the basis windows (width, e_k), k in `indices`:
        column i of the (exterior points, len(indices)) tail holds V_{g_k} f
        of the i-th index k at the lattice points outside the ball, then at
        the ring, and origin[i] = <f, g_k>.

        One pass over the scan's node blocks (`_STFTScan.products`): each
        block evaluates the Gaussian factor once and the planes up to the
        last index by the recurrence (`_hermite_functions`, the values
        `realize_window` gives), and sums those of `indices`, the plane of
        h_k with its parity (-1)^k. No offset is farther out than the
        scan's `reach`, so at widths above reach / 15 no block looks for
        underflow.
        """
        lattice, points = self.scan.products(
            lambda t: _hermite_functions(t[..., 0] / width, indices[-1], width,
                                         reach=self.reach / width)[indices.start::indices.step],
            [(-1) ** k for k in indices])
        return np.concatenate([lattice[:, self.outside], points[:, 1:]], axis=1).T, points[:, 0]


def tail_ratio(f: FunctionEvaluator, g_params: WindowParams, R: float,
               lattice: Optional[GridSpec] = None,
               grid: Optional[GridSpec] = None) -> float:
    """max |V_g f| over {||lambda|| >= R} scan points, divided by |<f, g>|.

    Scans lattice points with ||lambda|| > R plus a ring on the boundary
    circle itself; a heuristic lower bound of the true exterior sup. The
    field of g = sum_k c_k g_k is sum_k c_k V_{g_k} f, read from the basis
    pass of its width over every index of c (`_TailScan.basis`), the rows
    `search` reads its ratios from. Raises NearOrthogonalError when the
    denominator underflows (distinct from an infinite ratio). `search` builds
    the scan once and reuses it for every width it tries.
    """
    c = g_params.hermite_coeffs
    return _window_ratio(*_TailScan(f, R, lattice, grid).basis(g_params.width, range(c.size)), c)


class Incumbent(NamedTuple):
    """One entry of a search trace: a window and its tail ratio."""

    params: WindowParams
    ratio: float


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a window search run, with the full incumbent trace."""

    best_params: WindowParams
    ratio: float
    target: float
    achieved: bool
    evaluations: int
    trace: tuple[Incumbent, ...]


def _row_ratio(tail: np.ndarray, origin: np.ndarray, c: np.ndarray) -> float:
    """The tail ratio of sum_k c_k g_k from the rows of the basis windows g_k."""
    denom = abs(origin @ c)
    return float(np.abs(tail @ c).max() / denom) if denom > 0 else math.inf


def _window_ratio(tail: np.ndarray, origin: np.ndarray, c: np.ndarray) -> float:
    """`_row_ratio` of the nonzero entries of c and their basis windows,
    refusing a window whose |<f, g>| is at most DENOM_FLOOR.

    The zero entries drop out, so a window's ratio is the same whichever
    other basis windows the rows carry: `search` reads it from the even
    windows alone and `tail_ratio` from all of them. The kept columns are
    column-major, as a basis pass of those windows alone returns them.
    """
    nonzero = c != 0
    tail, origin, c = tail.T[nonzero].T, origin[nonzero], c[nonzero]
    if abs(origin @ c) <= DENOM_FLOOR:
        raise NearOrthogonalError(
            "|<f, g>| underflows; the tail ratio is undefined for this window")
    return _row_ratio(tail, origin, c)


def _lawson(tail: np.ndarray, origin: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real c, largest entry 1, with a `_row_ratio` no worse than the given c's.

    Lawson's iteration (Lawson 1961) from uniform weights u: each step solves
    the KKT system of min sum_i u_i |tail_i . c|^2 subject to a . c = 1, with
    a = Re(conj(origin . c) origin) of the last iterate, then multiplies u_i by
    |tail_i . c|. Returns the best iterate, the given c included."""
    best = c / c[np.abs(c).argmax()]
    scale = np.maximum(np.abs(tail).max(), np.abs(origin).max())  # tiny and huge solve alike
    if not 0 < scale < math.inf:
        return best  # a zero or non-finite field: no solve
    best_ratio = _row_ratio(tail, origin, best)
    real = np.concatenate([tail.real, tail.imag]) / scale
    parts = np.stack([origin.real, origin.imag]) / scale
    u = np.ones(tail.shape[0])
    for _ in range(_LAWSON_STEPS):
        a = (parts @ c) @ parts
        if not (u.any() and a.any()):
            break  # a zero tail is optimal, and a = 0 fixes no hyperplane
        a = a / np.abs(a).max()
        gram = (real * np.tile(u / u.max(), 2)[:, None]).T @ real
        try:
            c = np.linalg.solve(np.block([[gram, a[:, None]], [a, 0.0]]), np.eye(c.size + 1)[-1])
        except np.linalg.LinAlgError:
            break  # the weighted rows leave c undetermined on the hyperplane
        c = c[:-1] / c[np.abs(c[:-1]).argmax()]
        ratio = _row_ratio(tail, origin, c)
        if ratio < best_ratio:
            best, best_ratio = c, ratio
        u = u * np.abs(tail @ c)
    return best


def search(f: FunctionEvaluator, R: float, N: int, d: int, budget: int,
           lattice: Optional[GridSpec] = None,
           grid: Optional[GridSpec] = None) -> SearchResult:
    """Compass search on x = log2 w from the unit Gaussian (width 1, c = e_0).

    From a step of 1/2, it tries x + step, then x - step, moves on a strict
    improvement and halves the step otherwise, skipping widths outside [WIDTH_MIN,
    WIDTH_MAX] or tried before. While no width has given a usable window
    (|<f, g>| above DENOM_FLOOR), it doubles the step instead, as long as
    x + 2 step or x - 2 step is a width in range not tried before, so that
    a window far wider or narrower than the unit Gaussian is reached. At
    each width one pass sums the basis windows
    (w, e_k) (`_TailScan.basis`), `_lawson` solves for c from the
    incumbent's on their rows, and the solved window's ratio is read from the
    same rows, its field being sum_k c_k V_{g_k} f.

    For an even f only the even k are scanned and solved, and the odd
    coefficients are exactly 0. h_k has parity (-1)^k, so <f, h_k> = 0 for
    odd k and V_{h_k} f(-lambda) = (-1)^k V_{h_k} f(lambda); on the
    point-symmetric scan the numerator max|T c| is convex in c and unchanged
    by flipping the sign of c's odd part, so c's even part is as good as c.
    A width is charged d + 1 + (d > 0) of the `budget` evaluations, the
    scans of the d + 1 basis windows and of the solved window taken one by
    one, for an even f too. It stops when the next width does not fit the
    budget or the step falls below `_MIN_STEP`. Deterministic; the trace
    records every improvement, each ratio exactly `tail_ratio` of its window.
    """
    budget = int(budget)
    if not 10 <= budget <= MAX_BUDGET:
        raise InputError(f"budget must lie in [10, {MAX_BUDGET}]")
    d, N = int(d), int(N)
    if not 0 <= d <= MAX_DEGREE:
        raise InputError(f"degree must lie in [0, {MAX_DEGREE}]")
    if not 1 <= N <= sys.float_info.max:  # so that the target 1/N is a float
        raise InputError("N must be at least 1 and at most the largest float")
    scan = _TailScan(f, R, lattice, grid)
    stride = 2 if scan.scan.even else 1
    indices = range(0, d + 1, stride)
    cost = d + 1 + (d > 0)
    used, best_ratio, best_params = 0, math.inf, None
    trace, seen, failure = [], set(), "no finite objective value found"

    def fresh(x: float) -> bool:
        """Whether 2^x is a width in range not tried before."""
        return WIDTH_MIN <= 2.0 ** x <= WIDTH_MAX and x not in seen

    def improves(x: float) -> bool:
        """Evaluate the window solved at width 2^x; True if it is the new incumbent."""
        nonlocal used, best_ratio, best_params, failure
        if not fresh(x):
            return False
        seen.add(x)
        used += cost
        coeffs = np.eye(1, d + 1)[0] if best_params is None else best_params.hermite_coeffs
        c = coeffs[::stride]
        tail, origin = scan.basis(2.0 ** x, indices)
        if len(indices) > 1:  # one basis window leaves nothing to solve
            c = _lawson(tail, origin, c)
        coeffs = np.zeros(d + 1)
        coeffs[::stride] = c
        params = WindowParams(2.0 ** x, coeffs)
        try:
            ratio = _window_ratio(tail, origin, c)
        except NearOrthogonalError as exc:
            failure = str(exc)
            return False
        if not ratio < best_ratio:
            return False
        best_ratio, best_params = ratio, params
        trace.append(Incumbent(params, ratio))
        return True

    x, step = 0.0, 0.5
    improves(x)
    while used + cost <= budget and step >= _MIN_STEP:
        if improves(x + step):
            x += step
        elif used + cost <= budget and improves(x - step):
            x -= step
        elif best_params is None and (fresh(x + 2.0 * step) or fresh(x - 2.0 * step)):
            # No usable width yet: look farther out before looking closer. The
            # next pass tries a width not tried before, so the doubling ends.
            step *= 2.0
        else:
            step /= 2.0

    if best_params is None:
        raise NumericalRefusal(f"window search found no usable window: {failure}")
    return SearchResult(best_params=best_params, ratio=best_ratio, target=1.0 / N,
                        achieved=best_ratio < 1.0 / N, evaluations=used, trace=tuple(trace))
