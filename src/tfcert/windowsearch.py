"""Empirical window design: drive |V_g f| below |<f, g>|/N outside a ball.

The window family is a dilated Gaussian-Hermite span (an orthonormal basis
with closed-form decay, keeping the search space compact). The tail ratio is
a lattice scan and therefore a heuristic lower bound of the true sup; the
scan covers lattice points strictly outside the ball plus a deterministic
ring of samples on its boundary, because the sup over the open exterior
equals the boundary maximum for continuous fields.
`V_g f` is linear in g, so the field of the window sum_k c_k g_k is
sum_k c_k V_{g_k} f of the fields of the basis windows g_k = (w, e_k): one
pass over the scan sums all d + 1 basis windows of a width, and every ratio,
of a searched window or of `tail_ratio`, is read from their rows. The ratio
does not see the scale of c, so `search` walks only the width and solves for
c per width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NearOrthogonalError, NumericalRefusal
from .tfops import FunctionEvaluator, GridSpec, _STFTScan, axis_quadrature

WIDTH_MIN, WIDTH_MAX = 1.0 / 16.0, 16.0
MAX_DEGREE = 8
DENOM_FLOOR = 1e-10
# Window evaluations one search may spend, a width costing d + 1 + (d > 0)
# of them. The basis pass of one width takes about 8 ms at d = 0 and 24 ms
# at d = 3 on the default grid of a real f (x86-64, one BLAS thread), 5-8 ms
# per evaluation, so the budget bounds a search to about 80 s.
MAX_BUDGET = 10_000
# Boundary-ring samples of the tail-ratio scan; even, so the ring mirrors.
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

    def to_json(self) -> dict:
        return {"width": self.width,
                "hermite_coeffs": [float(v) for v in self.hermite_coeffs]}


def _hermite_functions(s: np.ndarray, d: int, width: float) -> np.ndarray:
    """w^{-1/2} h_k(s) for k = 0..d, as a (d + 1,) + s.shape array, for the
    Hermite functions h_k(s) = 2^{1/4} (2^k k!)^{-1/2} H_k(y) e^{-pi s^2},
    y = sqrt(2 pi) s, of unit L2 norm; s = t / w gives the window of width w.

    One Gaussian factor and the recurrence h_{k+1} = sqrt(2 / (k + 1)) y h_k
    - sqrt(k / (k + 1)) h_{k-1}, which needs no factorial.
    """
    h = np.empty((d + 1,) + np.shape(s))
    np.multiply(s, s, out=h[0])
    h[0] *= -np.pi
    np.exp(h[0], out=h[0])
    h[0] *= 2.0 ** 0.25 / math.sqrt(width)
    y = math.sqrt(2.0 * math.pi) * s
    for k in range(d):
        np.multiply(y, h[k], out=h[k + 1])
        h[k + 1] *= math.sqrt(2.0 / (k + 1))
        if k:
            h[k + 1] -= math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def realize_window(params: WindowParams) -> FunctionEvaluator:
    """Build the window evaluator g(t) = sum_k c_k w^{-1/2} h_k(t/w)."""
    w, c = params.width, params.hermite_coeffs
    return FunctionEvaluator(dim=1, fn=lambda t: c @ _hermite_functions(t / w, c.size - 1, w),
                             envelope=None, singularities=(), square_integrable=True)


def _ring(R: float) -> np.ndarray:
    """The (_RING_SAMPLES, 2) samples R (cos theta_j, sin theta_j), theta_j =
    2 pi j / _RING_SAMPLES. Sample _RING_SAMPLES - j is sample j mirrored,
    (x, -y) with the same float x, so the ring has _RING_SAMPLES / 2 + 1
    distinct x."""
    half = _RING_SAMPLES // 2
    theta = np.linspace(0.0, 2.0 * np.pi, _RING_SAMPLES, endpoint=False)[:half + 1]
    x, y = R * np.cos(theta), R * np.sin(theta)
    return np.column_stack([np.concatenate([x, x[half - 1:0:-1]]),
                            np.concatenate([y, -y[half - 1:0:-1]])])


class _TailScan:
    """The tail ratio of any window for one (f, R, lattice, grid).

    Holds the `||lambda|| > R` lattice mask and an STFT scan of f over the
    lattice and over the origin followed by the boundary ring; `basis` scans
    the basis windows of one width against them.
    """

    def __init__(self, f: FunctionEvaluator, R: float,
                 lattice: Optional[GridSpec], grid: Optional[GridSpec]):
        if f.dim != 1:
            raise InputError("window search is implemented for dimension 1")
        R = float(R)
        if not 0 < R < math.inf:
            raise InputError("R must be positive and finite")
        lattice = lattice or SEARCH_LATTICE
        xs = axis_quadrature(lattice)[0]
        points = np.vstack([[0.0, 0.0], _ring(R)])
        self.scan = _STFTScan(f, grid, xs=xs, omegas=xs, points=points)
        self.outside = np.hypot(*np.meshgrid(xs, xs, indexing="ij")) > R

    def basis(self, width: float, d: int) -> tuple[np.ndarray, np.ndarray]:
        """(tail, origin) of the basis windows (width, e_k), k = 0..d: column
        k of the (exterior points, d + 1) tail holds V_{g_k} f at the lattice
        points outside the ball, then at the ring, and origin[k] = <f, g_k>.

        One pass over the scan's node blocks (`_STFTScan.products`): each
        block evaluates the Gaussian factor once and the d + 1 planes by the
        recurrence (`_hermite_functions`, the values `realize_window` gives).
        """
        lattice, points = self.scan.products(
            lambda t: _hermite_functions(t[..., 0] / width, d, width), d + 1)
        return np.concatenate([lattice[:, self.outside], points[:, 1:]], axis=1).T, points[:, 0]


def tail_ratio(f: FunctionEvaluator, g_params: WindowParams, R: float,
               lattice: Optional[GridSpec] = None,
               grid: Optional[GridSpec] = None) -> float:
    """max |V_g f| over {||lambda|| >= R} scan points, divided by |<f, g>|.

    Scans lattice points with ||lambda|| > R plus a ring on the boundary
    circle itself; a heuristic lower bound of the true exterior sup. The
    field of g = sum_k c_k g_k is sum_k c_k V_{g_k} f, read from the basis
    pass of its width and degree (`_TailScan.basis`), the rows `search` reads
    its ratios from. Raises NearOrthogonalError when the denominator
    underflows (distinct from an infinite ratio). `search` builds the scan
    once and reuses it for every width it tries.
    """
    c = g_params.hermite_coeffs
    return _window_ratio(*_TailScan(f, R, lattice, grid).basis(g_params.width, c.size - 1), c)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a window search run, with the full incumbent trace."""

    best_params: WindowParams
    ratio: float
    target: float
    achieved: bool
    evaluations: int
    trace: tuple

    def to_json(self) -> dict:
        return {
            "best_params": self.best_params.to_json(),
            "ratio": float(self.ratio),
            "target": float(self.target),
            "achieved": self.achieved,
            "evaluations": int(self.evaluations),
            "trace": [{"params": p.to_json(), "ratio": float(r)}
                      for p, r in self.trace],
        }


def _row_ratio(tail: np.ndarray, origin: np.ndarray, c: np.ndarray) -> float:
    """The tail ratio of sum_k c_k g_k from the rows of the basis windows g_k."""
    denom = abs(origin @ c)
    return float(np.abs(tail @ c).max() / denom) if denom > 0 else math.inf


def _window_ratio(tail: np.ndarray, origin: np.ndarray, c: np.ndarray) -> float:
    """`_row_ratio`, refusing a window whose |<f, g>| is at most DENOM_FLOOR."""
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
    WIDTH_MAX] or tried before. At each width one pass sums the basis windows
    (w, e_k) (`_TailScan.basis`), `_lawson` solves for c from the
    incumbent's on their rows, and the solved window's ratio is read from the
    same rows, its field being sum_k c_k V_{g_k} f. A width is charged
    d + 1 + (d > 0) of the `budget` evaluations, the scans of the basis
    windows and of the solved window taken one by one. It stops when the next
    width does not fit the budget or the step falls below `_MIN_STEP`.
    Deterministic; the trace records every improvement, each ratio exactly
    `tail_ratio` of its window.
    """
    budget = int(budget)
    if not 10 <= budget <= MAX_BUDGET:
        raise InputError(f"budget must lie in [10, {MAX_BUDGET}]")
    d, N = int(d), int(N)
    if not 0 <= d <= MAX_DEGREE:
        raise InputError(f"degree must lie in [0, {MAX_DEGREE}]")
    if N < 1:
        raise InputError("N must be at least 1")
    scan = _TailScan(f, R, lattice, grid)
    cost = d + 1 + (d > 0)
    used, best_ratio, best_params = 0, math.inf, None
    trace, seen, failure = [], set(), "no finite objective value found"

    def improves(x: float) -> bool:
        """Evaluate the window solved at width 2^x; True if it is the new incumbent."""
        nonlocal used, best_ratio, best_params, failure
        if not WIDTH_MIN <= 2.0 ** x <= WIDTH_MAX or x in seen:
            return False
        seen.add(x)
        used += cost
        c = np.eye(1, d + 1)[0] if best_params is None else best_params.hermite_coeffs
        tail, origin = scan.basis(2.0 ** x, d)
        if d > 0:
            c = _lawson(tail, origin, c)
        params = WindowParams(2.0 ** x, c)
        try:
            ratio = _window_ratio(tail, origin, params.hermite_coeffs)
        except NearOrthogonalError as exc:
            failure = str(exc)
            return False
        if not ratio < best_ratio:
            return False
        best_ratio, best_params = ratio, params
        trace.append((params, ratio))
        return True

    x, step = 0.0, 0.5
    improves(x)
    while used + cost <= budget and step >= _MIN_STEP:
        if improves(x + step):
            x += step
        elif used + cost <= budget and improves(x - step):
            x -= step
        else:
            step /= 2.0

    if best_params is None:
        raise NumericalRefusal(f"window search found no usable window: {failure}")
    return SearchResult(best_params=best_params, ratio=best_ratio, target=1.0 / N,
                        achieved=best_ratio < 1.0 / N, evaluations=used, trace=tuple(trace))
