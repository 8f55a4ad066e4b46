"""Empirical window design: drive |V_g f| below |<f, g>|/N outside a ball.

The window family is a dilated Gaussian-Hermite span (an orthonormal basis
with closed-form decay, keeping the search space compact). The tail ratio is
a lattice scan and therefore a heuristic lower bound of the true sup; the
scan covers lattice points strictly outside the ball plus a deterministic
ring of samples on its boundary, because the sup over the open exterior
equals the boundary maximum for continuous fields.
`V_g f` is linear in the Hermite coefficients c and the ratio does not see
their scale, so `search` walks only the width and solves for c per width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NearOrthogonalError, NumericalRefusal
from .tfops import FunctionEvaluator, GridSpec, _STFTScan

WIDTH_MIN, WIDTH_MAX = 1.0 / 16.0, 16.0
MAX_DEGREE = 8
DENOM_FLOOR = 1e-10
# Window evaluations (STFT scans of one window) one search may spend; at
# about 20 ms each on the default grid, that bounds a search to minutes.
MAX_BUDGET = 10_000
# Boundary-ring samples of the tail-ratio scan; even, so the ring mirrors.
_RING_SAMPLES = 180
# The (x, omega) lattice of the tail-ratio scan when none is given.
SEARCH_LATTICE = GridSpec(8.0, 81)
# Lawson steps per width; the ten cost about a fifth of one window evaluation.
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


def realize_window(params: WindowParams) -> FunctionEvaluator:
    """Build the window evaluator g(t) = sum_k c_k w^{-1/2} h_k(t/w)."""
    w = params.width
    c = params.hermite_coeffs
    scaled = np.array([ck * 2.0 ** 0.25 / math.sqrt(2.0 ** k * math.factorial(k))
                       for k, ck in enumerate(c)])

    def fn(t):
        s = t / w
        poly = np.polynomial.hermite.hermval(math.sqrt(2.0 * math.pi) * s, scaled)
        return w ** -0.5 * poly * np.exp(-np.pi * s * s)

    return FunctionEvaluator(dim=1, fn=fn, envelope=None, singularities=(),
                             square_integrable=True)


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
    lattice and over the origin followed by the boundary ring; `rows` and
    `ratio` evaluate one window against them.
    """

    def __init__(self, f: FunctionEvaluator, R: float,
                 lattice: Optional[GridSpec], grid: Optional[GridSpec]):
        if f.dim != 1:
            raise InputError("window search is implemented for dimension 1")
        R = float(R)
        if not 0 < R < math.inf:
            raise InputError("R must be positive and finite")
        lattice = lattice or SEARCH_LATTICE
        xs = np.linspace(-lattice.half_width, lattice.half_width,
                         lattice.samples_per_axis)
        points = np.vstack([[0.0, 0.0], _ring(R)])
        self.scan = _STFTScan(f, grid, xs=xs, omegas=xs, points=points)
        self.outside = np.hypot(*np.meshgrid(xs, xs, indexing="ij")) > R

    def rows(self, g: FunctionEvaluator) -> tuple[np.ndarray, complex]:
        """(tail, origin): V_g f at the exterior points (the lattice points
        outside the ball, then the ring) and at the origin, <f, g>."""
        field, sums = self.scan.fields(g)
        return np.concatenate([field[self.outside], sums[1:]]), complex(sums[0])

    def ratio(self, g_params: WindowParams) -> float:
        """`tail_ratio` of one window, evaluated against this scan."""
        tail, origin = self.rows(realize_window(g_params))
        denom = abs(origin)
        if denom <= DENOM_FLOOR:
            raise NearOrthogonalError(
                "|<f, g>| underflows; the tail ratio is undefined for this window")
        return float(np.abs(tail).max()) / denom


def tail_ratio(f: FunctionEvaluator, g_params: WindowParams, R: float,
               lattice: Optional[GridSpec] = None,
               grid: Optional[GridSpec] = None) -> float:
    """max |V_g f| over {||lambda|| >= R} scan points, divided by |<f, g>|.

    Scans lattice points with ||lambda|| > R plus a ring on the boundary
    circle itself; a heuristic lower bound of the true exterior sup. Raises
    NearOrthogonalError when the denominator underflows (distinct from an
    infinite ratio). `search` builds the scan once and reuses it for every
    window it tries.
    """
    return _TailScan(f, R, lattice, grid).ratio(g_params)


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
    return float(np.abs(tail @ c).max()) / denom if denom > 0 else math.inf


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
    WIDTH_MAX] or tried before. At each width the basis windows (w, e_k) are
    evaluated, `_lawson` solves for c from the incumbent's, and that window is
    evaluated: d + 1 + (d > 0) of the `budget` evaluations. It stops when the
    next width does not fit the budget or the step falls below `_MIN_STEP`.
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
        if d > 0:
            rows = [scan.rows(realize_window(WindowParams(2.0 ** x, e))) for e in np.eye(d + 1)]
            c = _lawson(np.column_stack([t for t, _ in rows]), np.array([o for _, o in rows]), c)
            del rows  # before the scan of the chosen window, the peak of memory
        params = WindowParams(2.0 ** x, c)
        try:
            ratio = scan.ratio(params)
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
