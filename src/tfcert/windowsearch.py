"""Empirical window design: drive |V_g f| below |<f, g>|/N outside a ball.

The window family is a dilated Gaussian-Hermite span (an orthonormal basis
with closed-form decay, keeping the search space compact). The tail ratio is
a lattice scan and therefore a heuristic lower bound of the true sup; the
scan covers lattice points strictly outside the ball plus a deterministic
ring of samples on its boundary, because the sup over the open exterior
equals the boundary maximum for continuous fields. `search` is one
deterministic Nelder-Mead run from the unit Gaussian that spends its whole
budget.
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
# Objective evaluations one search may spend; at about 20 ms each on the
# default grid, that bounds a search to minutes.
MAX_BUDGET = 10_000
# Boundary-ring samples of the tail-ratio scan; even, so the ring mirrors.
_RING_SAMPLES = 180
# The (x, omega) lattice of the tail-ratio scan when none is given.
SEARCH_LATTICE = GridSpec(8.0, 81)
# Nelder-Mead reflection, expansion, contraction and shrink coefficients.
_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


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
        return (w ** -0.5 * poly * np.exp(-np.pi * s * s)).astype(complex)

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
    lattice and over the origin followed by the boundary ring; `ratio`
    evaluates one window against them.
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

    def ratio(self, g_params: WindowParams) -> float:
        """`tail_ratio` of one window, evaluated against this scan."""
        field, sums = self.scan.fields(realize_window(g_params))
        denom = abs(complex(sums[0]))
        if denom <= DENOM_FLOOR:
            raise NearOrthogonalError(
                "|<f, g>| underflows; the tail ratio is undefined for this window")
        outside = np.abs(field)[self.outside]
        best = float(outside.max()) if outside.size else 0.0
        return max(best, float(np.abs(sums[1:]).max())) / denom


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


def _fold(value: float, lo: float, hi: float) -> float:
    """Reflect a coordinate back into [lo, hi] (lo < hi)."""
    span = hi - lo
    y = (value - lo) % (2.0 * span)
    return lo + (y if y <= span else 2.0 * span - y)


def search(f: FunctionEvaluator, R: float, N: int, d: int, budget: int,
           lattice: Optional[GridSpec] = None,
           grid: Optional[GridSpec] = None) -> SearchResult:
    """Derivative-free simplex search minimizing the tail ratio.

    Runs one reflect/expand/contract simplex over the (d+2)-dimensional
    parameter box (width plus d+1 coefficients) from the unit Gaussian
    (width 1, c = e_0) until the budget is spent, reflecting out-of-box
    proposals back inside. Deterministic for fixed inputs. The trace records
    every improvement of the incumbent, so it is nonincreasing by
    construction. The window-independent part of the tail-ratio scan is
    built once per call, so each objective evaluation gives exactly
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
    target = 1.0 / N
    lo = np.array([WIDTH_MIN] + [-1.0] * (d + 1))
    hi = np.array([WIDTH_MAX] + [1.0] * (d + 1))
    scan = _TailScan(f, R, lattice, grid)
    used = 0
    incumbent = {"ratio": math.inf, "params": None, "trace": []}
    failures = []

    def objective(theta: np.ndarray) -> float:
        nonlocal used
        if used >= budget:
            return math.inf
        vec = np.array([_fold(v, l, h) for v, l, h in zip(theta, lo, hi)])
        used += 1
        coeffs = vec[1:]
        if not np.any(np.abs(coeffs) > 1e-12):
            return math.inf
        params = WindowParams(vec[0], coeffs)
        try:
            ratio = scan.ratio(params)
        except NearOrthogonalError as exc:
            failures.append(str(exc))
            return math.inf
        if ratio < incumbent["ratio"]:
            incumbent["ratio"] = ratio
            incumbent["params"] = params
            incumbent["trace"].append((params, ratio))
        return ratio

    start = np.concatenate([[1.0], np.eye(1, d + 1, 0)[0]])
    _nelder_mead(objective, start, lambda: used >= budget)

    if incumbent["params"] is None:
        detail = failures[-1] if failures else "no finite objective value found"
        raise NumericalRefusal(f"window search found no usable window: {detail}")
    ratio = incumbent["ratio"]
    return SearchResult(best_params=incumbent["params"], ratio=ratio,
                        target=target, achieved=ratio < target,
                        evaluations=used, trace=tuple(incumbent["trace"]))


def _nelder_mead(objective, start: np.ndarray, spent) -> None:
    """One bounded Nelder-Mead run from `start`; stops once `spent()` holds."""
    ndim = len(start)
    steps = np.full(ndim, 0.25)
    steps[0] = 0.2
    simplex = [np.asarray(start, dtype=float)]
    for i in range(ndim):
        v = simplex[0].copy()
        v[i] += steps[i]
        simplex.append(v)
    values = [objective(v) for v in simplex]

    while not spent():
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + _REFLECT * (centroid - worst)
        fr = objective(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + _EXPAND * (reflected - centroid)
            fe = objective(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + _CONTRACT * (worst - centroid)
        fc = objective(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        best = simplex[0]
        for i in range(1, len(simplex)):
            simplex[i] = best + _SHRINK * (simplex[i] - best)
            values[i] = objective(simplex[i])
