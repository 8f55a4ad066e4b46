"""Built-in function families with exact decay envelopes.

Each factory returns a `FunctionEvaluator` carrying the analytic radial
envelope (where one exists) and singularity metadata, so the certificate
checkers can run in rigorous envelope mode. The real families return real
values and are even, which they declare (`FunctionEvaluator.parity`); only
the Edgar-Rosenblatt integral is complex, and it declares no parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, convert, finite
from .tfops import FunctionEvaluator

MAX_GAUSSIAN_DIM = 64
# Points per block of the batched Edgar-Rosenblatt quadrature: the panel
# arrays of one bisection grow with the block, not with the point set.
_ER_BLOCK = 512
# Tolerance range of the ER quadrature. Bisection stops where a panel's two
# halves agree within its share of the tolerance, a fixed fraction of its
# width; the rounding of the phases, which grows with |a| and |b|, is too,
# so below about 1e-14 it can exceed the share at every depth and the panel
# count explodes. With |a|, |b| <= 50 on x86-64, 1e-15 took 3.7 ms per point
# and 1e-14 15 us; 3e-17 did not finish 200 points in 20 s.
_ER_TOL_RANGE = (1e-14, 1e-3)
# The ER quadrature tolerance of every default: evaluators, function specs,
# the five-term residual and its CLI section.
ER_QUAD_TOL = 1e-9
# One ER evaluation at (a, b) costs about the same while |a| and |b| stay below
# _ER_FLAT_REACH and grows linearly beyond it, and so do its panels and memory.
# So `check_er_work` bounds both: a point counts er_weight(reach) times, reach
# being the largest |a| or |b|, and at most MAX_ER_WORK counted points run as
# one call, one five-term stencil or one `oracle.er_lattice` stencil; and no
# reach beyond MAX_ER_REACH runs. At that reach one block raised peak RSS by
# 150 MB (points uniform in the square) to 320 MB (every point at the reach)
# on x86-64. The rule admits the default 512^2 dense scan within reach 572.
_ER_FLAT_REACH = 25.0
MAX_ER_WORK = 6 * 10**6
MAX_ER_REACH = 1e4 + 1.0
_GL_RULE = None  # 10-point Gauss-Legendre (nodes, weights), built on first use


def make_example1(C: float, omega: float) -> FunctionEvaluator:
    """Slowly decaying oscillatory family with breakpoint |t| = 1/C.

    f(t) = C cos(omega t) for |t| < 1/C and cos(omega t)/|t| otherwise;
    continuous, square-integrable, with exact envelope min(C, 1/r).
    """
    C = finite(C, "C")
    omega = finite(omega, "omega")
    if C <= 0:
        raise InputError("C must be positive")
    cut = 1.0 / C

    def fn(t):
        at = np.abs(t)
        outer_branch = at >= cut
        safe = np.where(outer_branch, at, 1.0)
        osc = np.cos(omega * t)
        return np.where(outer_branch, osc / safe, C * osc)

    def envelope(r):
        return C if r <= cut else 1.0 / r

    return FunctionEvaluator(dim=1, fn=fn, envelope=envelope,
                             singularities=(), square_integrable=True, parity=1)


def make_example2(omega: float) -> FunctionEvaluator:
    """Square-integrable family with an integrable blow-up at the origin.

    f(t) = cos(omega t)/|t|^{1/4} for |t| < 1 and cos(omega t)/|t| otherwise.
    The envelope is r^{-1/4} on (0, 1) and 1/r beyond; it is unbounded at 0.
    """
    omega = finite(omega, "omega")

    def fn(t):
        at = np.abs(t)
        inner_branch = at < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = np.where(inner_branch, at ** 0.25, at)
            return np.cos(omega * t) / denom

    def envelope(r):
        if r <= 0:
            return np.inf
        return r ** -0.25 if r < 1.0 else 1.0 / r

    return FunctionEvaluator(dim=1, fn=fn, envelope=envelope,
                             singularities=(np.array([0.0]),),
                             square_integrable=True, parity=1)


def make_singular_cos(omega: float) -> FunctionEvaluator:
    """cos(omega t)/|t|: singular at 0, bounded away from it, not in L^2."""
    omega = finite(omega, "omega")

    def fn(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.cos(omega * t) / np.abs(t)

    def envelope(r):
        return np.inf if r <= 0 else 1.0 / r

    return FunctionEvaluator(dim=1, fn=fn, envelope=envelope,
                             singularities=(np.array([0.0]),),
                             square_integrable=False, parity=1)


def make_gaussian(n: int = 1) -> FunctionEvaluator:
    """Unit-norm Gaussian 2^{n/4} e^{-pi ||t||^2} (the reference test function).

    For n >= 2 it carries its n 1-D Gaussian factors, so its Gram matrix,
    norm and inner products take the per-axis quadrature in any dimension;
    dense n-D quadrature stops at MAX_NODES nodes. n is capped at
    MAX_GAUSSIAN_DIM.
    """
    n = int(n)
    if not 1 <= n <= MAX_GAUSSIAN_DIM:
        raise InputError(f"n must be an integer in [1, {MAX_GAUSSIAN_DIM}]")
    amp = 2.0 ** (n / 4.0)
    if n == 1:
        fn = lambda t: amp * np.exp(-np.pi * t * t)
        factors = None
    else:
        fn = lambda t: amp * np.exp(-np.pi * _sum_of_squares(t))
        factors = (make_gaussian(1),) * n
    envelope = lambda r: amp * np.exp(-np.pi * r * r)
    return FunctionEvaluator(dim=n, fn=fn, envelope=envelope,
                             singularities=(), square_integrable=True, factors=factors,
                             parity=1)


def _sum_of_squares(t: np.ndarray) -> np.ndarray:
    """sum_k t[:, k]^2, accumulated column by column from the left."""
    out = t[:, 0] * t[:, 0]
    for k in range(1, t.shape[1]):
        out += t[:, k] * t[:, k]
    return out


def _gauss_legendre():
    """The 10-point Gauss-Legendre rule on [-1, 1]; loading numpy.polynomial
    is left to the first Edgar-Rosenblatt evaluation, not the package import."""
    global _GL_RULE
    if _GL_RULE is None:
        _GL_RULE = np.polynomial.legendre.leggauss(10)
    return _GL_RULE


def _er_panels(a, b, lo, hi) -> np.ndarray:
    """Gauss-Legendre value of exp(i(a acos(t) + b acos(1-t))) over each panel
    [lo, hi]; all arguments are 1-D arrays, one entry per panel."""
    nodes, weights = _gauss_legendre()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    tt = mid[:, None] + half[:, None] * nodes
    phase = a[:, None] * np.arccos(tt) + b[:, None] * np.arccos(1.0 - tt)
    return half * np.sum(weights * np.exp(1j * phase), axis=1)


def _er_block(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Adaptive ER quadrature for one block of points (a[i], b[i]).

    Bisection runs level by level over every pending panel of every point.
    A panel [lo, hi] holding the error share `share` and one-panel value
    `whole` is accepted when its two halves sum to within `share` of `whole`
    (or it is narrower than 1e-12); otherwise each half goes on with half
    the share. The shares telescope, so each point's error is below `tol`.
    Accepted sums are added per point by decreasing `lo`, the order of a
    depth-first right-first traversal, so every value is reproducible bit
    for bit and independent of the block it falls in.
    """
    n = a.size
    point = np.arange(n)
    lo = np.full(n, 1.0 / 3.0)
    hi = np.full(n, 2.0 / 3.0)
    share = np.full(n, tol)
    whole = _er_panels(a, b, lo, hi)
    done_point, done_lo, done_sum = [], [], []
    while point.size:
        mid = 0.5 * (lo + hi)
        halves = _er_panels(np.tile(a[point], 2), np.tile(b[point], 2),
                            np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2)
        pair = left + right
        ok = (np.abs(pair - whole) < share) | ((hi - lo) < 1e-12)
        done_point.append(point[ok])
        done_lo.append(lo[ok])
        done_sum.append(pair[ok])
        split = ~ok
        point = np.tile(point[split], 2)
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        share = np.tile(0.5 * share[split], 2)
        whole = np.concatenate([left[split], right[split]])
    point, lo, pair = (np.concatenate(x) for x in (done_point, done_lo, done_sum))
    order = np.lexsort((-lo, point))
    total = np.zeros(n, dtype=complex)
    np.add.at(total, point[order], pair[order])
    return total


def er_weight(reach: float) -> float:
    """How many times an ER point counts against a work bound at this reach."""
    return max(1.0, reach / _ER_FLAT_REACH)


def er_reach(pts: np.ndarray) -> float:
    """The largest |a| or |b| of (k, 2) finite ER points, 0 when there are none."""
    return float(np.abs(pts).max(initial=0.0))


def check_er_work(count: float, reach: float, what: str) -> None:
    """Refuse `count` ER points at this reach beyond MAX_ER_REACH or, each
    counted er_weight(reach) times, beyond MAX_ER_WORK; `what` names them."""
    if reach > MAX_ER_REACH or count * er_weight(reach) > MAX_ER_WORK:
        raise InputError(
            f"{what} beyond reach {MAX_ER_REACH:g} or beyond {MAX_ER_WORK} points, each counted "
            f"max(1, reach / {_ER_FLAT_REACH:g}) times for the largest |a| or |b|, "
            "are not supported")


def _quad_tol(value: float) -> float:
    """`value` as an ER quadrature tolerance, refused outside _ER_TOL_RANGE."""
    lo, hi = _ER_TOL_RANGE
    value = float(value)
    if not lo <= value <= hi:
        raise InputError(f"quad_tol must lie in [{lo:g}, {hi:g}]")
    return value


def make_edgar_rosenblatt(quad_tol: float = ER_QUAD_TOL) -> FunctionEvaluator:
    """Two-dimensional oscillatory-integral evaluator with certified accuracy.

    f(a, b) = integral over [1/3, 2/3] of exp(i(a acos(t) + b acos(1-t))) dt,
    computed by adaptive Gauss-Legendre to absolute tolerance `quad_tol` at
    every point. The points are bisected together, level by level, in blocks
    of `_ER_BLOCK`; each value is bit-identical to a per-point depth-first
    bisection. A call with a non-finite point, whose bisection would never
    meet the tolerance, or whose points `check_er_work` refuses (a reach
    beyond MAX_ER_REACH, or more than MAX_ER_WORK points each counted
    er_weight(reach) times) is refused before any is evaluated. The
    square-integrable flag is left False: the function is only p-integrable
    for large p, so Gram quadrature is not certified.
    """
    quad_tol = _quad_tol(quad_tol)

    def fn(pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if not np.isfinite(pts).all():
            raise InputError("Edgar-Rosenblatt points must be finite")
        check_er_work(pts.shape[0], er_reach(pts), "Edgar-Rosenblatt evaluations")
        out = np.empty(pts.shape[0], dtype=complex)
        for s in range(0, pts.shape[0], _ER_BLOCK):
            block = pts[s:s + _ER_BLOCK]
            out[s:s + _ER_BLOCK] = _er_block(block[:, 0], block[:, 1], quad_tol)
        return out

    return FunctionEvaluator(dim=2, fn=fn, envelope=None, singularities=(),
                             square_integrable=False)


# ---------------------------------------------------------------------------
# Family registry (JSON-facing)
# ---------------------------------------------------------------------------

FAMILIES = ("example1", "example2", "singular_cos", "gaussian", "edgar_rosenblatt")


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of a built-in family, as used in CLI configs."""

    family: str
    params: dict = field(default_factory=dict)
    quad_tol: float = ER_QUAD_TOL

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _quad_tol(self.quad_tol)

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        if not isinstance(obj, dict):
            raise InputError("function spec must be a JSON object")
        extra = set(obj) - {"family", "params", "quad_tol"}
        if extra:
            raise InputError(f"unknown keys in function spec: {sorted(extra)}")
        if "family" not in obj:
            raise InputError("function spec requires a 'family' key")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InputError("function params must be a JSON object")
        return cls(family=obj["family"], params=dict(params),
                   quad_tol=convert(float, obj.get("quad_tol", ER_QUAD_TOL), "quad_tol"))

    def build(self) -> FunctionEvaluator:
        p = dict(self.params)

        def take(name, kind, default=None):
            value, what = p.pop(name, default), f"parameter {name!r} of family {self.family!r}"
            return finite(value, what) if kind is float else convert(kind, value, what)

        if self.family == "example1":
            out = make_example1(take("C", float), take("omega", float, 0.0))
        elif self.family == "example2":
            out = make_example2(take("omega", float, 0.0))
        elif self.family == "singular_cos":
            out = make_singular_cos(take("omega", float, 1.0))
        elif self.family == "gaussian":
            out = make_gaussian(take("n", int, 1))
        else:
            out = make_edgar_rosenblatt(self.quad_tol)
        if p:
            raise InputError(f"unknown parameters for family {self.family!r}: {sorted(p)}")
        return out
