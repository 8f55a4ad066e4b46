"""Built-in function families with exact decay envelopes.

Each factory returns a `FunctionEvaluator` carrying the analytic radial
envelope (where one exists) and singularity metadata, so the certificate
checkers can run in rigorous envelope mode. The real families return real
values and are even, which they declare (`FunctionEvaluator.parity`); only
the Edgar-Rosenblatt integral is complex, and it declares no parity.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, convert, finite
from .tfops import FunctionEvaluator

MAX_GAUSSIAN_DIM = 64
# Nodes per step of the Edgar-Rosenblatt (ER) evaluator: its points run
# grouped by panel count, as many rows at a time as fit, so its arrays stay
# the same size at every reach.
_ER_NODES = 1 << 14
# Tolerance range of the ER quadrature. quad_tol bounds the truncation error of
# each value. The rounding of the phases adds a floor of about
# (2 pi (|a| + |b|) + 16) eps / 3, 1.2e-15 at the origin and 9.3e-12 at
# |a| = |b| = 10^4, which no panel count removes; below 1e-14 the bound would
# buy panels whose gain sits under that floor.
_ER_TOL_RANGE = (1e-14, 1e-3)
# The ER quadrature tolerance of every default: evaluators, function specs,
# the five-term residual and its CLI section.
ER_QUAD_TOL = 1e-9
# One ER evaluation at (a, b) costs about the same while |a| and |b| stay below
# _ER_FLAT_REACH and grows linearly beyond it, as its panel count does (about
# reach / 14 at the default tolerance, reach / 8 at 1e-14). So `check_er_work`
# bounds the time: a point counts er_weight(reach) times, reach being the
# largest |a| or |b|, and at most MAX_ER_WORK counted points run as one call,
# one five-term stencil or one `oracle.er_lattice` stencil. No reach beyond
# MAX_ER_REACH runs: there one row of the rule at 1e-14, 1,302 panels, still
# fits in _ER_NODES. The rule admits the default 512^2 dense scan within
# reach 572.
_ER_FLAT_REACH = 25.0
MAX_ER_WORK = 6 * 10**6
MAX_ER_REACH = 1e4 + 1.0
# The 10-point Gauss-Legendre rule on [-1, 1], bit for bit the nodes and
# weights of numpy.polynomial.legendre.leggauss(10), which is not imported:
# the positive nodes and their weights, mirrored.
_GL_HALF = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                     0.8650633666889845, 0.9739065285171717])
_GL_HALF_WEIGHTS = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                             0.1494513491505804, 0.06667134430868814])
_GL_NODES = np.concatenate((-_GL_HALF[::-1], _GL_HALF))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))
# The truncation bound of the composite rule on [1/3, 2/3]. The (n+1)-point
# Gauss rule errs by at most (64/15) M rho^-2n / (rho^2 - 1) on a function
# analytic inside the Bernstein ellipse E_rho about [-1, 1] and bounded by M
# there (Trefethen, Approximation Theory and Approximation Practice, 2013,
# Thm 19.3). So on a panel of half-width h the 10-point rule errs by at most
# h (64/15) M rho^-18 / (rho^2 - 1), E_rho now about the panel. The integrand
# F(t) = exp(i(a acos t + b acos(1 - t))) is analytic off t <= 0 and t >= 1.
# On the ellipse with foci -1 and 1 through z, |Im acos z| = acosh(s / 2) with
# s = |z - 1| + |z + 1|, so for |a|, |b| <= R,
# |F(z)| <= exp(R (acosh(s1 / 2) + acosh(s2 / 2))) with s1 = |z - 1| + |z + 1|
# and s2 = |z| + |z - 2|. Both sums are convex, so on a polygon circumscribed
# about E_rho each is largest at a vertex; the polygon is symmetric about the
# real axis, as both sums are, so its upper vertices suffice. Each panel takes
# the best rho of _ER_RHOS whose polygon keeps clear of t <= 0 and t >= 1.
_ER_POLYGON = 16
_ER_RHOS = np.geomspace(1.02, 64.0, 32)


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
    n = convert(int, n, "n")
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


def _least(holds) -> int:
    """The least n >= 0 with holds(n), for a `holds` that is false below some
    n and true from there on: doubling brackets it, bisection finds it."""
    high = 1
    while not holds(high - 1):
        high *= 2
    return bisect.bisect_left(range(high), True, key=holds)


def _er_bound_terms(panels: int) -> tuple:
    """(const, slope), each (panels, len(_ER_RHOS)): the log of the truncation
    bound of panel j of the rule on `panels` equal panels of [1/3, 2/3], with
    the ellipse E_rho of _ER_RHOS[k], is const[j, k] + R slope[j, k] for every
    |a|, |b| <= R (see _ER_POLYGON); const is +inf where the polygon is not
    clear of the branch cuts. The rule's bound is the sum over the panels of
    each panel's least term."""
    h = 1.0 / (6.0 * panels)
    centre = (1.0 / 3.0 + (2.0 * np.arange(panels) + 1.0) * h)[:, None]
    major, minor = 0.5 * h * (_ER_RHOS + 1.0 / _ER_RHOS), 0.5 * h * (_ER_RHOS - 1.0 / _ER_RHOS)
    s1 = s2 = 0.0
    for angle in (2.0 * np.arange(_ER_POLYGON // 2) + 1.0) * np.pi / _ER_POLYGON:
        z = centre + (major * np.cos(angle) + 1j * minor * np.sin(angle)) / np.cos(np.pi / _ER_POLYGON)
        s1 = np.maximum(s1, np.abs(z - 1.0) + np.abs(z + 1.0))
        s2 = np.maximum(s2, np.abs(z) + np.abs(z - 2.0))
    # The polygon reaches along the real axis exactly as far as the ellipse.
    clear = (centre - major > 0.0) & (centre + major < 1.0)
    const = np.log(64.0 / 15.0 * h) - 18.0 * np.log(_ER_RHOS) - np.log(_ER_RHOS ** 2 - 1.0)
    return np.where(clear, const, np.inf), np.arccosh(0.5 * s1) + np.arccosh(0.5 * s2)


@functools.lru_cache(maxsize=4096)
def _er_reach_limit(panels: int, tol: float) -> int:
    """The largest integer reach at which the rule on `panels` panels has a
    truncation bound within `tol`, -1 if there is none. The bound grows with
    the reach, without limit."""
    const, slope = _er_bound_terms(panels)
    return _least(lambda r: np.logaddexp.reduce((const + r * slope).min(axis=1)) > np.log(tol)) - 1


@functools.lru_cache(maxsize=4096)
def _er_panel_count(reach: int, tol: float) -> int:
    """The panel count of every point whose ceil(max(|a|, |b|)) is `reach`: the
    fewest panels whose reach limit covers it, so that their truncation bound
    is within `tol` at that reach and, the bound growing with the reach, below
    it. The limits grow with the panel count, which the search assumes."""
    return _least(lambda p: _er_reach_limit(p + 1, tol) >= reach) + 1


def _er_block(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The composite rule at each point (a[i], b[i]).

    A point takes the panel count of its own reach, ceil(max(|a|, |b|))
    (`_er_panel_count`), never its batch's. The points run grouped by panel
    count, at most _ER_NODES nodes at a time, and each row is summed in one
    fixed order, so every value depends on its point alone.
    """
    reach = np.ceil(np.maximum(np.abs(a), np.abs(b))).astype(np.intp)
    reaches = np.flatnonzero(np.bincount(reach))
    counts = np.array([_er_panel_count(int(r), tol) for r in reaches], dtype=np.intp)
    counts = counts[np.searchsorted(reaches, reach)]
    out = np.empty(a.size, dtype=complex)
    for panels in np.flatnonzero(np.bincount(counts)):
        h = 1.0 / (6.0 * panels)
        t = ((1.0 / 3.0 + (2.0 * np.arange(panels) + 1.0) * h)[:, None] + h * _GL_NODES).ravel()
        acos_t, acos_u, weights = np.arccos(t), np.arccos(1.0 - t), np.tile(h * _GL_WEIGHTS, panels)
        rows, step = np.flatnonzero(counts == panels), max(1, _ER_NODES // t.size)
        for at in np.split(rows, range(step, rows.size, step)):
            phase = np.outer(a[at], acos_t) + np.outer(b[at], acos_u)
            out.real[at] = (np.cos(phase) * weights).sum(axis=1)
            out.imag[at] = (np.sin(phase) * weights).sum(axis=1)
    return out


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
    value = convert(float, value, "quad_tol")
    if not lo <= value <= hi:
        raise InputError(f"quad_tol must lie in [{lo:g}, {hi:g}]")
    return value


def make_edgar_rosenblatt(quad_tol: float = ER_QUAD_TOL) -> FunctionEvaluator:
    """Two-dimensional oscillatory-integral evaluator with a proven
    truncation bound.

    f(a, b) = integral over [1/3, 2/3] of exp(i(a acos(t) + b acos(1-t))) dt,
    computed by a composite 10-point Gauss-Legendre rule on equal panels.
    Each point takes the panel count of its reach ceil(max(|a|, |b|)), the
    fewest whose a-priori bound (see `_ER_POLYGON`) holds the truncation
    error within `quad_tol`; each value depends on its point alone, not on
    the batch it is in. Rounding adds a floor of about
    (2 pi (|a| + |b|) + 16) eps / 3 (`_ER_TOL_RANGE`), separate from that
    bound. A call with a non-finite
    point, or whose points `check_er_work` refuses (a reach beyond
    MAX_ER_REACH, or more than MAX_ER_WORK points each counted
    er_weight(reach) times), is refused before any is evaluated. The
    square-integrable flag is left False: the function is only p-integrable
    for large p, so Gram quadrature is not certified.
    """
    quad_tol = _quad_tol(quad_tol)

    def fn(pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if not np.isfinite(pts).all():
            raise InputError("Edgar-Rosenblatt points must be finite")
        check_er_work(pts.shape[0], er_reach(pts), "Edgar-Rosenblatt evaluations")
        return _er_block(pts[:, 0], pts[:, 1], quad_tol)

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
        object.__setattr__(self, "quad_tol", _quad_tol(self.quad_tol))

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        if not isinstance(obj, dict):
            raise InputError("function spec must be a JSON object")
        extra = set(obj) - {"family", "params", "quad_tol"}
        if extra:
            raise InputError(f"unknown keys in function spec: {sorted(extra)}")
        if "family" not in obj:
            raise InputError("function spec requires a 'family' key")
        if "quad_tol" in obj and obj["family"] != "edgar_rosenblatt":
            raise InputError("quad_tol is a parameter of the family 'edgar_rosenblatt' alone")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InputError("function params must be a JSON object")
        return cls(family=obj["family"], params=dict(params),
                   quad_tol=obj.get("quad_tol", ER_QUAD_TOL))

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
