"""Built-in function families with exact decay envelopes.

Each factory returns a `FunctionEvaluator` carrying the analytic radial
envelope (where one exists) and singularity metadata, so the certificate
checkers can run in rigorous envelope mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, convert
from .tfops import FunctionEvaluator

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def make_example1(C: float, omega: float) -> FunctionEvaluator:
    """Slowly decaying oscillatory family with breakpoint |t| = 1/C.

    f(t) = C cos(omega t) for |t| < 1/C and cos(omega t)/|t| otherwise;
    continuous, square-integrable, with exact envelope min(C, 1/r).
    """
    C = float(C)
    omega = float(omega)
    if C <= 0:
        raise InputError("C must be positive")
    cut = 1.0 / C

    def fn(t):
        at = np.abs(t)
        outer_branch = at >= cut
        safe = np.where(outer_branch, at, 1.0)
        osc = np.cos(omega * t)
        return np.where(outer_branch, osc / safe, C * osc).astype(complex)

    def envelope(r):
        return C if r <= cut else 1.0 / r

    return FunctionEvaluator(dim=1, fn=fn, envelope=envelope,
                             singularities=(), square_integrable=True)


def make_example2(omega: float) -> FunctionEvaluator:
    """Square-integrable family with an integrable blow-up at the origin.

    f(t) = cos(omega t)/|t|^{1/4} for |t| < 1 and cos(omega t)/|t| otherwise.
    The envelope is r^{-1/4} on (0, 1) and 1/r beyond; it is unbounded at 0.
    """
    omega = float(omega)

    def fn(t):
        at = np.abs(t)
        inner_branch = at < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = np.where(inner_branch, at ** 0.25, at)
            out = np.cos(omega * t) / denom
        return out.astype(complex)

    def envelope(r):
        if r <= 0:
            return np.inf
        return r ** -0.25 if r < 1.0 else 1.0 / r

    return FunctionEvaluator(dim=1, fn=fn, envelope=envelope,
                             singularities=(np.array([0.0]),),
                             square_integrable=True)


def make_singular_cos(omega: float) -> FunctionEvaluator:
    """cos(omega t)/|t|: singular at 0, bounded away from it, not in L^2."""
    omega = float(omega)

    def fn(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.cos(omega * t) / np.abs(t)
        return out.astype(complex)

    def envelope(r):
        return np.inf if r <= 0 else 1.0 / r

    return FunctionEvaluator(dim=1, fn=fn, envelope=envelope,
                             singularities=(np.array([0.0]),),
                             square_integrable=False)


def make_gaussian(n: int = 1) -> FunctionEvaluator:
    """Unit-norm Gaussian 2^{n/4} e^{-pi ||t||^2} (the reference test function)."""
    n = int(n)
    if n < 1:
        raise InputError("n must be a positive integer")
    amp = 2.0 ** (n / 4.0)
    if n == 1:
        fn = lambda t: (amp * np.exp(-np.pi * t * t)).astype(complex)
    else:
        fn = lambda t: (amp * np.exp(-np.pi * np.sum(t * t, axis=1))).astype(complex)
    envelope = lambda r: amp * np.exp(-np.pi * r * r)
    return FunctionEvaluator(dim=n, fn=fn, envelope=envelope,
                             singularities=(), square_integrable=True)


def _adaptive_oscillatory(a: float, b: float, tol: float) -> complex:
    """integral over [1/3, 2/3] of exp(i(a acos(t) + b acos(1-t))) dt.

    Gauss-Legendre panels bisected until the two-panel refinement of each
    panel agrees with the one-panel value within its share of `tol`; the
    accepted-panel error budget telescopes, so the absolute error is below
    `tol`. Deterministic: identical inputs traverse identical panels.
    """
    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        tt = mid + half * _GL_NODES
        return half * np.sum(_GL_WEIGHTS * np.exp(1j * (a * np.arccos(tt) + b * np.arccos(1.0 - tt))))

    total = 0.0 + 0.0j
    stack = [(1.0 / 3.0, 2.0 / 3.0, tol, panel(1.0 / 3.0, 2.0 / 3.0))]
    while stack:
        lo, hi, share, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if abs(left + right - whole) < share or (hi - lo) < 1e-12:
            total += left + right
        else:
            stack.append((lo, mid, 0.5 * share, left))
            stack.append((mid, hi, 0.5 * share, right))
    return complex(total)


def make_edgar_rosenblatt(quad_tol: float = 1e-9) -> FunctionEvaluator:
    """Two-dimensional oscillatory-integral evaluator with certified accuracy.

    f(a, b) = integral over [1/3, 2/3] of exp(i(a acos(t) + b acos(1-t))) dt,
    computed per point by adaptive Gauss-Legendre to absolute tolerance
    `quad_tol`. The square-integrable flag is left False: the function is
    only p-integrable for large p, so Gram quadrature is not certified.
    """
    quad_tol = float(quad_tol)
    if not 0.0 < quad_tol <= 1e-3:
        raise InputError("quad_tol must lie in (0, 1e-3]")

    def fn(pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return np.array([_adaptive_oscillatory(a, b, quad_tol) for a, b in pts],
                        dtype=complex)

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
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0.0 < self.quad_tol <= 1e-3:
            raise InputError("quad_tol must lie in (0, 1e-3]")

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
                   quad_tol=convert(float, obj.get("quad_tol", 1e-9), "quad_tol"))

    def build(self) -> FunctionEvaluator:
        p = dict(self.params)

        def take(name, kind, default=None):
            return convert(kind, p.pop(name, default),
                           f"parameter {name!r} of family {self.family!r}")

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

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params),
                "quad_tol": self.quad_tol}
