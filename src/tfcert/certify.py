"""Sufficient conditions for linear independence of time-frequency translates.

Every checker returns a `Certificate` recording the numeric witnesses it
verified. A `Certified` verdict backed by an analytic envelope is rigorous
up to floating point; sup estimates obtained by dense sampling are heuristic
and flagged as such in `sup_method`.

The separation conditions compare a minimum pairwise distance M against a
decay radius R outside which |f| falls strictly below peak/(N-1); all
inequalities are strict, and ties resolve to NotCertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (InputError, NearOrthogonalError, NotCertifiableError,
                     NumericalRefusal)
from .tfops import (FunctionEvaluator, GridSpec, PointSet, _as_points,
                    _check_points_clear, dilate, fourier,
                    quadrature_points, stft, stft_grid, translate)

BISECT_TOL = 1e-9
# An envelope within this relative distance of the bound from 0 to twice the
# bisected radius is flat at its peak to float64 resolution, so the radius is 0.
FLAT_PEAK_RTOL = 8 * np.finfo(float).eps
ENVELOPE_HORIZON = 1e9

SUP_ENVELOPE = "Envelope"
SUP_DENSE = "DenseSample"
SUP_POINTWISE = "Pointwise"


@dataclass(frozen=True)
class SupEstimate:
    """A sup-norm estimate and how it was obtained.

    Envelope-backed values are rigorous upper bounds; dense-sample values are
    lower bounds of the true sup and therefore heuristic.
    """

    value: float
    method: str
    grid: Optional[GridSpec] = None


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one sufficient-condition check.

    `margins` holds per-pair slack values; the verdict is Certified exactly
    when every margin is strictly positive. `bound` is peak/(N-1) for N >= 2
    and +inf for the vacuous single-function case (serialized as null).
    """

    theorem: str
    verdict: str
    N: int
    R: float
    M: float
    peak: float
    bound: float
    margins: tuple
    sup_method: str
    translate_x: Optional[np.ndarray] = None
    threshold_r: Optional[float] = None
    note: Optional[str] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"

    def to_json(self) -> dict:
        def num(v):
            v = float(v)
            return v if math.isfinite(v) else None

        out = {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "N": int(self.N),
            "R": num(self.R),
            "M": num(self.M),
            "peak": num(self.peak),
            "bound": num(self.bound),
            "margins": [num(m) for m in self.margins],
            "sup_method": self.sup_method,
        }
        if self.translate_x is not None:
            out["translate_x"] = [float(v) for v in np.atleast_1d(self.translate_x)]
        if self.threshold_r is not None:
            out["threshold_r"] = num(self.threshold_r)
        if self.note is not None:
            out["note"] = self.note
        return out


def _verdict(margins) -> str:
    return "Certified" if all(m > 0 for m in margins) else "NotCertified"


def _as_shift_array(shifts, dim: int) -> np.ndarray:
    S = _as_points(shifts, dim)[0]
    if S.shape[0] == 0:
        raise InputError("shift set must be nonempty")
    return S


def _pair_differences(S: np.ndarray) -> np.ndarray:
    """Rows x_i - x_j over the ordered pairs i != j."""
    return (S[:, None, :] - S[None, :, :])[~np.eye(S.shape[0], dtype=bool)]


def _eval_abs(f: FunctionEvaluator, points: np.ndarray) -> np.ndarray:
    """|f| at the given points, refusing singular or nonfinite evaluations."""
    _check_points_clear(points, f.singularities, f.dim)
    vals = np.abs(np.atleast_1d(f(points)))
    if not np.all(np.isfinite(vals)):
        raise NumericalRefusal("nonfinite function value at a required point")
    return vals


def _min_pairwise(vecs: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum pairwise distance and the flat i<j distance list."""
    n = vecs.shape[0]
    if n < 2:
        return math.inf, np.empty(0)
    diffs = vecs[:, None, :] - vecs[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    iu = np.triu_indices(n, k=1)
    pair = dist[iu]
    return float(pair.min()), pair


def _radius_from_envelope(envelope: Callable[[float], float], bound: float) -> float:
    """Smallest radius where the monotone envelope drops strictly below bound.

    Bisection to BISECT_TOL; returns 0 when the strict bound already holds at
    every positive radius. For an envelope whose peak equals the bound that
    shows as an envelope within float64 resolution of the bound on all of
    [0, 2 hi]: the crossing lies below the resolution of the data. An envelope
    that decays past hi (a real crossing, however far out) keeps its radius.
    """
    if envelope(0.0) < bound:
        return 0.0
    hi = 1.0
    while not envelope(hi) < bound:
        hi *= 2.0
        if hi > ENVELOPE_HORIZON:
            raise NotCertifiableError(
                "envelope never drops below the required bound within the search horizon")
    lo = 0.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if envelope(mid) < bound:
            hi = mid
        else:
            lo = mid
    flat = (envelope(0.0) <= bound * (1.0 + FLAT_PEAK_RTOL)
            and envelope(2.0 * hi) >= bound * (1.0 - FLAT_PEAK_RTOL))
    return 0.0 if flat else hi


def _radius_from_samples(radii: np.ndarray, values: np.ndarray, bound: float) -> float:
    """Smallest sampled radius outside which every sampled value is < bound."""
    order = np.argsort(radii, kind="stable")
    r_sorted = radii[order]
    v_sorted = values[order]
    suffix_max = np.maximum.accumulate(v_sorted[::-1])[::-1]
    ok = suffix_max < bound
    if not ok.any():
        raise NotCertifiableError(
            "sampled values never drop below the required bound inside the grid")
    idx = int(np.argmax(ok))
    return 0.0 if idx == 0 else float(r_sorted[idx])


def sup_outside(f: FunctionEvaluator, radius: float, center=None, *,
                grid: Optional[GridSpec] = None) -> SupEstimate:
    """Upper estimate of sup |f(t)| over ||t - center|| >= radius.

    Envelope-backed when the evaluator carries one and the center is the
    origin (rigorous); otherwise the maximum over truncation-box samples,
    which lower-bounds the true sup and is flagged heuristic.
    """
    center = np.zeros(f.dim) if center is None else \
        np.atleast_1d(np.asarray(center, dtype=float))
    if f.envelope is not None and not np.any(center):
        return SupEstimate(float(f.envelope(radius)), SUP_ENVELOPE)
    grid = grid or GridSpec.default(f.dim)
    pts, _ = quadrature_points(grid, f.dim, f.singularities)
    radii = np.linalg.norm(pts - center, axis=1)
    outside = radii >= radius
    if not outside.any():
        raise NumericalRefusal("sampling grid does not reach outside the ball")
    with np.errstate(all="ignore"):
        vals = np.abs(np.atleast_1d(f(pts[outside])))
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise NumericalRefusal("no finite samples outside the ball")
    return SupEstimate(float(vals.max()), SUP_DENSE, grid)


def decay_radius(f: FunctionEvaluator, N: int, anchor=None, *,
                 grid: Optional[GridSpec] = None,
                 require_envelope: bool = False) -> float:
    """Smallest R with sup_{||t - anchor|| >= R} |f(t)| < |f(anchor)|/(N-1).

    The anchor plays the role of the origin after translation: in envelope
    mode the evaluator's envelope is read as the envelope of the re-anchored
    function (the caller's contract when anchor != 0). Without an envelope a
    dense-sample scan is used, which is heuristic and resolves R only to the
    grid step.
    """
    N = int(N)
    if N < 2:
        raise InputError("decay_radius requires N >= 2")
    anchor = np.zeros(f.dim) if anchor is None else \
        np.atleast_1d(np.asarray(anchor, dtype=float))
    if anchor.shape != (f.dim,):
        raise InputError(f"anchor must be a vector of length {f.dim}")
    peak = float(_eval_abs(f, anchor)[0])
    if peak == 0.0:
        raise InputError("f vanishes at the anchor; pick another anchor")
    bound = peak / (N - 1)

    if f.envelope is not None:
        return _radius_from_envelope(f.envelope, bound)
    if require_envelope:
        raise NumericalRefusal("rigorous mode requires a decay envelope")

    grid = grid or GridSpec.default(f.dim)
    shifted_sings = tuple(s - anchor for s in f.singularities)
    pts, _ = quadrature_points(grid, f.dim, shifted_sings)
    values = _eval_abs(f, pts + anchor)
    radii = np.linalg.norm(pts, axis=1)
    return _radius_from_samples(radii, values, bound)


def check_lemma1(f: FunctionEvaluator, shifts: Sequence) -> Certificate:
    """Pointwise separation check on a set of time shifts.

    Certified when |f(x_i - x_j)| < |f(0)|/(N-1) at every ordered pair of
    distinct shifts; the margins carry the slack of each inequality. A single
    nonzero function is vacuously certified.
    """
    S = _as_shift_array(shifts, f.dim)
    N = S.shape[0]
    origin = np.zeros(f.dim)
    peak = float(_eval_abs(f, origin)[0])
    if peak == 0.0:
        raise InputError("f(0) = 0: translate first (see best_translate)")
    M, _ = _min_pairwise(S)
    if N == 1:
        return Certificate("Lemma1", "Certified", 1, 0.0, M, peak, math.inf,
                           (), SUP_POINTWISE)
    bound = peak / (N - 1)
    vals = _eval_abs(f, _pair_differences(S))
    margins = tuple(float(bound - v) for v in vals)
    return Certificate("Lemma1", _verdict(margins), N, 0.0, M, peak, bound,
                       margins, SUP_POINTWISE)


def check_theorem1(f: FunctionEvaluator, lam: PointSet, *, anchor=None,
                   grid: Optional[GridSpec] = None,
                   require_envelope: bool = False,
                   theorem: str = "Thm1",
                   threshold_r: Optional[float] = None) -> Certificate:
    """Time-separation certificate: Certified when min_i!=j ||x_i - x_j|| > R.

    Only the time coordinates of the point set matter. Duplicate time
    coordinates give M = 0 and a NotCertified verdict, never an exception.
    """
    if f.singularities:
        raise InputError("this check requires a continuous function; "
                         "use check_theorem2 for singular inputs")
    N = len(lam)
    if lam.dim != f.dim:
        raise InputError("dimension mismatch between point set and function")
    anchor_arr = np.zeros(f.dim) if anchor is None else \
        np.atleast_1d(np.asarray(anchor, dtype=float))
    peak = float(_eval_abs(f, anchor_arr)[0])
    if peak == 0.0:
        raise InputError("f vanishes at the anchor")
    sup_method = SUP_ENVELOPE if f.envelope is not None else SUP_DENSE
    if N == 1:
        return Certificate(theorem, "Certified", 1, 0.0, math.inf, peak,
                           math.inf, (), sup_method, threshold_r=threshold_r)

    M, pair = _min_pairwise(lam.times())
    note = None
    try:
        R = decay_radius(f, N, anchor_arr, grid=grid,
                         require_envelope=require_envelope)
    except NumericalRefusal:
        if M > 0:
            raise
        R, note = 0.0, "decay radius not certifiable and min time separation is zero"
    margins = tuple(float(d - R) for d in pair)
    if M == 0.0 and note is None:
        note = "duplicate time coordinates: min pairwise time separation is zero"
    return Certificate(theorem, _verdict(margins), N, R, M, peak,
                       peak / (N - 1), margins, sup_method,
                       threshold_r=threshold_r, note=note)


def best_translate(f: FunctionEvaluator, shifts: Sequence,
                   N: Optional[int] = None, *,
                   grid: Optional[GridSpec] = None,
                   max_candidates: int = 4096):
    """Search for an anchor that makes the Lemma-1 check pass after re-anchoring.

    Candidates are the origin followed by truncation-box grid points where
    |f| reaches at least half of its sampled maximum (only large anchors can
    certify), scanned in order of decreasing |f|. Returns the first anchor
    certifying T_{-a} f on the given shifts, or None.
    """
    S = _as_shift_array(shifts, f.dim)
    n_pts = S.shape[0] if N is None else int(N)
    grid = grid or GridSpec.default(f.dim)

    pts, _ = quadrature_points(grid, f.dim, f.singularities)
    with np.errstate(all="ignore"):
        mag = np.abs(np.atleast_1d(f(pts)))
    mag[~np.isfinite(mag)] = 0.0
    keep = mag >= 0.5 * mag.max()
    cand = pts[keep]
    cand_mag = mag[keep]
    order = np.argsort(-cand_mag, kind="stable")[:max_candidates]
    cand = np.vstack([np.zeros((1, f.dim)), cand[order]])

    diffs = np.empty((0, f.dim)) if n_pts == 1 else _pair_differences(S)

    # T_{-a} f evaluated at d is f(d + a); the peak after re-anchoring is f(a).
    # Nonfinite values fail the strict comparison.
    with np.errstate(all="ignore"):
        peaks = np.abs(f(cand))
        vals = np.abs(f(cand[:, None, :] + diffs[None, :, :]))
    ok = np.isfinite(peaks) & (peaks > 0) & \
        np.all(vals * (n_pts - 1) < peaks[:, None], axis=1)
    if not ok.any():
        return None
    idx = int(np.argmax(ok))
    return cand[idx].copy()


def dilation_threshold(f: FunctionEvaluator, lam: PointSet, *,
                       grid: Optional[GridSpec] = None,
                       require_envelope: bool = False) -> float:
    """Largest stretch budget M/R for the time-side dilation family.

    Contract: for every r in (0, M/R), the r-stretched function (realized as
    dilate(f, 1/r), which spreads f out while compressing its decay radius
    proportionally to r) passes check_theorem1 on the same point set.
    """
    if f.singularities:
        raise InputError("dilation threshold requires a continuous function")
    N = len(lam)
    if N == 1:
        return math.inf
    M, _ = _min_pairwise(lam.times())
    if M == 0.0:
        raise InputError("min pairwise time separation is zero")
    R = decay_radius(f, N, grid=grid, require_envelope=require_envelope)
    if R == 0.0:
        return math.inf
    return M / R


def stretch(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Unitary dilation that spreads f out by factor r (dilate by 1/r).

    This is the parameterization under which the dilation-threshold contract
    reads: certified exactly for r below the threshold (the decay radius of
    the stretched function is r times the original).
    """
    r = float(r)
    if r == 0.0:
        raise InputError("stretch factor must be nonzero")
    return dilate(f, 1.0 / r)


def check_corollary1(f: FunctionEvaluator, lam: PointSet, r: float = 1.0, *,
                     grid: Optional[GridSpec] = None,
                     require_envelope: bool = False) -> Certificate:
    """Theorem-1 certificate for the r-stretched function, threshold attached."""
    thr = dilation_threshold(f, lam, grid=grid, require_envelope=require_envelope)
    cert = check_theorem1(stretch(f, r), lam, grid=grid,
                          require_envelope=require_envelope,
                          theorem="Cor1", threshold_r=thr)
    return cert


def check_corollary2(f: FunctionEvaluator, lam: PointSet,
                     grid: Optional[GridSpec] = None, *,
                     fhat_envelope: Optional[Callable[[float], float]] = None,
                     theorem: str = "Cor2",
                     threshold_r: Optional[float] = None) -> Certificate:
    """Frequency-separation certificate via the Fourier-rotated point set.

    Forms fhat by quadrature, maps each (x, omega) to (omega, -x), and runs
    the time-separation check on the transformed data. Because fhat comes
    from quadrature its sup estimates are dense-sample heuristics unless the
    caller supplies an analytic envelope for fhat.
    """
    grid = grid or GridSpec.default(f.dim)
    fhat = fourier(f, grid)
    if fhat_envelope is not None:
        fhat = fhat.with_envelope(fhat_envelope)
    rotated = PointSet.from_rows(
        [np.concatenate([p.omega, -p.x]) for p in lam.points], dim=lam.dim)
    return check_theorem1(fhat, rotated, grid=grid, theorem=theorem,
                          threshold_r=threshold_r)


def dilation_threshold_freq(f: FunctionEvaluator, lam: PointSet,
                            grid: Optional[GridSpec] = None, *,
                            fhat_envelope: Optional[Callable[[float], float]] = None) -> float:
    """Stretch threshold Rhat/M_omega for the frequency-side dilation family.

    Contract: for every r above the returned value, the r-stretched function
    (time spread by r, hence frequency support compressed by 1/r) passes
    check_corollary2 on the same point set.
    """
    N = len(lam)
    if N == 1:
        return 0.0
    M_omega, _ = _min_pairwise(lam.freqs())
    if M_omega == 0.0:
        raise InputError("min pairwise frequency separation is zero")
    grid = grid or GridSpec.default(f.dim)
    fhat = fourier(f, grid)
    if fhat_envelope is not None:
        fhat = fhat.with_envelope(fhat_envelope)
    R_hat = decay_radius(fhat, N, grid=grid)
    return R_hat / M_omega


def check_corollary3(f: FunctionEvaluator, lam: PointSet, r: float = 1.0,
                     grid: Optional[GridSpec] = None, *,
                     fhat_envelope: Optional[Callable[[float], float]] = None) -> Certificate:
    """Corollary-2 certificate for the r-stretched function, threshold attached."""
    thr = dilation_threshold_freq(f, lam, grid, fhat_envelope=fhat_envelope)
    return check_corollary2(stretch(f, r), lam, grid,
                            fhat_envelope=None, theorem="Cor3", threshold_r=thr)


def check_theorem2(f: FunctionEvaluator, lam: PointSet, *,
                   grid: Optional[GridSpec] = None) -> Certificate:
    """Certificate for functions blowing up at one point p.

    With R the min pairwise time separation, bounds A >= sup of |f| outside
    the R/2-ball around p (envelope if available around p = 0, otherwise a
    dense sample), then walks x toward p along a halving sequence until
    |f(x)| > A(N-1). The returned translate is consistency-checked by
    re-running the pointwise Lemma-1 inequalities on the re-anchored
    function.
    """
    if len(f.singularities) != 1:
        raise InputError("check_theorem2 expects exactly one singularity")
    p = f.singularities[0]
    if lam.dim != f.dim:
        raise InputError("dimension mismatch between point set and function")
    N = len(lam)

    if N == 1:
        step = 1e-3
        x = p + step * _unit(f.dim)
        for _ in range(60):
            val = float(np.abs(f(x)))
            if np.isfinite(val) and val > 0:
                return Certificate("Thm2", "Certified", 1, 0.0, math.inf, val,
                                   math.inf, (), SUP_POINTWISE, translate_x=x)
            step *= 0.5
            x = p + step * _unit(f.dim)
        raise NumericalRefusal("could not find a nonzero value near the singularity")

    R, _ = _min_pairwise(lam.times())
    if R == 0.0:
        raise InputError("min pairwise time separation is zero")

    half = R / 2.0
    bound_outside = sup_outside(f, half, p, grid=grid)
    A = bound_outside.value
    sup_method = bound_outside.method
    if not math.isfinite(A):
        raise NumericalRefusal("sup bound away from the singularity is infinite")

    need = A * (N - 1)
    direction = _unit(f.dim)
    times = lam.times()
    rho = half
    for _ in range(500):
        rho *= 0.5
        x = p + rho * direction
        with np.errstate(all="ignore"):
            val = float(np.abs(f(x)))
        if not (np.isfinite(val) and val > need):
            continue
        # Consistency: the re-anchored pointwise inequalities must pass.
        try:
            inner = check_lemma1(translate(f, -x), [row for row in times])
        except NumericalRefusal:
            continue
        if inner.certified:
            return Certificate("Thm2", "Certified", N, R, R, val,
                               val / (N - 1), inner.margins, sup_method,
                               translate_x=x)
    raise NumericalRefusal("no certified translate found along the halving sequence")


def _unit(dim: int) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = 1.0
    return e


def check_theorem3(f: FunctionEvaluator, g: FunctionEvaluator, lam: PointSet,
                   grid: Optional[GridSpec] = None,
                   lattice: Optional[GridSpec] = None, *,
                   stft_envelope: Optional[Callable[[float], float]] = None) -> Certificate:
    """Full time-frequency separation certificate through the STFT.

    Estimates the radius R outside which |V_g f| < |<f, g>|/(N-1), either
    rigorously from a caller-supplied radial envelope of |V_g f| or
    heuristically by scanning the 2n-dimensional lattice (the scanned radius
    is then inflated by one lattice cell diagonal as a safety margin).
    Certified when the min pairwise distance in R^{2n} exceeds R.
    """
    if f.dim != g.dim:
        raise InputError("dimension mismatch")
    if lam.dim != f.dim:
        raise InputError("dimension mismatch between point set and functions")
    grid = grid or GridSpec.default(f.dim)
    peak = abs(stft(f, g, (np.zeros(f.dim), np.zeros(f.dim)), grid))
    if peak < 1e-12:
        raise NearOrthogonalError("<f, g> is numerically zero; certificate undefined")
    N = len(lam)
    if N == 1:
        method = SUP_ENVELOPE if stft_envelope is not None else SUP_DENSE
        return Certificate("Thm3", "Certified", 1, 0.0, math.inf, peak,
                           math.inf, (), method)
    bound = peak / (N - 1)

    if stft_envelope is not None:
        R = _radius_from_envelope(stft_envelope, bound)
        sup_method = SUP_ENVELOPE
    else:
        if f.dim != 1:
            raise NumericalRefusal(
                "lattice scan is implemented for dimension 1; supply stft_envelope")
        lattice = lattice or GridSpec(8.0, 128)
        xs = np.linspace(-lattice.half_width, lattice.half_width,
                         lattice.samples_per_axis)
        field = np.abs(stft_grid(f, g, xs, xs, grid))
        radii = np.hypot(*np.meshgrid(xs, xs, indexing="ij"))
        violating = radii[field >= bound]
        R0 = float(violating.max()) if violating.size else 0.0
        R = R0 + lattice.step * math.sqrt(2.0)
        sup_method = SUP_DENSE

    M, pair = _min_pairwise(lam.tf_array())
    margins = tuple(float(d - R) for d in pair)
    return Certificate("Thm3", _verdict(margins), N, R, M, peak, bound,
                       margins, sup_method)
