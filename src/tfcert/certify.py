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
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (InputError, NearOrthogonalError, NotCertifiableError,
                     NumericalRefusal, SingularityHitError)
from .tfops import (FunctionEvaluator, GridSpec, PointSet, _as_points, _check_values,
                    _clear_of, _shared_dim, _STFTScan, axis_quadrature, dilate,
                    finite_points, fourier, quadrature_points, translate)

BISECT_TOL = 1e-9
# An envelope within this relative distance of the bound from 0 to twice the
# bisected radius is flat at its peak to float64 resolution, so the radius is 0.
FLAT_PEAK_RTOL = 8 * np.finfo(float).eps
ENVELOPE_HORIZON = 1e9
# The (x, omega) lattice `check_theorem3` scans when none is given.
THM3_LATTICE = GridSpec(8.0, 128)

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


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one sufficient-condition check.

    `margins` holds per-pair slack values; the verdict is Certified exactly
    when every margin is strictly positive. `bound` is peak/(N-1) for N >= 2
    and +inf for the vacuous single-function case. `tfops.report_json` writes
    its JSON form: a non-finite value as null, a field holding None left out.
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


def _verdict(margins) -> str:
    return "Certified" if all(m > 0 for m in margins) else "NotCertified"


def _pair_differences(S: np.ndarray) -> np.ndarray:
    """Rows x_i - x_j over the ordered pairs i != j, in row-major order. N
    rows of length n whose N^2 n differences exceed MAX_ARRAY_VALUES are
    refused before any is formed (`_check_values`)."""
    N, n = S.shape
    _check_values(N * N * n, "pairwise differences")
    # The diagonal x_i - x_i is every (N + 1)-th row from the first, so it
    # drops by reshaping, without the index arrays a 2-D mask would make:
    # the peak is twice the (N, N, n) differences.
    d = S[:, None, :] - S[None, :, :]
    return d.reshape(-1, n)[1:].reshape(N - 1, N + 1, n)[:, :-1].reshape(-1, n)


def _eval_abs(f: FunctionEvaluator, points: np.ndarray) -> np.ndarray:
    """|f| at the given points, refusing a point not clear of a singularity
    of f (`_clear_of`) or a nonfinite value."""
    if f.singularities and not _clear_of(_as_points(points, f.dim)[0], f.singularities).all():
        raise SingularityHitError("evaluation point hits a singularity of f")
    vals = np.abs(np.atleast_1d(f(points)))
    if not np.all(np.isfinite(vals)):
        raise NumericalRefusal("nonfinite function value at a required point")
    return vals


def _min_pairwise(vecs: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum pairwise distance and the flat i<j distance list, read off
    the norms of `_pair_differences`, which holds the size bound."""
    N, n = vecs.shape
    if N < 2:
        return math.inf, np.empty(0)
    rows = _pair_differences(vecs)
    # Row i of the (N, N - 1) layout holds j < i, then j > i: the pairs
    # i < j are its upper triangle. A mask of the rows' own shape selects
    # them without index arrays, and the rebinding frees the full list.
    upper = np.triu(np.ones((N, N - 1), dtype=bool)).reshape(-1, 1)
    rows = rows[np.broadcast_to(upper, rows.shape)].reshape(-1, n)
    pair = np.linalg.norm(rows, axis=1)
    return float(pair.min()), pair


def _radius_from_envelope(envelope: Callable[[float], float], bound: float) -> float:
    """Smallest radius where the monotone envelope drops strictly below bound.

    Bisection to BISECT_TOL, or to adjacent floats where their spacing
    exceeds it; a crossing beyond ENVELOPE_HORIZON is refused. Returns 0 when
    the strict bound already holds at every positive radius. For an envelope
    whose peak equals the bound that shows as an envelope within float64
    resolution of the bound on all of [0, 2 hi]: the crossing lies below the
    resolution of the data. An envelope that decays past hi (a real crossing,
    however far out) keeps its radius.
    """
    if envelope(0.0) < bound:
        return 0.0
    hi = 1.0
    while not envelope(hi) < bound:
        if hi >= ENVELOPE_HORIZON:
            raise NotCertifiableError(
                "envelope never drops below the required bound within the search horizon")
        hi = min(2.0 * hi, ENVELOPE_HORIZON)
    lo = 0.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: above 2^23 they lie > BISECT_TOL apart
            break
        if envelope(mid) < bound:
            hi = mid
        else:
            lo = mid
    flat = (envelope(0.0) <= bound * (1.0 + FLAT_PEAK_RTOL)
            and envelope(2.0 * hi) >= bound * (1.0 - FLAT_PEAK_RTOL))
    return 0.0 if flat else hi


def _radius_from_samples(radii: np.ndarray, values: np.ndarray, bound: float) -> float:
    """Smallest sampled radius strictly beyond every sample whose value
    reaches bound, so that no sample at that radius or beyond reaches it; 0
    when no sample does. Samples tied in radius count alike, whatever their
    order. Refused when no sample lies beyond the last one reaching bound."""
    reach = values >= bound
    if not reach.any():
        return 0.0
    beyond = radii[radii > radii[reach].max()]
    if beyond.size == 0:
        raise NotCertifiableError(
            "sampled values never drop below the required bound inside the grid")
    return float(beyond.min())


def _anchor(anchor, dim: int) -> np.ndarray:
    """`anchor` as a finite vector of length dim; None is the origin."""
    if anchor is None:
        return np.zeros(dim)
    pts = _as_points(anchor, dim)[0]
    if pts.shape[0] != 1 or not np.isfinite(pts).all():
        raise InputError(f"anchor must be a finite vector of length {dim}")
    return pts[0]


def _sup_method(f: FunctionEvaluator) -> str:
    """How a sup of |f| is bounded: from f's envelope (rigorous) when it
    carries one, else by dense sampling (heuristic). The one reader of
    whether f has an envelope."""
    return SUP_ENVELOPE if f.envelope is not None else SUP_DENSE


def _envelope_about(f: FunctionEvaluator, point: np.ndarray) -> Callable[[float], float]:
    """r -> env(max(0, r - ||point - c||)) for f's envelope env about c.

    It bounds sup_{||t - point|| >= r} |f(t)|, because that set lies in
    {||t - c|| >= r - ||point - c||}.
    """
    env = f.envelope
    offset = float(np.linalg.norm(point - f.envelope_center))
    return lambda r: env(max(0.0, r - offset))


def _dense_about(f: FunctionEvaluator, point: np.ndarray,
                 grid: Optional[GridSpec]) -> tuple[np.ndarray, np.ndarray]:
    """(radii, values): ||t - point|| and |f(t)| at the nodes t of the
    quadrature grid centred on `point`, the nodes within the exclusion
    radius of a singularity of f dropped; a nonfinite value is refused. The
    one dense sampler of |f| about a point, which `_radius_below` and
    `sup_outside` read."""
    pts, _ = quadrature_points(grid, f.dim, tuple(s - point for s in f.singularities))
    return np.linalg.norm(pts, axis=1), _eval_abs(f, pts + point)


def sup_outside(f: FunctionEvaluator, radius: float, center=None, *,
                grid: Optional[GridSpec] = None) -> SupEstimate:
    """Upper estimate of sup |f(t)| over ||t - center|| >= radius.

    Envelope-backed when the evaluator carries one, about any center
    (rigorous); otherwise the maximum of the dense samples of `_dense_about`
    at radius >= `radius`, on the grid centred on `center`, which
    lower-bounds the true sup and is flagged heuristic.
    """
    center = _anchor(center, f.dim)
    if _sup_method(f) == SUP_ENVELOPE:
        return SupEstimate(float(_envelope_about(f, center)(radius)), SUP_ENVELOPE)
    radii, vals = _dense_about(f, center, grid)
    outside = radii >= radius
    if not outside.any():
        raise NumericalRefusal("sampling grid does not reach outside the ball")
    return SupEstimate(float(vals[outside].max()), SUP_DENSE)


def _peak(f: FunctionEvaluator, anchor: np.ndarray) -> float:
    """|f(anchor)|, refused when it is 0: then no bound peak/(N-1) is positive."""
    peak = float(_eval_abs(f, anchor)[0])
    if peak == 0.0:
        raise InputError("f vanishes at the anchor")
    return peak


def _radius_below(f: FunctionEvaluator, anchor: np.ndarray, bound: float,
                  grid: Optional[GridSpec]) -> float:
    """Smallest R with sup_{||t - anchor|| >= R} |f(t)| < bound.

    In envelope mode the envelope is read about the anchor by the rule of
    `sup_outside`, whatever its centre, so R is rigorous. Without an envelope
    the dense samples of `_dense_about` are used, as in `sup_outside`, which
    is heuristic and resolves R only to the grid step.
    """
    if _sup_method(f) == SUP_ENVELOPE:
        return _radius_from_envelope(_envelope_about(f, anchor), bound)
    return _radius_from_samples(*_dense_about(f, anchor, grid), bound)


def decay_radius(f: FunctionEvaluator, N: int, anchor=None, *,
                 grid: Optional[GridSpec] = None) -> float:
    """Smallest R with sup_{||t - anchor|| >= R} |f(t)| < |f(anchor)|/(N-1).

    Rigorous from f's envelope, read about the anchor; without one, a
    heuristic dense-sample scan that resolves R only to the grid step (the
    rules of `_radius_below`, which the separation checks share). An f that
    vanishes at the anchor is an InputError.
    """
    N = int(N)
    if N < 2:
        raise InputError("decay_radius requires N >= 2")
    anchor = _anchor(anchor, f.dim)
    return _radius_below(f, anchor, _peak(f, anchor) / (N - 1), grid)


def check_lemma1(f: FunctionEvaluator, shifts: Sequence) -> Certificate:
    """Pointwise separation check on a set of time shifts.

    Certified when |f(x_i - x_j)| < |f(0)|/(N-1) at every ordered pair of
    distinct shifts; the margins carry the slack of each inequality. A single
    nonzero function is vacuously certified.
    """
    S = finite_points(shifts, f.dim, "shifts")
    N = S.shape[0]
    M, _ = _min_pairwise(S)
    peak = _peak(f, np.zeros(f.dim))
    if N == 1:
        return Certificate("Lemma1", "Certified", 1, 0.0, M, peak, math.inf,
                           (), SUP_POINTWISE)
    bound = peak / (N - 1)
    vals = _eval_abs(f, _pair_differences(S))
    margins = tuple(float(bound - v) for v in vals)
    return Certificate("Lemma1", _verdict(margins), N, 0.0, M, peak, bound,
                       margins, SUP_POINTWISE)


def _separation(theorem: str, read_peak: Callable[[], float], rows: np.ndarray,
                radius: Callable[[float], float], sup_method: str,
                axis: str) -> Certificate:
    """Certified when every two rows lie farther apart than radius(bound),
    the radius outside which the function the theorem reads stays below
    bound = peak/(N-1); the margins are the pairwise distances less it.
    `read_peak` runs after the pairwise distances are sized, so a set too
    large for them is refused before f is evaluated.

    A single row is vacuously Certified. Two coinciding rows (M = 0) fail
    whatever the radius, so a radius that cannot be certified then reads 0
    instead of refusing; `axis` names the coordinates in the note saying so.
    """
    N = rows.shape[0]
    M, pair = _min_pairwise(rows)
    peak = read_peak()
    if N == 1:
        return Certificate(theorem, "Certified", 1, 0.0, M, peak,
                           math.inf, (), sup_method)
    bound = peak / (N - 1)
    note = None
    try:
        R = radius(bound)
    except NumericalRefusal:
        if M > 0:
            raise
        R, note = 0.0, f"decay radius not certifiable and min {axis} separation is zero"
    if M == 0.0 and note is None:
        note = f"duplicate {axis} coordinates: min pairwise {axis} separation is zero"
    margins = tuple(float(d - R) for d in pair)
    return Certificate(theorem, _verdict(margins), N, R, M, peak, bound,
                       margins, sup_method, note=note)


def _decay_separation(theorem: str, f: FunctionEvaluator, rows: np.ndarray, axis: str,
                      anchor=None, grid: Optional[GridSpec] = None) -> Certificate:
    """`_separation` of the rows against the decay radius of f about the anchor."""
    if f.singularities:
        raise InputError("this check requires a continuous function; "
                         "use check_theorem2 for singular inputs")
    _shared_dim(f=f.dim, lam=rows.shape[1])
    anchor = _anchor(anchor, f.dim)
    return _separation(theorem, lambda: _peak(f, anchor), rows,
                       lambda bound: _radius_below(f, anchor, bound, grid), _sup_method(f), axis)


def check_theorem1(f: FunctionEvaluator, lam: PointSet, *, anchor=None,
                   grid: Optional[GridSpec] = None) -> Certificate:
    """Time-separation certificate: Certified when min_i!=j ||x_i - x_j|| > R.

    Only the time coordinates of the point set matter. Duplicate time
    coordinates give M = 0 and a NotCertified verdict, never an exception.
    """
    return _decay_separation("Thm1", f, lam.times(), "time", anchor, grid)


def _stretch_budget(cert: Certificate, freq: bool) -> float:
    """M/R of a separation certificate, or R/M with `freq`. No separation
    (M = 0) leaves no stretch: 0, or +inf with `freq`. A radius of 0, as for
    a single point (M = +inf), leaves every stretch: +inf, or 0 with `freq`."""
    if cert.M == 0.0:
        return math.inf if freq else 0.0
    if cert.R == 0.0:
        return 0.0 if freq else math.inf
    return cert.R / cert.M if freq else cert.M / cert.R


def dilation_threshold(f: FunctionEvaluator, lam: PointSet, *,
                       grid: Optional[GridSpec] = None) -> float:
    """Largest stretch budget M/R for the time-side dilation family, with M
    and R those of `check_theorem1(f, lam)`.

    Contract: for every r in (0, M/R), the r-stretched function (realized as
    dilate(f, 1/r), which spreads f out while compressing its decay radius
    proportionally to r) passes check_theorem1 on the same point set. Two
    points with one time (M = 0) leave no such r, and the threshold is 0; a
    single point or a radius of 0 leaves every r, and it is +inf.
    """
    return _stretch_budget(check_theorem1(f, lam, grid=grid), freq=False)


def stretch(f: FunctionEvaluator, r: float) -> FunctionEvaluator:
    """Unitary dilation that spreads f out by factor r (dilate by 1/r).

    This is the parameterization under which the dilation-threshold contract
    reads: certified exactly for r below the threshold (the decay radius of
    the stretched function is r times the original).
    """
    r = float(r)
    if not math.isfinite(r) or r == 0.0:
        raise InputError(f"stretch factor must be finite and nonzero, got {r}")
    return dilate(f, 1.0 / r)


def _dilated(theorem: str, base: Callable[..., Certificate], freq: bool,
             f: FunctionEvaluator, lam: PointSet, r: float,
             grid: Optional[GridSpec]) -> Certificate:
    """The `base` certificate of the r-stretched f, with the stretch
    threshold of the `base` certificate of f attached (`_stretch_budget`,
    on the frequency side with `freq`). The one builder of Corollaries 1
    and 3."""
    thr = _stretch_budget(base(f, lam, grid=grid), freq)
    return replace(base(stretch(f, r), lam, grid=grid), theorem=theorem, threshold_r=thr)


def check_corollary1(f: FunctionEvaluator, lam: PointSet, r: float = 1.0, *,
                     grid: Optional[GridSpec] = None) -> Certificate:
    """Theorem-1 certificate for the r-stretched function, threshold attached."""
    return _dilated("Cor1", check_theorem1, False, f, lam, r, grid)


def check_corollary2(f: FunctionEvaluator, lam: PointSet,
                     grid: Optional[GridSpec] = None) -> Certificate:
    """Frequency-separation certificate: Theorem 1 for fhat on the
    frequencies, the time coordinates of the Fourier-rotated point set
    (omega, -x).

    Because fhat comes from quadrature, its peak and sup estimates are
    dense-sample heuristics.
    """
    return _decay_separation("Cor2", fourier(f, grid), lam.freqs(), "frequency", grid=grid)


def dilation_threshold_freq(f: FunctionEvaluator, lam: PointSet,
                            grid: Optional[GridSpec] = None) -> float:
    """Stretch threshold Rhat/M_omega for the frequency-side dilation family,
    with Rhat and M_omega the R and M of `check_corollary2(f, lam)`.

    Contract: for every r above the returned value, the r-stretched function
    (time spread by r, hence frequency support compressed by 1/r) passes
    check_corollary2 on the same point set. Two points with one frequency
    (M_omega = 0) leave no such r, and the threshold is +inf; a single point
    or a radius of 0 leaves every r, and it is 0.
    """
    return _stretch_budget(check_corollary2(f, lam, grid), freq=True)


def check_corollary3(f: FunctionEvaluator, lam: PointSet, r: float = 1.0,
                     grid: Optional[GridSpec] = None) -> Certificate:
    """Corollary-2 certificate for the r-stretched function, threshold attached."""
    return _dilated("Cor3", check_corollary2, True, f, lam, r, grid)


def check_theorem2(f: FunctionEvaluator, lam: PointSet, *,
                   grid: Optional[GridSpec] = None) -> Certificate:
    """Certificate for functions blowing up at one point p.

    x walks toward p along a halving sequence (`_toward`). A single
    translate is Certified at the first finite nonzero |f(x)|, from
    |x - p| = 1e-3. For N >= 2, with R the min pairwise time separation, A
    bounds the sup of |f| outside the R/2-ball around p (the envelope about
    p, else a dense sample), and the walk from |x - p| = R/4 stops at the
    first |f(x)| > A(N-1) whose re-anchored pointwise Lemma-1 inequalities
    pass. A repeated time gives R = M = 0, a non-finite peak and bound, the
    pairwise time distances as margins and a NotCertified verdict, as for
    check_theorem1.
    """
    if len(f.singularities) != 1:
        raise InputError("check_theorem2 expects exactly one singularity")
    p = f.singularities[0]
    _shared_dim(f=f.dim, lam=lam.dim)
    N = len(lam)
    times = lam.times()
    if N == 1:
        walk, need = _toward(f, p, 2e-3, 60), 0.0
    else:
        R, _ = _min_pairwise(times)
        if R == 0.0:
            # Two coinciding translates: no walk toward p separates them, so
            # nothing is evaluated; R = M = 0 and the peak is unknown.
            return _separation("Thm2", lambda: math.nan, times, lambda bound: 0.0,
                               _sup_method(f), "time")
        bound_outside = sup_outside(f, R / 2.0, p, grid=grid)
        if not math.isfinite(bound_outside.value):
            raise NumericalRefusal("sup bound away from the singularity is infinite")
        walk, need = _toward(f, p, R / 2.0, 500), bound_outside.value * (N - 1)

    for x, val in walk:
        if not val > need:
            continue
        if N == 1:
            return Certificate("Thm2", "Certified", 1, 0.0, math.inf, val,
                               math.inf, (), SUP_POINTWISE, translate_x=x)
        # Consistency: the re-anchored pointwise inequalities must pass.
        try:
            inner = check_lemma1(translate(f, -x), times)
        except NumericalRefusal:
            continue
        if inner.certified:
            return Certificate("Thm2", "Certified", N, R, R, val, val / (N - 1),
                               inner.margins, bound_outside.method, translate_x=x)
    raise NumericalRefusal("no certified translate found along the halving sequence")


def _toward(f: FunctionEvaluator, p: np.ndarray, rho: float, tries: int):
    """(x, |f(x)|) at x = p + rho e_0, rho halved before each of `tries`
    tries; a value that is not finite is skipped. The one walk toward the
    singularity p."""
    e = np.zeros(f.dim)
    e[0] = 1.0
    for _ in range(tries):
        rho *= 0.5
        x = p + rho * e
        with np.errstate(all="ignore"):
            val = float(np.abs(f(x)))
        if math.isfinite(val):
            yield x, val


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
    _shared_dim(f=f.dim, g=g.dim, lam=lam.dim)
    lattice = lattice or THM3_LATTICE
    scanned = stft_envelope is None and f.dim == 1 and len(lam) > 1
    xs = axis_quadrature(lattice)[0] if scanned else ()
    # One scan gives the lattice and, as its one point, <f, g> = V_g f(0).
    values, origin = _STFTScan(f, grid, xs, xs, np.zeros((1, 2 * f.dim))).fields(g)
    field, peak = np.abs(values), abs(complex(origin[0]))
    if not math.isfinite(peak):
        raise NumericalRefusal("<f, g> is not finite on this quadrature grid")
    if peak < 1e-12:
        raise NearOrthogonalError("<f, g> is numerically zero; certificate undefined")

    def radius(bound: float) -> float:
        if stft_envelope is not None:
            return _radius_from_envelope(stft_envelope, bound)
        if not scanned:
            raise NumericalRefusal(
                "lattice scan is implemented for dimension 1; supply stft_envelope")
        if not np.isfinite(field).all():
            raise NumericalRefusal("|V_g f| is not finite on the scanned lattice")
        if (field[[0, -1]] >= bound).any() or (field[:, [0, -1]] >= bound).any():
            raise NumericalRefusal(
                "|V_g f| >= |<f, g>|/(N-1) on the edge of the scanned lattice, "
                "so the radius is not resolved; widen the lattice")
        radii = np.hypot(*np.meshgrid(xs, xs, indexing="ij"))
        violating = radii[field >= bound]
        R0 = float(violating.max()) if violating.size else 0.0
        return R0 + lattice.step * math.sqrt(2.0)

    return _separation("Thm3", lambda: peak, lam.rows, radius,
                       SUP_ENVELOPE if stft_envelope is not None else SUP_DENSE,
                       "time-frequency")
