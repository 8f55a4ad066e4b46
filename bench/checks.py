"""Correctness checks for one op's outcome, against mathematics.

An op fails when an exception escapes `cli.main`, when the exit code is
outside 0-4 or contradicts the report, when the report breaks an invariant
(Certified needs every margin > 0, search traces are nonincreasing within
budget, the five-term residual stays within 6 quad_tol, recipes pass), or
when it misses a closed form the inputs have, within the stated resolution.
Today's output is never the reference, so a correctness fix cannot count as
a failure. A repeated op must also reproduce its report byte for byte; that
check lives in the harness, which sees every repetition.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Default grids from the configs the workloads generate (no "grid" key).
GRID_STEP = 2.0 * 8.0 / (4096 - 1)
THM3_LATTICE_STEP = 2.0 * 8.0 / (128 - 1)
# Gaussian integrands are resolved to round-off by the default trapezoid
# rule; these tolerances sit many orders above it and far below any real error.
SMOOTH_TOL = 1e-9
BISECT_TOL = 1e-8

_VERDICT_EXIT = {"Certified": 0, "NotCertified": 3, "Independent": 0,
                 "Dependent": 3, "Inconclusive": 4}


def gauss_radius(N: int, scale: float = 1.0) -> float:
    """Radius where scale * e^{-pi r^2} (peak at scale 1) drops to 1/(N-1)."""
    return math.sqrt(scale * math.log(N - 1) / math.pi) if N > 2 else 0.0


def _close(got, want: float, tol: float) -> bool:
    return got is not None and abs(got - want) <= tol


def _certificate(rep: dict, code: int, out: list) -> None:
    margins = rep.get("margins", [])
    positive = all(m is not None and m > 0 for m in margins)
    if rep["verdict"] == "Certified" and not positive:
        out.append("Certified with a margin <= 0")
    if rep["verdict"] == "NotCertified" and positive:
        out.append("NotCertified although every margin is > 0")
    if code != _VERDICT_EXIT[rep["verdict"]]:
        out.append(f"exit {code} contradicts verdict {rep['verdict']}")


def _abs_example1(C: float, omega: float, t: float) -> float:
    return abs(C * math.cos(omega * t)) if abs(t) < 1.0 / C else \
        abs(math.cos(omega * t)) / abs(t)


def _gaussian_gram(rows: list, dim: int) -> np.ndarray:
    """Closed-form Gram matrix of TF shifts of the unit Gaussian in R^dim."""
    pts = np.asarray(rows, dtype=float).reshape(-1, 2 * dim)
    x, w = pts[:, :dim], pts[:, dim:]
    dx = x[:, None, :] - x[None, :, :]
    dw = w[:, None, :] - w[None, :, :]
    mid = 0.5 * (x[:, None, :] + x[None, :, :])
    phase = np.exp(2j * np.pi * np.sum(dw * mid, axis=2))
    return phase * np.exp(-0.5 * np.pi * np.sum(dx * dx + dw * dw, axis=2))


def _check_certify(op, rep: dict, code: int, out: list) -> None:
    _certificate(rep, code, out)
    facts, cfg = op.facts, op.config
    fam, N, R = facts.get("family"), facts.get("N"), rep.get("R")
    theorem = op.kind.split()[1]
    if theorem == "cor2" and fam == "gaussian":
        if not _close(R, gauss_radius(N), GRID_STEP):
            out.append(f"cor2 R={R} misses sqrt(ln(N-1)/pi)={gauss_radius(N)} by more than one grid step")
    elif theorem == "cor3" and fam == "gaussian":
        want = gauss_radius(N) / facts["r"]
        if not _close(R, want, GRID_STEP):
            out.append(f"cor3 R={R} misses sqrt(ln(N-1)/pi)/r={want} by more than one grid step")
    elif theorem == "thm1":
        want = gauss_radius(N) if fam == "gaussian" else (N - 1) / facts["C"]
        if not _close(R, want, BISECT_TOL * max(1.0, want)):
            out.append(f"thm1 R={R} misses the envelope radius {want}")
    elif theorem == "cor1":
        base = gauss_radius(N) if fam == "gaussian" else (N - 1) / facts["C"]
        r = facts["r"]
        # The stretched envelope is env(rho / r), so its radius and the float64
        # resolution of that radius (flat peak: R = 0 reads as ~1e-8) scale by r.
        if not _close(R, r * base, r * BISECT_TOL * max(1.0, base)):
            out.append(f"cor1 R={R} misses r * envelope radius {r * base}")
        times = [row[0] for row in cfg["lambda"]]
        M = min(abs(a - b) for k, a in enumerate(times) for b in times[k + 1:])
        thr = rep.get("threshold_r")
        if base == 0.0 and thr is not None:
            out.append(f"cor1 threshold {thr} for a zero decay radius (want none)")
        if base > 0.0 and not _close(thr, M / base, 1e-7 * M / base):
            out.append(f"cor1 threshold {thr} misses M/R={M / base}")
    elif theorem == "lemma1":
        shifts = cfg["shifts"]
        if fam == "gaussian":
            f = lambda t: 2.0 ** 0.25 * math.exp(-math.pi * t * t)
        else:
            f = lambda t: _abs_example1(facts["C"], facts["omega"], t)
        bound = f(0.0) / (len(shifts) - 1)
        want = [bound - f(a - b) for a in shifts for b in shifts if a != b]
        got = rep["margins"]
        if len(got) != len(want) or any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            out.append("lemma1 margins miss bound - |f(x_i - x_j)|")
    elif theorem == "thm3" and fam == "gaussian":
        # |V_g g| = e^{-pi r^2 / 2}; the scan inflates by one lattice diagonal.
        want = gauss_radius(N, 2.0)
        if R is None or not want - SMOOTH_TOL <= R <= want + math.sqrt(2.0) * THM3_LATTICE_STEP + SMOOTH_TOL:
            out.append(f"thm3 R={R} outside [{want}, {want} + lattice diagonal]")
        if not _close(rep.get("peak"), 1.0, SMOOTH_TOL):
            out.append(f"thm3 peak {rep.get('peak')} is not |<g, g>| = 1")


def _check_oracle(op, rep: dict, code: int, out: list) -> None:
    test = op.kind.split()[1]
    facts = op.facts
    if test in ("gram", "collocation"):
        if code != _VERDICT_EXIT[rep["verdict"]]:
            out.append(f"exit {code} contradicts verdict {rep['verdict']}")
        if test == "gram" and facts.get("family") == "gaussian":
            eigs = np.linalg.eigvalsh(_gaussian_gram(op.config["lambda"], facts["dim"]))
            if not (abs(rep["sigma_max"] - eigs[-1]) <= SMOOTH_TOL
                    and abs(rep["sigma_min"] - max(eigs[0], 0.0)) <= SMOOTH_TOL):
                out.append("gram eigenvalues miss the closed-form Gaussian Gram matrix")
    elif test == "er-residual":
        quad_tol = op.config["er"]["quad_tol"]
        if not rep["max_abs_residual"] <= 6.0 * quad_tol:
            out.append(f"five-term residual {rep['max_abs_residual']} exceeds 6 quad_tol")
        if code != 0:
            out.append(f"exit {code} for a residual within its bound")
    elif test == "stft-identity":
        if code != 0:
            out.append(f"exit {code} for a residual report")
        if facts.get("family") == "gaussian" and not rep["max_abs_residual"] <= SMOOTH_TOL:
            out.append(f"STFT covariance residual {rep['max_abs_residual']} for a Gaussian")
    elif test == "metaplectic":
        if code != 0:
            out.append(f"exit {code} for a residual report")
        std = rep["standard"]["max_abs_residual"]
        if facts.get("family") == "gaussian" and not std <= SMOOTH_TOL:
            out.append(f"standard Fourier-multiplier covariance residual {std} for a Gaussian")


def _check_search(op, rep: dict, code: int, out: list) -> None:
    ratios = [step["ratio"] for step in rep["trace"]]
    if any(b > a for a, b in zip(ratios, ratios[1:])):
        out.append("search trace is not nonincreasing")
    if not 1 <= rep["evaluations"] <= op.facts["budget"]:
        out.append(f"{rep['evaluations']} evaluations for budget {op.facts['budget']}")
    if not ratios or ratios[-1] != rep["ratio"]:
        out.append("reported ratio is not the last trace entry")
    if abs(rep["target"] - 1.0 / op.facts["N"]) > 1e-15:
        out.append(f"target {rep['target']} is not 1/N")
    if rep["achieved"] != (rep["ratio"] < rep["target"]):
        out.append("achieved flag contradicts ratio < target")
    if code != (0 if rep["achieved"] else 3):
        out.append(f"exit {code} contradicts achieved={rep['achieved']}")


def check(op, code, text: str | None, error: str | None) -> list:
    """Failure reasons for one op outcome; an empty list means it passed."""
    if error is not None:
        return [f"exception escaped cli.main: {error}"]
    if code not in range(5):
        return [f"exit code {code} outside 0-4"]
    if code == 1:
        return ["input error on a valid generated config"]
    if code == 2:
        return []  # numerical refusal: a legitimate answer with no report
    if text is None:
        return [f"exit {code} without a report"]
    rep = json.loads(text)["report"]
    out: list = []
    head = op.kind.split()[0]
    if head == "certify":
        _check_certify(op, rep, code, out)
    elif head == "oracle":
        _check_oracle(op, rep, code, out)
    elif head == "window-search":
        _check_search(op, rep, code, out)
    else:
        if not rep["all_pass"]:
            out.append("reproduction recipe does not pass")
        if code != 0:
            out.append(f"exit {code} for reproduction all_pass={rep['all_pass']}")
    return out
