"""Command-line front end: config ingestion, checker/oracle subcommands,
reproduction recipes, and machine-readable output.

Exit codes: 0 success (Certified / Independent / achieved / reproduction
passed / residual within bound), 1 input error, 2 numerical refusal,
3 negative verdict, 4 inconclusive. Reports are JSON documents with a
`schema` field; CSV output is available only for flat reports (search
traces, scan tables, oracle matrices). Runs are reproducible: identical
config and seed give byte-identical output under --no-meta.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .certify import (check_corollary1, check_corollary2, check_corollary3,
                      check_lemma1, check_theorem1, check_theorem2,
                      check_theorem3, dilation_threshold, stretch)
from .errors import InputError, NumericalRefusal, convert
from .funcs import FamilySpec, make_example1, make_example2, make_gaussian
from .oracle import (collocation_rank, default_collocation_points,
                     dependence_residual_er, er_lattice, gram_matrix,
                     metaplectic_residual, stft_identity_residual)
from .tfops import GridSpec, PointSet, stft
from .windowsearch import search as window_search

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSED = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4

SCHEMA_VERSION = 1

_GRID_FIELDS = {"half_width": float, "samples_per_axis": int, "exclusion_radius": float}

_ALLOWED_KEYS = {
    ("certify", "lemma1"): {"dimension", "function", "grid", "shifts"},
    ("certify", "thm1"): {"dimension", "function", "grid", "lambda", "anchor"},
    ("certify", "cor1"): {"dimension", "function", "grid", "lambda", "r"},
    ("certify", "cor2"): {"dimension", "function", "grid", "lambda"},
    ("certify", "cor3"): {"dimension", "function", "grid", "lambda", "r"},
    ("certify", "thm2"): {"dimension", "function", "grid", "lambda"},
    ("certify", "thm3"): {"dimension", "function", "grid", "lambda", "window", "lattice"},
    ("oracle", "gram"): {"dimension", "function", "grid", "lambda"},
    ("oracle", "collocation"): {"dimension", "function", "grid", "lambda", "sample_points"},
    ("oracle", "er-residual"): {"er"},
    ("oracle", "stft-identity"): {"dimension", "function", "window", "grid", "lattice", "u", "eta"},
    ("oracle", "metaplectic"): {"dimension", "function", "grid", "kind", "r", "x", "omega", "sample_points"},
    ("window-search", None): {"dimension", "function", "grid", "lattice", "R", "N", "degree", "budget", "seed"},
}


def _load_config(path: str, command: str, sub: str | None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    allowed = _ALLOWED_KEYS[(command, sub)]
    extra = set(cfg) - allowed
    if extra:
        raise InputError(f"unknown config keys for {command} {sub or ''}: {sorted(extra)}")
    return cfg


def _grid_from(cfg: dict, key: str = "grid", dim: int = 1,
               fallback: GridSpec | None = None) -> GridSpec:
    base = fallback or GridSpec.default(dim)
    obj = cfg.get(key)
    if obj is None:
        return base
    if not isinstance(obj, dict):
        raise InputError(f"{key} must be a JSON object")
    extra = set(obj).difference(_GRID_FIELDS)
    if extra:
        raise InputError(f"unknown {key} keys: {sorted(extra)}")
    return GridSpec(**{name: convert(kind, obj.get(name, getattr(base, name)), f"{key}.{name}")
                       for name, kind in _GRID_FIELDS.items()})


def _function_from(cfg: dict, key: str = "function", default: dict | None = None):
    obj = cfg.get(key, default)
    if obj is None:
        raise InputError(f"config requires a {key!r} object")
    return FamilySpec.from_json(obj).build()


def _pointset_from(cfg: dict, dim: int) -> PointSet:
    rows = cfg.get("lambda")
    if rows is None:
        raise InputError("config requires a 'lambda' list of [x..., omega...] rows")
    ps = PointSet.from_rows(rows, dim=dim)
    return ps


def _dimension_of(cfg: dict, f) -> int:
    dim = convert(int, cfg.get("dimension", f.dim), "dimension")
    if dim != f.dim:
        raise InputError(f"config dimension {dim} does not match function dimension {f.dim}")
    return dim


def _verdict_exit(verdict: str) -> int:
    return {"Certified": EXIT_OK, "NotCertified": EXIT_NEGATIVE,
            "Independent": EXIT_OK, "Dependent": EXIT_NEGATIVE,
            "Inconclusive": EXIT_INCONCLUSIVE}[verdict]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify(args) -> tuple[dict, int, list | None]:
    cfg = _load_config(args.config, "certify", args.theorem)
    f = _function_from(cfg)
    dim = _dimension_of(cfg, f)
    grid = _grid_from(cfg, dim=dim)
    rigorous = args.rigorous

    if args.theorem == "lemma1":
        shifts = cfg.get("shifts")
        if shifts is None:
            raise InputError("lemma1 config requires a 'shifts' list")
        cert = check_lemma1(f, shifts)
    elif args.theorem == "thm1":
        lam = _pointset_from(cfg, dim)
        cert = check_theorem1(f, lam, anchor=cfg.get("anchor"), grid=grid,
                              require_envelope=rigorous)
    elif args.theorem == "cor1":
        lam = _pointset_from(cfg, dim)
        cert = check_corollary1(f, lam, r=convert(float, cfg.get("r", 1.0), "r"), grid=grid,
                                require_envelope=rigorous)
    elif args.theorem == "cor2":
        if rigorous:
            raise NumericalRefusal(
                "cor2 sup estimates come from quadrature sampling; no rigorous mode")
        lam = _pointset_from(cfg, dim)
        cert = check_corollary2(f, lam, grid)
    elif args.theorem == "cor3":
        if rigorous:
            raise NumericalRefusal(
                "cor3 sup estimates come from quadrature sampling; no rigorous mode")
        lam = _pointset_from(cfg, dim)
        cert = check_corollary3(f, lam, r=convert(float, cfg.get("r", 1.0), "r"), grid=grid)
    elif args.theorem == "thm2":
        if rigorous and f.envelope is None:
            raise NumericalRefusal("rigorous mode requires a decay envelope")
        lam = _pointset_from(cfg, dim)
        cert = check_theorem2(f, lam, grid=grid)
    else:  # thm3
        if rigorous:
            raise NumericalRefusal(
                "thm3 rigorous mode needs an analytic STFT envelope, which the "
                "config format cannot carry; use the library API")
        lam = _pointset_from(cfg, dim)
        g = _function_from(cfg, "window", default={"family": "gaussian"})
        lattice = _grid_from(cfg, "lattice", dim, fallback=GridSpec(8.0, 128))
        cert = check_theorem3(f, g, lam, grid, lattice)

    return {"report": cert.to_json()}, _verdict_exit(cert.verdict), None


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _matrix_csv(matrix: np.ndarray) -> list:
    header = []
    for j in range(matrix.shape[1]):
        header += [f"re_{j}", f"im_{j}"]
    rows = [header]
    for row in matrix:
        flat = []
        for v in row:
            flat += [repr(float(v.real)), repr(float(v.imag))]
        rows.append(flat)
    return rows


def _cmd_oracle(args) -> tuple[dict, int, list | None]:
    cfg = _load_config(args.config, "oracle", args.test)

    if args.test == "er-residual":
        er = cfg.get("er", {})
        extra = set(er) - {"half_width", "step", "quad_tol"}
        if extra:
            raise InputError(f"unknown er keys: {sorted(extra)}")
        quad_tol = convert(float, er.get("quad_tol", 1e-9), "er.quad_tol")
        lattice = er_lattice(convert(float, er.get("half_width", 3.0), "er.half_width"),
                             convert(float, er.get("step", 0.25), "er.step"))
        rep = dependence_residual_er(lattice, quad_tol)
        code = EXIT_OK if rep.max_abs_residual <= 6.0 * quad_tol else EXIT_NEGATIVE
        body = rep.to_json()
        body["bound"] = 6.0 * quad_tol
        body["lattice_points"] = int(lattice.shape[0])
        return {"report": body}, code, None

    f = _function_from(cfg)
    dim = _dimension_of(cfg, f)
    grid = _grid_from(cfg, dim=dim)

    if args.test == "gram":
        lam = _pointset_from(cfg, dim)
        rep = gram_matrix(f, lam, grid)
        return {"report": rep.to_json()}, _verdict_exit(rep.verdict), \
            _matrix_csv(rep.matrix)
    if args.test == "collocation":
        lam = _pointset_from(cfg, dim)
        pts = cfg.get("sample_points")
        if pts is None:
            pts = default_collocation_points(f, lam, grid)
        rep = collocation_rank(f, lam, pts)
        return {"report": rep.to_json()}, _verdict_exit(rep.verdict), \
            _matrix_csv(rep.matrix)
    if args.test == "stft-identity":
        g = _function_from(cfg, "window", default={"family": "gaussian"})
        lattice = _grid_from(cfg, "lattice", dim, fallback=GridSpec(3.0, 33))
        rep = stft_identity_residual(f, g, cfg.get("u", 0.0), cfg.get("eta", 0.0),
                                     lattice, grid)
        return {"report": rep.to_json()}, EXIT_OK, None

    # metaplectic
    kind = cfg.get("kind")
    if kind is None:
        raise InputError("metaplectic config requires a 'kind'")
    params = tuple(convert(float, cfg.get(k, d), k)
                   for k, d in (("r", 1.0), ("x", 0.0), ("omega", 0.0)))
    reports = metaplectic_residual(kind, params, f, cfg.get("sample_points"), grid)
    body = {name: rep.to_json() for name, rep in reports.items()}
    return {"report": body}, EXIT_OK, None


# ---------------------------------------------------------------------------
# window-search
# ---------------------------------------------------------------------------

def _cmd_window_search(args) -> tuple[dict, int, list | None]:
    cfg = _load_config(args.config, "window-search", None)
    f = _function_from(cfg)
    dim = _dimension_of(cfg, f)
    grid = _grid_from(cfg, dim=dim)
    lattice = _grid_from(cfg, "lattice", dim, fallback=GridSpec(8.0, 81))
    seed = args.seed if args.seed is not None else convert(int, cfg.get("seed", 0), "seed")
    result = window_search(
        f, R=convert(float, cfg.get("R"), "R"), N=convert(int, cfg.get("N"), "N"),
        d=convert(int, cfg.get("degree", 0), "degree"),
        budget=convert(int, cfg.get("budget", 200), "budget"),
        seed=seed, lattice=lattice, grid=grid)
    rows = [["step", "width"]
            + [f"c{k}" for k in range(len(result.best_params.hermite_coeffs))]
            + ["ratio"]]
    for i, (p, r) in enumerate(result.trace):
        rows.append([i, p.width] + [float(v) for v in p.hermite_coeffs] + [r])
    code = EXIT_OK if result.achieved else EXIT_NEGATIVE
    return {"report": result.to_json()}, code, rows


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _item(check: str, computed: dict, claimed: dict, passed: bool,
          note: str | None = None) -> dict:
    out = {"check": check, "computed": computed, "claimed": claimed,
           "pass": bool(passed)}
    if note:
        out["note"] = note
    return out


def _reproduce_example1() -> list:
    items = []
    f = make_example1(8.0, 5.0)
    lam = PointSet.from_rows([[0, 0], [1, 1], [2, 2], [3, 3]])
    cert = check_theorem1(f, lam)
    items.append(_item(
        "separated_times_criterion",
        {"verdict": cert.verdict, "R": cert.R, "M": cert.M},
        {"criterion": "independent when C exceeds (N-1)/M", "C": 8.0,
         "threshold_C": 3.0, "R": 3.0 / 8.0},
        cert.certified and abs(cert.R - 0.375) < 1e-6))

    s2 = math.sqrt(2.0)
    lam4 = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [s2, s2]])
    lit = check_theorem1(f, lam4)
    times = lam4.times()[:, 0]
    diffs = [abs(times[i] - times[j]) for i in range(4) for j in range(i + 1, 4)]
    nonzero_min = min(d for d in diffs if d > 0)
    implied = 3.0 / (s2 - 1.0)
    items.append(_item(
        "four_point_set_literal_hypothesis",
        {"verdict": lit.verdict, "M_literal": lit.M,
         "min_nonzero_time_separation": nonzero_min,
         "threshold_C_under_nonzero_reading": 3.0 / nonzero_min},
        {"claimed_threshold_C": implied},
        lit.verdict == "NotCertified" and lit.M == 0.0,
        note=("discrepancy documented: two points share time coordinate 0, so the "
              "literal minimum pairwise time separation is 0 and the separation "
              "hypothesis fails; the claimed threshold presupposes the minimum "
              "over distinct time values, under which the computed threshold "
              "matches the claimed one")))
    return items


def _reproduce_example2() -> list:
    f = make_example2(0.0)
    lam = PointSet.from_rows([[0, 0], [2, 0], [4, 0], [6, 1]])
    cert = check_theorem2(f, lam)
    x = float(cert.translate_x[0])
    return [_item(
        "singular_translate_construction",
        {"verdict": cert.verdict, "x": x, "peak": cert.peak},
        {"bound_on_x": 1.0 / 81.0,
         "derivation": "need |x|^(-1/4) to exceed 3 with sup bound A = 1"},
        cert.certified and abs(x) < 1.0 / 81.0)]


def _reproduce_er() -> list:
    quad_tol = 1e-9
    rep = dependence_residual_er(er_lattice(3.0, 0.25), quad_tol)
    return [_item(
        "five_term_dependence",
        {"max_abs_residual": rep.max_abs_residual},
        {"tolerance": 1e-6, "quadrature_bound": 6.0 * quad_tol},
        rep.max_abs_residual < 1e-6)]


def _reproduce_gaussian_stft() -> list:
    g = make_gaussian(1)
    env = lambda r: math.exp(-math.pi * r * r / 2.0)
    worst = 0.0
    for (x, w) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        got = abs(stft(g, g, (x, w)))
        worst = max(worst, abs(got - env(math.hypot(x, w))))
    s2 = math.sqrt(2.0)
    lam = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [s2, s2]])
    cert = check_theorem3(g, g, lam, stft_envelope=env)
    expected_R = math.sqrt(2.0 * math.log(3.0) / math.pi)
    items = [
        _item("stft_magnitude_matches_envelope",
              {"max_abs_error": worst}, {"tolerance": 1e-6}, worst < 1e-6),
        _item("radius_for_four_points",
              {"R": cert.R}, {"R": expected_R, "tolerance": 1e-3},
              abs(cert.R - expected_R) <= 1e-3),
        _item("four_point_set_certificate",
              {"verdict": cert.verdict, "M": cert.M},
              {"verdict": "Certified", "M": 1.0},
              cert.certified and abs(cert.M - 1.0) < 1e-12),
    ]
    return items


def _reproduce_dilation_scan() -> tuple[list, list]:
    g = make_gaussian(1)
    lam = PointSet.from_rows([[0, 0], [1, 0], [2, 0]])
    thr = dilation_threshold(g, lam)
    expected = 1.0 / math.sqrt(math.log(2.0) / math.pi)
    rs = [2.0 * thr * k / 21.0 for k in range(1, 21)]
    rows = [["r", "verdict", "R", "M"]]
    mismatches = 0
    step = rs[1] - rs[0]
    scan = []
    for r in rs:
        cert = check_theorem1(stretch(g, r), lam)
        predicted = "Certified" if r < thr else "NotCertified"
        ok = (cert.verdict == predicted) or (abs(r - thr) <= step)
        mismatches += 0 if ok else 1
        rows.append([r, cert.verdict, cert.R, cert.M])
        scan.append({"r": r, "verdict": cert.verdict, "predicted": predicted})
    items = [
        _item("threshold_value", {"threshold": thr},
              {"threshold": expected, "decimal": 2.1290, "tolerance": 1e-3},
              abs(thr - expected) <= 1e-3),
        _item("scan_matches_threshold",
              {"points": scan}, {"rule": "certified exactly below the threshold"},
              mismatches == 0),
    ]
    return items, rows


def _cmd_reproduce(args) -> tuple[dict, int, list | None]:
    rows = None
    if args.name == "example1":
        items = _reproduce_example1()
    elif args.name == "example2":
        items = _reproduce_example2()
    elif args.name == "er_dependence":
        items = _reproduce_er()
    elif args.name == "gaussian_stft":
        items = _reproduce_gaussian_stft()
    else:
        items, rows = _reproduce_dilation_scan()
    all_pass = all(it["pass"] for it in items)
    payload = {"report": {"name": args.name, "items": items, "all_pass": all_pass}}
    return payload, EXIT_OK if all_pass else EXIT_NEGATIVE, rows


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcert",
        description="Numerical independence certificates for time-frequency translates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--rigorous", action="store_true",
                       help="require analytic envelopes (refuse heuristic sups)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-meta", action="store_true",
                       help="omit timestamps for byte-identical reruns")

    p = sub.add_parser("certify", help="run a sufficient-condition checker")
    p.add_argument("theorem", choices=("lemma1", "thm1", "cor1", "cor2", "cor3",
                                       "thm2", "thm3"))
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("oracle", help="run an independent numerical test")
    p.add_argument("test", choices=("gram", "collocation", "er-residual",
                                    "stft-identity", "metaplectic"))
    common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("window-search", help="search for a window meeting the tail target")
    common(p)
    p.set_defaults(handler=_cmd_window_search)

    p = sub.add_parser("reproduce", help="run a pinned reproduction recipe")
    p.add_argument("name", choices=("example1", "example2", "er_dependence",
                                    "gaussian_stft", "dilation_scan"))
    common(p, needs_config=False)
    p.set_defaults(handler=_cmd_reproduce)
    return parser


def _emit(payload: dict, args, csv_rows) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise InputError("csv output is limited to flat reports "
                             "(search traces, scans, oracle matrices)")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        payload = dict(payload)
        payload["schema"] = SCHEMA_VERSION
        payload["command"] = " ".join(
            s for s in (args.command, getattr(args, "theorem", None),
                        getattr(args, "test", None), getattr(args, "name", None)) if s)
        if not args.no_meta:
            payload["meta"] = {
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "package_version": __version__,
            }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code, csv_rows = args.handler(args)
        _emit(payload, args, csv_rows)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
