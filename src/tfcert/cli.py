"""Command-line front end: config ingestion, checker/oracle subcommands,
reproduction recipes, and machine-readable output.

Exit codes: 0 success (Certified / Independent / achieved / reproduction
passed / residual within bound), 1 input error, 2 numerical refusal,
3 negative verdict, 4 inconclusive. Reports are JSON documents with a
`schema` field. A handler returns its report objects, and the payload is
written by one rule, `tfops.report_json`, so every report is strict JSON.
CSV output is available only for flat reports (search traces, scan tables,
oracle matrices), whose rows a handler returns as a function, called only
under `--format csv`. Runs are reproducible: an identical config gives
byte-identical output under --no-meta. A `window-search` config may carry a
`seed`, which is accepted and not read: the search is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .certify import (SUP_DENSE, THM3_LATTICE, check_corollary1, check_corollary2,
                      check_corollary3, check_lemma1, check_theorem1,
                      check_theorem2, check_theorem3, dilation_threshold,
                      stretch)
from .errors import InputError, NumericalRefusal, convert
from .funcs import ER_QUAD_TOL, FamilySpec, make_example1, make_example2, make_gaussian
from .oracle import (STFT_IDENTITY_LATTICE, collocation_rank,
                     default_collocation_points, dependence_residual_er,
                     er_lattice, gram_matrix, metaplectic_residual,
                     stft_identity_residual)
from .tfops import GridSpec, PointSet, report_json, stft_points
from .windowsearch import SEARCH_LATTICE, search as window_search

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSED = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4

SCHEMA_VERSION = 1

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
    # "seed" is accepted and not read: configs written for the seeded search carry it.
    ("window-search", None): {"dimension", "function", "grid", "lattice", "R", "N", "degree", "budget", "seed"},
}


def _subcommands(command: str) -> tuple:
    """The subcommands of `command`, in the order `_ALLOWED_KEYS` lists them."""
    return tuple(sub for cmd, sub in _ALLOWED_KEYS if cmd == command)


def _load_config(path: str, command: str, sub: str | None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        # not JSON, not UTF-8, an integer past Python's digit limit, or
        # nested past the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:
            raise InputError(str(exc)) from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    allowed = _ALLOWED_KEYS[(command, sub)]
    extra = set(cfg) - allowed
    if extra:
        raise InputError(f"unknown config keys for {command} {sub or ''}: {sorted(extra)}")
    _refuse_booleans(cfg)
    return cfg


def _refuse_booleans(cfg: dict) -> None:
    """No config field takes a boolean, so a `true` or `false` anywhere in
    the document, a point list included, is an input error naming its path.
    Iterative, so a document as deep as JSON reads is walked."""
    stack = list(cfg.items())
    while stack:
        path, value = stack.pop()
        if isinstance(value, bool):
            raise InputError(f"{path} is {str(value).lower()}; no config field takes a boolean")
        if isinstance(value, dict):
            stack.extend((f"{path}.{key}", v) for key, v in value.items())
        elif isinstance(value, list):
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(value))


def _section(cfg: dict, key: str, defaults: dict) -> dict:
    """The JSON object `cfg[key]` as one value per key of `defaults`.

    Each value is converted to the type of its default, which stands in for
    an absent key or section. A section that is not an object, and unknown
    keys, are input errors.
    """
    obj = cfg.get(key, {})
    if not isinstance(obj, dict):
        raise InputError(f"{key} must be a JSON object")
    extra = set(obj).difference(defaults)
    if extra:
        raise InputError(f"unknown {key} keys: {sorted(extra)}")
    return {name: convert(type(d), obj.get(name, d), f"{key}.{name}")
            for name, d in defaults.items()}


def _grid_from(cfg: dict, dim: int) -> GridSpec | None:
    """The config's `grid`, its absent keys taken from the default grid of
    `dim`; None without a `grid` section, so the library picks its default."""
    if "grid" not in cfg:
        return None
    base = GridSpec.default(dim)
    return GridSpec(**_section(cfg, "grid", {
        "half_width": base.half_width, "samples_per_axis": base.samples_per_axis,
        "exclusion_radius": base.exclusion_radius}))


def _lattice_from(cfg: dict, default: GridSpec) -> GridSpec:
    return GridSpec(**_section(cfg, "lattice", {
        "half_width": default.half_width, "samples_per_axis": default.samples_per_axis}))


def _function_from(cfg: dict, key: str = "function", default: dict | None = None):
    obj = cfg.get(key, default)
    if obj is None:
        raise InputError(f"config requires a {key!r} object")
    return FamilySpec.from_json(obj).build()


def _window_from(cfg: dict, dim: int):
    """The config's `window`, by default the Gaussian of dimension `dim`."""
    return _function_from(cfg, "window", {"family": "gaussian", "params": {"n": dim}})


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

def _cmd_certify(args) -> tuple[dict, int, Callable[[], list] | None]:
    cfg = _load_config(args.config, "certify", args.theorem)
    f = _function_from(cfg)
    dim = _dimension_of(cfg, f)
    grid = _grid_from(cfg, dim=dim)
    lam = None if args.theorem == "lemma1" else _pointset_from(cfg, dim)
    if args.theorem == "lemma1":
        shifts = cfg.get("shifts")
        if shifts is None:
            raise InputError("lemma1 config requires a 'shifts' list")
        cert = check_lemma1(f, shifts)
    elif args.theorem == "thm1":
        cert = check_theorem1(f, lam, anchor=cfg.get("anchor"), grid=grid)
    elif args.theorem in ("cor1", "cor3"):
        check = check_corollary1 if args.theorem == "cor1" else check_corollary3
        cert = check(f, lam, r=convert(float, cfg.get("r", 1.0), "r"), grid=grid)
    elif args.theorem == "cor2":
        cert = check_corollary2(f, lam, grid)
    elif args.theorem == "thm2":
        cert = check_theorem2(f, lam, grid=grid)
    else:  # thm3
        cert = check_theorem3(f, _window_from(cfg, dim), lam, grid,
                              _lattice_from(cfg, THM3_LATTICE))

    # Under --rigorous a certificate stands only on a rigorous sup: the
    # certificate says how its sup was proven.
    if args.rigorous and cert.sup_method == SUP_DENSE:
        raise NumericalRefusal(
            f"{args.theorem} has no rigorous mode here: its sup would come from "
            "dense sampling, not an analytic envelope")
    return {"report": cert}, _verdict_exit(cert.verdict), None


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


def _cmd_oracle(args) -> tuple[dict, int, Callable[[], list] | None]:
    cfg = _load_config(args.config, "oracle", args.test)

    if args.test == "er-residual":
        er = _section(cfg, "er", {"half_width": 3.0, "step": 0.25, "quad_tol": ER_QUAD_TOL})
        quad_tol = er["quad_tol"]
        lattice = er_lattice(er["half_width"], er["step"])
        rep = dependence_residual_er(lattice, quad_tol)
        code = EXIT_OK if rep.max_abs_residual <= 6.0 * quad_tol else EXIT_NEGATIVE
        body = asdict(rep) | {"bound": 6.0 * quad_tol, "lattice_points": lattice.shape[0]}
        return {"report": body}, code, None

    f = _function_from(cfg)
    dim = _dimension_of(cfg, f)
    grid = _grid_from(cfg, dim=dim)

    if args.test == "gram":
        lam = _pointset_from(cfg, dim)
        rep = gram_matrix(f, lam, grid)
        return {"report": rep}, _verdict_exit(rep.verdict), lambda: _matrix_csv(rep.matrix)
    if args.test == "collocation":
        lam = _pointset_from(cfg, dim)
        pts = cfg.get("sample_points")
        if pts is None:
            pts = default_collocation_points(f, lam, grid)
        rep = collocation_rank(f, lam, pts)
        return {"report": rep}, _verdict_exit(rep.verdict), lambda: _matrix_csv(rep.matrix)
    if args.test == "stft-identity":
        lattice = _lattice_from(cfg, STFT_IDENTITY_LATTICE)
        rep = stft_identity_residual(f, _window_from(cfg, dim), cfg.get("u", 0.0),
                                     cfg.get("eta", 0.0), lattice, grid)
        return {"report": rep}, EXIT_OK, None

    # metaplectic
    kind = cfg.get("kind")
    if kind is None:
        raise InputError("metaplectic config requires a 'kind'")
    params = tuple(convert(float, cfg.get(k, d), k)
                   for k, d in (("r", 1.0), ("x", 0.0), ("omega", 0.0)))
    rep = metaplectic_residual(kind, params, f, cfg.get("sample_points"), grid)
    return {"report": {"standard": rep}}, EXIT_OK, None


# ---------------------------------------------------------------------------
# window-search
# ---------------------------------------------------------------------------

def _cmd_window_search(args) -> tuple[dict, int, Callable[[], list] | None]:
    cfg = _load_config(args.config, "window-search", None)
    f = _function_from(cfg)
    dim = _dimension_of(cfg, f)
    grid = _grid_from(cfg, dim=dim)
    lattice = _lattice_from(cfg, SEARCH_LATTICE)
    result = window_search(
        f, R=convert(float, cfg.get("R"), "R"), N=convert(int, cfg.get("N"), "N"),
        d=convert(int, cfg.get("degree", 0), "degree"),
        budget=convert(int, cfg.get("budget", 200), "budget"),
        lattice=lattice, grid=grid)
    coeffs = [f"c{k}" for k in range(len(result.best_params.hermite_coeffs))]
    rows = lambda: [["step", "width", *coeffs, "ratio"]] + [
        [i, p.width, *map(float, p.hermite_coeffs), r] for i, (p, r) in enumerate(result.trace)]
    code = EXIT_OK if result.achieved else EXIT_NEGATIVE
    return {"report": result}, code, rows


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


def _reproduce_example1() -> tuple[list, None]:
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
    return items, None


def _reproduce_example2() -> tuple[list, None]:
    f = make_example2(0.0)
    lam = PointSet.from_rows([[0, 0], [2, 0], [4, 0], [6, 1]])
    cert = check_theorem2(f, lam)
    x = float(cert.translate_x[0])
    return [_item(
        "singular_translate_construction",
        {"verdict": cert.verdict, "x": x, "peak": cert.peak},
        {"bound_on_x": 1.0 / 81.0,
         "derivation": "need |x|^(-1/4) to exceed 3 with sup bound A = 1"},
        cert.certified and abs(x) < 1.0 / 81.0)], None


def _reproduce_er() -> tuple[list, None]:
    rep = dependence_residual_er(er_lattice(3.0, 0.25), ER_QUAD_TOL)
    return [_item(
        "five_term_dependence",
        {"max_abs_residual": rep.max_abs_residual},
        {"tolerance": 1e-6, "quadrature_bound": 6.0 * ER_QUAD_TOL},
        rep.max_abs_residual < 1e-6)], None


def _reproduce_gaussian_stft() -> tuple[list, None]:
    g = make_gaussian(1)
    env = lambda r: math.exp(-math.pi * r * r / 2.0)
    probes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    worst = max(abs(abs(v) - env(math.hypot(x, w)))
                for v, (x, w) in zip(stft_points(g, g, probes), probes))
    s2 = math.sqrt(2.0)
    lam = PointSet.from_rows([[0, 0], [1, 0], [0, 1], [s2, s2]])
    cert = check_theorem3(g, g, lam, stft_envelope=env)
    expected_R = math.sqrt(2.0 * math.log(3.0) / math.pi)
    return [
        _item("stft_magnitude_matches_envelope",
              {"max_abs_error": worst}, {"tolerance": 1e-6}, worst < 1e-6),
        _item("radius_for_four_points",
              {"R": cert.R}, {"R": expected_R, "tolerance": 1e-3},
              abs(cert.R - expected_R) <= 1e-3),
        _item("four_point_set_certificate",
              {"verdict": cert.verdict, "M": cert.M},
              {"verdict": "Certified", "M": 1.0},
              cert.certified and abs(cert.M - 1.0) < 1e-12),
    ], None


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


# Each recipe returns its items and, for a flat scan, its CSV rows.
_RECIPES = {
    "example1": _reproduce_example1,
    "example2": _reproduce_example2,
    "er_dependence": _reproduce_er,
    "gaussian_stft": _reproduce_gaussian_stft,
    "dilation_scan": _reproduce_dilation_scan,
}


def _cmd_reproduce(args) -> tuple[dict, int, Callable[[], list] | None]:
    items, rows = _RECIPES[args.name]()
    csv_rows = None if rows is None else lambda: rows
    all_pass = all(it["pass"] for it in items)
    payload = {"report": {"name": args.name, "items": items, "all_pass": all_pass}}
    return payload, EXIT_OK if all_pass else EXIT_NEGATIVE, csv_rows


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so it exits 1 like any bad input."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = _Parser(
        prog="tfcert",
        description="Numerical independence certificates for time-frequency translates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--no-meta", action="store_true",
                       help="omit timestamps for byte-identical reruns")

    p = sub.add_parser("certify", help="run a sufficient-condition checker")
    p.add_argument("theorem", choices=_subcommands("certify"))
    p.add_argument("--rigorous", action="store_true",
                   help="require analytic envelopes (refuse heuristic sups)")
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("oracle", help="run an independent numerical test")
    p.add_argument("test", choices=_subcommands("oracle"))
    common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("window-search", help="search for a window meeting the tail target")
    common(p)
    p.set_defaults(handler=_cmd_window_search)

    p = sub.add_parser("reproduce", help="run a pinned reproduction recipe")
    p.add_argument("name", choices=tuple(_RECIPES))
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
        writer.writerows(csv_rows())
        text = buf.getvalue()
    else:
        payload = report_json(payload)
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
    try:
        args = _build_parser().parse_args(argv)
        # Nonfinite results are refused or reported as null, so numpy's
        # floating-point warnings would only add lines to stderr.
        with np.errstate(all="ignore"):
            payload, code, csv_rows = args.handler(args)
        _emit(payload, args, csv_rows)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
