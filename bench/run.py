"""tfcert benchmark entry point.

    python3 bench/run.py --workload freq_side --seed 1 --seconds 36 --trace 0

Runs one seeded workload (see workloads.py) in-process and single-threaded
through the public entry point `tfcert.cli.main`, with generated config files
and `--out` reports in a temporary directory under bench/out/. The package is
imported from the checkout's own `src/`; without it the run exits 2.

--trace 0 prints the end-to-end metrics: set-up time, op throughput, median
and tail op latency, CPU time per op and peak RSS. --trace 1 runs one pass
over the op pool untraced and one traced, and prints per-layer metrics
derived from the spans. Every op's outcome is checked (checks.py); the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, and the full result, run record and any failures go to
bench/out/<workload>-seed<seed>-trace<t>.json (spans to a sibling file).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads; subprocesses inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up probes: half run before the timed loop and half after it, so their
# median spans the run instead of one moment of a machine whose speed drifts.
SETUP_REPEATS = 6
TAIL_BEYOND = 10
# Reported on stdout and in the result file but not in the final JSON line:
# error_rate is `failed / attempted` of that line, and the others are not
# defined on every workload or are not measurements of the system.
EXTRA_METRICS = [("error_rate", "ratio"), ("search_ratio_gmean", "ratio"),
                 ("op_tail_pct", "percentile"), ("op_samples", "count")]


def _import_tfcert():
    if not (SRC / "tfcert" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tfcert package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tfcert.cli
    if Path(tfcert.cli.__file__).resolve().parent != SRC / "tfcert":
        raise ImportError(f"tfcert imported from {tfcert.cli.__file__}, not {SRC}")
    return tfcert.cli


# ---------------------------------------------------------------------------
# set-up: input generation, config writing, one warm-up op
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: Path, rounds: int | None = None):
    """Generate the op pool and write its configs; returns (pool, paths)."""
    import workloads
    pool = workloads.pool(workload, seed, rounds)
    paths = {}
    for r, ops in enumerate(pool):
        for k, op in enumerate(ops):
            if op.config is not None:
                path = workdir / f"op-{r}-{k}.json"
                path.write_text(json.dumps(op.config), encoding="utf-8")
                paths[(r, k)] = str(path)
    return pool, paths


def setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Body of one fresh set-up process: import, generate, write, warm up."""
    cli = _import_tfcert()
    pool, paths = prepare(workload, seed, Path(workdir))
    run_op(cli, pool[0][0], paths.get((0, 0)), Path(workdir) / "warmup.json")


def time_setup(workload: str, seed: int, workdir: Path, repeats: int) -> list:
    """Wall time of `repeats` fresh processes that each do the set-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4])")
    times = []
    for i in range(repeats):
        sub = workdir / f"setup-{i}"
        sub.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(BENCH), workload, str(seed),
                        str(sub)], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(sub)
    return times


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def run_op(cli, op, config_path, out_path: Path) -> dict:
    """One `cli.main` call; latency covers only the call itself."""
    argv = list(op.argv) + (["--config", config_path] if config_path else []) \
        + ["--out", str(out_path), "--no-meta"]
    err = io.StringIO()
    error = code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    text = None
    if out_path.exists():
        text = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return {"latency": latency, "code": code, "text": text, "error": error,
            "stderr": err.getvalue()}


def run_rounds(cli, pool, paths, workdir: Path, seconds: float | None, tracer=None):
    """Run whole rounds of the pool, cycling, until `seconds` have elapsed
    (one full pass when `seconds` is None). Returns (outcomes, wall, cpu)."""
    outcomes = []
    out_path = workdir / "report.json"
    cpu0 = _cpu()
    t0 = time.perf_counter()
    i = 0
    while True:
        r = i % len(pool)
        for k, op in enumerate(pool[r]):
            if tracer is not None:
                tracer.op = len(outcomes)
            res = run_op(cli, op, paths.get((r, k)), out_path)
            res["key"] = (r, k)
            outcomes.append(res)
        i += 1
        elapsed = time.perf_counter() - t0
        if (seconds is None and i == len(pool)) or (seconds is not None and elapsed >= seconds):
            return outcomes, elapsed, _cpu() - cpu0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def check_outcomes(pool, outcomes) -> list:
    """Failure records: per-op checks plus identical reports on repeats."""
    import checks
    failures, first = [], {}
    for n, res in enumerate(outcomes):
        r, k = res["key"]
        op = pool[r][k]
        try:
            reasons = checks.check(op, res["code"], res["text"], res["error"])
        except (KeyError, TypeError, ValueError) as exc:
            reasons = [f"malformed report: {type(exc).__name__}: {exc}"]
        seen = first.setdefault(res["key"], res)
        if seen is not res and (seen["code"], seen["text"]) != (res["code"], res["text"]):
            reasons.append("repeated op gave a different report")
        if reasons:
            failures.append({"op": n, "round": r, "kind": op.kind, "config": op.config,
                             "exit": res["code"], "reasons": reasons,
                             "stderr": res["stderr"][-500:]})
    return failures


def tail(latencies: list) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it (nearest rank), and its value; the median when there are too few."""
    s = sorted(latencies)
    n = len(s)
    for p in range(99, 49, -1):
        v = s[max(0, math.ceil(p / 100 * n) - 1)]
        if sum(1 for x in s if x > v) >= TAIL_BEYOND:
            return v, p
    return statistics.median(s), 50


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(workload: str, seed: int, args) -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted((SRC / "tfcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "started_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _by_kind(pool, outcomes) -> dict:
    kinds: dict = {}
    for res in outcomes:
        r, k = res["key"]
        entry = kinds.setdefault(pool[r][k].kind, {"latencies": [], "exits": {}})
        entry["latencies"].append(res["latency"])
        entry["exits"][str(res["code"])] = entry["exits"].get(str(res["code"]), 0) + 1
    return {kind: {"ops": len(e["latencies"]),
                   "p50_ms": 1e3 * statistics.median(e["latencies"]), "exits": e["exits"]}
            for kind, e in sorted(kinds.items())}


def _search_gmean(pool, outcomes):
    """Geometric mean of best ratio / target over the distinct searches run."""
    logs = {}
    for res in outcomes:
        r, k = res["key"]
        if pool[r][k].kind == "window-search" and res["code"] in (0, 3) and res["text"]:
            rep = json.loads(res["text"])["report"]
            logs[res["key"]] = math.log(rep["ratio"] / rep["target"])
    return math.exp(statistics.fmean(logs.values())) if logs else None


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description="tfcert benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = _import_tfcert()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot import tfcert from the checkout: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT))
    try:
        before = SETUP_REPEATS // 2
        setup_times = time_setup(args.workload, args.seed, workdir, before)
        pool, paths = prepare(args.workload, args.seed, workdir)
        run_op(cli, pool[0][0], paths.get((0, 0)), workdir / "warmup.json")
        result = {"record": run_record(args.workload, args.seed, args)}
        if args.trace:
            metrics, outcomes, extra = _traced(cli, pool, paths, workdir, stem)
        else:
            metrics, outcomes, extra = _timed(cli, pool, paths, workdir, args.seconds)
        setup_times += time_setup(args.workload, args.seed, workdir, SETUP_REPEATS - before)
        result["setup_samples_s"] = setup_times
        if not args.trace:
            metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                       **metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = check_outcomes(pool, outcomes)
    attempted = len(outcomes)
    extra["error_rate"] = len(failures) / attempted
    extra["by_kind"] = _by_kind(pool, outcomes)
    result.update(extra, metrics=metrics, attempted=attempted, failures=failures)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, unit in EXTRA_METRICS:
        if extra.get(name) is not None:
            print(f"{name:40s} {extra[name]:.6g} {unit}")
    for f in failures:
        print(f"FAILED op {f['op']} ({f['kind']}): {'; '.join(f['reasons'])}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _timed(cli, pool, paths, workdir, seconds):
    outcomes, wall, cpu = run_rounds(cli, pool, paths, workdir, seconds)
    lat = [res["latency"] for res in outcomes]
    tail_s, tail_pct = tail(lat)
    n = len(outcomes)
    metrics = {
        "ops_per_s": {"value": n / wall, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
        "cpu_ms_per_op": {"value": 1e3 * cpu / n, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    extra = {"op_tail_pct": tail_pct, "op_samples": n, "timed_wall_s": wall,
             "search_ratio_gmean": _search_gmean(pool, outcomes)}
    return metrics, outcomes, extra


def _traced(cli, pool, paths, workdir, stem):
    import tracer as tracing
    plain, plain_wall, _ = run_rounds(cli, pool, paths, workdir, None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_wall, _ = run_rounds(cli, pool, paths, workdir, None, tracer)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise RuntimeError("tracer left a patched name behind")
    metrics, self_total = tracing.layer_metrics(tracer.spans, plain_wall, traced_wall)
    spans = [rec[:5] for rec in tracer.spans]
    (OUT / f"{stem}-spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}),
        encoding="utf-8")
    extra = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "self_time_total_s": self_total, "spans": len(spans)}
    return metrics, plain + traced, extra


if __name__ == "__main__":
    sys.exit(main())
