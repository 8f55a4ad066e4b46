"""Run the benchmark over several seeds and summarize run-to-run spread.

    python3 bench/spread.py --seeds 1-10 [--workloads freq_side,oracle_sweep]
                            [--trace 0] [--out bench/out/summary.json]

Runs `BENCHMARK.json`'s command once per (workload, seed), one process at a
time, and prints per metric the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the metric's bound (`ok` when the spread is within a third
of it). The summary JSON keeps every run's metrics and its result file's run
record, so two summaries (parent and change) can be compared metric by metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    detail = json.loads((ROOT / "bench" / "out" / f"{stem}.json").read_text())
    keep = ("record", "setup_samples_s", "op_tail_pct", "op_samples", "error_rate",
            "search_ratio_gmean", "failures", "by_kind")
    return dict(last, seed=seed, **{k: detail[k] for k in keep if k in detail})


def summarize(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        row = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
               "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        if name in bounds:
            row["bound"] = bounds[name]
        out[name] = row
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(spec, workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: attempted {runs[-1]['attempted']} "
                  f"failed {runs[-1]['failed']}", file=sys.stderr, flush=True)
        stats = summarize(runs, bounds)
        summary["workloads"][workload] = {"metrics": stats, "runs": runs}
        print(f"\n{workload} ({len(runs)} runs)")
        for name, row in stats.items():
            spread = row.get("spread")
            bound = row.get("bound")
            flag = "" if bound is None or spread is None else \
                ("ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER")
            print(f"  {name:40s} median {row['median']:<12.6g} "
                  f"spread {'-' if spread is None else f'{spread:.3f}':>6s} "
                  f"bound {'-' if bound is None else bound:<5} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
