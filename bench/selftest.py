"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. Prints every metric the benchmark reports, by name and unit, and checks
   that BENCHMARK.json, tracer.LAYER_METRICS and layers.json agree.
2. Two seeds give the same op-kind counts.
3. For each workload, on a one-round pool: an untraced pass leaves every
   tracer patch point untouched; two traced passes with the same seed give
   identical per-layer counts and restore every patched name; per-layer self
   times sum to no more than the traced wall time; every op passes its checks.
Exits 1 on the first broken property.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import tracer as tracing
import workloads


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def metric_list() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:40s} {m['unit']:8s} {m['better']} is better, bound {m['bound']}")
    print("reported beside them (stdout and bench/out result file):")
    for name, unit in run.EXTRA_METRICS:
        print(f"  {name:40s} {unit}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:40s} {m['unit']:8s} {m['better']} is better")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != \
            [tuple(m) for m in tracing.LAYER_METRICS]:
        fail("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    layers = json.loads((run.BENCH / "layers.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | {n for n, _ in run.EXTRA_METRICS}
    for row in layers["table"]:
        if not set(row["layer_metrics"]) <= names:
            fail(f"layers.json names unknown layer metrics {set(row['layer_metrics']) - names}")
        for target in row["moves"] + row.get("unchanged", []):
            if target["metric"] not in e2e or target["workload"] not in workloads.WORKLOADS:
                fail(f"layers.json target {target} is not a reported metric and workload")


def op_kinds_fixed() -> None:
    for workload in workloads.WORKLOADS:
        kinds = [Counter(op.kind for ops in workloads.pool(workload, seed) for op in ops)
                 for seed in (1, 2)]
        if kinds[0] != kinds[1]:
            fail(f"{workload}: op-kind counts differ between seeds 1 and 2")
    print("op-kind counts are the same for seeds 1 and 2 on every workload")


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith("_s") and k != "trace.overhead_ratio"}


def check_workload(cli, workload: str) -> None:
    probe = tracing.Tracer()
    probe.install()
    probe.uninstall()
    if not probe.restored():
        fail("uninstall left a patched name behind")
    pristine = probe.patches
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        pool, paths = run.prepare(workload, 1, workdir, rounds=1)
        plain, plain_wall, _ = run.run_rounds(cli, pool, paths, workdir, None)
        if not all(getattr(o, a) is orig for o, a, orig in pristine):
            fail(f"{workload}: the untraced pass installed a wrapper")
        seen = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_wall, _ = run.run_rounds(cli, pool, paths, workdir, None, tracer)
            finally:
                tracer.uninstall()
            if not tracer.restored():
                fail(f"{workload}: a tracer wrapper survived uninstall")
            metrics, self_total = tracing.layer_metrics(tracer.spans, plain_wall, traced_wall)
            if self_total > traced_wall:
                fail(f"{workload}: self times {self_total} s exceed traced wall {traced_wall} s")
            seen.append(counts(metrics))
            plain += traced
        if seen[0] != seen[1]:
            diff = {k: (seen[0][k], seen[1][k]) for k in seen[0] if seen[0][k] != seen[1][k]}
            fail(f"{workload}: traced counts differ between runs: {diff}")
        failures = run.check_outcomes(pool, plain)
        if failures:
            fail(f"{workload}: ops failed their checks: {failures}")
    print(f"{workload}: untraced pass installs nothing; wrappers removed; "
          f"{len(seen[0])} counts repeat exactly; self time {self_total:.3f} s "
          f"<= traced wall {traced_wall:.3f} s; {len(plain)} ops pass")


def main() -> int:
    metric_list()
    op_kinds_fixed()
    cli = run._import_tfcert()
    run.OUT.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        check_workload(cli, workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
