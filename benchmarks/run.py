"""Benchmark of the noisebits CLI: one command prints every metric.

    python3 benchmarks/run.py --workload decode-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` times a closed loop of CLI ops with tracing off and
reports the end-to-end metrics; ``--trace 1`` runs the first ops once
plain and once traced and reports the per-layer metrics.  Each metric
is printed by name with its unit and sample count, followed by the
output checks, one JSON line of run information and, last, the result:
``{"correct", "attempted", "failed", "metrics"}``.

Several workloads (comma-separated, or ``all``) run one after another,
each in its own process; the last line then merges their results, with
metric names prefixed by ``<workload>/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one thread, so runs compare across machines.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


def _units(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    if traced:
        run = harness.trace(workload, seed)
        attempted = run["attempted"]
        units = _units("per_layer")
    else:
        run = harness.measure(workload, seed, seconds)
        attempted = len(run["result"].latencies)
        units = _units("end_to_end")
    result = run["result"]
    metrics = {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()}

    print(f"workload {name}  seed {seed}  trace {int(traced)}")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']:8s}"
              f" (n={run['samples'][key]})")
    print(f"  {'fail_frac':34s} {run['fail_frac']:>16.6g} {'frac':8s}"
          f" ({result.failed} of {attempted} ops failed)")
    print(f"check output_sha256 {run['output_sha256']} (first {harness.TRACE_OPS} ops)")
    if traced:
        print("check traced and untraced output_sha256 equal:",
              "yes" if run["same_output"] else "NO")
        if run["missing"]:
            print("trace: missing wrappers:", ", ".join(run["missing"]))
    for problem in result.problems:
        print("CHECK FAILED", problem)
    print("check every op: exit 0, ok, exact self-rhos; sampled decodes match the oracle:",
          "pass" if not result.problems else "FAIL")
    print(json.dumps({"info": {
        "workload": name, "seed": seed, "trace": int(traced),
        "output_sha256": run["output_sha256"], "fail_frac": run["fail_frac"],
        "samples": run["samples"], "environment": harness.environment(),
    }}))
    return {"correct": result.failed == 0, "attempted": attempted,
            "failed": result.failed, "metrics": metrics}


def run_each(names: list[str], args: argparse.Namespace) -> dict:
    """Each workload in its own process; merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}; "
                             "comma-separated or 'all' for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed length of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if len(names) == 1:
        result = run_one(names[0], args.seed, args.seconds, bool(args.trace))
    else:
        result = run_each(names, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
