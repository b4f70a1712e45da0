"""Closed-loop benchmark client: one process, one op at a time.

An op is one in-process ``noisebits.cli.main(argv + ["--out", path])``
call.  Its latency is the wall time of that call; its outputs are the
exit status, stdout and the report bytes.  Checks between ops are not
timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Untimed set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: Fewest timed ops in an untraced run, so ten lie beyond p90.
MIN_OPS = 100
#: Ops in a traced pass: whole blocks of 12- and 16-slot workloads, so
#: every count repeats exactly for a seed.  output_sha256 covers these.
TRACE_OPS = 96
#: Share of decode ops recomputed by the oracle and detect_string.
DECODE_CHECK_SHARE = 0.25


def import_package():
    """Import ``noisebits`` afresh from this checkout's ``src`` and return
    its ``cli`` module; any installed copy is ignored."""
    src = ROOT / "src"
    if not (src / "noisebits" / "__init__.py").is_file():
        raise SystemExit(f"error: no noisebits package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "noisebits" or n.startswith("noisebits.")]:
        del sys.modules[name]
    cli = importlib.import_module("noisebits.cli")
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: noisebits imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class Pass:
    """Outcome of running a list of ops."""

    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # one per failed op
    report_bytes: int = 0
    sha: object = field(default_factory=hashlib.sha256)
    prefix_sha: str = ""

    @property
    def failed(self) -> int:
        return len(self.problems)


class Client:
    """Runs ops against one imported package."""

    def __init__(self, cli, report_path: Path) -> None:
        self.cli = cli
        self.nb = sys.modules["noisebits"]
        self.report_path = report_path

    def op(self, argv: list[str]) -> tuple[object, str, bytes, float]:
        """(exit status, stdout, report bytes, seconds) of one op."""
        self.report_path.unlink(missing_ok=True)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(argv + ["--out", str(self.report_path)])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # an op that crashes is a failed op, not a crashed run
                rc = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        seconds = time.perf_counter() - start
        report = self.report_path.read_bytes() if self.report_path.exists() else b""
        return rc, out.getvalue(), report, seconds

    def run(self, ops: list[list[str]], result: Pass, *, check_rng=None,
            tracer: Tracer | None = None) -> None:
        """Run ``ops`` in order into ``result``; with ``check_rng`` a seeded
        share of decode ops also gets the oracle check."""
        for argv in ops:
            if tracer is not None:
                tracer.op = len(result.latencies)
            rc, stdout, report, seconds = self.op(argv)
            result.latencies.append(seconds)
            result.report_bytes += len(report)
            for part in (" ".join(argv).encode(), str(rc).encode(), stdout.encode(), report):
                result.sha.update(len(part).to_bytes(8, "little"))
                result.sha.update(part)
            if len(result.latencies) == TRACE_OPS:
                result.prefix_sha = result.sha.hexdigest()
            if check_rng is None:
                continue
            try:
                problems = checks.check_op(argv, rc, report)
                if (not problems and argv[0] in checks.DECODE_COMMANDS
                        and check_rng.random() < DECODE_CHECK_SHARE):
                    problems = checks.check_decode(self.nb, report, check_rng)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"report lacks what the checks read: {exc!r}"]
            if problems:
                result.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")


def set_up(workload: workloads.Workload, seed: int, reps: int) -> tuple[Client, list[float]]:
    """Import, build the parser and run the warm-up ops, ``reps`` times;
    returns the last client and the time of each set-up."""
    warmup = workloads.warmup_ops(workload, seed)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        cli = import_package()
        cli.build_parser()
        OUT_DIR.mkdir(exist_ok=True)
        client = Client(cli, OUT_DIR / f"report-{os.getpid()}.json")
        client.run(warmup, Pass())
        times.append(time.perf_counter() - start)
    return client, times


def measure(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    """Untraced run: set-up, then whole blocks of ops until ``seconds`` have
    passed and at least MIN_OPS ops ran."""
    client, setup_times = set_up(workload, seed, SETUP_REPS)
    result = Pass()
    check_rng = random.Random(f"check:{seed}")
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or len(result.latencies) < MIN_OPS:
        client.run(workloads.block(workload, seed, index), result, check_rng=check_rng)
        index += 1
    client.report_path.unlink(missing_ok=True)
    lat_ms = np.array(result.latencies) * 1e3
    n = len(lat_ms)
    return {
        "result": result,
        "metrics": {
            "ops_per_s": n / sum(result.latencies),
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_p90_ms": float(np.percentile(lat_ms, 90)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "samples": {"ops_per_s": n, "op_p50_ms": n, "op_p90_ms": n,
                    "setup_s": len(setup_times), "peak_rss_mb": 1},
        "fail_frac": result.failed / n,
        "output_sha256": result.prefix_sha,
    }


def trace(workload: workloads.Workload, seed: int, n_ops: int = TRACE_OPS) -> dict:
    """The first ``n_ops`` ops untraced (checked), then again traced; the
    two passes must give the same output hash."""
    client, _ = set_up(workload, seed, SETUP_REPS)
    ops = workloads.first_ops(workload, seed, n_ops)
    plain = Pass()
    client.run(ops, plain, check_rng=random.Random(f"check:{seed}"))
    traced = Pass()
    tracer = Tracer()
    tracer.install()
    try:
        client.run(ops, traced, tracer=tracer)
    finally:
        tracer.uninstall()
    client.report_path.unlink(missing_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.json")

    metrics = tracer.metrics(n_ops)
    metrics["cli.report_bytes"] = traced.report_bytes
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1
    same_output = plain.sha.hexdigest() == traced.sha.hexdigest()
    if not same_output:
        plain.problems.append("traced output_sha256 differs from the untraced one")
    return {
        "result": plain,
        "attempted": 2 * n_ops,
        "metrics": metrics,
        "samples": dict.fromkeys(metrics, n_ops),
        "fail_frac": plain.failed / (2 * n_ops),
        "output_sha256": plain.sha.hexdigest(),
        "same_output": same_output,
        "missing": sorted(tracer.missing),
    }


def environment() -> dict:
    """Python and numpy versions, cpus, L2/L3 sizes and git revision."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            caches[f"l{level}"] = size
    revision = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=10).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "git": revision,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
