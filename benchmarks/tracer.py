"""Layer spans for the traced run, taken from outside the package.

:class:`Tracer` rebinds each traced function's name, in every loaded
``noisebits.*`` module namespace that holds it, to a wrapper that
records one span: name, start and end (``perf_counter_ns``), parent span
and op id, plus the sizes the per-layer counters need.  No file of the
package is edited, and :meth:`Tracer.uninstall` restores every name.
Spans stay in memory until the run ends.

A target that no longer exists, or whose arguments can no longer be
read, is reported as missing rather than failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, group).  A group's self time is reported as
# "<group>.self_ms"; the layer is the group's first dotted part.
TARGETS = (
    ("source", "sign_bits", "source"),
    ("window", "product_words", "window.product_words"),
    ("window", "materialize", "window.materialize"),
    ("window", "correlate", "window.correlate"),
    ("reference", "orthogonality_matrix", "reference"),
    ("hyperspace", "correlation_sweep", "hyperspace.sweep"),
    ("hyperspace", "decode_superposition", "hyperspace.readout"),
    ("hyperspace", "decode_report", "hyperspace.readout"),
    ("hyperspace", "round_trip_run", "hyperspace.readout"),
    ("hyperspace", "encode_string", "expr"),
    ("hyperspace", "encode_set", "expr"),
    ("hyperspace", "encode_integer", "expr"),
    ("expr", "shift", "expr"),
    ("expr", "multiply", "expr"),
    ("expr", "superpose", "expr"),
    ("apps", "holographic_demo", "apps"),
    ("apps", "noncommute_demo", "apps"),
    ("apps", "random_shift_demo", "apps"),
    ("cli", "main", "cli"),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group in TARGETS))

# A readout is one outermost call of these; the sweeps below it are
# what hyperspace.sweeps_per_readout counts.
READERS = frozenset(("decode_superposition", "decode_report", "round_trip_run",
                     "holographic_demo"))


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _sign_bits_work(args, kwargs):
    return (int(_arg(args, kwargs, 0, "seed")), int(_arg(args, kwargs, 1, "start")),
            int(_arg(args, kwargs, 2, "length")))


def _product_words_work(args, kwargs):
    return len(_arg(args, kwargs, 1, "offsets"))


def _materialize_work(args, kwargs):
    return len(getattr(_arg(args, kwargs, 1, "expr"), "members", (None,)))


def _sweep_work(args, kwargs):
    """(n_eff, packed words per candidate, signal bitplanes), the sizes of
    the bit-sliced sweep at this revision."""
    window = _arg(args, kwargs, 0, "signal_window")
    n_eff = _arg(args, kwargs, 1, "sys").n_eff
    if window.words is not None:
        planes = 1
    else:
        ints = window.ints
        lowest = int(ints.min())
        planes = (int(ints.max()) - min(lowest, 0)).bit_length()
    return n_eff, (window.length + 63) // 64, planes


WORK = {
    "sign_bits": _sign_bits_work,
    "product_words": _product_words_work,
    "materialize": _materialize_work,
    "correlation_sweep": _sweep_work,
}


class Tracer:
    """Spans of one traced pass; set :attr:`op` before each op."""

    def __init__(self) -> None:
        # (function, group, start_ns, end_ns, parent index, op id, work)
        self.spans: list[tuple] = []
        self.op = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "noisebits" or name.startswith("noisebits.")]
        for module_name, func, group in TARGETS:
            target = getattr(sys.modules.get(f"noisebits.{module_name}"), func, None)
            if not callable(target):
                self.missing.add(f"{module_name}.{func}")
                continue
            wrapper = self._wrap(target, func, group, WORK.get(func))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, target))

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._undo):
            setattr(module, attr, target)
        self._undo.clear()

    def _wrap(self, target, func: str, group: str, work_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            work = None
            if work_of is not None:
                try:
                    work = work_of(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                    self.missing.add(f"{func} arguments")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (func, group, start, end, parent, self.op, work)

        wrapper.__wrapped__ = target
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("function", "group", "start_ns", "end_ns", "parent", "op", "work")
        path.write_text(json.dumps({"fields": keys, "spans": self.spans}))

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics.  Times are ms per op; counts are totals over
        the pass; a ratio whose base is zero reads 0."""
        spans = self.spans
        covered = [0] * len(spans)
        for func, group, start, end, parent, op, work in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = dict.fromkeys(GROUPS, 0)
        calls: dict[str, int] = defaultdict(int)
        intervals: dict[tuple, list] = defaultdict(list)
        samples = factors = members = candidates = sweep_words = readouts = 0
        for index, (func, group, start, end, parent, op, work) in enumerate(spans):
            self_ns[group] += end - start - covered[index]
            calls[func] += 1
            if work is None:
                pass
            elif func == "sign_bits":
                seed, first, length = work
                samples += length
                intervals[op, seed].append((first, first + length))
            elif func == "product_words":
                factors += work
            elif func == "materialize":
                members += work
            elif func == "correlation_sweep":
                n_eff, words, planes = work
                candidates += 1 << n_eff
                sweep_words += (1 << n_eff) * words * planes
            if func in READERS and not self._has_reader_above(parent):
                readouts += 1

        def ms(group):
            return self_ns[group] / 1e6 / max(n_ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{group}.self_ms": ms(group) for group in GROUPS}
        out.update({
            "source.calls": calls["sign_bits"],
            "source.samples": samples,
            "source.ns_per_sample": ratio(self_ns["source"], samples),
            "source.rehash_ratio": ratio(samples, sum(
                _union_length(v) for v in intervals.values())),
            "window.factor_passes": factors,
            "window.materialize.members": members,
            "window.correlate.calls": calls["correlate"],
            "hyperspace.sweep.calls": calls["correlation_sweep"],
            "hyperspace.sweep.candidates": candidates,
            "hyperspace.ns_per_candidate": ratio(self_ns["hyperspace.sweep"], candidates),
            "hyperspace.sweep_words_computed": sweep_words,
            "hyperspace.sweeps_per_readout": ratio(calls["correlation_sweep"], readouts),
            "trace.op_ms": ratio(sum(end - start for func, _, start, end, parent, *_
                                     in spans if parent < 0), 1e6 * n_ops),
            "trace.missing": len(self.missing),
        })
        return out

    def _has_reader_above(self, index: int) -> bool:
        while index >= 0:
            func, _, _, _, parent, *_ = self.spans[index]
            if func in READERS:
                return True
            index = parent
        return False


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, 0
    for lo, hi in sorted(intervals):
        total += max(0, hi - max(lo, reach))
        reach = max(reach, hi)
    return total
