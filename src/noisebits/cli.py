"""Command-line driver for the experiments.

Every subcommand is configured entirely by flags (seeds included), so
identical invocations produce byte-identical output.  Handlers only
compute; :func:`main` writes every subcommand's output in one place:

- stdout: the summary lines, ending in ``ok: true|false`` when the
  report has an ``ok`` field (``holographic``, ``noncommute``,
  ``randshift``).  ``ortho`` without ``--out`` prints its body instead.
- ``--out``: the JSON report ``{"schema": 1, "subcommand": ..., ...}``,
  or for ``ortho`` its body: CSV, or that JSON with ``--format json``.
- ``--csv`` (the three demos): a flat table of correlations, gate rhos
  or shift assignment.

Exit status: 0 on success, 1 when a verdict fails (a decode mismatch or
a false ``ok``), 2 on usage errors, including an ``--out`` or ``--csv``
path that cannot be written.  An error leaves stdout empty.

Parsing is one pass: when ``argv[0]`` names a subcommand, its parser takes
the rest, and the top-level parser reports what is left over, so the
namespace and every error are ``build_parser().parse_args(argv)``'s.
Anything else (no arguments, ``-h``, an unknown name) goes to the latter.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Iterable, NamedTuple, Sequence

from .apps import ShiftAssignment, holographic_demo, noncommute_demo, random_shift_demo
from .hyperspace import (
    DEFAULT_MAX_N,
    DEFAULT_THRESHOLD,
    Correlations,
    _candidate_labels,
    _check_capacity,
    encode_string,
    int_to_bits,
    parse_bits,
    round_trip_run,
)
from .reference import (_check_listed, _header, build_reference_system, capacity,
                        orthogonality_matrix)
from .source import DEFAULT_SEED

SCHEMA_VERSION = 1
#: Most seeds one ``encode-decode`` runs: it keeps every run's report.
MAX_SEEDS = 1000


class Result(NamedTuple):
    """What a subcommand computed, for :func:`_emit` to write out."""

    report: dict            # report fields; a false "ok" fails the verdict
    summary: list[str]      # stdout lines
    ok: bool = True         # False fails the verdict without an "ok" field
    body: str | None = None  # --out text in place of the JSON report
    body_on_stdout: bool = False  # without --out, print the body, not the summary
    table: tuple[Sequence[str], Iterable[Sequence | str]] | None = None  # --csv columns, rows


def _cell(v) -> str:
    """A CSV cell: a float is written as %.6g, and a cell holding ``,`` or
    ``"`` is quoted as RFC 4180 asks."""
    text = "%.6g" % v if isinstance(v, float) else str(v)
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _csv(columns: Sequence[str], rows: Iterable[Sequence | str]) -> str:
    """A header line, then one line per row; a ``str`` row is lines already written."""
    return "".join(row if isinstance(row, str) else ",".join(map(_cell, row)) + "\n"
                   for row in (columns, *rows))


_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(v: float) -> str:
    text = float.__repr__(v)
    return _NON_FINITE.get(text, text)


#: Encoders of the exact scalar types.
_SCALARS = {str: _str, float: _float, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda v: "null"}


@functools.cache
def _row_heads(n_eff: int, nl: str) -> tuple[str, ...]:
    """Each candidate's correlations row up to its rho, indented for a table at ``nl``
    and led by what precedes it: the table's ``[``, or the end of the row before."""
    field, inner = nl + "    ", nl + "  "
    return tuple(("[" if v == 0 else nl + "  },") + inner + "{" + field + '"candidate": '
                 + _str(label) + "," + field + '"rho": '
                 for v, label in enumerate(_candidate_labels(n_eff)))


def _json(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, default=Correlations.rows)``, byte for byte; ``nl`` is
    the newline and indent of the level ``obj`` sits at.  What reports hold has a fast
    path: exact scalars, exact lists, exact dicts with str keys, and a
    :class:`Correlations` of finite floats, written from its rho column in one join.
    Every other value is ``json.dumps``'s, re-indented: its indent is ``nl`` at each
    level and its ASCII output holds no other newline."""
    kind = type(obj)
    if (kind is Correlations and set(map(type, obj.rhos)) == {float}
            and math.isfinite(sum(obj.rhos))):  # no NaN or infinity
        parts = [None] * (2 * len(obj.rhos))  # heads and rhos, interleaved for one join
        parts[::2] = _row_heads(obj.n_eff, nl)
        parts[1::2] = map(float.__repr__, obj.rhos)
        return "".join(parts) + nl + "  }" + nl + "]"
    inner = nl + "  "
    if kind is list:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([
            enc(v) if (enc := _SCALARS.get(type(v))) else _json(v, inner)
            for v in obj]) + nl + "]"
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _str(k) + ": " + (enc(v) if (enc := _SCALARS.get(type(v))) else _json(v, inner))
            for k, v in obj.items()]) + nl + "}"
    if enc := _SCALARS.get(kind):
        return enc(obj)
    return json.dumps(obj, indent=2, default=Correlations.rows).replace("\n", nl)


def _cmd_capacity(args: argparse.Namespace) -> Result:
    c = capacity(args.n, args.m if args.m is not None else 2 * args.k * args.n)
    return Result({"N": c.n_bits, "M": c.shift_steps, "k": c.shift_steps // (2 * c.n_bits),
                   "classical_bits": c.classical_bits, "dimension_factor": c.dimension_factor},
                  [f"classical_bits={c.classical_bits}", f"dimension_factor={c.dimension_factor}"])


def _cmd_ortho(args: argparse.Namespace) -> Result:
    sys_ = build_reference_system(args.seed, args.n, args.k)
    labels = sys_.labels()
    rows = orthogonality_matrix(sys_, args.l, args.start)
    max_offdiag = max(abs(rho) for i, row in enumerate(rows)
                      for j, rho in enumerate(row) if i != j)
    return Result({**_header(sys_), "L": args.l,
                   "start": args.start, "labels": labels, "rho": rows,
                   "max_offdiag_abs": max_offdiag},
                  [f"max_offdiag_abs={max_offdiag:.6g}"], body_on_stdout=True,
                  body=_csv(("", *labels), ([lab, *row] for lab, row in zip(labels, rows)))
                  if args.format == "csv" else None)


def _cmd_encode_decode(args: argparse.Namespace) -> Result:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    if args.seeds > MAX_SEEDS:  # before the seed list and the kept reports are built
        raise ValueError(f"--seeds must be at most {MAX_SEEDS}, got {args.seeds}")
    seeds = list(range(args.seed, args.seed + args.seeds))
    runs = [round_trip_run(s, args.n, args.m_strings, args.l, threshold=args.threshold,
                           max_n=args.max_n, extra_shift_rounds=args.k) for s in seeds]
    mismatches = sum(not r["ok"] for r in runs)
    return Result({"N": args.n, "k": args.k, "m": args.m_strings, "threshold": args.threshold,
                   "max_n": args.max_n, "seeds": seeds, "mismatches": mismatches,
                   "runs": runs},
                  [f"mismatches: {mismatches}",
                   f"member_rho_range=[{min(r['member_rho_min'] for r in runs):.6g},"
                   f"{max(r['member_rho_max'] for r in runs):.6g}]",
                   f"nonmember_abs_max={max(r['nonmember_abs_max'] for r in runs):.6g}"],
                  ok=mismatches == 0)


def _cmd_holographic(args: argparse.Namespace) -> Result:
    sys_ = build_reference_system(args.seed, args.n, args.k)
    if args.strings is None:  # before the 2**n_eff singleton sets are built
        _check_capacity(sys_.n_eff, args.max_n)
    string_sets = ([[int_to_bits(v, sys_.n_eff)] for v in range(1 << sys_.n_eff)]
                   if args.strings is None else [[parse_bits(s) for s in args.strings.split(",")]])
    runs = [holographic_demo(sys_, strings, args.d, args.l,
                             threshold=args.threshold, max_n=args.max_n)
            for strings in string_sets]
    return Result({"N": args.n, "k": args.k, "d": args.d,
                   "ok": all(r["ok"] for r in runs), "runs": runs},
                  [f"input={{{','.join(r['input'])}}} decoded={{{','.join(r['decoded'])}}}"
                   f" expected={{{','.join(r['expected'])}}} ok={str(r['ok']).lower()}"
                   for r in runs],
                  table=(("input", "candidate", "rho"),
                         # a run's lines in one join: its input cell quoted once, then the
                         # label and %.6g rho columns (bit strings hold no "%")
                         ("".join(map((_cell(",".join(r["input"])) + ",%s,%.6g\n").__mod__,
                                      zip(c.labels, c.rhos)))
                          for r in runs if (c := r.get("correlations")))))


def _cmd_noncommute(args: argparse.Namespace) -> Result:
    if args.i is None and args.b is not None:
        raise ValueError("--b needs --i: without --i every (i, b) pair is run")
    sys_ = build_reference_system(args.seed, args.n, args.k)
    if args.x is None:  # before the n_eff-long all-zeros string is built
        _check_listed(sys_.n_eff)
    x = encode_string(sys_, (0,) * sys_.n_eff if args.x is None else parse_bits(args.x))
    pairs = [(args.i, args.b or 0)] if args.i is not None else sys_.pairs()
    runs = [noncommute_demo(sys_, x, i, b, args.d, args.l) for i, b in pairs]
    columns = ("i", "b", "cross_rho", "self_rho_ab", "self_rho_ba")
    return Result({"N": args.n, "k": args.k, "d": args.d, "L": args.l,
                   "ok": all(r["ok"] for r in runs), "runs": runs},
                  [f"i={r['i']} b={r['b']} cross_rho={r['cross_rho']:.6g}"
                   f" structurally_equal={str(r['structurally_equal']).lower()}"
                   f" ok={str(r['ok']).lower()}" for r in runs],
                  table=(columns, ([r[c] for c in columns] for r in runs)))


def _cmd_randshift(args: argparse.Namespace) -> Result:
    sys_ = build_reference_system(args.seed, args.n, args.k)
    assignment = ShiftAssignment.draw(sys_, args.assign_seed, args.r_max,
                                      distinct=not args.repeats)
    report = random_shift_demo(sys_, assignment, args.i, args.b, args.l,
                               global_shift=args.global_d)
    return Result({"assign_seed": args.assign_seed, **report},
                  [f"r={report['r']} uncompensated_rho={report['uncompensated_rho']:.6g}"
                   f" compensated_rho={report['compensated_rho']:.6g}",
                   f"global_shift={report['global_shift']}"
                   f" restored_count={report['restored_count']}"],
                  table=(("reference", "r"), report["assignment"].items()))


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 bytes, with no newline translation."""
    with open(path, "wb") as f:
        f.write(text.encode())


def _emit(args: argparse.Namespace, result: Result) -> int:
    """The one place the CLI writes output; returns the exit status.
    Files are written first, so a failed write leaves stdout empty."""
    body = result.body
    if body is None and (args.out is not None or result.body_on_stdout):
        body = _json({"schema": SCHEMA_VERSION, "subcommand": args.command,
                      **result.report}) + "\n"
    if args.out is not None:
        _write(args.out, body)
    if result.table and args.csv is not None:
        _write(args.csv, _csv(*result.table))
    if result.body_on_stdout and args.out is None:
        sys.stdout.write(body)
    else:
        verdict = [f"ok: {str(result.report['ok']).lower()}"] if "ok" in result.report else []
        print("\n".join(result.summary + verdict))
    return 0 if result.ok and result.report.get("ok", True) else 1


def _experiment(add, name: str, func, help: str, *, n: int | None = None,
                length: int | None = None, readout: bool = False,
                csv: str = "") -> argparse.ArgumentParser:
    """Add an experiment's subparser with its handler and shared flags;
    ``--l`` defaults to the readout window policy when ``length`` is None."""
    p = add(name, help, func)
    p.add_argument("--n", type=int, required=n is None, default=n, help="noise bits N")
    if readout:
        p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    if csv:
        p.add_argument("--csv", help=csv)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="noise source seed (default %(default)s)")
    p.add_argument("--k", type=int, default=0,
                   help="expansion rounds (default %(default)s)")
    p.add_argument("--l", type=int, default=length,
                   help="window length in samples (default %(default)s)" if length else
                        "window length (default: policy max(1e4, 400*(m-1)))")
    p.add_argument("--out", help="write the full JSON report here")
    return p


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and each subcommand's parser by name, built once per
    process and shared by every call to :func:`main`; callers must not modify them."""
    parser = argparse.ArgumentParser(
        prog="noisebits",
        description="Noise-based logic experiments on a single telegraph wave.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, help: str, func) -> argparse.ArgumentParser:
        commands[name] = p = sub.add_parser(name, help=help)
        p.set_defaults(command=name, func=func)  # what the top-level parser would set
        return p

    p = add("capacity", "exact hyperspace capacity of one wire", _cmd_capacity)
    p.add_argument("--n", type=int, required=True, help="noise bits N")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=int, help="expansion shift steps M = 2kN")
    group.add_argument("--k", type=int, default=0, help="expansion rounds k")
    p.add_argument("--out", help="write the full JSON report here")

    p = _experiment(add, "ortho", _cmd_ortho, "pairwise reference correlations",
                    length=1_000_000)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = _experiment(add, "encode-decode", _cmd_encode_decode,
                    "random-set round trip through one wire", readout=True)
    p.add_argument("--m-strings", type=int, default=5,
                   help="strings per set (default %(default)s)")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of consecutive seeds to run (default %(default)s)")

    p = _experiment(add, "holographic", _cmd_holographic,
                    "decode a shifted superposition against unshifted references",
                    readout=True, csv="also write a correlations CSV here")
    p.add_argument("--d", type=int, default=1, help="whole-signal shift (periods)")
    p.add_argument("--strings",
                   help="comma-separated bit strings to encode; default sweeps "
                        "every singleton")

    p = _experiment(add, "noncommute", _cmd_noncommute,
                    "multiply-then-shift vs shift-then-multiply", n=2,
                    length=1_000_000, csv="also write a correlations CSV here")
    p.add_argument("--i", type=int, help="noise bit index (default: all pairs)")
    p.add_argument("--b", type=int, choices=(0, 1),
                   help="bit value, used together with --i (default 0)")
    p.add_argument("--d", type=int, default=1, help="shift step (periods)")
    p.add_argument("--x", help="input product string bits (default all zeros)")

    p = _experiment(add, "randshift", _cmd_randshift,
                    "fixed random shifts: hiding and restoring references", n=3,
                    length=1_000_000, csv="also write the assignment as CSV here")
    p.add_argument("--assign-seed", type=int, default=7,
                   help="seed of the shift assignment draw (default %(default)s)")
    p.add_argument("--r-max", type=int, default=None,
                   help="largest drawable shift (default 2 * n_eff)")
    p.add_argument("--repeats", action="store_true",
                   help="allow repeated shift values in the assignment")
    p.add_argument("--i", type=int, default=1, help="noise bit index to probe")
    p.add_argument("--b", type=int, choices=(0, 1), default=0, help="bit value")
    p.add_argument("--global-d", type=int, default=None,
                   help="global inverse-shift guess (default: the probed r)")

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The CLI's top-level parser, built once per process; callers must not modify it."""
    return _parsers()[0]


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: when ``argv[0]`` names a subcommand, one pass
    of its parser over the rest; anything else goes to the top-level parser."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if rest:  # reported by the top-level parser, as its parse_args reports them
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return _emit(args, args.func(args))
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
