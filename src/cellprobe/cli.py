"""Command-line entry point for the cell-probe workbench.

One command per invocation; every report is reproducible byte-for-byte for
identical inputs.  Each command is one row of ``COMMANDS``: its name, help,
arguments, the flags each of its modes needs, and a runner that returns the
report and whether every guarantee it reports held.  ``main`` alone parses
(with the one parser a process builds), checks the mode flags, renders the
report in ``--format`` and owns the exit codes: 0 success, 1 a reported
guarantee failure (verification counterexample, stuck stretcher window,
failed lemma bound, truncated pipeline), 2 usage or parameter errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .bits import bits_to_str, parse_bits
from .brackets import catalan_count, match_index, unmatched_close_prob, unmatched_open_prob
from .core import DOMAIN_BAL, check_budget, domain_of, redundancy, verify_scheme
from .entropy_sum import entropy_sum_analysis, entropy_sum_analysis_uniform
from .errors import CellProbeError, DomainError
from .infotheory import Distribution, conditional_entropy, entropy, good_blocks, good_cells
from .pipeline import run_pipeline
from .schemeio import load_scheme, save_scheme
from .schemes import build_builtin
from .separator import find_separator, find_separator_brackets
from .stretcher import find_stretcher
from .textfmt import LongFraction, fmt, fmt_short, machine_value

OUTDIR_ENV = "CELLPROBE_OUTDIR"

__all__ = ["main", "main_entry", "OUTDIR_ENV"]


def _num(text: str) -> Fraction:
    # Fraction expands a decimal exponent in full, so 1e99999999 would never return
    exponent = re.search(r"[eE][+-]?0*([0-9_]*)", text)
    if exponent and len(exponent.group(1).replace("_", "")) > 4:
        raise DomainError(f"decimal exponent past 4 digits: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError(f"not a number: {text!r}") from err


def _csv_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(tk) for tk in text.split(","))
    except ValueError as err:
        raise DomainError(f"not a comma-separated integer list: {text!r}") from err


def _read_distribution(path: str) -> Distribution:
    probs: dict[tuple, Fraction] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"bad distribution line: {raw.rstrip()!r}")
            outcome = _csv_ints(parts[0])
            probs[outcome] = probs.get(outcome, Fraction(0)) + _num(parts[1])
    return Distribution(probs)


def _read_bitstrings(path: str) -> tuple:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append(parse_bits(line))
    return tuple(rows)


def _resolve_out(name: str) -> str:
    # an absolute name stands as it is: join drops every part before it
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), name)


def _cmd_verify(args):
    report = verify_scheme(load_scheme(args.scheme), max_inputs=args.max_inputs)
    pairs = [
        ("status", report.status),
        ("inputs_checked", report.inputs_checked),
        ("answers_checked", report.checked),
        ("failures", report.failures),
    ]
    if report.counterexample is not None:
        ce = report.counterexample
        pairs += [
            ("counterexample_x", bits_to_str(ce.x)),
            ("counterexample_i", ce.i),
            ("counterexample_got", ce.got),
            ("counterexample_expected", ce.expected),
        ]
    return pairs, report.ok


def _cmd_redundancy(args):
    scheme = load_scheme(args.scheme)
    return [
        ("n", scheme.n),
        ("u", scheme.u),
        ("q", scheme.q),
        ("alphabet", scheme.cell_alphabet),
        ("domain_size", scheme.domain_size()),
        ("redundancy_bits", redundancy(scheme)),
    ], True


def _cmd_separator(args):
    if args.bracket_c is not None and args.gap is not None:
        raise DomainError("separator takes --gap or --bracket-c, not both")
    scheme = load_scheme(args.scheme)
    if args.bracket_c is not None:
        res = find_separator_brackets(scheme.probes, int(args.bracket_c))
        checks = [*res.checks, ("v_nonempty", res.v_nonempty)]
        return [
            ("mode", "brackets"),
            ("n", res.n),
            ("q", res.q),
            ("c", res.c),
            ("a", res.a),
            ("b", res.b),
            ("w", res.w),
            ("v", res.V),
            ("b_cells", tuple(sorted(res.B))),
            ("stages_run", res.stages_run),
            ("size_floor_ok", res.size_floor_ok),
            ("precondition_ok", res.precondition_ok),
            *res.stage_log,
            *((f"check.{k}", ok) for k, ok in checks),
        ], True
    if args.gap is None:
        raise DomainError("separator needs --gap or --bracket-c")
    res = find_separator(scheme.probes, _num(args.gap))
    pairs = [
        ("mode", "prefix"),
        ("n", res.n),
        ("q", res.q),
        ("g", res.gap),
        ("k0", res.k0),
        ("w", res.w),
        ("v", res.V),
        ("b_cells", tuple(sorted(res.B))),
        ("stages_run", res.stages_run),
    ]
    for entry in res.log:
        prefix = f"stage.{entry.stage}"
        pairs += [
            (f"{prefix}.disjoint_found", entry.disjoint_found),
            (f"{prefix}.threshold", entry.threshold),
            (f"{prefix}.success", entry.success),
            (f"{prefix}.b_size", entry.b_size),
        ]
    pairs += [(f"check.{k}", ok) for k, ok in res.checks]
    return pairs, all(ok for _, ok in res.checks)


def _cmd_stretcher(args):
    res = find_stretcher(_csv_ints(args.indices), args.n, _num(args.c))
    if res.stuck_at is not None:
        return [
            ("status", "stuck"),
            ("stuck_at", res.stuck_at),
            ("window", res.window),
            ("pairs_found", len(res.pairs)),
            ("v_prime", res.v_prime),
        ], False
    return [
        ("status", "ok"),
        ("n", res.n),
        ("c", res.c),
        ("t", res.t),
        ("w", res.w),
        ("w_prime", res.w_prime),
        ("v_prime", res.v_prime),
        ("guarantee", res.guarantee),
        ("guarantee_ok", res.guarantee_ok),
    ], res.guarantee_ok


def _cmd_entropy(args):
    dist = _read_distribution(args.dist)
    pairs = [("arity", dist.arity), ("support", len(dist))]
    if args.target is not None:
        target = _csv_ints(args.target)
        given = _csv_ints(args.given) if args.given is not None else ()
        pairs.append(("conditional_entropy", conditional_entropy(dist, target, given)))
    else:
        pairs.append(("entropy", entropy(dist)))
    return pairs, True


def _cmd_goodset(args):
    if args.mode == "cells":
        dist = _read_distribution(args.dist)
        report = good_cells(dist, args.q, _num(args.eta), args.alphabet)
    else:
        x_set = _read_bitstrings(args.x)
        report = good_blocks(x_set, _csv_ints(args.sizes), _num(args.eps))
    return [
        ("kind", report.kind),
        ("good", report.good),
        ("good_count", len(report.good)),
        ("deficiency_bits", report.deficiency),
        ("parameter", report.parameter),
        ("scores", report.scores),
        ("size_bound", report.size_bound),
        ("size_bound_ok", report.size_bound_ok),
    ], report.size_bound_ok


def _cmd_entropy_sum(args):
    c = _num(args.c)
    if args.uniform is not None:
        # the exact answers have denominators up to 2^j, and Python refuses to
        # print an int past its digit limit (0 for none; no limit before 3.10.7)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = int(args.j * math.log10(2)) + 1
        if limit and digits > limit:
            raise DomainError(f"2^{args.j} has {digits} digits, past the {limit}-digit limit "
                              f"on printing an int")
        wit = entropy_sum_analysis_uniform(args.uniform, args.p, args.i, args.j, c)
    else:
        if args.dist is None:
            raise DomainError("entropy-sum needs --dist or --uniform")
        dist = _read_distribution(args.dist)
        wit = entropy_sum_analysis(dist, args.p, args.i, args.j, c)
    names = ("p", "i", "j", "ell", "d", "hypothesis_ok", "a_size", "pr_A", "t", "s", "s_prime",
             "s_exact", "P_upper", "P_lower", "P_joint", "block_bound", "holds_upper",
             "holds_lower", "holds_joint", "holds")
    return [(name, getattr(wit, name)) for name in names], wit.holds and wit.hypothesis_ok


def _cmd_brackets(args):
    if args.mode == "count":
        # the floor 2^(n/2 - 1) refuses n before the count, which takes seconds at n = 10^6
        limit, k = getattr(sys, "get_int_max_str_digits", lambda: 0)(), args.n // 2 - 1
        if limit and not args.n % 2 and k * math.log10(2) >= limit:
            raise DomainError(f"the count of balanced strings of length {args.n}, at least "
                              f"2^{k}, has more digits than Python prints")
        count = catalan_count(args.n)
        return [("count", count)] if args.format == "machine" else fmt(count) + "\n", True
    if args.mode == "match":
        return [("match", match_index(parse_bits(args.x), args.i))], True
    if args.mode == "walk":
        # the exact probability has a 2^d denominator: printed in full at any d
        p_open = LongFraction(unmatched_open_prob(args.d))
        return [
            ("d", args.d),
            ("open_prob", p_open),
            ("close_prob", LongFraction(unmatched_close_prob(args.d))),
            ("sqrt_d_times_prob", math.sqrt(args.d) * float(p_open)),
        ], True
    # at least 2^(n/2 - 1) strings: a large n is refused before its exact count, which
    # takes seconds at n = 10^6
    check_budget(2 ** max(args.n // 2 - 1, 0) * (args.n + 1),
                 f"listing the balanced strings of length {args.n}")
    domain = domain_of(DOMAIN_BAL, args.n)
    # one Python string per row, and the text they are joined into
    check_budget(domain.size * (sys.getsizeof("0" * args.n) + args.n + 1),
                 f"listing the {fmt_short(domain.size)} balanced strings of length {args.n}")
    lines = np.full((domain.size, args.n + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = domain.rows(0, domain.size) + ord("0")
    text = lines.tobytes().decode("ascii")
    if args.format == "machine":
        return [(f"bal.{idx}", s) for idx, s in enumerate(text.splitlines())], True
    return text, True


def _cmd_pipeline(args):
    report = run_pipeline(load_scheme(args.scheme), _num(args.c))
    text = report.render_machine() if args.format == "machine" else report.render_text()
    if args.out is None:
        return text, report.completed
    path = _resolve_out(args.out)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return f"written: {path}\n", report.completed


def _cmd_build_scheme(args):
    params: dict[str, int] = {"n": args.n}
    if args.alphabet is not None:
        params["cell_alphabet"] = args.alphabet
    for item in args.param or ():
        if "=" not in item:
            raise DomainError(f"bad --param (need key=value): {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise DomainError(
                f"--param {key}: --n, --alphabet or an earlier --param sets it already")
        try:
            params[key] = int(value)
        except ValueError as err:
            raise DomainError(f"bad --param value: {item!r}") from err
    scheme = build_builtin(args.name, **params)
    path = _resolve_out(args.out if args.out is not None else f"{args.name}_n{args.n}.scm")
    save_scheme(scheme, path)
    return [
        ("written", path),
        ("n", scheme.n),
        ("u", scheme.u),
        ("q", scheme.q),
        ("alphabet", scheme.cell_alphabet),
        ("kind", scheme.kind),
    ], True


class _Command(NamedTuple):
    name: str
    help: str
    arguments: tuple   # (flag, add_argument keywords) in --help order, after --format
    run: Callable      # parsed args -> (report, ok): (key, value) pairs or rendered text
    modes: tuple = ()  # (mode, the flags that mode needs)


COMMANDS = (
    _Command("verify", "check a scheme against the exact query oracle", (
        ("--scheme", dict(required=True)),
        ("--max-inputs", dict(type=int)),
    ), _cmd_verify),
    _Command("redundancy", "bits of storage above the information minimum", (
        ("--scheme", dict(required=True)),
    ), _cmd_redundancy),
    _Command("separator", "find disjoint probe sets outside a small blocked-cell set", (
        ("--scheme", dict(required=True)),
        ("--gap", dict(help="gap factor g (prefix mode)")),
        ("--bracket-c", dict(type=int, help="run the bracket schedule with this c")),
    ), _cmd_separator),
    _Command("stretcher", "select index pairs with geometrically spread gaps", (
        ("--indices", dict(required=True, help="ascending, comma-separated")),
        ("--n", dict(type=int, required=True)),
        ("--c", dict(required=True)),
    ), _cmd_stretcher),
    _Command("entropy", "entropy of a distribution file", (
        ("--dist", dict(required=True)),
        ("--target", dict(help="coordinates, comma-separated, 0-based")),
        ("--given", dict(help="conditioning coordinates")),
    ), _cmd_entropy),
    _Command("goodset", "near-uniform cells or high-entropy blocks", (
        ("mode", dict(choices=("cells", "blocks"))),
        ("--dist", dict(help="distribution file (cells mode)")),
        ("--q", dict(type=int, help="subset size (cells mode)")),
        ("--eta", dict(help="closeness bound (cells mode)")),
        ("--alphabet", dict(type=int, help="cell alphabet (cells mode)")),
        ("--x", dict(help="bitstring-set file (blocks mode)")),
        ("--sizes", dict(help="block sizes, comma-separated (blocks mode)")),
        ("--eps", dict(help="entropy slack (blocks mode)")),
    ), _cmd_goodset, (
        ("cells", ("--dist", "--q", "--eta", "--alphabet")),
        ("blocks", ("--x", "--sizes", "--eps")),
    )),
    _Command("entropy-sum", "threshold analysis for a block between two indices", (
        ("--dist", dict()),
        ("--uniform", dict(type=int, help="use the uniform distribution on this many bits")),
        ("--p", dict(type=int, required=True)),
        ("--i", dict(type=int, required=True)),
        ("--j", dict(type=int, required=True)),
        ("--c", dict(required=True)),
    ), _cmd_entropy_sum),
    _Command("brackets", "balanced-bracket utilities", (
        ("mode", dict(choices=("count", "match", "walk", "list"))),
        ("--n", dict(type=int)),
        ("--x", dict(help="bracket string (match mode)")),
        ("--i", dict(type=int, help="1-based position (match mode)")),
        ("--d", dict(type=int, help="window length (walk mode)")),
    ), _cmd_brackets, (
        ("count", ("--n",)),
        ("match", ("--x", "--i")),
        ("walk", ("--d",)),
        ("list", ("--n",)),
    )),
    _Command("pipeline", "run the full adversary argument against a scheme", (
        ("--scheme", dict(required=True)),
        ("--c", dict(required=True)),
        ("--out", dict(help="write the report to this file")),
    ), _cmd_pipeline),
    _Command("build-scheme", "emit a reference scheme to a file", (
        ("--name", dict(required=True)),
        ("--n", dict(type=int, required=True)),
        ("--alphabet", dict(type=int)),
        ("--param", dict(action="append", metavar="KEY=VALUE")),
        ("--out", dict()),
    ), _cmd_build_scheme),
)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every command in ``COMMANDS``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cellprobe",
        description="workbench for non-adaptive cell-probe schemes "
                    "(prefix sums and bracket matching)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for row in COMMANDS:
        p = sub.add_parser(row.name, help=row.help)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        for flag, keywords in row.arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(row=row)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        needs = dict(args.row.modes).get(getattr(args, "mode", None), ())
        missing = [flag for flag in needs if getattr(args, flag[2:].replace("-", "_")) is None]
        if missing:
            raise DomainError(f"{args.command} {args.mode} needs {', '.join(missing)}")
        report, ok = args.row.run(args)
        if not isinstance(report, str):
            show, sep = (machine_value, "=") if args.format == "machine" else (fmt, ": ")
            report = "".join(f"{key}{sep}{show(value)}\n" for key, value in report)
        sys.stdout.write(report)
    except (CellProbeError, OSError, UnicodeDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    return 0 if ok else 1


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
