"""Command-line entry point for the cell-probe workbench.

One command per invocation; every report is reproducible byte-for-byte for
identical inputs.  Exit codes: 0 success, 1 a reported guarantee failure
(verification counterexample, stuck stretcher window, failed lemma bound,
truncated pipeline), 2 usage or parameter errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction

from .bits import bits_to_str, parse_bits
from .brackets import catalan_count, enumerate_bal, match_index, unmatched_close_prob, unmatched_open_prob
from .core import KIND_SUM, redundancy, verify_scheme
from .entropy_sum import entropy_sum_analysis, entropy_sum_analysis_uniform
from .errors import CellProbeError, DomainError
from .infotheory import Distribution, conditional_entropy, entropy, good_blocks, good_cells
from .pipeline import run_pipeline
from .schemeio import load_scheme, save_scheme
from .schemes import build_builtin
from .separator import find_separator, find_separator_brackets
from .stretcher import StretcherWindowError, find_stretcher
from .textfmt import fmt, machine_value

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
    if os.path.isabs(name):
        return name
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), name)


def _emit(pairs, fmt_kind: str, stream) -> None:
    for key, value in pairs:
        if fmt_kind == "machine":
            stream.write(f"{key}={machine_value(value)}\n")
        else:
            stream.write(f"{key}: {fmt(value)}\n")


def _cmd_verify(args) -> int:
    scheme = load_scheme(args.scheme)
    report = verify_scheme(scheme, max_inputs=args.max_inputs)
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
    _emit(pairs, args.format, sys.stdout)
    return 0 if report.ok else 1


def _cmd_redundancy(args) -> int:
    scheme = load_scheme(args.scheme)
    pairs = [
        ("n", scheme.n),
        ("u", scheme.u),
        ("q", scheme.q),
        ("alphabet", scheme.cell_alphabet),
        ("domain_size", scheme.domain_size()),
        ("redundancy_bits", redundancy(scheme)),
    ]
    _emit(pairs, args.format, sys.stdout)
    return 0


def _cmd_separator(args) -> int:
    scheme = load_scheme(args.scheme)
    if args.bracket_c is not None:
        res = find_separator_brackets(scheme.probes, int(args.bracket_c),
                                      require_preconditions=not args.relax)
        checks = [*res.checks, ("v_nonempty", res.w > 0)]
        pairs = [
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
        ]
    else:
        if args.gap is None:
            raise DomainError("separator needs --gap or --bracket-c")
        res = find_separator(scheme.probes, _num(args.gap))
        checks = list(res.checks)
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
    pairs += [(f"check.{k}", ok) for k, ok in checks]
    _emit(pairs, args.format, sys.stdout)
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_stretcher(args) -> int:
    indices = _csv_ints(args.indices)
    try:
        res = find_stretcher(indices, args.n, _num(args.c))
    except StretcherWindowError as err:
        pairs = [
            ("status", "stuck"),
            ("stuck_at", err.s),
            ("window", tuple(err.window)),
            ("pairs_found", len(err.pairs_so_far)),
            ("v_prime", tuple(x for p in err.pairs_so_far for x in (p.left, p.right))),
        ]
        _emit(pairs, args.format, sys.stdout)
        return 1
    pairs = [
        ("status", "ok"),
        ("n", res.n),
        ("c", res.c),
        ("t", res.t),
        ("w", res.w),
        ("w_prime", res.w_prime),
        ("v_prime", res.v_prime),
        ("guarantee", res.guarantee),
        ("guarantee_ok", res.guarantee_ok),
    ]
    _emit(pairs, args.format, sys.stdout)
    return 0 if res.guarantee_ok else 1


def _cmd_entropy(args) -> int:
    dist = _read_distribution(args.dist)
    pairs = [("arity", dist.arity), ("support", len(dist))]
    if args.target is not None:
        target = _csv_ints(args.target)
        given = _csv_ints(args.given) if args.given is not None else ()
        pairs.append(("conditional_entropy", conditional_entropy(dist, target, given)))
    else:
        pairs.append(("entropy", entropy(dist)))
    _emit(pairs, args.format, sys.stdout)
    return 0


def _cmd_goodset(args) -> int:
    if args.mode == "cells":
        dist = _read_distribution(args.dist)
        report = good_cells(dist, args.q, _num(args.eta), args.alphabet)
    else:
        x_set = _read_bitstrings(args.x)
        report = good_blocks(x_set, _csv_ints(args.sizes), _num(args.eps))
    pairs = [
        ("kind", report.kind),
        ("good", report.good),
        ("good_count", len(report.good)),
        ("deficiency_bits", report.deficiency),
        ("parameter", report.parameter),
        ("scores", report.scores),
        ("size_bound", report.size_bound),
        ("size_bound_ok", report.size_bound_ok),
    ]
    _emit(pairs, args.format, sys.stdout)
    return 0 if report.size_bound_ok else 1


def _cmd_entropy_sum(args) -> int:
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
    _emit([(name, getattr(wit, name)) for name in names], args.format, sys.stdout)
    return 0 if (wit.holds and wit.hypothesis_ok) else 1


def _cmd_brackets(args) -> int:
    if args.mode == "count":
        if args.format == "machine":
            sys.stdout.write(f"count={catalan_count(args.n)}\n")
        else:
            sys.stdout.write(f"{catalan_count(args.n)}\n")
        return 0
    if args.mode == "match":
        partner = match_index(parse_bits(args.x), args.i)
        _emit([("match", partner)], args.format, sys.stdout)
        return 0
    if args.mode == "walk":
        p_open = unmatched_open_prob(args.d)
        p_close = unmatched_close_prob(args.d)
        pairs = [
            ("d", args.d),
            ("open_prob", p_open),
            ("close_prob", p_close),
            ("sqrt_d_times_prob", math.sqrt(args.d) * float(p_open)),
        ]
        _emit(pairs, args.format, sys.stdout)
        return 0
    strings = enumerate_bal(args.n)
    if args.format == "machine":
        for idx, s in enumerate(strings):
            sys.stdout.write(f"bal.{idx}={bits_to_str(s)}\n")
    else:
        for s in strings:
            sys.stdout.write(bits_to_str(s) + "\n")
    return 0


def _cmd_pipeline(args) -> int:
    scheme = load_scheme(args.scheme)
    report = run_pipeline(scheme, _num(args.c))
    text = report.render_machine() if args.format == "machine" else report.render_text()
    if args.out is not None:
        path = _resolve_out(args.out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stdout.write(f"written: {path}\n")
    else:
        sys.stdout.write(text)
    return 0 if report.completed else 1


def _cmd_build_scheme(args) -> int:
    params: dict[str, int] = {"n": args.n}
    if args.alphabet is not None:
        params["cell_alphabet"] = args.alphabet
    for item in args.param or ():
        if "=" not in item:
            raise DomainError(f"bad --param (need key=value): {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = int(value)
        except ValueError as err:
            raise DomainError(f"bad --param value: {item!r}") from err
    scheme = build_builtin(args.name, **params)
    out = args.out if args.out is not None else f"{args.name}_n{args.n}.scm"
    path = _resolve_out(out)
    save_scheme(scheme, path)
    pairs = [
        ("written", path),
        ("n", scheme.n),
        ("u", scheme.u),
        ("q", scheme.q),
        ("alphabet", scheme.cell_alphabet),
        ("kind", scheme.kind),
    ]
    _emit(pairs, args.format, sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellprobe",
        description="workbench for non-adaptive cell-probe schemes "
                    "(prefix sums and bracket matching)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        return p

    p = add("verify", "check a scheme against the exact query oracle")
    p.add_argument("--scheme", required=True)
    p.add_argument("--max-inputs", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = add("redundancy", "bits of storage above the information minimum")
    p.add_argument("--scheme", required=True)
    p.set_defaults(func=_cmd_redundancy)

    p = add("separator", "find disjoint probe sets outside a small blocked-cell set")
    p.add_argument("--scheme", required=True)
    p.add_argument("--gap", default=None, help="gap factor g (prefix mode)")
    p.add_argument("--bracket-c", type=int, default=None,
                   help="run the bracket schedule with this c")
    p.add_argument("--relax", action="store_true",
                   help="skip the bracket-mode size preconditions")
    p.set_defaults(func=_cmd_separator)

    p = add("stretcher", "select index pairs with geometrically spread gaps")
    p.add_argument("--indices", required=True, help="ascending, comma-separated")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=_cmd_stretcher)

    p = add("entropy", "entropy of a distribution file")
    p.add_argument("--dist", required=True)
    p.add_argument("--target", default=None, help="coordinates, comma-separated, 0-based")
    p.add_argument("--given", default=None, help="conditioning coordinates")
    p.set_defaults(func=_cmd_entropy)

    p = add("goodset", "near-uniform cells or high-entropy blocks")
    p.add_argument("mode", choices=("cells", "blocks"))
    p.add_argument("--dist", default=None, help="distribution file (cells mode)")
    p.add_argument("--q", type=int, default=None, help="subset size (cells mode)")
    p.add_argument("--eta", default=None, help="closeness bound (cells mode)")
    p.add_argument("--alphabet", type=int, default=None, help="cell alphabet (cells mode)")
    p.add_argument("--x", default=None, help="bitstring-set file (blocks mode)")
    p.add_argument("--sizes", default=None, help="block sizes, comma-separated (blocks mode)")
    p.add_argument("--eps", default=None, help="entropy slack (blocks mode)")
    p.set_defaults(func=_cmd_goodset)

    p = add("entropy-sum", "threshold analysis for a block between two indices")
    p.add_argument("--dist", default=None)
    p.add_argument("--uniform", type=int, default=None,
                   help="use the uniform distribution on this many bits")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=_cmd_entropy_sum)

    p = add("brackets", "balanced-bracket utilities")
    p.add_argument("mode", choices=("count", "match", "walk", "list"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", default=None, help="bracket string (match mode)")
    p.add_argument("--i", type=int, default=None, help="1-based position (match mode)")
    p.add_argument("--d", type=int, default=None, help="window length (walk mode)")
    p.set_defaults(func=_cmd_brackets)

    p = add("pipeline", "run the full adversary argument against a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--out", default=None, help="write the report to this file")
    p.set_defaults(func=_cmd_pipeline)

    p = add("build-scheme", "emit a reference scheme to a file")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=None)
    p.add_argument("--param", action="append", default=None, metavar="KEY=VALUE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_scheme)

    return parser


def _check_mode_flags(args) -> None:
    if args.command == "goodset":
        if args.mode == "cells":
            missing = [f for f, v in (("--dist", args.dist), ("--q", args.q),
                                      ("--eta", args.eta), ("--alphabet", args.alphabet))
                       if v is None]
        else:
            missing = [f for f, v in (("--x", args.x), ("--sizes", args.sizes),
                                      ("--eps", args.eps)) if v is None]
        if missing:
            raise DomainError(f"goodset {args.mode} needs {', '.join(missing)}")
    if args.command == "brackets":
        needed = {"count": ("--n", args.n), "list": ("--n", args.n),
                  "walk": ("--d", args.d)}.get(args.mode)
        if needed and needed[1] is None:
            raise DomainError(f"brackets {args.mode} needs {needed[0]}")
        if args.mode == "match" and (args.x is None or args.i is None):
            raise DomainError("brackets match needs --x and --i")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_mode_flags(args)
        return args.func(args)
    except (CellProbeError, OSError, UnicodeDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
